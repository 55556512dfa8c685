import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isosym.errors import DimensionMismatch
from isosym.linalg import adjoint, as_matrix, fro_norm, kron, matrix_rank


def _random(dim, seed, rect=None):
    rng = np.random.default_rng(seed)
    shape = (dim, rect or dim)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _reference_r1():
    r1 = np.zeros((3, 3), dtype=complex)
    r1[1, 0] = 1.0
    return r1


def test_adjoint_examples():
    assert np.array_equal(adjoint(np.array([[1j]])), np.array([[-1j]]))
    assert np.array_equal(adjoint(np.eye(3)), np.eye(3))
    expect = np.zeros((3, 3))
    expect[0, 1] = 1.0
    assert np.array_equal(adjoint(_reference_r1()), expect)


@given(st.integers(0, 10 ** 6), st.integers(1, 6), st.integers(1, 6))
@settings(max_examples=40)
def test_adjoint_involution_bit_exact(seed, rows, cols):
    m = _random(rows, seed, rect=cols)
    assert np.array_equal(adjoint(adjoint(m)), m)


def test_kron_shape_and_scalar():
    a = _random(3, 1)
    assert kron(np.eye(2), a).shape == (6, 6)
    b = _random(4, 2)
    assert np.allclose(kron(np.array([[2.0]]), b), 2.0 * b)


def _signed_zeros():
    z = np.array([[-0.0, 1.0], [0.0, -0.0]], dtype=complex)
    z[0, 1] = complex(-0.0, 2.0)
    z[1, 0] = complex(3.0, -0.0)
    return z


@pytest.mark.parametrize("a, b", [
    (_random(3, 1), np.eye(2, dtype=complex)),
    (np.eye(2, dtype=complex), _random(3, 1)),
    (_random(2, 3).real, _random(3, 4)),
    (_random(2, 5, rect=3), _random(4, 6, rect=1)),
    (np.array([[2.5 - 1j]]), _random(3, 7)),
    (_random(3, 8), np.array([[-0.5j]])),
    (np.array([[1j]]), np.array([[-0.0]])),
    (_signed_zeros(), _signed_zeros()),
    (_signed_zeros(), np.array([[-1.0, 0.0, 2.0]])),
], ids=["complex-identity", "identity-complex", "real-complex", "non-square",
        "1x1-left", "1x1-right", "1x1-both", "signed-zeros",
        "signed-zeros-real-row"])
def test_kron_is_np_kron_bit_for_bit(a, b):
    out, expect = kron(a, b), np.kron(a, b)
    assert out.shape == expect.shape
    assert out.dtype == expect.dtype
    assert out.tobytes() == expect.tobytes()


@pytest.mark.parametrize("a, b", [
    (np.ones(2), np.eye(2)),
    (np.eye(2), np.ones((2, 2, 2))),
    (np.array(1.0), np.eye(2)),
], ids=["1-D", "3-D", "0-D"])
def test_kron_takes_matrices_only(a, b):
    with pytest.raises(DimensionMismatch):
        kron(a, b)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=25)
def test_kron_mixed_product(seed):
    rng = np.random.default_rng(seed)
    a, b, c, d = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                  for _ in range(4))
    lhs = kron(a, b) @ kron(c, d)
    rhs = kron(a @ c, b @ d)
    assert np.linalg.norm(lhs - rhs) <= 1e-12 * (1 + np.linalg.norm(rhs))


def test_fro_norm_values():
    assert fro_norm(np.zeros((3, 3))) == 0.0
    assert fro_norm(np.eye(3)) == pytest.approx(np.sqrt(3))
    assert fro_norm(np.diag([1.0, 0.0, 0.0])) == 1.0


def _fro_norm_inputs():
    rng = np.random.default_rng(11)
    z = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    wide = _random(64, 12) * np.exp(rng.uniform(-5, 5, (64, 64)))
    return {"complex": z, "complex-transposed": z.T,
            "complex-strided": z[::2, 1::2],
            "complex-fortran": np.asfortranarray(z),
            "complex-stack": rng.standard_normal((3, 4, 4)) + 0j,
            "complex-empty": np.zeros((0, 0), dtype=np.complex128),
            "complex-wide-range": wide, "complex-wide-range-strided": wide[::3],
            "complex-huge": z * 1e160, "complex-tiny": z * 1e-170,
            "complex64": z.astype(np.complex64), "float": z.real,
            "float-strided": z.real[:, ::3],
            "int": np.arange(-8, 8).reshape(4, 4), "list": [[1, 2j], [3, 4]]}


@pytest.mark.parametrize("kind", sorted(_fro_norm_inputs()))
def test_fro_norm_bit_equal_to_numpy(kind):
    x = _fro_norm_inputs()[kind]
    with np.errstate(over="ignore"):  # "complex-huge" overflows to inf in both
        value, expect = fro_norm(x), float(np.linalg.norm(x))
    assert type(value) is float
    assert repr(value) == repr(expect)


@given(st.integers(0, 10 ** 6), st.integers(2, 8))
@settings(max_examples=25)
def test_fro_norm_unitary_invariance(seed, dim):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    u, _ = np.linalg.qr(g)
    m = _random(dim, seed + 1)
    assert abs(fro_norm(u @ m) - fro_norm(m)) <= 1e-12 * (1 + fro_norm(m))


def test_matrix_rank_cases():
    eye = np.eye(2)
    assert matrix_rank([eye, 2 * eye]) == 1
    assert matrix_rank([eye, np.diag([1.0, 0.0])]) == 2
    assert matrix_rank([np.zeros((2, 2))]) == 0
    assert matrix_rank([]) == 0


@given(st.integers(0, 10 ** 6), st.floats(0.1, 100.0))
@settings(max_examples=25)
def test_matrix_rank_scale_invariance(seed, scale):
    mats = [_random(3, seed + i) for i in range(3)]
    assert matrix_rank(mats) == matrix_rank([scale * m for m in mats])


def test_as_matrix_rejects_nonfinite():
    with pytest.raises(ValueError):
        as_matrix([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(DimensionMismatch):
        as_matrix([1.0, 2.0])
