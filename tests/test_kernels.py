import numpy as np
import pytest

from isosym.defect import _combine
from isosym.multiindex import multi_indices, trinomial_coeff
from oracles import degree_indices, expansion_terms, gamma_power, \
    graded_weights


def _stack_setup(seed, d=2, kmax=3, dim=4):
    rng = np.random.default_rng(seed)
    mats = [rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            for _ in range(d)]
    ladders = np.array([[np.linalg.matrix_power(m, p) for p in range(kmax + 1)]
                        for m in mats])
    gammas = np.array([g for k in range(kmax + 1)
                       for g in degree_indices(d, k)], dtype=np.intp)
    return mats, ladders, gammas


def test_gamma_products_against_oracle(kernel):
    mats, ladders, gammas = _stack_setup(0)
    out = kernel.gamma_products(ladders, gammas)
    for row, gamma in zip(out, gammas):
        expect = gamma_power(mats, tuple(gamma))
        assert np.linalg.norm(row - expect) <= 1e-12 * (1 + np.linalg.norm(expect))


@pytest.mark.parametrize("with_mid", [False, True])
def test_combine_of_sandwiches(with_mid):
    """The one reduction of every defect sum, within rounding of a loop."""
    rng = np.random.default_rng(2)
    t, n = 7, 4
    lefts = rng.standard_normal((t, n, n)) + 1j * rng.standard_normal((t, n, n))
    rights = rng.standard_normal((t, n, n)) + 1j * rng.standard_normal((t, n, n))
    weights = rng.standard_normal(t)
    mid = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
           if with_mid else np.eye(n))
    out = _combine(weights, lefts @ mid @ rights if with_mid
                   else lefts @ rights)
    expect = np.zeros((n, n), dtype=complex)
    for i in range(t):
        term = lefts[i] @ mid @ rights[i]
        expect += weights[i] * term
    assert np.linalg.norm(out - expect) <= 1e-11 * (1 + np.linalg.norm(expect))


# Bit-identity against the direct formula: the kernel must perform the same
# floating-point operations.

def _direct_gamma_products(ladders, gammas):
    """Every row multiplied out left to right, no sharing."""
    out = ladders[0][gammas[:, 0]]
    for j in range(1, ladders.shape[0]):
        out = out @ ladders[j][gammas[:, j]]
    return np.ascontiguousarray(out)


def _ladders(rng, d, order, dim):
    mats = (rng.standard_normal((d, dim, dim))
            + 1j * rng.standard_normal((d, dim, dim))) / max(1, dim)
    out = np.empty((d, order + 1, dim, dim), dtype=np.complex128)
    out[:, 0] = np.eye(dim)
    for p in range(1, order + 1):
        out[:, p] = out[:, p - 1] @ mats
    return out


@pytest.mark.parametrize("order", range(7))
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_gamma_products_bit_identical_to_direct_loop(kernel, d, order):
    rng = np.random.default_rng([d, order])
    gammas, _ = graded_weights(order, d)
    for dim in (1, 2, 5, 32):
        ladders = _ladders(rng, d, order, dim)
        for start in sorted({0, 1, len(gammas) // 2, len(gammas) - 1}):
            out = kernel.gamma_products(ladders, gammas[start:])
            expect = _direct_gamma_products(ladders, gammas[start:])
            assert out.shape == expect.shape
            assert out.tobytes() == expect.tobytes()


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_gamma_products_of_expansion_terms_bit_identical(kernel, d):
    """The oracle's expansion rows: 2d components, not in degree order."""
    rng = np.random.default_rng(d)
    m = 4
    ladders = _ladders(rng, 2 * d, m, 6)
    for k in range(m + 1):
        indices = np.array([alpha + gamma for alpha, gamma, kk, _
                            in expansion_terms(d, m) if kk == k],
                           dtype=np.intp)
        out = kernel.gamma_products(ladders, indices)
        assert out.tobytes() == _direct_gamma_products(ladders,
                                                       indices).tobytes()


@pytest.mark.parametrize("m", range(5))
@pytest.mark.parametrize("d", [1, 2, 3])
def test_expansion_terms_are_every_pair_with_its_trinomial_coeff(d, m):
    """The oracle's expansion enumerates each (alpha, gamma, k) once."""
    terms = expansion_terms(d, m)
    for k in range(m + 1):
        pairs = [(alpha, gamma) for alpha, gamma, kk, _ in terms if kk == k]
        assert sorted(pairs) == sorted(
            (alpha, gamma) for a in range(m - k + 1)
            for alpha in multi_indices(d, a)
            for gamma in multi_indices(d, m - k - a))
    for alpha, gamma, k, weight in terms:
        assert weight == trinomial_coeff(m, alpha, gamma, k)


def test_gamma_products_rejects_exponent_beyond_the_ladder(kernel):
    ladders = _ladders(np.random.default_rng(3), 3, 2, 2)
    with pytest.raises(IndexError):
        kernel.gamma_products(ladders, np.array([[0, 3, 0]]))
    with pytest.raises(IndexError):  # a column short
        kernel.gamma_products(ladders, np.array([[0, 1], [1, 0], [1, 1]]))
