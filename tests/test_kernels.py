import numpy as np
import pytest

from isosym import kernels


def _mats(rng, d, dim):
    """A (d, dim, dim) stack, the layout of a tuple's ``stack``."""
    return (rng.standard_normal((d, dim, dim))
            + 1j * rng.standard_normal((d, dim, dim))) / dim


@pytest.mark.parametrize("dim", [1, 2, 5, 16])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_gram_step_is_a_square_lower_triangular_factor(d, dim):
    """f' f'* = sum_j M_j f f* M_j*, for any square factor f."""
    rng = np.random.default_rng([d, dim])
    mats = _mats(rng, d, dim)
    f = _mats(rng, 1, dim)[0]
    out = kernels.active.gram_step(mats, f)
    expect = sum(m @ f @ f.conj().T @ m.conj().T for m in mats)
    assert out.shape == (dim, dim)
    assert not np.triu(out, 1).any()
    assert np.linalg.norm(out @ out.conj().T - expect) \
        <= 1e-13 * np.linalg.norm(expect)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_gram_step_of_strictly_upper_triangular_components_vanishes_exactly(
        d):
    """Each step clears one more row of a strictly upper triangular tuple,
    exactly: a zero row of the stack stays a zero row of the factor."""
    dim = 6
    rng = np.random.default_rng(d)
    mats = np.triu(_mats(rng, d, dim), 1)
    f = np.eye(dim, dtype=np.complex128)
    for k in range(1, dim + 1):
        f = kernels.active.gram_step(mats, f)
        assert not f[dim - k:].any()
        assert f[:dim - k].any() == (k < dim)
