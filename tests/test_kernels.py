import numpy as np
import pytest

from oracles import degree_indices, gamma_power


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


def test_pairwise_matmul(kernel):
    rng = np.random.default_rng(1)
    a = rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3))
    b = rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3))
    out = kernel.pairwise_matmul(a, b)
    for i in range(5):
        assert np.allclose(out[i], a[i] @ b[i])


@pytest.mark.parametrize("with_mid", [False, True])
def test_weighted_sandwich_sum(kernel, with_mid):
    rng = np.random.default_rng(2)
    t, n = 7, 4
    lefts = rng.standard_normal((t, n, n)) + 1j * rng.standard_normal((t, n, n))
    rights = rng.standard_normal((t, n, n)) + 1j * rng.standard_normal((t, n, n))
    weights = rng.standard_normal(t)
    mid = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
           if with_mid else None)
    out = kernel.weighted_sandwich_sum(lefts, mid, rights, weights)
    expect = np.zeros((n, n), dtype=complex)
    for i in range(t):
        term = lefts[i] @ (mid if with_mid else np.eye(n)) @ rights[i]
        expect += weights[i] * term
    assert np.linalg.norm(out - expect) <= 1e-11 * (1 + np.linalg.norm(expect))
