"""Pure numpy kernels of the defect evaluations.

Semantics:

* ``gamma_products(ladders, gammas)``: ladders is a (d, L, n, n) stack with
  ladders[j, p] = M_j^p; returns out[t] = prod_j ladders[j, gammas[t, j]],
  factors multiplied left to right in component order.
* ``pairwise_matmul(a, b)``: out[t] = a[t] @ b[t].
* ``weighted_sandwich_sum(lefts, mid, rights, weights)``:
  sum_t weights[t] * lefts[t] @ mid @ rights[t]; mid=None means identity.
"""

import numpy as np

NAME = "py"


def gamma_products(ladders, gammas):
    ladders = np.asarray(ladders)
    gammas = np.asarray(gammas, dtype=np.intp)
    d = ladders.shape[0]
    out = ladders[0][gammas[:, 0]]
    for j in range(1, d):
        out = out @ ladders[j][gammas[:, j]]
    return np.ascontiguousarray(out)


def pairwise_matmul(a, b):
    return np.asarray(a) @ np.asarray(b)


def weighted_sandwich_sum(lefts, mid, rights, weights):
    lefts = np.asarray(lefts)
    rights = np.asarray(rights)
    weights = np.asarray(weights, dtype=np.float64)
    if mid is None:
        prods = lefts @ rights
    else:
        prods = (lefts @ np.asarray(mid)) @ rights
    return np.tensordot(weights, prods, axes=1)
