"""Pure numpy kernels of the defect evaluations.

Semantics:

* ``gamma_products(ladders, gammas)``: ladders is a (d, L, n, n) stack with
  ladders[j, p] = M_j^p; returns out[t] = prod_j ladders[j, gammas[t, j]],
  factors multiplied left to right in component order.
* ``weighted_sandwich_sum(lefts, mid, rights, weights)``:
  sum_t weights[t] * lefts[t] @ mid @ rights[t]; mid=None means identity.

Both reductions are bit-identical to their direct formulas.

``gamma_products`` is that direct formula: one batched matmul per
component after the first, d - 1 per row.

``weighted_sandwich_sum`` reduces over the terms with one ``np.dot`` of the
weights against the flattened products, the product that ``np.tensordot``
forms internally, without its Python set-up.
"""

import numpy as np

NAME = "py"


def gamma_products(ladders, gammas):
    ladders = np.asarray(ladders)
    gammas = np.asarray(gammas, dtype=np.intp)
    out = ladders[0][gammas[:, 0]]
    for j in range(1, ladders.shape[0]):
        out = out @ ladders[j][gammas[:, j]]
    return np.ascontiguousarray(out)


def weighted_sandwich_sum(lefts, mid, rights, weights):
    lefts = np.asarray(lefts)
    rights = np.asarray(rights)
    weights = np.asarray(weights, dtype=np.float64)
    if mid is None:
        prods = lefts @ rights
    else:
        prods = (lefts @ np.asarray(mid)) @ rights
    t, rows, cols = prods.shape
    return np.dot(weights, prods.reshape(t, rows * cols)).reshape(rows, cols)
