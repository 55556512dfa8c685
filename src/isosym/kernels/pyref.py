"""Pure numpy kernel of the nilpotency test.

``gamma_products(ladders, gammas)``: ladders is a (d, L, n, n) stack with
ladders[j, p] = M_j^p; returns out[t] = prod_j ladders[j, gammas[t, j]],
factors multiplied left to right in component order.  It is that direct
formula, bit for bit: one batched matmul per component after the first,
d - 1 per row.  ``defect.nilpotency_residual`` takes the largest norm of
these products.
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
