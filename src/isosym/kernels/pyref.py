"""Pure numpy kernels of the defect evaluations.

Semantics:

* ``gamma_products(ladders, gammas)``: ladders is a (d, L, n, n) stack with
  ladders[j, p] = M_j^p; returns out[t] = prod_j ladders[j, gammas[t, j]],
  factors multiplied left to right in component order.
* ``pairwise_matmul(a, b)``: out[t] = a[t] @ b[t].
* ``weighted_sandwich_sum(lefts, mid, rights, weights)``:
  sum_t weights[t] * lefts[t] @ mid @ rights[t]; mid=None means identity.

Both reductions are bit-identical to their direct formulas.

``gamma_products`` shares prefixes.  The rows of one degree-ordered gamma
list repeat their leading exponents (at d=4, order 6, 210 rows have only 28
distinct (g1, g2) and 84 distinct (g1, g2, g3) prefixes), so each distinct
prefix R_1^g1 ... R_j^gj is multiplied once and every row extending it
reuses it: 322 matmuls instead of 630 at that size.  Every row is still
the same left-to-right chain ((R_1^g1 R_2^g2) R_3^g3) ..., each link one
batched matmul of the same operands as in the direct loop, so the output is
bit for bit the direct loop's.  The sharing plan depends only on the gamma
list and is cached; at d <= 2 there is nothing to share and no plan.

``weighted_sandwich_sum`` reduces over the terms with one ``np.dot`` of the
weights against the flattened products, the product that ``np.tensordot``
forms internally, without its Python set-up.
"""

from functools import lru_cache

import numpy as np

NAME = "py"


@lru_cache(maxsize=128)
def _prefix_plan(key, d, rungs):
    """Steps (take, powers) of the prefix-sharing gamma product.

    ``key`` is the bytes of an intp (T, d) gamma array with entries in
    [0, rungs).  Starting from the first ladder, step j maps the stack of
    distinct length-j prefixes to that of length j + 1 as
    ``stack[take] @ ladders[j][powers]``; the last step yields one row per
    gamma row, in order.  Arrays are read-only (shared by every caller).
    """
    gammas = np.frombuffer(key, dtype=np.intp).reshape(-1, d)
    if gammas.size and (gammas.min() < 0 or gammas.max() >= rungs):
        raise IndexError(f"gamma exponents must lie in [0, {rungs})")
    steps = []
    prefix = gammas[:, 0]  # each row's index into the current stack
    for j in range(1, d - 1):
        # a length-(j+1) prefix is (its length-j prefix, its exponent j)
        codes = prefix * rungs + gammas[:, j]
        _, first, inverse = np.unique(codes, return_index=True,
                                      return_inverse=True)
        steps.append((prefix[first], gammas[first, j]))
        prefix = inverse
    steps.append((prefix, gammas[:, d - 1]))
    for arrays in steps:
        for a in arrays:
            a.setflags(write=False)
    return tuple(steps)


def gamma_products(ladders, gammas):
    ladders = np.asarray(ladders)
    gammas = np.asarray(gammas, dtype=np.intp)
    d = ladders.shape[0]
    if d <= 2:
        out = ladders[0][gammas[:, 0]]
        if d == 2:
            out = out @ ladders[1][gammas[:, 1]]
        return np.ascontiguousarray(out)
    if gammas.ndim != 2 or gammas.shape[1] < d:
        raise IndexError(f"gammas must be (T, {d}), got {gammas.shape}")
    steps = _prefix_plan(np.ascontiguousarray(gammas[:, :d]).tobytes(), d,
                         ladders.shape[1])
    # Each step gathers its operands into, and multiplies into, three
    # buffers of the output's size: the working memory of the direct loop,
    # allocated once, instead of new stacks of every prefix count.  The
    # plan has checked every index, so the gathers need no bounds check
    # ("clip" also keeps take from buffering its output).
    shape = (len(gammas),) + ladders.shape[2:]
    left, right, out = (np.empty(shape, dtype=ladders.dtype) for _ in range(3))
    stack = ladders[0]
    for j, (take, powers) in enumerate(steps, start=1):
        k = len(take)
        stack.take(take, axis=0, out=left[:k], mode="clip")
        ladders[j].take(powers, axis=0, out=right[:k], mode="clip")
        stack = np.matmul(left[:k], right[:k], out=out[:k])
    return out


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
    t, rows, cols = prods.shape
    return np.dot(weights, prods.reshape(t, rows * cols)).reshape(rows, cols)
