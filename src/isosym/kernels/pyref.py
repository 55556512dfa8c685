"""Pure numpy Gram step of the nilpotency test: ``gram_step(mats, f)`` is a
square f' with f' f'* = sum_j M_j f f* M_j*.  The stack [M_1 f, ..., M_d f]
is R* Q* by a QR factorization of its adjoint, and f' = R*.
"""

import numpy as np

NAME = "py"


def gram_step(mats, f):
    adjoint = (np.asarray(mats) @ f).conj().transpose(0, 2, 1)
    return np.linalg.qr(adjoint.reshape(-1, f.shape[0]), mode="r").conj().T
