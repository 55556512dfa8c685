"""Pure numpy Gram step of the nilpotency test: ``gram_step(stack, f)``, for a
tuple's (d, n, n) ``stack`` of the M_j, is a square f' = R* with f' f'* =
sum_j M_j f f* M_j*, where stack @ f is R* Q* by a QR of its adjoint.
"""

import numpy as np

NAME = "py"


def gram_step(stack, f):
    adjoint = (stack @ f).conj().transpose(0, 2, 1)
    return np.linalg.qr(adjoint.reshape(-1, f.shape[0]), mode="r").conj().T
