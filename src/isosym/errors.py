"""Exception hierarchy for isosym.  Every concrete error is in one of two
families.  An InputError (the command line exits 2) refuses input that is
malformed, out of range, inconsistent or too large.  A NumericalFailure
(exit 3) is a computation on accepted input that did not succeed."""


class IsosymError(Exception):
    """Base class for all isosym errors."""


class InputError(IsosymError):
    """The input is refused (exit 2)."""


class NumericalFailure(IsosymError):
    """A computation on accepted input did not succeed (exit 3)."""


class DimensionMismatch(InputError):
    """Operand shapes are incompatible."""


class ConvergenceFailure(NumericalFailure):
    """The dense eigensolver did not converge."""


class InvariantViolation(InputError):
    """A documented invariant of an input value does not hold."""


class TooLarge(InputError):
    """A request would exceed a documented size bound or overflow a float."""


class CommutationViolated(InputError):
    """Tuple members fail the pairwise commutation test."""


class CrossCommutationViolated(InputError):
    """Two tuples fail the mutual commutation hypothesis."""


class FormsDisagree(InputError):
    """The two equivalent defect forms differ beyond tolerance.

    Usually indicates a commutation violation in the input tuple."""


class BetaNotNormalized(InputError):
    """Scaling coefficients are not l2-normalized."""


class DMismatch(InputError):
    """Two tuples have a different number of components."""


class HypothesisUnmet(NumericalFailure):
    """A theorem hypothesis required by the operation does not hold."""


class InvarianceViolation(NumericalFailure):
    """A subspace expected to be invariant is not, beyond tolerance."""


class ParseError(InputError):
    """A tuple file is malformed."""


class InvalidParams(InputError):
    """Constructor parameters are out of range or inconsistent."""
