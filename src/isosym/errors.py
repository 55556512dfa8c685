"""Exception hierarchy for isosym."""


class IsosymError(Exception):
    """Base class for all isosym errors."""


class DimensionMismatch(IsosymError):
    """Operand shapes are incompatible."""


class ConvergenceFailure(IsosymError):
    """The dense eigensolver did not converge."""


class InvariantViolation(IsosymError):
    """A documented invariant of an input value does not hold."""


class TooLarge(IsosymError):
    """A request would exceed a documented size bound or overflow a float."""


class CommutationViolated(IsosymError):
    """Tuple members fail the pairwise commutation test."""


class CrossCommutationViolated(IsosymError):
    """Two tuples fail the mutual commutation hypothesis."""


class FormsDisagree(IsosymError):
    """The two equivalent defect forms differ beyond tolerance.

    Usually indicates a commutation violation in the input tuple."""


class BetaNotNormalized(IsosymError):
    """Scaling coefficients are not l2-normalized."""


class DMismatch(IsosymError):
    """Two tuples have a different number of components."""


class HypothesisUnmet(IsosymError):
    """A theorem hypothesis required by the operation does not hold."""


class InvarianceViolation(IsosymError):
    """A subspace expected to be invariant is not, beyond tolerance."""


class ParseError(IsosymError):
    """A tuple file is malformed."""


class InvalidParams(IsosymError):
    """Constructor parameters are out of range or inconsistent."""
