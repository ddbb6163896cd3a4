"""Exception types raised by the kernels and discretization methods."""


class SdeDiscError(Exception):
    """Base class for all library errors."""


class DimensionError(SdeDiscError, ValueError):
    """Matrix arguments have incompatible or invalid shapes."""


class NonFiniteError(SdeDiscError, ValueError):
    """Input contains NaN or Inf entries."""


class MatrixOverflowError(SdeDiscError, ArithmeticError):
    """A computation overflowed to Inf/NaN (e.g. exp of a huge matrix)."""


class ConvergenceError(SdeDiscError, RuntimeError):
    """An iterative kernel failed to converge.

    Attributes
    ----------
    sweeps : number of sweeps/refinements performed before giving up.
    """

    def __init__(self, msg, sweeps=None):
        super().__init__(msg)
        self.sweeps = sweeps


class ClassificationError(SdeDiscError, RuntimeError):
    """The eigenvalue reordering failed to move every selected block
    last."""


class NilpotencyError(SdeDiscError, ValueError):
    """Matrix expected to be nilpotent is not, within tolerance."""


class MethodNotApplicableError(SdeDiscError, RuntimeError):
    """The requested discretization method cannot handle this system."""
