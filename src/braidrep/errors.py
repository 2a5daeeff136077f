"""Exception types shared across the toolkit.

Each error says that an operation could not be carried out on its input;
none of them carries a verdict.  A Reducible verdict is returned with its
verified witness by ``classify.decide_irreducibility``, never raised.
"""


class BraidRepError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(BraidRepError, ValueError):
    """Operands have incompatible dimensions."""


class SingularMatrixError(BraidRepError, ValueError):
    """A matrix that must be invertible is not."""


class NotARepresentationError(BraidRepError, ValueError):
    """Input matrices fail a property every genuine representation has."""


class PreconditionError(BraidRepError, ValueError):
    """An operation was called outside its stated domain."""


class TrichotomyViolationError(BraidRepError):
    """A full friendship graph fits none of the three admissible shapes."""


class SpecParseError(BraidRepError, ValueError):
    """A builtin representation spec string could not be parsed."""


class OutOfScaleError(BraidRepError, ValueError):
    """A builtin spec asks for matrices past the size the command line builds."""
