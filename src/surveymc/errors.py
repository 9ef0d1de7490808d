"""Exception taxonomy shared across the package.

Every public entry point raises one of these instead of letting bare
numpy/ValueError surprises escape.  The CLI maps them onto exit codes:
usage problems -> 2, data problems -> 3, numerical problems -> 4.
"""

import numbers


class SurveyMCError(Exception):
    """Base class for all package errors."""


class InvalidInput(SurveyMCError):
    """Argument outside its documented range (non-finite matrix, tau < 0, ...)."""


class ShapeError(SurveyMCError):
    """Operands with incompatible dimensions."""


class DomainError(SurveyMCError):
    """Natural parameter outside the family's domain."""


class NumericalFailure(SurveyMCError):
    """A numerical routine failed to converge or produced non-finite values."""


class StratumTooSmall(SurveyMCError):
    """A stratum has too few rows to fit the response-probability model."""


class FoldError(SurveyMCError):
    """Cross-validation fold construction produced an empty fold."""


class ColumnEmpty(SurveyMCError):
    """A column, or the whole dataset, has no observed entries to use."""


class DesignError(SurveyMCError):
    """Sampling design parameters are infeasible for the population."""


class DegenerateTruth(SurveyMCError):
    """A reference matrix is identically zero, so relative error is undefined."""


class SchemaViolation(SurveyMCError):
    """Data file contents disagree with the declared schema."""


class WeightError(SurveyMCError):
    """Inclusion probabilities outside (0, 1]."""


def check_int(name: str, value, minimum: int) -> None:
    """Raise InvalidInput unless value is an integer (Python or numpy) of at
    least minimum; counts and seeds pass through here before reaching
    range() or numpy's seeding."""
    if not isinstance(value, numbers.Integral) or value < minimum:
        raise InvalidInput(f"{name} must be an integer >= {minimum}, got {value!r}")
