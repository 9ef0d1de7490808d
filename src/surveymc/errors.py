"""Exception taxonomy shared across the package.

Every public entry point raises one of these instead of letting bare
numpy/ValueError surprises escape.  Each class carries the CLI's exit code
for it: usage problems -> 2, data problems -> 3, numerical problems -> 4.
"""

import math
import numbers

import numpy as np


class SurveyMCError(Exception):
    """Base class for all package errors: a data problem (exit code 3) by default."""
    exit_code = 3


class InvalidInput(SurveyMCError):
    """Argument outside its documented range (non-finite matrix, tau < 0, ...)."""
    exit_code = 2


class ShapeError(SurveyMCError):
    """Operands with incompatible dimensions."""


class DomainError(SurveyMCError):
    """Natural parameter outside the family's domain."""
    exit_code = 4


class NumericalFailure(SurveyMCError):
    """A numerical routine failed to converge or produced non-finite values."""
    exit_code = 4


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


def check_real(name: str, value, low: float = -math.inf, high: float = math.inf,
               *, inf_ok: bool = False) -> None:
    """Raise InvalidInput unless value is a real number (Python or numpy) with
    low < value < high, so finite under the default bounds; inf_ok also lets
    +inf through.  Settings pass through here before numpy compares them."""
    try:
        x = float(value) if isinstance(value, numbers.Real) else math.nan
    except OverflowError:  # an integer beyond float64
        x = math.nan
    if not (low < x < high or (inf_ok and x == math.inf)):
        raise InvalidInput(f"{name} must be a real number in ({low:g}, {high:g}"
                           f"{']' if inf_ok else ')'}, got {value!r}")


def check_rng(rng, kinds=(np.random.Generator, np.random.RandomState)) -> None:
    """Raise InvalidInput unless rng is an instance of kinds: by default a numpy
    Generator or a legacy RandomState, which both have every draw the
    simulator makes."""
    if not isinstance(rng, kinds):
        raise InvalidInput(f"rng must be a numpy random generator, got {rng!r}")
