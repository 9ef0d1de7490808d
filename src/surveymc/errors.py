"""Exception taxonomy shared across the package, and its argument boundary.

Every public entry point raises one of these instead of letting bare
numpy/ValueError surprises escape.  Each class carries the CLI's exit code
for it: usage problems -> 2, data problems -> 3, numerical problems -> 4.
Its four checkers, check_int, check_real, check_type and real_array, are the
package's one boundary: they turn a bad count, setting, object (a dataset,
layout, config, generator, ...) or array into InvalidInput.
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
    """Raise InvalidInput unless value is an integer (Python or numpy, not a
    bool) of at least minimum; counts and seeds pass through here before
    reaching range() or numpy's seeding."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise InvalidInput(f"{name} must be an integer >= {minimum}, got {value!r}")


def check_real(name: str, value, low: float = -math.inf, high: float = math.inf,
               *, low_ok: bool = False, inf_ok: bool = False) -> None:
    """Raise InvalidInput unless value is a real number (Python or numpy, not a
    bool) with low < value < high, so finite under the default bounds; low_ok
    also lets low through, inf_ok +inf.  Settings pass through here before
    numpy compares them."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        x = float(value) if real else math.nan
    except OverflowError:  # an integer beyond float64
        x = math.nan
    if not ((low < x or low_ok and x == low) and x < high or inf_ok and x == math.inf):
        raise InvalidInput(f"{name} must be a real number in {'[' if low_ok else '('}{low:g}, "
                           f"{high:g}{']' if inf_ok else ')'}, got {value!r}")


# the generators with every draw the simulator makes
GENERATORS = (np.random.Generator, np.random.RandomState)


def check_type(name: str, value, *kinds: type) -> None:
    """Raise InvalidInput unless value is an instance of one of kinds; object
    arguments pass through here before any of their attributes is read."""
    if not isinstance(value, kinds):
        raise InvalidInput(f"{name} must be a {' or '.join(k.__name__ for k in kinds)}, "
                           f"got {value!r}")


def real_array(name: str, value, ndim: int | None = None) -> np.ndarray:
    """value as a float64 ndarray (itself if it is one) with ndim axes if
    given, else InvalidInput.  No pass over numeric data (an object array's
    entries are each checked to be real numbers): a NaN or an infinity means
    a different error (or none) to each caller, which checks them."""
    try:
        A = np.asarray(value)
        if A.dtype != np.float64:
            if A.dtype.kind not in "biufO":  # complex, strings, dates, records
                raise TypeError(f"dtype {A.dtype} is not real")
            # astype would read None as NaN and a numeric string as its number
            if A.dtype == object and not all(isinstance(v, (numbers.Real, np.bool_))
                                             for v in A.flat):
                raise TypeError("an entry is not a real number")
            with np.errstate(over="raise"):  # a long double beyond float64
                A = A.astype(np.float64)
    except (TypeError, ValueError, OverflowError, FloatingPointError) as exc:
        raise InvalidInput(f"{name} must hold real numbers: {exc}") from exc
    if ndim is not None and A.ndim != ndim:
        raise InvalidInput(f"{name} must be {ndim}-dimensional, got ndim={A.ndim}")
    return A
