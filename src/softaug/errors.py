"""Exception types shared across the package, the package's one test each
of "integer" and "real number", and the count check that raises one."""
import numbers
import sys


class SoftAugError(Exception):
    """Base class for package errors."""


class DataError(SoftAugError):
    """Malformed input data: lexicon files, dataset files, label maps."""


class DomainError(SoftAugError, ValueError):
    """An argument violates an operation's precondition."""


class TrainingError(SoftAugError, RuntimeError):
    """Training diverged or produced a non-finite loss."""


def is_int(value) -> bool:
    """An int and not a bool: JSON's true and false are no counts or seeds."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_real(value) -> bool:
    """A real number, finite as a float, and not a bool: JSON's true is no rate."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    return abs(value) <= sys.float_info.max  # NaN and infinities are not


def require_counts(obj, *names: str):
    """Raise DomainError naming the first field of `obj` in `names` whose
    value is not an integer >= 1."""
    for name in names:
        value = getattr(obj, name)
        if not (is_int(value) and value >= 1):
            raise DomainError(f"{name}: {value!r} must be an integer >= 1")
