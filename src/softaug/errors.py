"""Exception types shared across the package, the package's one test each
of "integer" and "real number", the count check that raises one, and the
one builder of a config type from a JSON object."""
import dataclasses
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


def from_json(cls, value, name: str):
    """The dataclass `cls` built from `value`, a JSON object of its fields
    read as the field `name`. A `value` that is not an object, an unknown
    key and a missing required key each raise DomainError naming
    `<name>.<key>`; `cls` itself checks the values."""
    if not isinstance(value, dict):
        raise DomainError(f"{name}: {value!r} is not an object of {cls.__name__} fields")
    fields = {f.name: f for f in dataclasses.fields(cls) if f.init}
    for key in value:
        if key not in fields:
            raise DomainError(f"{name}.{key}: unknown key, expected one of {', '.join(fields)}")
    for key, f in fields.items():
        if key not in value and f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise DomainError(f"{name}.{key}: missing")
    return cls(**value)
