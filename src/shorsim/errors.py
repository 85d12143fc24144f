"""Exception types shared across the package, and its argument and resource checks."""

import numbers


class DomainError(ValueError):
    """An argument is outside an operation's documented domain."""


class NoOrderError(DomainError):
    """The base shares a factor with the modulus, so no power of it is 1."""


class ResourceError(RuntimeError):
    """A resource guard (a cap on memory, runtime or exactness) would be exceeded."""


def guard(name: str, value: int, cap: int, route: str) -> None:
    """Raise ResourceError when value is above cap: the one check of every
    resource guard, made before the work that the cap sizes."""
    if value > cap:
        raise ResourceError(f"{name}={value} exceeds the cap of {cap} for {route}")


def integer(name: str, value, lo: int | None = None, hi: int | None = None) -> None:
    """Raise DomainError unless value is an int, not a bool or a numpy
    integer, with lo <= value < hi (a bound of None is left out)."""
    if type(value) is not int or (lo is not None and value < lo) or (hi is not None and value >= hi):
        raise DomainError(f"{name} must be an integer{_bounds(lo, hi)}, got {value!r}")


def real(name: str, value, lo, hi) -> None:
    """Raise DomainError unless value is a real, not a bool, with lo <= value
    < hi: NaN fails the comparison, and a string is refused, not parsed."""
    if not (isinstance(value, numbers.Real) and type(value) is not bool and lo <= value < hi):
        raise DomainError(f"{name} must be a real{_bounds(lo, hi)}, got {value!r}")


def _bounds(lo, hi) -> str:
    if lo is None:
        return "" if hi is None else f" < {hi}"
    return f" >= {lo}" if hi is None else f" in [{lo}, {hi})"


class ContractError(RuntimeError):
    """A precondition that callers must uphold was violated."""
