"""Exception types shared across the package."""


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


class ContractError(RuntimeError):
    """A precondition that callers must uphold was violated."""
