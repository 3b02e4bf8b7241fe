"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside an operation's documented domain."""


class NumericalError(RuntimeError):
    """An iterative scheme failed to reach its accuracy target."""
