"""Exception types shared across the package, and the bounds every layer shares."""


class ConfigurationError(ValueError):
    """A configuration value violates a documented precondition."""


class DomainError(ValueError):
    """An argument lies outside an operation's mathematical domain."""


class NumericalError(RuntimeError):
    """A numerical routine could not meet its accuracy contract."""


class ConvergenceFailure(NumericalError):
    """An iterative solver ran out of iterations or stopped above its tolerance.

    Carries the last relative residual and the iteration count so callers can
    report partial progress.
    """

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(message)
        self.residual = float(residual)
        self.iterations = int(iterations)


def check_positive(name: str, value: float) -> None:
    """Scale ratios, radii and step sizes must be positive and finite; NaN fails too."""
    if not value > 0:
        raise ConfigurationError(f"{name} must be positive, got {value}")
    if value == float("inf"):
        raise ConfigurationError(f"{name} must be finite, got {value}")


def check_count(name: str, value: int, least: int = 1) -> None:
    """A sample count below `least` leaves the statistic it feeds undefined."""
    if value < least:
        raise ConfigurationError(f"{name} must be >= {least}, got {value}")


def check_ladder(name: str, values) -> None:
    """Ladders of scale ratios fall strictly and stay positive."""
    # `not b < a` also refuses a NaN anywhere in the ladder
    if not len(values) or not all(b < a for a, b in zip(values, values[1:])):
        raise ConfigurationError(f"{name} must be nonempty and strictly decreasing")
    check_positive(f"the smallest entry of {name}", values[-1])
