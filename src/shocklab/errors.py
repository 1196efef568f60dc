"""Exception types shared across the library."""


class ShockLabError(Exception):
    """Base class for all library errors."""


class ValidationError(ShockLabError):
    """An input the library cannot use; ``field`` names the input to change."""

    def __init__(self, field, message):
        self.field = field
        super().__init__(f"{field}: {message}")


class BoundViolated(ShockLabError):
    """A measured collapse time contradicts the analytic bound T0 <= T_tilde."""
