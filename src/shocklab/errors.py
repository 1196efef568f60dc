"""Exception types shared across the library."""


class ShockLabError(Exception):
    """Base class for all library errors."""


# -- flux construction / evaluation ------------------------------------------

class NonMonotoneBreakpoints(ShockLabError):
    pass


class LengthMismatch(ShockLabError):
    pass


class EmptyMesh(ShockLabError):
    pass


class DegenerateChord(ShockLabError):
    pass


class BoundaryPoint(ShockLabError):
    pass


class COutOfRange(ShockLabError):
    pass


class EmptyInterval(ShockLabError):
    pass


class StateOutOfRange(ShockLabError):
    pass


# -- duality ------------------------------------------------------------------

class NotConvex(ShockLabError):
    pass


# -- Riemann / front tracking --------------------------------------------------

class EventOverflow(ShockLabError):
    pass


# -- variational solver ---------------------------------------------------------

class NonPositiveTime(ShockLabError):
    pass


class WindowExceeded(ShockLabError):
    pass


# -- single-shock certification ---------------------------------------------------

class NotATriplet(ShockLabError):
    pass


class HypothesisNotChecked(ShockLabError):
    pass


class NoRootInInterval(ShockLabError):
    pass


class BoundViolated(ShockLabError):
    """A measured collapse time contradicts the analytic bound T0 <= T_tilde."""


# -- scenario ingestion ------------------------------------------------------------

class ParseError(ShockLabError):
    pass


class ValidationError(ShockLabError):
    def __init__(self, field, message):
        self.field = field
        super().__init__(f"{field}: {message}")
