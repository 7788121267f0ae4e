"""Exception types shared across the package."""


class PortraitsError(Exception):
    """Base class for every error raised by this package."""


class MalformedAngleError(PortraitsError, ValueError):
    """An angle was built from a zero denominator or unparseable text."""


class MalformedSetError(PortraitsError, ValueError):
    """An angle set was empty, out of range, or not strictly increasing."""


class CapacityError(PortraitsError):
    """An enumeration would try more candidate rotation sets than the ceiling."""


class InvariantViolationError(PortraitsError):
    """A structural guarantee failed; the input exposed an internal bug."""


class InternalContradictionError(InvariantViolationError):
    """Two independent computations of the same quantity disagreed."""


class InvalidPortraitError(PortraitsError, ValueError):
    """A construction step was handed a portrait that fails validation."""

    def __init__(self, message, violations=()):
        super().__init__(message)
        self.violations = tuple(violations)


class PortraitParseError(PortraitsError, ValueError):
    """Portrait text could not be parsed; carries the offending line number."""

    def __init__(self, line, message):
        super().__init__(f"line {line}: {message}")
        self.line = line
