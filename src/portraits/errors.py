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
    """A tree handed to recovery or to ``image_germs`` is malformed.

    Trees the builder makes never raise it; a hand-edited tree can.
    """


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
