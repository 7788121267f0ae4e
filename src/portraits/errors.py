"""Exception types shared across the package."""


class PortraitsError(Exception):
    """Base class for every error raised by this package."""


class MalformedAngleError(PortraitsError, ValueError):
    """An angle was built from a zero denominator or unparseable text."""


class MalformedSetError(PortraitsError, ValueError):
    """An angle set was empty, out of range, or not strictly increasing."""


class CapacityError(PortraitsError):
    """A request passes a size ceiling: an enumeration's candidate count, or a
    portrait's d-1 fixed angles outnumbering both its listed angles and 2**16."""


class InvariantViolationError(PortraitsError):
    """A tree handed to a check, to recovery or to ``image_germs`` is
    malformed: the message names the vertex, edge or missing map entry
    (``tau(v) is not defined``).  Trees the builder makes never raise it."""


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
