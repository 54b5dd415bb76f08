"""Exception hierarchy shared by all qclock modules.

Every exception carries a short machine-readable ``code`` so the command-line
front end can emit structured error messages and map failures to exit codes.
"""


class QClockError(Exception):
    """Base class for all qclock domain errors."""

    code = "qclock-error"


class InvalidArgument(QClockError, ValueError):
    """A precondition on an operation's arguments was violated."""

    code = "invalid-argument"


class InvalidConstants(InvalidArgument):
    """Physical constants are non-positive or otherwise unusable."""

    code = "invalid-constants"


class CapacityError(QClockError):
    """A request past a budget: an exact integer's size, or a call's bytes."""

    code = "capacity-error"


class IncompatibleStates(QClockError):
    """Two states (or a state and a POVM) refer to different spectra."""

    code = "incompatible-state"


class UnsupportedSpectrum(QClockError):
    """The operation is only defined for a restricted spectrum kind."""

    code = "unsupported-spectrum"


class InvalidDistribution(QClockError):
    """Outcome probabilities do not sum to one within tolerance."""

    code = "invalid-distribution"


class NoEstimate(QClockError):
    """The measurement data carry no directional information."""

    code = "no-estimate"


class SchwarzschildViolation(QClockError):
    """The clock body is smaller than its own Schwarzschild radius allows."""

    code = "schwarzschild-violation"


class DegenerateClock(QClockError):
    """The clock has a single energy level and cannot evolve."""

    code = "degenerate-clock"


def spell(value) -> str:
    """repr(value), or the sign and size of an int too long to spell in decimal."""
    try:
        return repr(value)
    except ValueError:  # past the interpreter's limit on the digits of an int
        return f"<{'a negative' if value < 0 else 'an'} int of {value.bit_length()} bits>"
