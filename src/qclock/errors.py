"""Exception hierarchy shared by all qclock modules, and the input rules they share.

Every exception carries a short machine-readable ``code`` so the command-line
front end can emit structured error messages and map failures to exit codes.
"""

import math
import numbers

import numpy as np


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


def _finite(x):
    """True where x, a number or a numpy column, is a real number float64 holds finitely:
    not nan, inf, an int or Fraction past the range, or a str.  It never raises."""
    if isinstance(x, np.ndarray):
        return np.isfinite(x)
    try:
        return isinstance(x, numbers.Real) and math.isfinite(x)
    except OverflowError:  # it rounds past the float64 range
        return False


def _integer(x) -> bool:
    """True where x is an int or a numpy integer: a float, even 4.0, is none, and nor
    is a bool, though Python counts True as the int 1."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _at_least(name: str, value, least: int) -> int:
    """int(value), refused unless value is an integer (_integer) >= least, each
    refusal spelled through spell."""
    if not _integer(value):
        raise InvalidArgument(f"{name} must be an integer >= {least}, got {spell(value)}")
    if value < least:
        raise InvalidArgument(f"{name} must be >= {least}, got {spell(value)}")
    return int(value)


def spell(value) -> str:
    """repr(value), or the sign and size of an int too long to spell in decimal."""
    try:
        return repr(value)
    except ValueError:  # past the interpreter's limit on the digits of an int
        if not isinstance(value, int):  # a Fraction of such ints, say
            return f"<a {type(value).__name__} too long to spell>"
        return f"<{'a negative' if value < 0 else 'an'} int of {value.bit_length()} bits>"
