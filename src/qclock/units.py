"""Physical constants, Planck-scale quantities, and the unit-mode convention.

Two modes are supported: SI, with CODATA 2018 recommended values as the
default source, and natural units with hbar = c = G = 1 exactly.  In natural
mode the Planck length and time both come out as exactly 1, which makes the
bound formulas in :mod:`qclock.bounds` directly checkable by hand.

Constants can also be read from a plain ``key=value`` text file (keys
``hbar``, ``c``, ``G``); the command line honours the ``QCLOCK_CONSTANTS``
environment variable as a pointer to such a file.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from .errors import InvalidConstants, _finite, spell

# CODATA 2018 recommended values (https://physics.nist.gov/cuu/Constants/).
# c and hbar are exact by the 2019 SI redefinition; G is the recommended value.
CODATA2018_HBAR = 1.054571817e-34   # J s
CODATA2018_C = 299792458.0          # m s^-1
CODATA2018_G = 6.67430e-11          # m^3 kg^-1 s^-2

CONSTANTS_ENV_VAR = "QCLOCK_CONSTANTS"
# characters read from a constants file at most: three key=value lines and
# their comments take a few hundred, and a device such as /dev/zero has no end
CONSTANTS_FILE_LIMIT = 2**16


@dataclass(frozen=True)
class ConstantsSet:
    """The three constants every bound needs, plus the unit-mode tag."""

    hbar: float
    c: float
    G: float
    mode: str = "SI"  # "SI" or "natural"

    def __post_init__(self):
        for name in ("hbar", "c", "G"):
            if not (_finite(value := getattr(self, name)) and value > 0.0):
                raise InvalidConstants(
                    f"{name} must be a positive finite number, got {spell(value)}")
        if self.mode not in ("SI", "natural"):
            raise InvalidConstants(f"unknown unit mode {self.mode!r}")
        if self.mode == "natural" and not (self.hbar == self.c == self.G == 1.0):
            raise InvalidConstants("natural mode requires hbar = c = G = 1 exactly")


@dataclass(frozen=True)
class PlanckScale:
    """Planck length and time derived from a :class:`ConstantsSet`."""

    l_p: float  # m
    t_p: float  # s


def codata2018() -> ConstantsSet:
    """The default SI constants set (CODATA 2018)."""
    return ConstantsSet(CODATA2018_HBAR, CODATA2018_C, CODATA2018_G, mode="SI")


def natural_units() -> ConstantsSet:
    """hbar = c = G = 1 exactly."""
    return ConstantsSet(1.0, 1.0, 1.0, mode="natural")


def derive_planck_scale(consts: ConstantsSet) -> PlanckScale:
    """Planck length sqrt(hbar G / c^3) and Planck time sqrt(hbar G / c^5)."""
    l_p = math.sqrt(consts.hbar * consts.G / consts.c**3)
    t_p = math.sqrt(consts.hbar * consts.G / consts.c**5)
    return PlanckScale(l_p=l_p, t_p=t_p)


def load_constants_file(path: str, mode: str = "SI") -> ConstantsSet:
    """Parse a ``key=value`` constants file with keys hbar, c, G.

    Blank lines and ``#`` comments are ignored.  Missing keys fall back to
    CODATA 2018.  A file is read no further than CONSTANTS_FILE_LIMIT
    characters, and a longer one is refused.
    """
    values = {"hbar": CODATA2018_HBAR, "c": CODATA2018_C, "G": CODATA2018_G}
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read(CONSTANTS_FILE_LIMIT + 1)
        except UnicodeDecodeError as exc:
            raise InvalidConstants(f"constants file {path!r} is not UTF-8 text") from exc
    if len(text) > CONSTANTS_FILE_LIMIT:
        raise InvalidConstants(
            f"{path}: a constants file holds at most {CONSTANTS_FILE_LIMIT} characters")
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidConstants(f"{path}:{lineno}: expected key=value, got {raw.rstrip()!r}")
        key, _, number = line.partition("=")
        key = key.strip()
        if key not in values:
            raise InvalidConstants(f"{path}:{lineno}: unknown constant {key!r}")
        try:
            values[key] = float(number.strip())
        except ValueError as exc:
            raise InvalidConstants(f"{path}:{lineno}: bad number {number.strip()!r}") from exc
    return ConstantsSet(values["hbar"], values["c"], values["G"], mode=mode)


def resolve_constants(mode: str = "SI", path: str | None = None) -> ConstantsSet:
    """Pick the constants for a run: file > environment > CODATA defaults.

    Natural mode ignores any file since the constants are fixed at 1.
    """
    if mode == "natural":
        return natural_units()
    if path is None:
        path = os.environ.get(CONSTANTS_ENV_VAR)
    if path:
        return load_constants_file(path, mode=mode)
    return codata2018()
