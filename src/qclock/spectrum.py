"""Clock Hamiltonian spectra with exact integer phase frequencies.

A clock spectrum is the diagonal of a bounded, non-degenerate Hamiltonian:
levels E_0 = 0 < E_1 < ... < E_p together with a period T and integers r_n
satisfying

    E_n = r_n * 2*pi*hbar / T      (r_0 = 0, r strictly increasing)

For an equally-spaced spectrum r_n = n and T is free.  For a generic spectrum
with rational level ratios E_n/E_1 = C_n/B_n (gcd(C_n, B_n) = 1) the integers
are produced by an LCM construction: r_1 = lcm(B_2..B_p), r_n = r_1*C_n/B_n,
and the period is fixed to T = 2*pi*hbar*r_1/E_1.  Irrational ratios are
handled by best rational approximation at a caller-chosen tolerance; the
resulting spectrum keeps the original levels so that downstream completeness
checks measure the true approximation residual.

The r_n are exact Python integers throughout.  LCMs blow up combinatorially,
so constructors enforce a fixed big-integer budget, DEFAULT_INTEGER_BUDGET,
instead of silently producing unusable spectra.
"""

from __future__ import annotations

import enum
import math
import os
import stat
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import CapacityError, InvalidArgument, _finite, _integer, spell
from .units import ConstantsSet, natural_units

# r_p above this budget aborts spectrum construction.
DEFAULT_INTEGER_BUDGET = 2**256
# bytes a call may peak at, charged by _charge before it allocates.  A gathered
# dial holds a 16 B twiddle per point, so N <= 2^28 and (r_n mod N) m < 2^56.
_BYTE_BUDGET = 2**32
# bytes read_spectrum is charged per byte of a spectrum file: the text, a string per
# line and a float or ratio per level.  tracemalloc reads 60 B per byte on 90,000
# lines of short integers (rationalized), and less on longer lines
_READ_CHARGE = 64


def _charge(nbytes: int, what: str) -> None:
    if nbytes > _BYTE_BUDGET:
        raise CapacityError(
            f"{what} needs {spell(nbytes)} bytes, past the budget of {_BYTE_BUDGET} bytes")


class SpectrumKind(enum.Enum):
    EQUALLY_SPACED = "equally-spaced"
    RATIONAL = "rational"
    RATIONALIZED = "rationalized"


@dataclass(frozen=True)
class RationalRatio:
    """A reduced fraction C/B standing for an energy ratio E_n/E_1."""

    C: int
    B: int

    def __post_init__(self):
        if not (_integer(self.C) and _integer(self.B)):
            raise InvalidArgument(f"C/B needs integers, got {spell(self.C)}/{spell(self.B)}")
        if self.B < 1:
            raise InvalidArgument(f"denominator must be >= 1, got {spell(self.B)}")
        if self.C < 0:
            raise InvalidArgument(f"numerator must be >= 0, got {spell(self.C)}")
        if math.gcd(self.C, self.B) != 1:
            raise InvalidArgument(f"{spell(self.C)}/{spell(self.B)} is not reduced")

    @classmethod
    def from_fraction(cls, frac: Fraction) -> "RationalRatio":
        return cls(frac.numerator, frac.denominator)

    @classmethod
    def parse(cls, text: str) -> "RationalRatio":
        """The ratio spelled C/B, as a spectrum file and --ratios spell it."""
        c_text, _, b_text = text.partition("/")
        try:
            c, b = int(c_text), int(b_text)
        except ValueError:  # before cls(c, b), whose InvalidArgument is a ValueError too
            raise InvalidArgument(
                f"ratio {text!r} must look like C/B, with integers C and B") from None
        return cls(c, b)

    def as_fraction(self) -> Fraction:
        return Fraction(self.C, self.B)

    def __str__(self) -> str:
        return f"{self.C}/{self.B}"


@dataclass(frozen=True, eq=False)
class ClockSpectrum:
    """Diagonal data of a clock Hamiltonian plus its exact integer skeleton.

    levels  -- energies E_n in J (natural mode: multiples of 2*pi/T), E_0 = 0
    r       -- exact integers with E_n*T/(2*pi*hbar) = r_n (approximately so
               for the RATIONALIZED kind, which keeps the original levels)
    T       -- clock period in s
    hbar    -- the hbar the spectrum was built with; fixes the phase formula
    kind    -- construction recipe
    epsilon -- approximation tolerance, RATIONALIZED only
    """

    levels: np.ndarray
    r: tuple
    T: float
    hbar: float
    kind: SpectrumKind
    epsilon: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "levels", levels := _checked_levels(self.levels))
        r = tuple(self.r)
        if bad := [x for x in r if not _integer(x)]:  # int() would truncate them
            raise InvalidArgument(f"r must hold integers, got {spell(bad[0])}")
        object.__setattr__(self, "r", tuple(map(int, r)))
        if len(self.r) != len(levels):
            raise InvalidArgument("levels and r must have equal length")
        if self.r[0] != 0 or any(b <= a for a, b in zip(self.r, self.r[1:])):
            raise InvalidArgument("r must be strictly increasing from 0")
        if not (_finite(self.T) and self.T > 0):
            raise InvalidArgument(f"period must be positive, got {spell(self.T)}")
        if not (_finite(self.hbar) and self.hbar > 0):
            raise InvalidArgument(f"hbar must be positive, got {spell(self.hbar)}")

    @property
    def p(self) -> int:
        return len(self.r) - 1

    @property
    def dimension(self) -> int:
        return len(self.r)

    @property
    def has_exact_integers(self) -> bool:
        """True when E_n*T/(2*pi*hbar) = r_n holds exactly (not just within epsilon)."""
        return self.kind in (SpectrumKind.EQUALLY_SPACED, SpectrumKind.RATIONAL)

    def same_as(self, other: "ClockSpectrum") -> bool:
        """Value equality: states built from equal spectra are interoperable."""
        return self is other or (
            self.kind == other.kind
            and self.r == other.r
            and self.T == other.T
            and self.hbar == other.hbar
            and self.levels.shape == other.levels.shape
            and bool(np.all(self.levels == other.levels))
        )


def _checked_levels(levels) -> np.ndarray:
    """levels as a read-only float64 array, refused unless finite 0 = E_0 < ... < E_p."""
    if not (isinstance(levels, np.ndarray) and levels.dtype.kind in "biuf"):
        for level in np.array(levels, dtype=object).reshape(-1):  # nan, inf: refused in order below
            if not (isinstance(level, (float, np.floating)) or _finite(level)):
                raise InvalidArgument(f"levels must be finite real numbers, got {spell(level)}")
    levels = np.array(levels, dtype=float)
    levels.setflags(write=False)
    if levels.ndim != 1 or len(levels) < 2:
        raise InvalidArgument("spectrum needs at least two levels (p >= 1)")
    if levels[0] != 0.0:
        raise InvalidArgument("lowest level must be exactly 0")
    if not (np.all(levels[1:] > levels[:-1]) and _finite(levels[-1])):
        raise InvalidArgument("levels must be finite and strictly increasing (non-degenerate)")
    return levels


def max_integer(spec: ClockSpectrum) -> int:
    """The largest phase frequency r_p; z+1 > r_p guarantees completeness."""
    return spec.r[-1]


def build_equally_spaced(p: int, T: float, consts: ConstantsSet | None = None) -> ClockSpectrum:
    """Equally-spaced spectrum E_n = 2*pi*hbar*n/T with r_n = n."""
    consts = consts or natural_units()
    if not _integer(p) or p < 1:
        raise InvalidArgument(f"p must be an integer >= 1, got {spell(p)}")
    if not (_finite(T) and T > 0):
        raise InvalidArgument(f"T must be positive, got {spell(T)}")
    # per level: levels, arange, copy and mask (25 B), two r tuples (16 B), an int (32 B)
    _charge(73 * (p + 1), f"an equally spaced spectrum of {p + 1} levels")
    step = 2.0 * math.pi * consts.hbar / T
    if not (step > 0.0 and step * p < math.inf):
        raise InvalidArgument(f"T = {T!r} puts the levels 2 pi hbar n/T, n = 0..{p}, outside "
                              f"the positive float64 range (spacing {step!r})")
    levels = step * np.arange(p + 1)
    return ClockSpectrum(levels, tuple(range(p + 1)), float(T), consts.hbar,
                         SpectrumKind.EQUALLY_SPACED)


def _integers_from_ratios(ratios: Sequence[RationalRatio]) -> tuple[int, ...]:
    """LCM construction: r_1 = lcm of the B_n, r_n = r_1*C_n/B_n, all exact."""
    fracs = [r.as_fraction() for r in ratios]
    if any(f <= 1 for f in fracs):
        raise InvalidArgument("ratios E_n/E_1 must all exceed 1")
    if any(b <= a for a, b in zip(fracs, fracs[1:])):
        raise InvalidArgument("ratios must be strictly increasing")
    budget = f"the integer budget 2^{DEFAULT_INTEGER_BUDGET.bit_length() - 1}"
    r1 = 1
    for ratio in ratios:
        r1 = r1 * ratio.B // math.gcd(r1, ratio.B)
        if r1 > DEFAULT_INTEGER_BUDGET:
            raise CapacityError(f"lcm of denominators exceeds {budget}")
    r = [0, r1]
    for f in fracs:
        rn = r1 * f.numerator // f.denominator
        if rn > DEFAULT_INTEGER_BUDGET:
            raise CapacityError(f"r_n = {spell(rn)} exceeds {budget}")
        r.append(rn)
    return tuple(r)


def _period(consts: ConstantsSet, r1: int, e1: float) -> float:
    """T = 2 pi hbar r_1/E_1, refused by E_1 when it leaves the positive float range."""
    T = 2.0 * math.pi * consts.hbar * r1 / e1
    if not (T > 0.0 and T < math.inf):
        raise InvalidArgument(f"E_1 = {e1!r} puts the period 2 pi hbar r_1/E_1, r_1 = {r1}, "
                              f"outside the positive float64 range (period {T!r})")
    return T


def build_rational(ratios: Sequence[RationalRatio], e1: float,
                   consts: ConstantsSet | None = None) -> ClockSpectrum:
    """Spectrum from rational ratios E_n/E_1 (n = 2..p) and the first gap E_1.

    p = len(ratios) + 1.  An empty ratio list yields the two-level clock.
    """
    consts = consts or natural_units()
    if not (_finite(e1) and e1 > 0):
        raise InvalidArgument(f"E_1 must be positive, got {spell(e1)}")
    ratios = list(ratios)
    r = _integers_from_ratios(ratios)
    r1 = r[1]
    T = _period(consts, r1, e1)
    # E_n = E_1 * r_n / r_1 with the ratio reduced exactly before rounding
    levels = np.array([e1 * float(Fraction(rn, r1)) for rn in r])
    return ClockSpectrum(levels, r, T, consts.hbar, SpectrumKind.RATIONAL)


def simplest_fraction_between(lo: Fraction, hi: Fraction) -> Fraction:
    """The fraction with smallest denominator (then numerator) in [lo, hi].

    Stern-Brocot descent; for lo < x < hi this yields the best rational
    approximation of x within the interval, which may be a semiconvergent of
    x's continued fraction.
    """
    if lo > hi:
        raise InvalidArgument("empty interval")
    if lo <= 0 <= hi:
        return Fraction(0)
    if hi < 0:
        return -simplest_fraction_between(-hi, -lo)
    # now 0 < lo <= hi
    floor_lo = lo.numerator // lo.denominator
    if floor_lo + 1 <= hi:  # an integer sits inside
        return Fraction(max(floor_lo + (0 if lo == floor_lo else 1), 1))
    if lo == floor_lo:
        return Fraction(floor_lo)
    # both endpoints strictly inside (floor_lo, floor_lo + 1): recurse on 1/x
    inner = simplest_fraction_between(1 / (hi - floor_lo), 1 / (lo - floor_lo))
    return floor_lo + 1 / inner


def rationalize(levels: Sequence[float], epsilon: float) -> tuple[list[RationalRatio], float]:
    """Best rational approximations of the ratios E_n/E_1, n = 2..p.

    Each ratio is replaced by the fraction of smallest denominator within
    epsilon of it.  Returns the ratios and the largest approximation error
    actually achieved (0 when every ratio is exactly representable).
    """
    if not (_finite(epsilon) and epsilon > 0):
        raise InvalidArgument(f"epsilon must be positive, got {spell(epsilon)}")
    levels = _checked_levels(levels)
    eps = Fraction(epsilon)
    ratios: list[RationalRatio] = []
    worst = Fraction(0)
    for en in levels[2:]:
        x = Fraction(float(en)) / Fraction(float(levels[1]))
        best = simplest_fraction_between(x - eps, x + eps)
        worst = max(worst, abs(x - best))
        ratios.append(RationalRatio.from_fraction(best))
    return ratios, float(worst)


def rationalized_spectrum(levels: Sequence[float], epsilon: float,
                          consts: ConstantsSet | None = None) -> ClockSpectrum:
    """Approximate an arbitrary real spectrum by one with integer frequencies.

    The returned spectrum keeps the ORIGINAL levels; only r and T come from
    the rational approximation.  Completeness residuals computed from it
    therefore measure how well the approximation works, rather than assuming
    it is exact.
    """
    consts = consts or natural_units()
    ratios, _ = rationalize(levels, epsilon)
    r = _integers_from_ratios(ratios)
    T = _period(consts, r[1], float(levels[1]))
    return ClockSpectrum(levels, r, T, consts.hbar, SpectrumKind.RATIONALIZED,
                         epsilon=float(epsilon))


# --- text serialization -----------------------------------------------------
#
# Header line:  <kind> <p> <T>
# Body: one line per n = 1..p, either a bare energy in J or an exact C/B
# ratio.  Exact integers are written in decimal; floats round-trip via repr.

def dump_spectrum(spec: ClockSpectrum) -> str:
    kind = spec.kind.value
    if spec.kind is SpectrumKind.RATIONALIZED:
        kind = f"{kind}:{spec.epsilon!r}"
    lines = [f"{kind} {spec.p} {spec.T!r}"]
    if spec.kind is SpectrumKind.RATIONAL:
        lines.append(repr(float(spec.levels[1])))
        lines.extend(str(RationalRatio.from_fraction(Fraction(rn, spec.r[1]))) for rn in spec.r[2:])
    else:
        lines.extend(repr(float(e)) for e in spec.levels[1:])
    return "\n".join(lines) + "\n"


def parse_spectrum(text: str, consts: ConstantsSet | None = None) -> ClockSpectrum:
    consts = consts or natural_units()
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise InvalidArgument("empty spectrum file")
    head = lines[0].split()
    if len(head) != 3:
        raise InvalidArgument(f"bad header {lines[0]!r}, expected 'kind p T'")
    kind_text, p_text, t_text = head
    try:
        p = int(p_text)
        T = float(t_text)
    except ValueError as exc:
        raise InvalidArgument(f"bad header {lines[0]!r}") from exc
    body = lines[1:]
    if len(body) != p:
        raise InvalidArgument(f"expected {p} body lines, got {len(body)}")

    try:
        if kind_text == SpectrumKind.EQUALLY_SPACED.value:
            spec = build_equally_spaced(p, T, consts)
            stored = np.array([float(x) for x in body])
            if not np.allclose(stored, spec.levels[1:], rtol=1e-9, atol=0.0):
                raise InvalidArgument(
                    "stored energies disagree with 2*pi*hbar*n/T; "
                    "was the file written under different constants?")
        elif kind_text == SpectrumKind.RATIONAL.value:
            e1 = float(body[0])
            spec = build_rational([RationalRatio.parse(line) for line in body[1:]], e1, consts)
        elif kind_text.startswith(SpectrumKind.RATIONALIZED.value + ":"):
            epsilon = float(kind_text.split(":", 1)[1])
            levels = np.concatenate([[0.0], [float(x) for x in body]])
            spec = rationalized_spectrum(levels, epsilon, consts)
        else:
            raise InvalidArgument(f"unknown spectrum kind {kind_text!r}")
    except InvalidArgument:
        raise
    except ValueError as exc:
        raise InvalidArgument(f"malformed spectrum file: {exc}") from exc
    if not math.isclose(spec.T, T, rel_tol=1e-12):
        raise InvalidArgument(
            f"stored period {T!r} disagrees with reconstruction {spec.T!r}; "
            "was the file written under different constants?")
    return spec


def write_spectrum(spec: ClockSpectrum, path: str) -> None:
    """Write spec's text to path; refused, with no file opened, where read_spectrum would be."""
    text = dump_spectrum(spec)
    _charge(_READ_CHARGE * len(text), f"reading back a spectrum file of {len(text)} bytes")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def read_spectrum(path: str, consts: ConstantsSet | None = None) -> ClockSpectrum:
    with open(path, encoding="utf-8") as fh:
        info = os.fstat(fh.fileno())
        try:
            if stat.S_ISREG(info.st_mode):
                _charge(_READ_CHARGE * info.st_size, f"a spectrum file of {info.st_size} bytes")
                text = fh.read()
            else:  # a pipe or a device states no size: read no more than the budget admits
                text = fh.read(_BYTE_BUDGET // _READ_CHARGE + 1)
                _charge(_READ_CHARGE * len(text),
                        f"a spectrum file of {len(text)} or more characters")
        except UnicodeDecodeError as exc:
            raise InvalidArgument(f"spectrum file {path!r} is not UTF-8 text") from exc
        return parse_spectrum(text, consts)
