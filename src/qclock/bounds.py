"""Relativistic limits on clock discretization and resolution.

All limits descend from one confinement statement: the energy packed into the
clock, plus its rest mass, must not push the body inside its own
Schwarzschild radius.  For a body of diameter l_C and rest mass m_rest this
caps the spectral extent and produces the recurring factor

    chi = l_C/(4 l_p t_p) - m_rest c^2 / hbar        [1/s]

which is positive exactly when l_C/2 > 2 G m_rest / c^2.  The limits:

  discretization      delta_tau > 2 pi / chi * (p+1)/(z+1)   (equally spaced)
                      delta_tau > 2 pi / chi * r_p/(z+1)     (generic spectrum)
  continuum safety    T > 2 pi * count / chi   (count = p+1 or r_p) lets
                      z -> infinity without the spacing crossing its bound
  structural          dt >= T/(p+1), from p+1 distinguishable dial states
  quantum speed limit dt >= max(pi hbar/(2 Ebar), pi hbar/(2 dE))
  its floor           dt > pi / chi
  spreading           dt >= sqrt(hbar Theta / (2 m)) / c, the optimal-dx case
  mass requirement    m < (c^4 hbar Theta / (32 G^2))^(1/3)
  fundamental         dt > 2^(1/3) Theta^(1/3) t_p^(2/3)  for Theta >= 4 t_p,
                      flattening to 2 t_p below (Compton/gravity floor)

The mass optimizer treats the spreading, Compton, and gravitational
(dt > 4 G m / c^3) curves as lower bounds in the (m, dt) plane and minimizes
their pointwise maximum; for Theta > 4 t_p the Compton curve never binds.

Every limit is a closed form in (l_C, m_rest, m, Theta, T, p, r_p, z) and the
speed limit of the spectrum, so one private kernel, _bound_columns, evaluates
them all over numpy columns: bound_report is its one-row case, and the CLI
sweep calls it once for all of its steps.  The columns give the bits of the
one-value formulas: +, -, *, / and sqrt round correctly in numpy as in Python
when the operations come in the same order, and the powers of a swept value
(the cube roots in the mass limit and the fundamental floor) are taken with
Python's ** one element at a time, since numpy's power differs from it in the
last bit.  A refusal names the first row at fault and, in that row, the first
check that fails, in the order one-value evaluation would meet them.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateClock, InvalidArgument, QClockError,
                     SchwarzschildViolation)
from .spectrum import ClockSpectrum, SpectrumKind
from .units import ConstantsSet, derive_planck_scale


# ClockBody's checks, on a number or a column: (field, test, message)
_BODY_CHECKS = (
    ("l_C", lambda x: (x > 0.0) & (abs(x) < math.inf),
     "clock diameter must be positive, got {!r}"),
    ("m_rest", lambda x: (x >= 0.0) & (abs(x) < math.inf), "rest mass must be >= 0, got {!r}"),
    ("m", lambda x: np.logical_not(x < 0.0), "inertial mass must be >= 0, got {!r}"),
)
_INSIDE = ("clock half-diameter does not exceed twice G m_rest/c^2; "
           "the confinement bound would be negative")


@dataclass(frozen=True)
class ClockBody:
    """Geometry and mass of the physical clock.

    m is the inertial mass used in the spreading analysis and defaults to
    m_rest (the realistic identification); keep both visible so the
    approximation is explicit in reports.
    """

    l_C: float            # diameter, m
    m_rest: float = 0.0   # rest mass excluding internal energy, kg
    m: float | None = None

    def __post_init__(self):
        if self.m is None:
            object.__setattr__(self, "m", self.m_rest)
        for name, ok, message in _BODY_CHECKS:
            value = getattr(self, name)
            if not ok(value):
                raise InvalidArgument(message.format(value))


# --- the formulas, each on a float or a numpy column --------------------------

def _pow(base, exponent: float):
    """base ** exponent by Python's pow, one element at a time over an array,
    whose power numpy can round differently in the last bit; nan below 0."""
    if np.ndim(base) == 0:
        return base ** exponent
    return np.fromiter((b ** exponent if b >= 0.0 else math.nan for b in map(float, base)),
                       float, count=base.size)


def _admissible(consts: ConstantsSet, l_C, m_rest):
    """l_C/2 > 2 G m_rest/c^2: the body is wider than its Schwarzschild diameter."""
    return l_C / 2.0 > 2.0 * consts.G * m_rest / consts.c**2


def _chi(consts: ConstantsSet, l_C, m_rest):
    scale = derive_planck_scale(consts)
    return l_C / (4.0 * scale.l_p * scale.t_p) - m_rest * consts.c**2 / consts.hbar


def _discretization(chi, count, zp1: float):
    return 2.0 * math.pi / chi * count / zp1


def _spread(consts: ConstantsSet, m, theta):
    """The optimal position spread delta_x_opt = sqrt(hbar Theta/(2m))."""
    return np.sqrt(consts.hbar * theta / (2.0 * m))


def _mass_limit(consts: ConstantsSet, theta):
    return _pow(consts.c**4 * consts.hbar * theta / (32.0 * consts.G**2), 1.0 / 3.0)


def _fundamental(consts: ConstantsSet, theta: np.ndarray) -> np.ndarray:
    """fundamental_resolution over a column of operational times."""
    t_p = derive_planck_scale(consts).t_p
    dt = 2.0 ** (1.0 / 3.0) * _pow(theta, 1.0 / 3.0) * t_p ** (2.0 / 3.0)
    # below 4 t_p the mass optimizer's Compton/gravity floor takes over
    for i in np.flatnonzero((theta > 0.0) & ~(theta >= 4.0 * t_p)):
        dt[i] = optimize_mass(float(theta[i]), consts, include_compton=True).dt_min
    return dt


def _dial_states(z, p, r_p=None) -> float:
    """float(z+1), the one check of z for a bound: z is an int with z >= p for an
    equally spaced spectrum, or z+1 > r_p for a generic one (r_p given)."""
    if not isinstance(z, (int, np.integer)):
        raise InvalidArgument(f"z must be an integer, got {z!r}")
    z = int(z)
    if r_p is None:
        if z < p:
            raise InvalidArgument(f"need z >= p, got z={z}, p={p}")
    elif not z + 1 > r_p:
        raise InvalidArgument(f"completeness requires z+1 > r_p, got z+1={z + 1}, r_p={r_p}")
    try:
        return float(z + 1)
    except OverflowError:
        raise InvalidArgument(f"z+1 has {(z + 1).bit_length()} bits, "
                              "past the float64 range") from None


# --- one limit at a time ------------------------------------------------------

def confinement_rate(body: ClockBody, consts: ConstantsSet) -> float:
    """chi = l_C/(4 l_p t_p) - m_rest c^2/hbar, guarding admissibility."""
    if not _admissible(consts, body.l_C, body.m_rest):
        raise SchwarzschildViolation(_INSIDE)
    chi = _chi(consts, body.l_C, body.m_rest)
    if not chi > 0.0:
        raise SchwarzschildViolation("confinement rate is not positive")
    return chi


def discretization_bound(body: ClockBody, consts: ConstantsSet,
                         p: int, z: int) -> float:
    """Minimum dial spacing for the equally-spaced clock, z+1 time states."""
    if p < 1:
        raise InvalidArgument(f"p must be >= 1, got {p}")
    zp1 = _dial_states(z, p)
    return _discretization(confinement_rate(body, consts), p + 1, zp1)


def discretization_bound_generic(body: ClockBody, consts: ConstantsSet,
                                 r_p: int, z: int) -> float:
    """Minimum dial spacing for a generic rational spectrum with largest r_p."""
    if r_p < 1:
        raise InvalidArgument(f"r_p must be >= 1, got {r_p}")
    zp1 = _dial_states(z, None, r_p)
    return _discretization(confinement_rate(body, consts), r_p, zp1)


def continuum_condition(body: ClockBody, consts: ConstantsSet,
                        T: float, count: int) -> bool:
    """True when T > 2 pi count / chi, so z -> infinity stays consistent.

    count is p+1 for the equally-spaced clock and r_p for a generic one; both
    sides of the discretization inequality then scale as 1/(z+1), so the
    spacing never crosses its own bound.
    """
    if not (T > 0 and math.isfinite(T)):
        raise InvalidArgument(f"period must be positive, got {T!r}")
    if count < 1:
        raise InvalidArgument(f"count must be >= 1, got {count}")
    chi = confinement_rate(body, consts)
    return T > 2.0 * math.pi * count / chi


def structural_bound(T: float, p: int) -> float:
    """dt >= T/(p+1): the clock only visits p+1 distinguishable dial states."""
    if not (T > 0 and math.isfinite(T)):
        raise InvalidArgument(f"period must be positive, got {T!r}")
    if p < 0:
        raise InvalidArgument(f"p must be >= 0, got {p}")
    return T / (p + 1)


def speed_limit_bound(spec: ClockSpectrum) -> float:
    """Margolus-Levitin / Mandelstam-Tamm time to orthogonality of the dial state.

    The flat superposition has mean energy Ebar = mean(E_n) and spread
    dE = population std; the bound is max(pi hbar/(2 Ebar), pi hbar/(2 dE)).
    """
    if spec.dimension < 2:
        raise DegenerateClock("a single-level clock never reaches an orthogonal state")
    with np.errstate(over="ignore"):
        e_bar = float(spec.levels.mean())
        d_e = float(spec.levels.std())
    # an overflowed spread would read as an infinitely fast clock
    if not (math.isfinite(e_bar) and math.isfinite(d_e)):
        raise InvalidArgument(f"energy moments overflow float64 "
                              f"(top level {float(spec.levels[-1])!r})")
    if d_e == 0.0:
        raise DegenerateClock("zero energy spread")
    h = spec.hbar
    return max(math.pi * h / (2.0 * e_bar), math.pi * h / (2.0 * d_e))


def speed_limit_gravitational_floor(body: ClockBody, consts: ConstantsSet) -> float:
    """Confinement-induced floor pi/chi under the quantum speed limit.

    Follows from Ebar <= E_p, 2 dE <= E_p and the confinement cap on E_p;
    equals half the z = p discretization bound.
    """
    return math.pi / confinement_rate(body, consts)


@dataclass(frozen=True)
class SpreadingBound:
    delta_x_opt: float  # m
    dt: float           # s


def spreading_bound(m: float, theta: float, consts: ConstantsSet) -> SpreadingBound:
    """Optimal position spread sqrt(hbar Theta/(2m)) and the dt it costs.

    A free clock's wave packet spreads; the spread that minimizes the total
    position uncertainty after an operational time Theta translates into a
    timing uncertainty dt = delta_x/c via the light signals that read it.
    """
    if not (m > 0 and math.isfinite(m)):
        raise InvalidArgument(f"mass must be positive, got {m!r}")
    if not (theta > 0 and math.isfinite(theta)):
        raise InvalidArgument(f"operational time must be positive, got {theta!r}")
    dx = float(_spread(consts, m, theta))
    return SpreadingBound(delta_x_opt=dx, dt=dx / consts.c)


def gravitational_mass_limit(theta: float, consts: ConstantsSet) -> float:
    """m < (c^4 hbar Theta / (32 G^2))^(1/3): spread must clear 2x the Schwarzschild radius."""
    if not (theta > 0 and math.isfinite(theta)):
        raise InvalidArgument(f"operational time must be positive, got {theta!r}")
    return _mass_limit(consts, theta)


class MassRegime(enum.Enum):
    SPREADING_GRAV = "spreading_grav"
    COMPTON_GRAV_FLOOR = "compton_grav_floor"


@dataclass(frozen=True)
class MassOptimum:
    m_opt: float   # kg
    dt_min: float  # s
    regime: MassRegime


def optimize_mass(theta: float, consts: ConstantsSet,
                  include_compton: bool = True) -> MassOptimum:
    """Minimize dt over the clock mass under spreading, Compton, and gravity.

    The three lower-bound curves in the (m, dt) plane are

        spreading  dt = sqrt(hbar Theta/(2m))/c      (decreasing)
        Compton    dt = hbar/(m c^2)                 (decreasing, optional)
        gravity    dt = 4 G m / c^3                  (increasing)

    so their pointwise max is V-shaped and its minimiser is the kink, where
    the decreasing envelope meets gravity: the spreading/gravity intersection
    at the gravitational mass limit, or the Compton/gravity intersection at
    sqrt(hbar c/(4G)), half the Planck mass, once Compton dominates there.
    """
    if not (theta > 0 and math.isfinite(theta)):
        raise InvalidArgument(f"operational time must be positive, got {theta!r}")
    hbar, c, G = consts.hbar, consts.c, consts.G

    def dt_spread(m):
        return math.sqrt(hbar * theta / (2.0 * m)) / c

    def dt_compton(m):
        return hbar / (m * c**2)

    def dt_grav(m):
        return 4.0 * G * m / c**3

    def objective(m):
        dt = max(dt_spread(m), dt_grav(m))
        if include_compton:
            dt = max(dt, dt_compton(m))
        return dt

    m_cg = math.sqrt(hbar * c / (4.0 * G))
    if include_compton and dt_compton(m_cg) >= dt_spread(m_cg):
        m_opt = m_cg
    else:
        m_opt = gravitational_mass_limit(theta, consts)
    dt_min = objective(m_opt)
    if include_compton and dt_compton(m_opt) > dt_spread(m_opt):
        regime = MassRegime.COMPTON_GRAV_FLOOR
    else:
        regime = MassRegime.SPREADING_GRAV
    return MassOptimum(m_opt=m_opt, dt_min=dt_min, regime=regime)


def fundamental_resolution(theta: float, consts: ConstantsSet) -> float:
    """The spectrum-independent floor 2^(1/3) Theta^(1/3) t_p^(2/3).

    Valid for Theta >= 4 t_p; below that the Compton/gravity intersection
    takes over and the mass optimizer's floor (about 2 t_p) is returned.
    """
    if not (theta > 0 and math.isfinite(theta)):
        raise InvalidArgument(f"operational time must be positive, got {theta!r}")
    return float(_fundamental(consts, np.array([float(theta)]))[0])


class BindingBound(enum.Enum):
    STRUCTURAL = "structural"
    SPEED_LIMIT = "speed_limit"
    SPREADING = "spreading"
    FUNDAMENTAL = "fundamental"


@dataclass(frozen=True)
class BoundReport:
    """Every limit evaluated for one clock configuration, plus which binds."""

    delta_tau_min: float   # discretization bound on the dial spacing, s
    structural_dt: float
    speed_limit_dt: float
    spreading_dt: float
    mass_limit: float      # kg
    fundamental_dt: float
    binding: BindingBound
    theta: float
    delta_x_opt: float
    m: float
    m_rest: float


def bound_report(body: ClockBody, consts: ConstantsSet, spec: ClockSpectrum,
                 z: int, theta: float | None = None) -> BoundReport:
    """Evaluate every limit and tag the largest lower bound on dt as binding:
    the one-row case of _bound_columns."""
    faults = []
    try:
        speed = speed_limit_bound(spec)
    except QClockError as exc:
        speed, faults = math.nan, [(0, _SPEED, exc)]
    generic = spec.kind is not SpectrumKind.EQUALLY_SPACED
    columns = _bound_columns(consts, body.l_C, body.m_rest, body.m,
                             spec.T if theta is None else float(theta), spec.T, spec.p,
                             spec.r[-1] if generic else None, z, speed, faults=faults)
    row = {name: column[0].item() for name, column in columns.items()}
    row["binding"] = _BINDINGS[row["binding"]]
    return BoundReport(**row, m=body.m, m_rest=body.m_rest)


# --- every limit over columns -------------------------------------------------

# the checks one row meets, in the order one-value evaluation meets them
_SPECTRUM, _BODY, _THETA, _DIAL, _CONFINEMENT, _SPEED, _SPREADING, _FINITE = range(8)
# the bounds that compete to bind; a tie goes to the first
_BINDINGS = tuple(BindingBound)


def _bound_columns(consts: ConstantsSet, l_C, m_rest, m, theta, T, p: int,
                   r_p: int | None, z, speed, *, faults=(), label=None) -> dict:
    """Every limit over columns of clock configurations, and which one binds.

    l_C, m_rest, m, theta, T and speed (the speed-limit bound of the row's
    spectrum) are each a float or a 1-d array with one entry per row.  p, z
    and r_p, the spectrum's largest r_n or None when it is equally spaced, are
    shared by every row.  faults lists (row, stage, error) for the checks the
    caller ran itself: a row's spectrum (_SPECTRUM) and its speed limit
    (_SPEED).

    Returns the BoundReport fields but m and m_rest, each an array with one
    entry per row; binding holds indices into BindingBound, in its order.  A
    refusal is raised for the first row at fault, and for the first of its
    checks that fails; label(row, message) gives its message when label is
    given.
    """
    given = {"l_C": l_C, "m_rest": m_rest, "m": m, "theta": theta, "T": T}
    l_C, m_rest, m, theta, T, speed = (np.asarray(x, dtype=float).reshape(-1)
                                       for x in (l_C, m_rest, m, theta, T, speed))
    body = {"l_C": l_C, "m_rest": m_rest, "m": m}
    n = max(x.size for x in (l_C, m_rest, m, theta, T, speed))
    found = [(row, stage, seq, type(exc), str(exc))
             for seq, (row, stage, exc) in enumerate(faults)]

    def check(stage, ok, error, message):
        """Note the first row where ok is False; message(row) says what is wrong.
        An ok of one entry, from inputs shared by every row, is first at row 0."""
        bad = ~ok
        row = int(bad.argmax())
        if bad[row]:
            found.append((row, stage, len(found), error, message(row)))

    def value(name, row):
        """A row's input as the caller gave it, for a message."""
        x = given[name]
        return x if np.ndim(x) == 0 else x[row].item()

    with np.errstate(all="ignore"):  # rows at fault compute nan and inf, then are refused
        for name, ok, message in _BODY_CHECKS:
            check(_BODY, ok(body[name]), InvalidArgument,
                  lambda i: message.format(value(name, i)))
        check(_THETA, (0.0 < theta) & (theta <= T), InvalidArgument,
              lambda i: f"operational time must lie in (0, T] = (0, {value('T', i)!r}], "
                        f"got {value('theta', i)!r}")
        try:
            zp1 = _dial_states(z, p, r_p)
        except InvalidArgument as exc:
            zp1 = math.nan
            check(_DIAL, np.zeros(1, dtype=bool), InvalidArgument, lambda i: str(exc))
        check(_CONFINEMENT, _admissible(consts, l_C, m_rest), SchwarzschildViolation,
              lambda i: _INSIDE)
        chi = _chi(consts, l_C, m_rest)
        check(_CONFINEMENT, chi > 0.0, SchwarzschildViolation,
              lambda i: "confinement rate is not positive")
        check(_SPREADING, (m > 0.0) & np.isfinite(m), InvalidArgument,
              lambda i: f"mass must be positive, got {value('m', i)!r}")
        dx = _spread(consts, m, theta)
        bounds = {
            "delta_tau_min": _discretization(chi, float(p + 1 if r_p is None else r_p), zp1),
            "structural_dt": T / float(p + 1),
            "speed_limit_dt": speed,
            "spreading_dt": dx / consts.c,
            "mass_limit": _mass_limit(consts, theta),
            "fundamental_dt": _fundamental(consts, theta),
            "delta_x_opt": dx,
        }
        # the first of equal bounds binds, as max over them in BindingBound order
        binding, best = np.zeros(1, dtype=np.int8), bounds["structural_dt"]
        for k, name in enumerate(("speed_limit_dt", "spreading_dt", "fundamental_dt"), 1):
            above = bounds[name] > best
            binding = np.where(above, np.int8(k), binding)
            best = np.where(above, bounds[name], best)
        for name, column in bounds.items():  # BoundReport's order
            check(_FINITE, np.isfinite(column), QClockError,
                  lambda i: f"bound {name} = {column[i].item()!r} is not finite")
    if found:
        row, _, _, error, message = min(found)
        raise error(label(row, message) if label else message)
    columns = {**bounds, "theta": theta, "binding": binding}
    return {name: column if column.size == n else np.broadcast_to(column, (n,))
            for name, column in columns.items()}
