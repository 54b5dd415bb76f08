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
sweep calls it once for all of its steps.  The kernel owns every stage of a
row, the spectrum and its speed limit included, and the defaults m <- m_rest,
Theta <- T and z <- r_p.  The columns give the bits of the one-value
formulas: +, -, *, / and sqrt round correctly in numpy as in Python
when the operations come in the same order, and the powers of a swept value
(the cube roots in the mass limit and the fundamental floor) are taken with
Python's ** one element at a time, since numpy's power differs from it in the
last bit.  A refusal names the first row at fault and, in that row, the first
check that fails, in the order one-value evaluation would meet them; each
check is spelled once, for a number and a column alike.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateClock, InvalidArgument, QClockError, SchwarzschildViolation,
                     _at_least, _finite, _integer, spell)
from .spectrum import ClockSpectrum, SpectrumKind
from .units import ConstantsSet, derive_planck_scale


# --- the checks, each spelled once ---------------------------------------------

def _positive(x):  # x > 0 in the float64 range, for a number or a column
    finite = _finite(x)
    return finite & (x > 0.0) if np.ndim(finite) else finite and x > 0.0


def _non_negative(x):
    return (x == 0.0) | _positive(x)


# a check of a number or a column: (test, error, message spelling the value at fault)
_PERIOD = (_positive, InvalidArgument, "period must be positive, got {}")
_OPERATIONAL_TIME = (_positive, InvalidArgument, "operational time must be positive, got {}")
_MASS = (_positive, InvalidArgument, "mass must be positive, got {}")
_BODY_CHECKS = (  # of l_C, m_rest and m
    (_positive, InvalidArgument, "clock diameter must be positive, got {}"),
    (_non_negative, InvalidArgument, "rest mass must be >= 0, got {}"),
    (_non_negative, InvalidArgument, "inertial mass must be >= 0, got {}"),
)
# the confinement checks, of l_C/2 > 2 G m_rest/c^2 and of chi
_ADMISSIBLE = (lambda ok: ok, SchwarzschildViolation,
               "clock half-diameter does not exceed twice G m_rest/c^2; "
               "the confinement bound would be negative")
_CONFINED = (lambda chi: chi > 0.0, SchwarzschildViolation, "confinement rate is not positive")


def _require(check, value) -> None:
    """A check of one value: raise its error unless the value passes."""
    test, error, message = check
    if not test(value):
        raise error(message.format(spell(value)))


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
        for check, value in zip(_BODY_CHECKS, (self.l_C, self.m_rest, self.m)):
            _require(check, value)


# --- the formulas, each on a float or a numpy column --------------------------

def _pow(base, exponent: float):
    """base ** exponent by Python's pow, one element at a time over an array,
    whose power numpy can round differently in the last bit; nan below 0."""
    if np.ndim(base) == 0:
        return base ** exponent
    return np.fromiter((b ** exponent if b >= 0.0 else math.nan for b in map(float, base)),
                       float, count=base.size)


def _confinement(consts: ConstantsSet, l_C, m_rest, require):
    """chi = l_C/(4 l_p t_p) - m_rest c^2/hbar, after require(check, value) is given
    the confinement checks: the body is wider than its Schwarzschild diameter, chi > 0."""
    require(_ADMISSIBLE, l_C / 2.0 > 2.0 * consts.G * m_rest / consts.c**2)
    scale = derive_planck_scale(consts)
    chi = l_C / (4.0 * scale.l_p * scale.t_p) - m_rest * consts.c**2 / consts.hbar
    require(_CONFINED, chi)
    return chi


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


def _in_float(name: str, n: int) -> float:
    """float(n) for an int n, refused by name when it is past the float64 range."""
    if not _finite(n):
        raise InvalidArgument(f"{name} has {n.bit_length()} bits, past the float64 range")
    return float(n)


def _dial_states(z, p, r_p=None) -> float:
    """float(z+1), the one check of z for a bound: z is an int with z >= p for an
    equally spaced spectrum, or z+1 > r_p for a generic one (r_p given)."""
    if not _integer(z):
        raise InvalidArgument(f"z must be an integer, got {spell(z)}")
    z = int(z)
    if r_p is None:
        if z < p:
            raise InvalidArgument(f"need z >= p, got z={spell(z)}, p={spell(p)}")
    elif not z + 1 > r_p:
        raise InvalidArgument(f"completeness requires z+1 > r_p, "
                              f"got z+1={spell(z + 1)}, r_p={spell(r_p)}")
    return _in_float("z+1", z + 1)


# --- one limit at a time ------------------------------------------------------

def confinement_rate(body: ClockBody, consts: ConstantsSet) -> float:
    """chi = l_C/(4 l_p t_p) - m_rest c^2/hbar, guarding admissibility."""
    return _confinement(consts, body.l_C, body.m_rest, _require)


def discretization_bound(body: ClockBody, consts: ConstantsSet,
                         p: int, z: int) -> float:
    """Minimum dial spacing for the equally-spaced clock, z+1 time states."""
    p = _at_least("p", p, 1)
    zp1 = _dial_states(z, p)
    return _discretization(confinement_rate(body, consts), p + 1, zp1)


def discretization_bound_generic(body: ClockBody, consts: ConstantsSet,
                                 r_p: int, z: int) -> float:
    """Minimum dial spacing for a generic rational spectrum with largest r_p."""
    r_p = _at_least("r_p", r_p, 1)
    zp1 = _dial_states(z, None, r_p)
    return _discretization(confinement_rate(body, consts), r_p, zp1)


def continuum_condition(body: ClockBody, consts: ConstantsSet,
                        T: float, count: int) -> bool:
    """True when T > 2 pi count / chi, so z -> infinity stays consistent.

    count is p+1 for the equally-spaced clock and r_p for a generic one; both
    sides of the discretization inequality then scale as 1/(z+1), so the
    spacing never crosses its own bound.
    """
    _require(_PERIOD, T)
    count = _in_float("count", _at_least("count", count, 1))
    return T > 2.0 * math.pi * count / confinement_rate(body, consts)


def structural_bound(T: float, p: int) -> float:
    """dt >= T/(p+1): the clock only visits p+1 distinguishable dial states."""
    _require(_PERIOD, T)
    return T / _in_float("p+1", _at_least("p", p, 0) + 1)


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
    _require(_MASS, m)
    _require(_OPERATIONAL_TIME, theta)
    dx = float(_spread(consts, m, theta))
    return SpreadingBound(delta_x_opt=dx, dt=dx / consts.c)


def gravitational_mass_limit(theta: float, consts: ConstantsSet) -> float:
    """m < (c^4 hbar Theta / (32 G^2))^(1/3): spread must clear 2x the Schwarzschild radius."""
    _require(_OPERATIONAL_TIME, theta)
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
    _require(_OPERATIONAL_TIME, theta)
    hbar, c, G = consts.hbar, consts.c, consts.G

    def dt_spread(m):
        return math.sqrt(hbar * theta / (2.0 * m)) / c

    def dt_compton(m):
        return hbar / (m * c**2)

    def dt_grav(m):
        return 4.0 * G * m / c**3

    m_cg = math.sqrt(hbar * c / (4.0 * G))
    if include_compton and dt_compton(m_cg) >= dt_spread(m_cg):
        m_opt = m_cg
    else:
        m_opt = gravitational_mass_limit(theta, consts)
    dt_min = max(dt_spread(m_opt), dt_grav(m_opt))
    if include_compton:
        dt_min = max(dt_min, dt_compton(m_opt))
    compton = include_compton and dt_compton(m_opt) > dt_spread(m_opt)
    regime = MassRegime.COMPTON_GRAV_FLOOR if compton else MassRegime.SPREADING_GRAV
    return MassOptimum(m_opt=m_opt, dt_min=dt_min, regime=regime)


def fundamental_resolution(theta: float, consts: ConstantsSet) -> float:
    """The spectrum-independent floor 2^(1/3) Theta^(1/3) t_p^(2/3).

    Valid for Theta >= 4 t_p; below that the Compton/gravity intersection
    takes over and the mass optimizer's floor (about 2 t_p) is returned.
    """
    _require(_OPERATIONAL_TIME, theta)
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
    row = {name: column[0].item() for name, column in
           _bound_columns(consts, spec, body.l_C, body.m_rest, body.m, theta, z).items()}
    row["binding"] = _BINDINGS[row["binding"]]
    return BoundReport(**row, m=body.m, m_rest=body.m_rest)


# --- every limit over columns -------------------------------------------------

# the checks one row meets, in the order one-value evaluation meets them
_SPECTRUM, _BODY, _THETA, _DIAL, _CONFINEMENT, _SPEED, _SPREADING, _FINITE = range(8)
# the bounds that compete to bind; a tie goes to the first
_BINDINGS = tuple(BindingBound)


def _bound_columns(consts: ConstantsSet, spectrum, l_C, m_rest, m=None, theta=None,
                   z=None, *, label=None) -> dict:
    """Every limit over columns of clock configurations, and which one binds.

    spectrum is the ClockSpectrum every row shares, or a pair (T, build) for
    rows that differ in their period alone: T a 1-d array of periods and
    build(T) the spectrum of one, with the same r_n for every T.  The kernel
    owns the spectrum and speed-limit stages, building one spectrum at a time
    and reading p and r_p (the largest r_n, None when equally spaced) from it,
    and the defaults m <- m_rest, theta <- the row's T and z <- the largest
    r_n.  l_C, m_rest, m and theta are each a float or a 1-d array with one
    entry per row, and z is shared.

    Returns the BoundReport fields but m and m_rest, each an array with one
    entry per row; binding holds indices into BindingBound, in its order.  A
    refusal is raised for the first row at fault, and for the first of its
    checks that fails; label(row, message) gives its message when label is
    given.
    """
    found = []

    def note(row, stage, error, message):
        found.append((row, stage, len(found), error, message))

    def note_first(stage, ok, error, message):
        """Note the first row where ok is False; message(row) says what is wrong.
        An ok of one entry, from inputs shared by every row, is first at row 0."""
        bad = ~ok
        row = int(bad.argmax())
        if bad[row]:
            note(row, stage, error, message(row))

    def require(stage, check, x):
        """A check of one value, on each entry of the column x."""
        test, error, message = check
        note_first(stage, test(x), error, lambda i: message.format(spell(x[i].item())))

    def refuse():
        row, _, _, error, message = min(found)
        raise error(label(row, message) if label else message)

    if isinstance(spectrum, ClockSpectrum):
        T, build, spec = spectrum.T, None, spectrum
    else:
        T, build = spectrum
    speed = np.full(np.size(T), math.nan)
    for row, period in enumerate(np.reshape(T, -1).tolist()):
        stage = _SPECTRUM
        try:
            if build is not None:  # one spectrum held at a time
                spec = build(period)
            stage = _SPEED
            speed[row] = speed_limit_bound(spec)
        except QClockError as exc:
            note(row, stage, type(exc), str(exc))
            if row == 0 and stage == _SPECTRUM:  # no spectrum, so no p
                refuse()
            break
    p, r_p = spec.p, None if spec.kind is SpectrumKind.EQUALLY_SPACED else spec.r[-1]
    theta = T if theta is None else theta  # one float64 cannot hold: nan, spelled as given
    shown = None if isinstance(theta, np.ndarray) or _finite(theta) else spell(theta)
    l_C, m_rest, m, theta, T = (np.asarray(x, dtype=float).reshape(-1) for x in
                                (l_C, m_rest, m_rest if m is None else m,
                                 math.nan if shown else theta, T))
    n = max(x.size for x in (l_C, m_rest, m, theta, T))

    with np.errstate(all="ignore"):  # rows at fault compute nan and inf, then are refused
        for check, x in zip(_BODY_CHECKS, (l_C, m_rest, m)):
            require(_BODY, check, x)
        note_first(_THETA, (0.0 < theta) & (theta <= T), InvalidArgument,
                   lambda i: "operational time must lie in (0, T] = (0, {!r}], got {}".format(
                       T[i % T.size].item(), shown or repr(theta[i % theta.size].item())))
        try:
            zp1 = _dial_states(spec.r[-1] if z is None else z, p, r_p)
        except InvalidArgument as exc:
            zp1 = math.nan
            note(0, _DIAL, InvalidArgument, str(exc))
        chi = _confinement(consts, l_C, m_rest, lambda c, x: require(_CONFINEMENT, c, x))
        require(_SPREADING, _MASS, m)
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
            note_first(_FINITE, np.isfinite(column), QClockError,
                       lambda i: f"bound {name} = {column[i].item()!r} is not finite")
    if found:
        refuse()
    columns = {**bounds, "theta": theta, "binding": binding}
    return {name: column if column.size == n else np.broadcast_to(column, (n,))
            for name, column in columns.items()}
