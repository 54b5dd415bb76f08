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
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import (DegenerateClock, InvalidArgument, QClockError,
                     SchwarzschildViolation)
from .spectrum import ClockSpectrum, SpectrumKind
from .units import ConstantsSet, derive_planck_scale


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
        if not (self.l_C > 0 and math.isfinite(self.l_C)):
            raise InvalidArgument(f"clock diameter must be positive, got {self.l_C!r}")
        if not (self.m_rest >= 0 and math.isfinite(self.m_rest)):
            raise InvalidArgument(f"rest mass must be >= 0, got {self.m_rest!r}")
        if self.m is None:
            object.__setattr__(self, "m", self.m_rest)
        if self.m < 0:
            raise InvalidArgument(f"inertial mass must be >= 0, got {self.m!r}")


def confinement_rate(body: ClockBody, consts: ConstantsSet) -> float:
    """chi = l_C/(4 l_p t_p) - m_rest c^2/hbar, guarding admissibility."""
    if not body.l_C / 2.0 > 2.0 * consts.G * body.m_rest / consts.c**2:
        raise SchwarzschildViolation(
            "clock half-diameter does not exceed twice G m_rest/c^2; "
            "the confinement bound would be negative")
    scale = derive_planck_scale(consts)
    chi = body.l_C / (4.0 * scale.l_p * scale.t_p) - body.m_rest * consts.c**2 / consts.hbar
    if not chi > 0.0:
        raise SchwarzschildViolation("confinement rate is not positive")
    return chi


def discretization_bound(body: ClockBody, consts: ConstantsSet,
                         p: int, z: int) -> float:
    """Minimum dial spacing for the equally-spaced clock, z+1 time states."""
    if p < 1:
        raise InvalidArgument(f"p must be >= 1, got {p}")
    if z < p:
        raise InvalidArgument(f"need z >= p, got z={z}, p={p}")
    chi = confinement_rate(body, consts)
    return 2.0 * math.pi / chi * (p + 1) / (z + 1)


def discretization_bound_generic(body: ClockBody, consts: ConstantsSet,
                                 r_p: int, z: int) -> float:
    """Minimum dial spacing for a generic rational spectrum with largest r_p."""
    if r_p < 1:
        raise InvalidArgument(f"r_p must be >= 1, got {r_p}")
    if not z + 1 > r_p:
        raise InvalidArgument(f"completeness requires z+1 > r_p, got z+1={z + 1}, r_p={r_p}")
    chi = confinement_rate(body, consts)
    return 2.0 * math.pi / chi * r_p / (z + 1)


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
    e_bar = float(spec.levels.mean())
    d_e = float(spec.levels.std())
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
    dx = math.sqrt(consts.hbar * theta / (2.0 * m))
    return SpreadingBound(delta_x_opt=dx, dt=dx / consts.c)


def gravitational_mass_limit(theta: float, consts: ConstantsSet) -> float:
    """m < (c^4 hbar Theta / (32 G^2))^(1/3): spread must clear 2x the Schwarzschild radius."""
    if not (theta > 0 and math.isfinite(theta)):
        raise InvalidArgument(f"operational time must be positive, got {theta!r}")
    return (consts.c**4 * consts.hbar * theta / (32.0 * consts.G**2)) ** (1.0 / 3.0)


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
    t_p = derive_planck_scale(consts).t_p
    if theta >= 4.0 * t_p:
        return 2.0 ** (1.0 / 3.0) * theta ** (1.0 / 3.0) * t_p ** (2.0 / 3.0)
    return optimize_mass(theta, consts, include_compton=True).dt_min


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
    """Evaluate every limit and tag the largest lower bound on dt as binding."""
    theta = spec.T if theta is None else float(theta)
    if not 0.0 < theta <= spec.T:
        raise InvalidArgument(
            f"operational time must lie in (0, T] = (0, {spec.T!r}], got {theta!r}")
    if spec.kind is SpectrumKind.EQUALLY_SPACED:
        delta_tau = discretization_bound(body, consts, spec.p, z)
    else:
        delta_tau = discretization_bound_generic(body, consts, spec.r[-1], z)
    structural = structural_bound(spec.T, spec.p)
    speed = speed_limit_bound(spec)
    spreading = spreading_bound(body.m, theta, consts)
    fundamental = fundamental_resolution(theta, consts)
    lower_bounds = {
        BindingBound.STRUCTURAL: structural,
        BindingBound.SPEED_LIMIT: speed,
        BindingBound.SPREADING: spreading.dt,
        BindingBound.FUNDAMENTAL: fundamental,
    }
    binding = max(lower_bounds, key=lower_bounds.get)
    report = BoundReport(
        delta_tau_min=delta_tau,
        structural_dt=structural,
        speed_limit_dt=speed,
        spreading_dt=spreading.dt,
        mass_limit=gravitational_mass_limit(theta, consts),
        fundamental_dt=fundamental,
        binding=binding,
        theta=theta,
        delta_x_opt=spreading.delta_x_opt,
        m=body.m,
        m_rest=body.m_rest,
    )
    for name, value in vars(report).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise QClockError(f"bound {name} = {value!r} is not finite")
    return report
