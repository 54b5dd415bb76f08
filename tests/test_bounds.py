import math

import numpy as np
import pytest

from qclock import (BindingBound, ClockBody, DegenerateClock, InvalidArgument,
                    MassRegime, RationalRatio, SchwarzschildViolation,
                    bound_report, build_equally_spaced, build_rational,
                    confinement_rate, continuum_condition,
                    derive_planck_scale, discretization_bound,
                    discretization_bound_generic, first_orthogonal_time,
                    fundamental_resolution, gravitational_mass_limit,
                    optimize_mass, speed_limit_bound,
                    speed_limit_gravitational_floor, spreading_bound,
                    structural_bound)

from oracles import dt_min_grid, random_rational_fracs

# frozen pins, recomputed from the CODATA table before the library existed
PIN_DISC_SI = 2.1899738670694256e-77   # l_C = 1 m, m_rest = 1 kg, z = p
PIN_DX_SI = 7.261445506922158e-18      # sqrt(hbar/2), m = 1 kg, theta = 1 s
PIN_MASS_LIMIT_SI = 1814676.3626563798  # theta = 1 s
PIN_FUNDAMENTAL_SI = 1.7980542399992787e-29  # theta = 1 s


# --- body and admissibility -----------------------------------------------------

def test_body_validation():
    with pytest.raises(InvalidArgument):
        ClockBody(l_C=0.0)
    with pytest.raises(InvalidArgument):
        ClockBody(l_C=1.0, m_rest=-1.0)
    body = ClockBody(l_C=1.0, m_rest=2.0)
    assert body.m == 2.0  # defaults to m_rest
    assert ClockBody(l_C=1.0, m_rest=2.0, m=5.0).m == 5.0


def test_schwarzschild_guard(nat, si):
    # natural units: need l_C/2 > 2 m_rest
    with pytest.raises(SchwarzschildViolation):
        confinement_rate(ClockBody(l_C=8.0, m_rest=2.0), nat)
    assert confinement_rate(ClockBody(l_C=8.0, m_rest=1.9), nat) > 0
    with pytest.raises(SchwarzschildViolation):
        discretization_bound(ClockBody(l_C=1e-40, m_rest=1e20), si, 4, 4)


# --- discretization ---------------------------------------------------------------

def test_discretization_natural_example(nat):
    body = ClockBody(l_C=8.0, m_rest=0.0)
    assert discretization_bound(body, nat, 3, 3) == pytest.approx(math.pi, rel=1e-15)


def test_discretization_z_scaling(nat):
    body = ClockBody(l_C=8.0, m_rest=0.0)
    base = discretization_bound(body, nat, 3, 3)
    assert discretization_bound(body, nat, 3, 7) == pytest.approx(base / 2, rel=1e-14)


def test_discretization_si_pin(si):
    body = ClockBody(l_C=1.0, m_rest=1.0)
    assert discretization_bound(body, si, 5, 5) == pytest.approx(PIN_DISC_SI, rel=1e-10)


def test_discretization_generic_example(nat):
    body = ClockBody(l_C=8.0, m_rest=0.0)
    got = discretization_bound_generic(body, nat, 21, 21)
    assert got == pytest.approx(21 * math.pi / 22, rel=1e-14)


def test_discretization_generic_z_guard(nat):
    body = ClockBody(l_C=8.0, m_rest=0.0)
    with pytest.raises(InvalidArgument):
        discretization_bound_generic(body, nat, 21, 20)  # z+1 = 21 = r_p


# z that is no dial: every bound refuses it, on either formula
BAD_Z = {"float": (3.2, "z must be an integer"), "whole-float": (4.0, "z must be an integer"),
         "past-float": (10**400, "past the float64 range")}


@pytest.mark.parametrize("bad", sorted(BAD_Z))
def test_every_bound_refuses_a_z_that_is_no_dial(nat, bad):
    z, message = BAD_Z[bad]
    body = ClockBody(l_C=8.0, m_rest=0.5, m=0.5)
    equal = build_equally_spaced(3, 100.0, nat)
    rational = build_rational([RationalRatio(5, 3), RationalRatio(7, 2)], 1.0, nat)
    calls = [lambda: discretization_bound(body, nat, 3, z),
             lambda: discretization_bound_generic(body, nat, 21, z),
             lambda: bound_report(body, nat, equal, z),
             lambda: bound_report(body, nat, rational, z)]
    for call in calls:
        with pytest.raises(InvalidArgument, match=message):
            call()
    assert bound_report(body, nat, equal, np.int64(3)) == bound_report(body, nat, equal, 3)


def test_a_z_too_long_for_decimal_is_refused(nat):
    # 10^5000 has more digits than Python spells in decimal; the message gives its size
    body = ClockBody(l_C=8.0, m=0.5)
    too_long = "<a negative int of 16610 bits>"
    with pytest.raises(InvalidArgument) as info:
        bound_report(body, nat, build_equally_spaced(3, 1.0, nat), -10**5000)
    assert str(info.value) == f"need z >= p, got z={too_long}, p=3"
    rational = build_rational([RationalRatio(5, 3), RationalRatio(7, 2)], 1.0, nat)
    with pytest.raises(InvalidArgument) as info:
        bound_report(body, nat, rational, -10**5000)
    assert str(info.value) == f"completeness requires z+1 > r_p, got z+1={too_long}, r_p=21"


def test_reduction_identity_50_points(nat, rng):
    # generic formula at r_p = p equals the equally-spaced one times p/(p+1)
    for _ in range(50):
        body = ClockBody(l_C=float(rng.uniform(1, 100)),
                         m_rest=float(rng.uniform(0, 1e-3)))
        p = int(rng.integers(1, 50))
        z = p + int(rng.integers(0, 50))
        generic = discretization_bound_generic(body, nat, p, z)
        equal = discretization_bound(body, nat, p, z)
        assert abs(generic - equal * p / (p + 1)) <= 1e-14 * generic


def test_discretization_monotone(nat):
    p, z = 3, 5
    small = discretization_bound(ClockBody(l_C=8.0), nat, p, z)
    large = discretization_bound(ClockBody(l_C=16.0), nat, p, z)
    assert large < small  # bigger clock, weaker bound
    light = discretization_bound(ClockBody(l_C=8.0, m_rest=0.0), nat, p, z)
    heavy = discretization_bound(ClockBody(l_C=8.0, m_rest=0.5), nat, p, z)
    assert heavy > light


# --- continuum condition -----------------------------------------------------------

def test_continuum_threshold_natural(nat):
    # chi = 2 for l_C = 8, so the threshold is 2 pi count / chi = pi count
    body = ClockBody(l_C=8.0, m_rest=0.0)
    assert continuum_condition(body, nat, 4.0, 1)       # T = 4 > pi
    assert not continuum_condition(body, nat, 3.0, 1)   # T = 3 < pi
    assert continuum_condition(body, nat, 1e9, 100)     # T -> infinity


def test_continuum_flips_exactly_at_threshold(nat, rng):
    for _ in range(20):
        body = ClockBody(l_C=float(rng.uniform(4, 50)),
                         m_rest=float(rng.uniform(0, 0.3)))
        count = int(rng.integers(1, 1000))
        threshold = 2 * math.pi * count / confinement_rate(body, nat)
        assert not continuum_condition(body, nat, threshold, count)
        assert continuum_condition(body, nat, np.nextafter(threshold, np.inf), count)


def test_continuum_near_admissibility_edge(nat):
    # m_rest just inside the limit: chi tiny, threshold enormous
    body = ClockBody(l_C=8.0, m_rest=2.0 - 1e-13)
    assert not continuum_condition(body, nat, 1e9, 1)


# --- structural and speed limit ------------------------------------------------------

def test_structural_bound_values():
    assert structural_bound(1.0, 0) == 1.0
    assert structural_bound(2 * math.pi, 1) == pytest.approx(math.pi, rel=1e-15)
    with pytest.raises(InvalidArgument):
        structural_bound(0.0, 3)
    with pytest.raises(InvalidArgument):
        structural_bound(1.0, -1)


def test_speed_limit_two_level(nat):
    spec = build_equally_spaced(1, 2 * math.pi, nat)
    assert speed_limit_bound(spec) == pytest.approx(math.pi, rel=1e-14)
    assert speed_limit_bound(spec) == pytest.approx(
        structural_bound(spec.T, spec.p), rel=1e-14)


def test_speed_limit_energy_scaling(nat):
    slow = build_equally_spaced(3, 2.0, nat)
    fast = build_equally_spaced(3, 1.0, nat)  # doubles every E_n
    assert speed_limit_bound(fast) == pytest.approx(speed_limit_bound(slow) / 2,
                                                    rel=1e-14)


def test_speed_limit_refuses_overflowing_moments(si):
    # levels near 1e154 J: their squares overflow, and an infinite spread
    # used to drop out of the max as a zero time
    spec = build_equally_spaced(2166, 1.368500197475425e-185, si)
    with pytest.raises(InvalidArgument, match="overflow"):
        speed_limit_bound(spec)


def test_speed_limit_below_first_orthogonal_time(nat, rng):
    for _ in range(25):
        p = int(rng.integers(1, 7))
        fracs = random_rational_fracs(rng, p, den_max=5, max_step=2)
        spec = build_rational([RationalRatio.from_fraction(f) for f in fracs],
                              float(rng.uniform(0.5, 2.0)), nat)
        t_orth = first_orthogonal_time(spec)
        if t_orth is not None:
            assert t_orth >= speed_limit_bound(spec) - 1e-12


def test_speed_limit_equally_spaced_tightness(nat):
    for p in (1, 2, 5, 9):
        spec = build_equally_spaced(p, 2.0, nat)
        t_orth = first_orthogonal_time(spec)
        assert t_orth == pytest.approx(spec.T / (p + 1), rel=1e-10)
        # T/(p+1) >= pi hbar/(2 Ebar), equality only at p = 1
        ml = math.pi * spec.hbar / (2 * spec.levels.mean())
        if p == 1:
            assert ml == pytest.approx(spec.T / (p + 1), rel=1e-14)
        else:
            assert ml < spec.T / (p + 1)


def test_speed_limit_moments_below_top_level(nat, rng):
    # Ebar <= E_p and 2 dE <= E_p for spectra starting at E_0 = 0
    for _ in range(20):
        p = int(rng.integers(1, 7))
        fracs = random_rational_fracs(rng, p)
        spec = build_rational([RationalRatio.from_fraction(f) for f in fracs], 1.0, nat)
        assert spec.levels.mean() <= spec.levels[-1] + 1e-15
        assert 2 * spec.levels.std() <= spec.levels[-1] * (1 + 1e-12)


def test_speed_limit_gravitational_floor(nat):
    body = ClockBody(l_C=8.0, m_rest=0.0)
    floor = speed_limit_gravitational_floor(body, nat)
    assert floor == pytest.approx(math.pi / 2, rel=1e-15)  # pi / chi, chi = 2
    assert floor == pytest.approx(discretization_bound(body, nat, 5, 5) / 2,
                                  rel=1e-14)
    heavier = speed_limit_gravitational_floor(ClockBody(l_C=8.0, m_rest=0.5), nat)
    assert heavier > floor


# --- spreading, mass limit, fundamental ------------------------------------------------

def test_spreading_natural_example(nat):
    got = spreading_bound(0.5, 1.0, nat)
    assert got.delta_x_opt == pytest.approx(1.0, rel=1e-15)
    assert got.dt == pytest.approx(1.0, rel=1e-15)


def test_spreading_mass_scaling(nat):
    base = spreading_bound(1.0, 1.0, nat)
    quad = spreading_bound(4.0, 1.0, nat)
    assert quad.delta_x_opt == pytest.approx(base.delta_x_opt / 2, rel=1e-14)
    assert quad.dt == pytest.approx(base.dt / 2, rel=1e-14)


def test_spreading_si_pin(si):
    got = spreading_bound(1.0, 1.0, si)
    assert got.delta_x_opt == pytest.approx(PIN_DX_SI, rel=1e-10)


def test_mass_limit_natural_example(nat):
    assert gravitational_mass_limit(32.0, nat) == pytest.approx(1.0, rel=1e-14)
    assert gravitational_mass_limit(32.0 * 8, nat) == pytest.approx(2.0, rel=1e-14)


def test_mass_limit_si_pin(si):
    assert gravitational_mass_limit(1.0, si) == pytest.approx(PIN_MASS_LIMIT_SI,
                                                              rel=1e-10)


def test_fundamental_natural_boundary(nat):
    # theta = 4 t_p = 4: the formula meets the 2 t_p floor
    assert fundamental_resolution(4.0, nat) == pytest.approx(2.0, rel=1e-12)


def test_fundamental_si_pin(si):
    assert fundamental_resolution(1.0, si) == pytest.approx(PIN_FUNDAMENTAL_SI,
                                                            rel=1e-3)


def test_fundamental_cube_root_scaling(si):
    base = fundamental_resolution(1.0, si)
    assert fundamental_resolution(8.0, si) == pytest.approx(2 * base, rel=1e-12)


# --- mass optimizer ---------------------------------------------------------------

def test_optimizer_matches_formula_above_floor(si):
    t_p = derive_planck_scale(si).t_p
    for mult in (10.0, 1e3, 1e6):
        theta = mult * t_p
        expected = fundamental_resolution(theta, si)
        for compton in (True, False):
            got = optimize_mass(theta, si, include_compton=compton)
            assert got.dt_min == pytest.approx(expected, rel=1e-10)
            assert got.regime is MassRegime.SPREADING_GRAV
        # and against the independent grid-search oracle
        _, dt_ref = dt_min_grid(theta, si.hbar, si.c, si.G)
        assert got.dt_min == pytest.approx(dt_ref, rel=1e-8)


def test_optimizer_all_three_meet_at_4tp(si):
    t_p = derive_planck_scale(si).t_p
    got = optimize_mass(4.0 * t_p, si)
    assert got.dt_min == pytest.approx(2.0 * t_p, rel=1e-9)
    # optimal mass = half the Planck mass = Compton/gravity intersection
    m_planck = math.sqrt(si.hbar * si.c / si.G)
    assert got.m_opt == pytest.approx(m_planck / 2, rel=1e-9)


def test_optimizer_floor_below_4tp(si):
    t_p = derive_planck_scale(si).t_p
    for mult in (0.1, 0.5, 2.0):
        got = optimize_mass(mult * 4.0 * t_p, si)
        if mult < 1.0:
            assert got.regime is MassRegime.COMPTON_GRAV_FLOOR
            assert got.dt_min == pytest.approx(2.0 * t_p, rel=1e-9)
        else:
            assert got.regime is MassRegime.SPREADING_GRAV


def test_optimizer_continuous_across_4tp(si):
    t_p = derive_planck_scale(si).t_p
    below = optimize_mass(4.0 * t_p * (1 - 1e-9), si).dt_min
    above = optimize_mass(4.0 * t_p * (1 + 1e-9), si).dt_min
    assert below == pytest.approx(above, rel=1e-9)
    assert fundamental_resolution(4.0 * t_p * (1 - 1e-9), si) == pytest.approx(
        fundamental_resolution(4.0 * t_p * (1 + 1e-9), si), rel=1e-9)


def test_optimizer_ignores_compton_without_flag(si):
    t_p = derive_planck_scale(si).t_p
    theta = 0.1 * t_p
    with_c = optimize_mass(theta, si, include_compton=True)
    without = optimize_mass(theta, si, include_compton=False)
    assert without.dt_min == pytest.approx(fundamental_resolution_formula(theta, t_p),
                                           rel=1e-9)
    assert with_c.dt_min > without.dt_min  # the floor is more restrictive


def fundamental_resolution_formula(theta, t_p):
    return 2 ** (1 / 3) * theta ** (1 / 3) * t_p ** (2 / 3)


# --- reports ----------------------------------------------------------------------

def test_report_atomic_clock_binds_structural_or_spreading(si):
    spec = build_equally_spaced(10**6 - 1, 1.0, si)
    body = ClockBody(l_C=0.01, m_rest=1e-25)
    report = bound_report(body, si, spec, z=10**6 - 1)
    assert report.binding in (BindingBound.STRUCTURAL, BindingBound.SPREADING)
    assert report.binding is not BindingBound.FUNDAMENTAL
    assert report.structural_dt == pytest.approx(1e-6, rel=1e-12)
    assert report.fundamental_dt < 1e-28


def test_report_planck_toy_binds_fundamental(nat):
    spec = build_equally_spaced(999, 10.0, nat)
    body = ClockBody(l_C=8.0, m_rest=0.0, m=1e6)
    report = bound_report(body, nat, spec, z=999, theta=10.0)
    assert report.binding is BindingBound.FUNDAMENTAL
    assert report.fundamental_dt == pytest.approx(2 ** (1 / 3) * 10 ** (1 / 3),
                                                  rel=1e-12)


def test_report_structural_washes_out_with_p(nat):
    body = ClockBody(l_C=8.0, m_rest=0.0, m=1e6)
    small = bound_report(body, nat, build_equally_spaced(1, 10.0, nat), z=1)
    big = bound_report(body, nat, build_equally_spaced(4000, 10.0, nat), z=4000)
    assert small.binding is BindingBound.STRUCTURAL
    assert big.structural_dt < small.structural_dt / 1000
    assert big.binding is not BindingBound.STRUCTURAL


def test_report_theta_validation(nat):
    spec = build_equally_spaced(3, 1.0, nat)
    body = ClockBody(l_C=8.0, m=1.0)
    with pytest.raises(InvalidArgument):
        bound_report(body, nat, spec, z=3, theta=2.0)  # theta > T
    report = bound_report(body, nat, spec, z=3)
    assert report.theta == spec.T  # defaults to the period


def test_report_uses_generic_formula_for_rational(nat):
    spec = build_rational([RationalRatio(5, 3), RationalRatio(7, 2)], 1.0, nat)
    body = ClockBody(l_C=8.0, m=1.0)
    report = bound_report(body, nat, spec, z=spec.r[-1])
    assert report.delta_tau_min == pytest.approx(21 * math.pi / 22, rel=1e-14)


class SingleLevel:
    """A one-level diagonal, which ClockSpectrum itself refuses to build."""
    dimension = 1
    levels = np.array([0.0])
    hbar = 1.0


# every refusal of the one-value functions, each spelled once in bounds.py:
# (call on the natural and SI constants, error, message)
BODY = ClockBody(l_C=8.0, m_rest=0.5, m=0.5)
ONE_VALUE_REFUSALS = {
    "body-l_C": (lambda nat, si: ClockBody(l_C=0.0), InvalidArgument,
                 "clock diameter must be positive, got 0.0"),
    "body-l_C-inf": (lambda nat, si: ClockBody(l_C=math.inf), InvalidArgument,
                     "clock diameter must be positive, got inf"),
    "body-m_rest": (lambda nat, si: ClockBody(l_C=1.0, m_rest=-1.0), InvalidArgument,
                    "rest mass must be >= 0, got -1.0"),
    "body-m_rest-nan": (lambda nat, si: ClockBody(l_C=1.0, m_rest=math.nan), InvalidArgument,
                        "rest mass must be >= 0, got nan"),
    "body-m": (lambda nat, si: ClockBody(l_C=1.0, m=-2.0), InvalidArgument,
               "inertial mass must be >= 0, got -2.0"),
    "confinement-inside": (lambda nat, si: confinement_rate(ClockBody(l_C=8.0, m_rest=2.0), nat),
                           SchwarzschildViolation,
                           "clock half-diameter does not exceed twice G m_rest/c^2; "
                           "the confinement bound would be negative"),
    # l_C/(4 l_p t_p) and m_rest c^2/hbar both overflow, so chi = inf - inf
    "confinement-chi": (lambda nat, si: confinement_rate(ClockBody(l_C=1e300, m_rest=1e300), si),
                        SchwarzschildViolation, "confinement rate is not positive"),
    "floor-inside": (lambda nat, si: speed_limit_gravitational_floor(
        ClockBody(l_C=8.0, m_rest=2.0), nat), SchwarzschildViolation,
        "clock half-diameter does not exceed twice G m_rest/c^2; "
        "the confinement bound would be negative"),
    "discretization-p": (lambda nat, si: discretization_bound(BODY, nat, 0, 3), InvalidArgument,
                         "p must be >= 1, got 0"),
    "discretization-z": (lambda nat, si: discretization_bound(BODY, nat, 3, 2), InvalidArgument,
                         "need z >= p, got z=2, p=3"),
    "generic-r_p": (lambda nat, si: discretization_bound_generic(BODY, nat, 0, 3),
                    InvalidArgument, "r_p must be >= 1, got 0"),
    "generic-z": (lambda nat, si: discretization_bound_generic(BODY, nat, 21, 20),
                  InvalidArgument, "completeness requires z+1 > r_p, got z+1=21, r_p=21"),
    "continuum-T": (lambda nat, si: continuum_condition(BODY, nat, 0.0, 4), InvalidArgument,
                    "period must be positive, got 0.0"),
    "continuum-T-inf": (lambda nat, si: continuum_condition(BODY, nat, math.inf, 4),
                        InvalidArgument, "period must be positive, got inf"),
    "continuum-count": (lambda nat, si: continuum_condition(BODY, nat, 1.0, 0), InvalidArgument,
                        "count must be >= 1, got 0"),
    "structural-T": (lambda nat, si: structural_bound(-1.0, 3), InvalidArgument,
                     "period must be positive, got -1.0"),
    "structural-T-nan": (lambda nat, si: structural_bound(math.nan, 3), InvalidArgument,
                         "period must be positive, got nan"),
    "structural-p": (lambda nat, si: structural_bound(1.0, -1), InvalidArgument,
                     "p must be >= 0, got -1"),
    "speed-one-level": (lambda nat, si: speed_limit_bound(SingleLevel()), DegenerateClock,
                        "a single-level clock never reaches an orthogonal state"),
    "speed-overflow": (lambda nat, si: speed_limit_bound(
        build_rational([RationalRatio(3, 2)], 1e308, nat)), InvalidArgument,
        "energy moments overflow float64 (top level 1.5e+308)"),
    "speed-zero-spread": (lambda nat, si: speed_limit_bound(build_equally_spaced(4, 2.5e299, nat)),
                          DegenerateClock, "zero energy spread"),
    "spreading-mass": (lambda nat, si: spreading_bound(0.0, 1.0, nat), InvalidArgument,
                       "mass must be positive, got 0.0"),
    "spreading-mass-inf": (lambda nat, si: spreading_bound(math.inf, 1.0, nat), InvalidArgument,
                           "mass must be positive, got inf"),
    "spreading-theta": (lambda nat, si: spreading_bound(1.0, -1.0, nat), InvalidArgument,
                        "operational time must be positive, got -1.0"),
    "mass-limit-theta": (lambda nat, si: gravitational_mass_limit(0.0, nat), InvalidArgument,
                         "operational time must be positive, got 0.0"),
    "optimize-theta": (lambda nat, si: optimize_mass(math.nan, nat), InvalidArgument,
                       "operational time must be positive, got nan"),
    "fundamental-theta": (lambda nat, si: fundamental_resolution(math.inf, si), InvalidArgument,
                          "operational time must be positive, got inf"),
    "report-theta": (lambda nat, si: bound_report(BODY, nat, build_equally_spaced(3, 1.0, nat), 3,
                                                  2.0), InvalidArgument,
                     "operational time must lie in (0, T] = (0, 1.0], got 2.0"),
}


@pytest.mark.parametrize("case", sorted(ONE_VALUE_REFUSALS))
def test_every_one_value_refusal_keeps_its_message(nat, si, case):
    call, error, message = ONE_VALUE_REFUSALS[case]
    with pytest.raises(error) as info:
        call(nat, si)
    assert type(info.value) is error
    assert str(info.value) == message


def test_degenerate_clock_guard(nat):
    # ClockSpectrum cannot be built with a single level, but the guard must
    # still fire if a degenerate diagonal reaches the bound evaluator
    class SingleLevel:
        dimension = 1
        levels = np.array([0.0])
        hbar = 1.0

    with pytest.raises(DegenerateClock):
        speed_limit_bound(SingleLevel())
    assert speed_limit_bound(build_equally_spaced(1, 1.0, nat)) > 0
