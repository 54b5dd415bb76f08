"""Hostile values at the public API: each call is refused with a QClockError
that names the argument at fault, and no warning or raw Python exception
escapes on the way.

A number is usable only when float64 holds it finitely, so an int or a
Fraction past the float range is refused like nan and inf; an integer
argument must be an int or a numpy integer, and not a bool.  The table
grows toward a harness over every public callable.
"""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from qclock import (ClockBody, ClockPOVM, ClockSpectrum, ConstantsSet, MeasurementRecord,
                    QClockError, RationalRatio, SpectrumKind, bound_report,
                    build_equally_spaced, build_rational, continuous_identity_residual,
                    continuum_condition, discretization_bound, discretization_bound_generic,
                    energy_shift_unitary, evolve, first_orthogonal_time, fundamental_resolution,
                    gravitational_mass_limit,
                    hermitian_time_operator, natural_units, optimize_mass,
                    outcome_probabilities, rationalize, rationalized_spectrum, sample,
                    spreading_bound, structural_bound, time_state)
from qclock.errors import _finite, spell

NAT = natural_units()
SPEC = build_equally_spaced(3, 1.0, NAT)
PAST = 10**400  # an int that float64 cannot hold
HUGE = 10**5000  # an int too long to spell in decimal
BODY = ClockBody(l_C=8.0, m_rest=0.5, m=0.5)


def _dist():
    return outcome_probabilities(time_state(SPEC, 0.3), ClockPOVM(SPEC, 3))


# call -> the words of its refusal that name the argument at fault
HOSTILE_CALLS = {
    "time_state-2^1024": (lambda: time_state(SPEC, 2**1024), "dial time must be finite"),
    "time_state-fraction": (lambda: time_state(SPEC, Fraction(PAST, 3)),
                            "dial time must be finite"),
    "evolve": (lambda: evolve(time_state(SPEC, 0.0), PAST), "dial time must be finite"),
    "continuous_identity_residual": (lambda: continuous_identity_residual(SPEC, 8, PAST),
                                     "dial time must be finite"),
    "energy_shift_unitary": (lambda: energy_shift_unitary(hermitian_time_operator(SPEC), PAST),
                             "energy shift"),
    "build_equally_spaced": (lambda: build_equally_spaced(3, PAST), "T must be positive"),
    "build_rational": (lambda: build_rational([], PAST), "E_1 must be positive"),
    "build_rational-levels-overflow": (
        lambda: build_rational([RationalRatio(10, 3), RationalRatio(7, 2)], 1e308),
        "levels must be finite"),
    "rationalized_spectrum": (lambda: rationalized_spectrum([0.0, 1.0, 2.5], PAST),
                              "epsilon must be positive"),
    "rationalize-levels": (lambda: rationalize([0.0, 1.7e308, -1.7e308], 0.1),
                           "levels must be finite and strictly increasing"),
    "ClockSpectrum": (lambda: ClockSpectrum([0.0, 1.0], (0, 1), PAST, 1.0, SpectrumKind.RATIONAL),
                      "period must be positive"),
    "ConstantsSet": (lambda: ConstantsSet(PAST, 1.0, 1.0), "hbar must be a positive finite"),
    "RationalRatio": (lambda: RationalRatio(1, -10**5000),
                      "denominator must be >= 1, got <a negative int of 16610 bits>"),
    "ClockBody-l_C": (lambda: ClockBody(l_C=-10**5000),
                      "clock diameter must be positive, got <a negative int of 16610 bits>"),
    "ClockBody-m": (lambda: ClockBody(l_C=8.0, m=PAST), "inertial mass must be >= 0"),
    "structural_bound": (lambda: structural_bound(PAST, 3), "period must be positive"),
    "spreading_bound": (lambda: spreading_bound(PAST, 1.0, NAT), "mass must be positive"),
    "gravitational_mass_limit": (lambda: gravitational_mass_limit(PAST, NAT),
                                 "operational time must be positive"),
    "fundamental_resolution": (lambda: fundamental_resolution(PAST, NAT),
                               "operational time must be positive"),
    "optimize_mass": (lambda: optimize_mass(PAST, NAT), "operational time must be positive"),
    "bound_report": (lambda: bound_report(ClockBody(l_C=PAST), NAT, SPEC, 3),
                     "clock diameter must be positive"),
    "sample-float-shots": (lambda: sample(_dist(), 10.5, 1), "shots must be an integer >= 1, got 10.5"),
    "sample-float-seed": (lambda: sample(_dist(), 10, 1.5), "seed must be an integer >= 0, got 1.5"),
    "sample-str-shots": (lambda: sample(_dist(), "10", 1), "shots must be an integer >= 1, got '10'"),
    "rationalized_spectrum-level-past-range": (
        lambda: rationalized_spectrum([0.0, PAST], 0.1),
        f"levels must be finite real numbers, got {PAST}"),
    "ClockSpectrum-level-past-range": (
        lambda: ClockSpectrum([0.0, PAST], (0, 1), 1.0, 1.0, SpectrumKind.RATIONALIZED, 0.1),
        f"levels must be finite real numbers, got {PAST}"),
    "rationalize-str-level": (lambda: rationalize([0.0, 1.0, "x"], 0.1),
                              "levels must be finite real numbers, got 'x'"),
    "bound_report-theta-past-range": (
        lambda: bound_report(ClockBody(l_C=8.0, m=0.5), NAT, SPEC, 3, PAST),
        f"operational time must lie in (0, T] = (0, 1.0], got {PAST}"),
    "bound_report-str-theta": (lambda: bound_report(ClockBody(l_C=8.0, m=0.5), NAT, SPEC, 3, "x"),
                               "operational time must lie in (0, T] = (0, 1.0], got 'x'"),
    "RationalRatio-float": (lambda: RationalRatio(3.0, 2), "C/B needs integers, got 3.0/2"),
    "ClockSpectrum-float-r": (
        lambda: ClockSpectrum([0.0, 1.0], (0, 1.5), 2 * math.pi, 1.0, SpectrumKind.RATIONAL),
        "r must hold integers, got 1.5"),
    "first_orthogonal_time-samples": (
        lambda: first_orthogonal_time(SPEC, samples_per_cycle=-10**5000),
        "samples_per_cycle must be >= 1, got <a negative int of 16610 bits>"),
    "first_orthogonal_time-samples-float": (
        lambda: first_orthogonal_time(SPEC, samples_per_cycle=2.5),
        "samples_per_cycle must be an integer >= 1, got 2.5"),
    "structural_bound-p-huge": (lambda: structural_bound(1.0, -HUGE),
                                "p must be >= 0, got <a negative int of 16610 bits>"),
    "structural_bound-p-float": (lambda: structural_bound(1.0, 2.5),
                                 "p must be an integer >= 0, got 2.5"),
    "structural_bound-p-past-range": (lambda: structural_bound(1.0, PAST),
                                      "p+1 has 1329 bits, past the float64 range"),
    "discretization_bound-p-huge": (lambda: discretization_bound(BODY, NAT, -HUGE, 3),
                                    "p must be >= 1, got <a negative int of 16610 bits>"),
    "discretization_bound-p-float": (lambda: discretization_bound(BODY, NAT, 2.5, 3),
                                     "p must be an integer >= 1, got 2.5"),
    "discretization_bound-p-past-z": (lambda: discretization_bound(BODY, NAT, HUGE, 3),
                                      "need z >= p, got z=3, p=<an int of 16610 bits>"),
    "discretization_bound_generic-r_p-huge": (
        lambda: discretization_bound_generic(BODY, NAT, -HUGE, 3),
        "r_p must be >= 1, got <a negative int of 16610 bits>"),
    "discretization_bound_generic-r_p-float": (
        lambda: discretization_bound_generic(BODY, NAT, 2.5, 3),
        "r_p must be an integer >= 1, got 2.5"),
    "discretization_bound_generic-r_p-past-z": (
        lambda: discretization_bound_generic(BODY, NAT, HUGE, 3),
        "completeness requires z+1 > r_p, got z+1=4, r_p=<an int of 16610 bits>"),
    "continuum_condition-count-huge": (lambda: continuum_condition(BODY, NAT, 1.0, -HUGE),
                                       "count must be >= 1, got <a negative int of 16610 bits>"),
    "continuum_condition-count-float": (lambda: continuum_condition(BODY, NAT, 1.0, 2.5),
                                        "count must be an integer >= 1, got 2.5"),
    "continuum_condition-count-past-range": (lambda: continuum_condition(BODY, NAT, 1.0, PAST),
                                             "count has 1329 bits, past the float64 range"),
    "MeasurementRecord-shots-huge": (
        lambda: MeasurementRecord(seed=0, shots=-HUGE, counts=[0, 0, 0, 0], povm=ClockPOVM(SPEC, 3)),
        "shots must be >= 1, got <a negative int of 16610 bits>"),
    "MeasurementRecord-shots-float": (
        lambda: MeasurementRecord(seed=0, shots=2.0, counts=[1, 1, 0, 0], povm=ClockPOVM(SPEC, 3)),
        "shots must be an integer >= 1, got 2.0"),
    "structural_bound-p-bool": (lambda: structural_bound(1.0, True),
                                "p must be an integer >= 0, got True"),
    "ClockPOVM-z-bool": (lambda: ClockPOVM(build_equally_spaced(1, 1.0), True),
                         "need z >= p = 1, got True"),
    "build_equally_spaced-p-bool": (lambda: build_equally_spaced(True, 1.0),
                                    "p must be an integer >= 1, got True"),
    "sample-bool-shots": (lambda: sample(_dist(), True, False),
                          "shots must be an integer >= 1, got True"),
    "RationalRatio-bool": (lambda: RationalRatio(True, 1), "C/B needs integers, got True/1"),
}


@pytest.mark.parametrize("case", sorted(HOSTILE_CALLS))
def test_a_hostile_value_is_refused_by_name(case):
    call, words = HOSTILE_CALLS[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QClockError) as info:
            call()
    assert words in str(info.value)


# value -> whether float64 holds it as a finite number
FINITE = [(0, True), (True, True), (-2.5, True), (1.7976931348623157e308, True),
          (5e-324, True), (2**1023, True), (Fraction(1, 10**400), True), (np.int64(-3), True),
          (np.float32(1.5), True), (math.inf, False), (-math.inf, False), (math.nan, False),
          (2**1024, False), (-PAST, False), (Fraction(PAST, 3), False), (np.float64("nan"), False),
          ("1.0", False), (None, False), (1j, False), ([1.0], False)]


@pytest.mark.parametrize("value, finite", FINITE, ids=[repr(v)[:20] for v, _ in FINITE])
def test_finite_answers_for_any_value_and_never_raises(value, finite):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _finite(value) is finite


def test_finite_answers_a_column_entry_by_entry():
    column = np.array([0.0, -1.0, np.inf, np.nan, 1e308])
    assert _finite(column).tolist() == [True, True, False, False, True]


def test_spell_names_a_fraction_too_long_for_decimal():
    assert spell(Fraction(10**5000 + 1, 3)) == "<a Fraction too long to spell>"
    assert spell(-10**5000) == "<a negative int of 16610 bits>"
