import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qclock import (CapacityError, ClockPOVM, ClockSpectrum, IncompatibleStates,
                    InvalidArgument, RationalRatio, SpectrumKind, TimeOperator,
                    UnsupportedSpectrum, build_equally_spaced, build_rational,
                    clockstates, continuous_identity_residual,
                    energy_shift_unitary, evolve, first_orthogonal_time,
                    frame_operator, grid_amplitudes, hermitian_time_operator,
                    identity_residual, outcome_probabilities, overlap,
                    rationalized_spectrum, time_state)

from oracles import (dial_circulant_gathered, dial_operator_naive, energy_shift_spectral,
                     first_zero_scan, frame_dense, frame_residual_dense, frame_residual_naive,
                     gram_matrix_naive, hermitian_mirror_dense, random_rational_fracs,
                     real_form_dense, real_form_toeplitz_hankel, turns_fraction)

# what a refusal by the byte budget says
BUDGET_MESSAGE = r"needs \d+ bytes, past the budget of \d+ bytes"


def rat0621(consts=None):
    return build_rational([RationalRatio(5, 3), RationalRatio(7, 2)], 1.0, consts)


def rat014(consts=None):
    return build_rational([RationalRatio(4, 1)], 1.0, consts)


# --- time states --------------------------------------------------------------

def test_time_state_at_zero_is_uniform(nat):
    spec = build_equally_spaced(4, 1.0, nat)
    state = time_state(spec, 0.0)
    assert np.allclose(state.amplitudes, 1 / math.sqrt(5), rtol=0, atol=1e-15)
    assert abs(state.norm - 1.0) < 1e-12
    assert np.allclose(np.abs(state.amplitudes), 1 / math.sqrt(5), atol=1e-12)


def test_time_state_cyclic_after_full_period(nat):
    spec = rat0621(nat)
    a = time_state(spec, 0.0)
    b = time_state(spec, spec.T)
    assert np.max(np.abs(a.amplitudes - b.amplitudes)) < 1e-12


def test_time_state_two_level_half_period(nat):
    spec = build_equally_spaced(1, 2 * math.pi, nat)
    state = time_state(spec, math.pi)
    expected = np.array([1.0, -1.0]) / math.sqrt(2)
    assert np.max(np.abs(state.amplitudes - expected)) < 1e-12


@pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf])
def test_time_state_rejects_non_finite_times(nat, tau):
    for spec in (rat0621(nat), rationalized_spectrum([0.0, 1.0, math.sqrt(2)], 1e-3, nat)):
        with pytest.raises(InvalidArgument, match="finite"):
            time_state(spec, tau)
        with pytest.raises(InvalidArgument, match="finite"):
            evolve(time_state(spec, 0.0), tau)
        with pytest.raises(InvalidArgument, match="finite"):
            identity_residual(spec, spec.r[-1], tau)
        with pytest.raises(InvalidArgument, match="finite"):
            ClockPOVM(spec, spec.r[-1], tau)


def test_time_state_matches_naive_phases(nat, rng):
    # exact-reduction amplitudes agree with exp(-i E_n tau / hbar) directly
    for spec in (build_equally_spaced(6, 2.3, nat), rat0621(nat)):
        for _ in range(5):
            tau = float(rng.uniform(-2, 2)) * spec.T
            state = time_state(spec, tau)
            naive = np.exp(-1j * spec.levels * tau / spec.hbar) / math.sqrt(spec.dimension)
            assert np.max(np.abs(state.amplitudes - naive)) < 1e-12


# --- overlap -------------------------------------------------------------------

def test_overlap_normalization(nat):
    spec = rat0621(nat)
    state = time_state(spec, 0.37)
    assert overlap(state, state) == pytest.approx(1.0, abs=1e-14)


def test_overlap_orthogonal_on_grid(nat):
    spec = build_equally_spaced(5, 1.0, nat)
    grid = [time_state(spec, m * spec.T / 6) for m in range(6)]
    for i in range(6):
        for j in range(6):
            expected = 1.0 if i == j else 0.0
            assert abs(overlap(grid[i], grid[j]) - expected) < 1e-12


def test_overlap_cyclicity(nat):
    spec = rat0621(nat)
    a = time_state(spec, 0.2)
    b = time_state(spec, 0.2 + spec.T)
    assert overlap(a, b) == pytest.approx(1.0, abs=1e-12)


def test_overlap_rejects_mismatched_spectra(nat):
    a = time_state(build_equally_spaced(2, 1.0, nat), 0.0)
    b = time_state(build_equally_spaced(3, 1.0, nat), 0.0)
    with pytest.raises(IncompatibleStates):
        overlap(a, b)


def test_overlap_accepts_equal_value_spectra(nat):
    a = time_state(build_equally_spaced(2, 1.0, nat), 0.1)
    b = time_state(build_equally_spaced(2, 1.0, nat), 0.4)
    assert abs(overlap(a, b)) <= 1.0 + 1e-12


# --- evolve -------------------------------------------------------------------

def test_evolve_identity_cases(nat):
    spec = rat0621(nat)
    state = time_state(spec, 0.11)
    same = evolve(state, 0.0)
    assert np.array_equal(same.amplitudes, state.amplitudes)
    cycled = evolve(state, spec.T)
    assert np.max(np.abs(cycled.amplitudes - state.amplitudes)) < 1e-12


def test_evolve_shift_covariance(nat, rng):
    # dt = T/(z+1) maps grid state m to grid state m+1
    for spec in (build_equally_spaced(7, 1.0, nat), rat0621(nat), rat014(nat)):
        z = spec.r[-1]
        dt = spec.T / (z + 1)
        tau0 = float(rng.uniform(0, spec.T))
        for m in (0, 1, z - 1):
            here = time_state(spec, tau0 + m * dt)
            there = time_state(spec, tau0 + (m + 1) * dt)
            stepped = evolve(here, dt)
            assert np.max(np.abs(stepped.amplitudes - there.amplitudes)) < 1e-12


def test_evolve_exact_fraction_steps(nat):
    # Fraction dial times keep the reduction exact at any r_p
    fracs = random_rational_fracs(np.random.default_rng(7), 6)
    spec = build_rational([RationalRatio.from_fraction(f) for f in fracs], 1.0, nat)
    z = spec.r[-1]
    dt = Fraction(spec.T) / (z + 1)
    tau0 = Fraction(spec.T) * 7 / 13
    here = time_state(spec, tau0 + 4 * dt)
    there = time_state(spec, tau0 + 5 * dt)
    stepped = evolve(here, dt)
    assert np.max(np.abs(stepped.amplitudes - there.amplitudes)) < 1e-14


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), p=st.integers(1, 255), rational=st.booleans(),
       scale=st.one_of(st.floats(-1e3, 1e3), st.sampled_from([0.0, -0.0])),
       tau=st.one_of(st.none(), st.floats(allow_nan=False, allow_infinity=False),
                     st.fractions(max_denominator=10**12)))
def test_exact_turns_match_the_fraction_reduction(nat, seed, p, rational, scale, tau):
    if rational:
        fracs = random_rational_fracs(np.random.default_rng(seed), min(p, 12))
        spec = build_rational([RationalRatio.from_fraction(f) for f in fracs], 1.0, nat)
    else:
        spec = build_equally_spaced(p, 1.0 + seed / 2**32, nat)
    tau = scale * spec.T if tau is None else tau
    expected = turns_fraction(spec.r, spec.T, tau)
    assert clockstates._turns_single(spec, tau).tobytes() == expected.tobytes()


# --- completeness ---------------------------------------------------------------

def test_identity_residual_orthonormal_case(nat):
    spec = build_equally_spaced(4, 1.0, nat)
    assert identity_residual(spec, 4, 0.0) < 1e-12
    assert identity_residual(spec, 4, 0.789) < 1e-12


def test_identity_residual_rational_complete(nat):
    spec = rat0621(nat)
    assert identity_residual(spec, 21, 0.0) < 1e-12     # z+1 = 22 > r_p = 21
    assert identity_residual(spec, 21, 0.456) < 1e-12


def test_identity_residual_counterexample_pinned(nat):
    # r = (0, 1, 4), z+1 = 3: r_2 - r_1 = 3 is a multiple of z+1, one
    # off-diagonal geometric sum survives with unit weight -> residual 1
    spec = rat014(nat)
    assert identity_residual(spec, 2, 0.0) == pytest.approx(1.0, abs=1e-9)
    assert identity_residual(spec, 2, 0.37) == pytest.approx(1.0, abs=1e-9)


def test_identity_residual_matches_naive_assembly(nat, rng):
    golden = (1 + math.sqrt(5)) / 2
    spectra = (build_equally_spaced(3, 1.0, nat), rat0621(nat), rat014(nat),
               rationalized_spectrum([0.0, 1.0, golden], 1e-2, nat),
               rationalized_spectrum([0.0, 1.0, golden], 1e-3, nat),
               rationalized_spectrum([0.0, 1.0, math.e, math.pi], 1e-2, nat))
    for spec in spectra:
        # z+1 = r_p - r_1 makes r_p and r_1 collide mod z+1
        colliding = max(spec.p, spec.r[-1] - spec.r[1] - 1)
        for z in (spec.p, spec.p + 3, spec.r[-1], colliding):
            tau0 = float(rng.uniform(0, spec.T))
            mine = identity_residual(spec, z, tau0)
            ref = frame_residual_naive(spec.levels, spec.hbar, spec.T, z + 1, tau0)
            assert mine == pytest.approx(ref, abs=1e-10)


def test_identity_residual_property_random_rational(nat, rng):
    for _ in range(40):
        p = int(rng.integers(1, 7))
        fracs = random_rational_fracs(rng, p)
        spec = build_rational([RationalRatio.from_fraction(f) for f in fracs],
                              float(rng.uniform(0.5, 2.0)), nat)
        tau0 = float(rng.uniform(0, spec.T))
        assert identity_residual(spec, spec.r[-1], tau0) < 1e-12


def _integer_spectrum(r):
    # hbar = 1 and T = 2 pi make E_n = r_n exactly
    return ClockSpectrum([float(x) for x in r], r, 2 * math.pi, 1.0, SpectrumKind.RATIONAL)


@settings(max_examples=300, deadline=None)
@given(gaps=st.lists(st.integers(1, 40), min_size=1, max_size=7),
       extra=st.integers(0, 120), tau0=st.floats(-10.0, 10.0))
def test_identity_residual_is_set_by_residue_classes(gaps, extra, tau0):
    r = tuple(int(x) for x in np.cumsum([0, *gaps]))
    spec = _integer_spectrum(r)
    zp1 = spec.dimension + extra
    largest = max(Counter(rn % zp1 for rn in r).values())
    residual = identity_residual(spec, zp1 - 1, tau0)
    if largest == 1:
        assert residual == 0.0
    else:
        assert residual == max(largest - 1, 1)


def test_identity_residual_beyond_the_dense_grid_cap(nat):
    # r = (0, 462, 770, 1617, 7458, 41874); a dense dial grid of this size
    # could never be allocated, the closed form needs none
    spec = build_rational([RationalRatio(5, 3), RationalRatio(7, 2),
                           RationalRatio(113, 7), RationalRatio(997, 11)], 1.0, nat)
    assert spec.r == (0, 462, 770, 1617, 7458, 41874)
    assert identity_residual(spec, 10**12) < 1e-12
    assert identity_residual(spec, 2**62 - 1, 0.3) < 1e-12
    # the exact residual counts residues in Python ints, so no z is too large
    assert identity_residual(spec, 2**62, 0.3) == 0.0
    assert identity_residual(spec, 2**70) == 0.0
    witness = build_rational([RationalRatio(2**70 + 1, 1)], 1.0, nat)  # r = (0, 1, 2^70 + 1)
    assert identity_residual(witness, 2**70 - 1) == 1.0  # r_2 = r_1 mod 2^70
    assert identity_residual(witness, 2**70) == 1.0  # r_2 = r_0 mod 2^70 + 1
    assert identity_residual(witness, 2**70 + 1) == 0.0
    # the frame holds r_n mod (z+1) in int64: it and rationalized residuals stop at 2^62
    rat = rationalized_spectrum([0.0, 1.0, math.sqrt(2)], 1e-3, nat)
    assert 0.0 < identity_residual(rat, 2**62 - 1) < 1e-2  # the approximation's residual
    for call in (lambda: frame_operator(spec, 2**62), lambda: identity_residual(rat, 2**62),
                 lambda: frame_operator(rat, 2**70), lambda: identity_residual(rat, 2**70)):
        with pytest.raises(InvalidArgument, match="2\\^62"):
            call()


def test_completeness_never_builds_the_dial_grid(nat, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("completeness must not assemble the dial grid")

    monkeypatch.setattr(clockstates, "grid_amplitudes", forbidden)
    monkeypatch.setattr(clockstates, "_dial_rows", forbidden)
    for spec in (rat0621(nat), rationalized_spectrum([0.0, 1.0, math.sqrt(2)], 1e-3, nat)):
        assert frame_operator(spec, spec.r[-1]).shape == (spec.dimension, spec.dimension)
        identity_residual(spec, spec.r[-1], 0.25)
        continuous_identity_residual(spec, 2 * (spec.r[-1] + 1), 0.25)


def test_exact_residuals_never_call_the_eigensolver(nat, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("exact residuals are read off the residue classes")

    monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
    spec = rat0621(nat)  # r = (0, 6, 10, 21)
    assert identity_residual(spec, spec.r[-1], 0.25) == 0.0
    assert identity_residual(spec, 3, 0.25) == 1.0  # 6 = 10 = 2 mod 4
    assert identity_residual(build_equally_spaced(255, 1.0, nat), 255, 0.1) == 0.0
    assert continuous_identity_residual(spec, 2 * (spec.r[-1] + 1), 0.25) == 0.0
    assert continuous_identity_residual(spec, 4, enforce_nyquist=False) == 1.0


def test_identity_residual_failure_witness_family(nat):
    # r = (0, 1, k) with z+1 = k-1 dividing r_2 - r_1 = k-1
    for k in range(4, 14):
        spec = build_rational([RationalRatio(k, 1)], 1.0, nat)
        assert identity_residual(spec, k - 2, 0.3) > 0.1


DIAL_ENTRY_POINTS = {
    "ClockPOVM": ClockPOVM,
    "grid_amplitudes": grid_amplitudes,
    "frame_operator": frame_operator,
    "identity_residual": identity_residual,
    "hermitian_time_operator": lambda spec, z, tau_0: hermitian_time_operator(spec, tau_0),
}
# z, tau_0 and ClockPOVM's message, on a dial with p = 3
BAD_DIALS = {
    "z-3.5": (3.5, 0.0, "need z >= p"),
    "z-4.0": (4.0, 0.0, "need z >= p"),
    "z-below-p": (2, 0.0, "need z >= p"),
    "tau0-nan": (3, math.nan, "tau_0 must be finite"),
    "tau0-inf": (3, math.inf, "tau_0 must be finite"),
    "tau0-past-float": (3, 10**400, "tau_0 is past the float64 range"),
}


@pytest.mark.parametrize("entry, bad", [
    (entry, bad) for entry in DIAL_ENTRY_POINTS for bad in BAD_DIALS
    # the time operator's dial has z = p; only its tau_0 is the caller's
    if entry != "hermitian_time_operator" or bad.startswith("tau0")])
def test_every_dial_entry_point_refuses_a_bad_dial(nat, entry, bad):
    spec, call = build_equally_spaced(3, 1.0, nat), DIAL_ENTRY_POINTS[entry]
    z, tau_0, message = BAD_DIALS[bad]
    with pytest.raises(InvalidArgument, match=message):
        call(spec, z, tau_0)
    call(spec, np.int64(4), 0.25)


def test_a_z_too_long_for_decimal_is_refused(nat):
    # 10^5000 has more digits than Python spells in decimal; the message gives its size
    with pytest.raises(InvalidArgument) as info:
        ClockPOVM(build_equally_spaced(3, 1.0, nat), -10**5000)
    assert str(info.value) == "need z >= p = 3, got <a negative int of 16610 bits>"


# calls that take an int of 5001 digits, past what Python spells in decimal:
# each refusal gives its size, and no warning is raised on the way
HUGE = 10**5000
HUGE_INT_REFUSALS = {
    "frame_operator": (lambda spec, rat: frame_operator(spec, HUGE), InvalidArgument,
                       "dial grids capped at z+1 <= 2^62, got <an int of 16610 bits>"),
    "rationalized-residual": (lambda spec, rat: identity_residual(rat, HUGE), InvalidArgument,
                              "dial grids capped at z+1 <= 2^62, got <an int of 16610 bits>"),
    "grid_amplitudes": (lambda spec, rat: grid_amplitudes(spec, HUGE), CapacityError,
                        "a 4 x <an int of 16610 bits> dial grid needs <an int of 16617 bits> "
                        "bytes, past the budget of 4294967296 bytes"),
    "outcome_probabilities": (
        lambda spec, rat: outcome_probabilities(time_state(spec, 0.0), ClockPOVM(spec, HUGE)),
        CapacityError, "a measurement of <an int of 16610 bits> dial times needs "
                       "<an int of 16615 bits> bytes, past the budget of 4294967296 bytes"),
    "tau_grid": (lambda spec, rat: ClockPOVM(spec, HUGE).tau_grid, CapacityError,
                 "a dial of <an int of 16610 bits> times needs <an int of 16613 bits> bytes, "
                 "past the budget of 4294967296 bytes"),
    "element": (lambda spec, rat: ClockPOVM(spec, 3).element(HUGE), InvalidArgument,
                "outcome index <an int of 16610 bits> outside the integers 0..3"),
    "times": (lambda spec, rat: ClockPOVM(spec, HUGE).times(0, 2), InvalidArgument,
              "the dial step T/(z+1) is past the float64 range at z+1 = <an int of 16610 bits>"),
}


@pytest.mark.parametrize("name", sorted(HUGE_INT_REFUSALS))
def test_ints_too_long_for_decimal_are_refused_by_size(nat, name):
    call, error, message = HUGE_INT_REFUSALS[name]
    spec = build_equally_spaced(3, 1.0, nat)
    rat = ClockSpectrum(np.arange(4) * (1 + 1e-7), range(4), 2 * math.pi, 1.0,
                        SpectrumKind.RATIONALIZED, 1e-3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error) as info:
            call(spec, rat)
    assert type(info.value) is error
    assert str(info.value) == message


def test_identity_residual_rejects_small_z(nat):
    spec = build_equally_spaced(4, 1.0, nat)
    with pytest.raises(InvalidArgument):
        identity_residual(spec, 3, 0.0)


def test_dense_assembly_dimension_cap(nat):
    # dimension 4097 is admitted; a 4097 x 2^20 grid needs 64 GiB and is
    # refused before anything is allocated
    spec = build_equally_spaced(4096, 1.0, nat)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match=BUDGET_MESSAGE):
            grid_amplitudes(spec, 2**20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert continuous_identity_residual(spec, 2 * 4098) == 0.0


def test_gram_matrix_orthonormal(nat):
    for p in (1, 2, 7, 31):
        spec = build_equally_spaced(p, 2.0, nat)
        V = grid_amplitudes(spec, p, 0.123)
        gram = V.conj().T @ V
        assert np.max(np.abs(gram - np.eye(p + 1))) < 1e-12
        ref = gram_matrix_naive(spec.levels, spec.hbar,
                                0.123 + np.arange(p + 1) * spec.T / (p + 1))
        assert np.max(np.abs(gram - ref)) < 1e-10


# --- continuous limit -----------------------------------------------------------

def test_continuous_residual_equally_spaced(nat):
    spec = build_equally_spaced(2, 1.0, nat)
    assert continuous_identity_residual(spec, 64) < 1e-12


def test_continuous_residual_rational(nat):
    spec = rat0621(nat)
    assert continuous_identity_residual(spec, 64, 0.17) < 1e-12


def test_continuous_residual_nyquist_guard(nat):
    spec = rat0621(nat)  # r_p = 21 -> needs >= 44
    with pytest.raises(InvalidArgument):
        continuous_identity_residual(spec, 43)
    # below the guard the rule stays exact until sampling collides with a
    # frequency difference: first failure at N = r_p = 21
    for n in (43, 30, 22):
        assert continuous_identity_residual(spec, n, enforce_nyquist=False) < 1e-12
    assert continuous_identity_residual(spec, 21, enforce_nyquist=False) > 0.5


def test_continuous_residual_refuses_a_bad_node_count_or_offset(nat):
    for spec in (rat0621(nat), rationalized_spectrum([0.0, 1.0, math.sqrt(2)], 1e-3, nat)):
        nyquist = 2 * (spec.r[-1] + 1)
        for quad_points in (nyquist + 0.5, float(nyquist)):
            with pytest.raises(InvalidArgument, match="quad_points must be an integer"):
                continuous_identity_residual(spec, quad_points)
        # the exact residual computes no phase, so t_0 is checked on its own
        for t_0 in (math.nan, math.inf):
            with pytest.raises(InvalidArgument, match="must be finite"):
                continuous_identity_residual(spec, nyquist, t_0)
        assert (continuous_identity_residual(spec, np.int64(nyquist), 0.25)
                == continuous_identity_residual(spec, nyquist, 0.25))


def test_continuous_residual_aliasing_witness(nat):
    spec = rat0621(nat)
    nyquist = 2 * (spec.r[-1] + 1)
    hits = [n for n in range(nyquist - 1, 1, -1)
            if continuous_identity_residual(spec, n, enforce_nyquist=False) > 1e-3]
    assert hits and max(hits) == 21


# --- Hermitian time operator ----------------------------------------------------

def test_time_operator_two_level_eigenvalues(nat):
    spec = build_equally_spaced(1, 2 * math.pi, nat)
    op = hermitian_time_operator(spec, 0.0)
    assert np.allclose(op.eigenvalues(), [0.0, math.pi], atol=1e-10)


def test_time_operator_hermitian_and_spectrum(nat, rng):
    spec = build_equally_spaced(5, 1.7, nat)
    tau0 = float(rng.uniform(0, spec.T))
    op = hermitian_time_operator(spec, tau0)
    assert np.max(np.abs(op.matrix - op.matrix.conj().T)) < 1e-12
    assert np.allclose(np.sort(op.eigenvalues()), np.sort(op.povm.tau_grid), atol=1e-10)
    assert np.trace(op.matrix).real == pytest.approx(op.povm.tau_grid.sum(), rel=1e-12)


def test_time_operator_generates_energy_shifts(nat):
    # exp(-i dE tau_hat/hbar) with dE = 2 pi hbar/T cyclically shifts the
    # energy basis by one step (down, with the e^{-i E tau} phase sign);
    # its adjoint shifts up.  Either way tau_hat generates energy shifts.
    spec = build_equally_spaced(4, 1.0, nat)
    op = hermitian_time_operator(spec, 0.0)
    d = spec.dimension
    U = energy_shift_unitary(op, 2 * math.pi * spec.hbar / spec.T)
    for n in range(d):
        target = (n - 1) % d
        assert abs(U[target, n]) == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(np.delete(U[:, n], target))) < 1e-12
    Uup = energy_shift_unitary(op, -2 * math.pi * spec.hbar / spec.T)
    for n in range(d):
        assert abs(Uup[(n + 1) % d, n]) == pytest.approx(1.0, abs=1e-12)


def test_time_operator_requires_equal_spacing(nat):
    with pytest.raises(UnsupportedSpectrum):
        hermitian_time_operator(rat0621(nat), 0.0)


def shift_phases(spec, taus, delta_e):
    return np.exp(-1j * delta_e * np.asarray(taus) / spec.hbar)


@pytest.mark.parametrize("units", ["nat", "si"])
@pytest.mark.parametrize("p", [1, 2, 7, 63, 255])
def test_time_operator_matches_float_phase_oracle(request, units, p):
    spec = build_equally_spaced(p, 3.7, request.getfixturevalue(units))
    tau0 = 0.37 * spec.T
    op = hermitian_time_operator(spec, tau0)
    taus = tau0 + np.arange(p + 1) * (spec.T / (p + 1))
    ref = dial_operator_naive(spec.levels, spec.hbar, taus, taus)
    assert np.max(np.abs(op.matrix - ref)) < 1e-12 * spec.T
    assert np.array_equal(op.matrix, op.matrix.conj().T)
    assert (op.povm.z, op.povm.tau_0) == (p, tau0)
    grid = ClockPOVM(spec, p, tau0).tau_grid
    assert op.povm.tau_grid.tobytes() == grid.tobytes()
    assert not op.povm.tau_grid.flags.writeable
    for delta_e in (2 * math.pi * spec.hbar / spec.T, 0.3 * spec.hbar / spec.T):
        U = energy_shift_unitary(op, delta_e)
        phases = shift_phases(spec, taus, delta_e)
        assert np.max(np.abs(U - dial_operator_naive(spec.levels, spec.hbar, taus,
                                                     phases))) < 1e-12


def test_time_operator_never_builds_the_dial_grid(nat, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the z = p operators are one FFT, not a dial grid")

    spec = build_equally_spaced(7, 1.3, nat)
    taus = 0.2 + np.arange(8) * (spec.T / 8)
    delta_e = 0.7 * spec.hbar / spec.T
    monkeypatch.setattr(clockstates, "grid_amplitudes", forbidden)
    monkeypatch.setattr(clockstates, "_dial_rows", forbidden)
    op = hermitian_time_operator(spec, 0.2)
    U = energy_shift_unitary(op, delta_e)
    assert np.max(np.abs(op.matrix - dial_operator_naive(
        spec.levels, spec.hbar, taus, taus))) < 1e-12 * spec.T
    assert np.max(np.abs(U - dial_operator_naive(
        spec.levels, spec.hbar, taus, shift_phases(spec, taus, delta_e)))) < 1e-12


@pytest.mark.parametrize("delta_e", [math.nan, math.inf, -math.inf, 1e308])
def test_energy_shift_refuses_non_finite_phases(nat, delta_e):
    # 1e308 is finite, but 1e308 tau_m/hbar overflows at tau_m = 2.5, 5, 7.5;
    # a RuntimeWarning on the way would fail the test too
    op = hermitian_time_operator(build_equally_spaced(3, 10.0, nat))
    with pytest.raises(InvalidArgument, match="energy shift"):
        energy_shift_unitary(op, delta_e)


@pytest.mark.parametrize("p, tau0", [(1, 1.7e308), (3, 1e308)],
                         ids=["last-time-overflows", "times-sum-overflows"])
def test_time_operator_refuses_an_overflowing_dial(nat, p, tau0):
    # over T = 1e308 the first dial's second time is inf; the second's four
    # times are finite, 1e308 to 1.75e308, but their sum, the FFT's zero-frequency
    # term, is not.  A RuntimeWarning on the way would fail the test too
    with pytest.raises(InvalidArgument, match="overflow"):
        hermitian_time_operator(build_equally_spaced(p, 1e308, nat), tau0)


# dial offsets: both zeros, a negative one, and ones far past the period
OFFSETS = st.one_of(st.sampled_from([0.0, -0.0, -2.5, 1e15, -3e17, 1e100]),
                    st.floats(-1e6, 1e6))


@settings(max_examples=150, deadline=None)
@given(p=st.integers(1, 300), T=st.floats(0.1, 100.0), tau0=OFFSETS,
       shift=st.floats(-10.0, 10.0))
def test_dial_operators_are_the_whole_matrix_expressions_to_the_byte(nat, p, T, tau0, shift):
    spec = build_equally_spaced(p, T, nat)
    op = hermitian_time_operator(spec, tau0)
    taus = op.povm.tau_grid
    expected = hermitian_mirror_dense(spec, tau0, taus)
    assert op.matrix.tobytes() == expected.tobytes()
    upper = np.triu_indices(p + 1, 1)
    assert op.matrix[upper].tobytes() == op.matrix.T[upper].conj().tobytes()
    delta_e = shift * spec.hbar / spec.T
    phases = np.exp(-1j * delta_e * taus / spec.hbar)
    U = energy_shift_unitary(op, delta_e)
    assert U.tobytes() == dial_circulant_gathered(spec, tau0, phases).tobytes()


@pytest.mark.parametrize("p", [1, 2, 7, 63, 255, 1000])
@settings(max_examples=5, deadline=None)
@given(tau0=OFFSETS)
def test_time_operator_eigenvalues_are_the_dial_grid_and_the_complex_solve(nat, p, tau0):
    spec = build_equally_spaced(p, 3.7, nat)
    op = hermitian_time_operator(spec, tau0)
    eigenvalues = op.eigenvalues()
    assert eigenvalues is op.povm.tau_grid
    assert "matrix" not in op.__dict__
    form = real_form_toeplitz_hankel(op.povm.tau_grid)
    assert np.array_equal(form, form.T)
    tol = 1e-12 * max(spec.T, float(np.abs(eigenvalues).max()))
    assert np.abs(eigenvalues - np.linalg.eigvalsh(op.matrix)).max() <= tol
    assert np.abs(eigenvalues - np.linalg.eigvalsh(form)).max() <= tol


@pytest.mark.parametrize("p", [1, 2, 7, 63])
@pytest.mark.parametrize("tau0", [0.0, -2.5, 0.37, 1e15])
def test_the_real_form_is_the_unitary_reduction_of_the_matrix(nat, p, tau0):
    # Q^H D^H tau_hat D Q, D the offset phases and Q = (I + iJ)/sqrt 2, is real
    spec = build_equally_spaced(p, 3.7, nat)
    op = hermitian_time_operator(spec, tau0)
    u = time_state(spec, tau0).amplitudes * math.sqrt(spec.dimension)
    reduced = real_form_dense(op.matrix, u)
    tol = 1e-12 * max(spec.T, float(np.abs(op.povm.tau_grid).max()))
    assert np.abs(reduced.imag).max() <= tol
    assert np.abs(reduced.real - real_form_toeplitz_hankel(op.povm.tau_grid)).max() <= tol


@pytest.mark.parametrize("p", [1, 2, 7, 16])
@pytest.mark.parametrize("tau0", [0.0, -2.5, 0.37])
def test_an_energy_shift_is_the_spectral_sum_and_a_cyclic_shift(nat, p, tau0):
    # at delta_e = k 2 pi hbar/T the dial phases are e^{-2 pi i k (tau0 + m T/(p+1))/T},
    # so exp(-i delta_e tau_hat/hbar) moves |E_n> to |E_{n-k mod p+1}> up to a phase
    spec = build_equally_spaced(p, 3.7, nat)
    op = hermitian_time_operator(spec, tau0)
    for k in (1, 2, p, -1):
        delta_e = k * 2 * math.pi * spec.hbar / spec.T
        U = energy_shift_unitary(op, delta_e)
        assert np.abs(U - energy_shift_spectral(op.povm, delta_e)).max() <= 1e-12
        shift = np.roll(np.eye(spec.dimension), -k, axis=0)  # 1 at (n - k mod p+1, n)
        assert np.abs(np.abs(U) - shift).max() <= 1e-12


def test_a_time_operator_holds_its_z_equals_p_dial(nat):
    spec = build_equally_spaced(3, 1.0, nat)
    with pytest.raises(InvalidArgument, match="needs the z = p = 3 dial, got z = 4"):
        TimeOperator(ClockPOVM(spec, 4))
    with pytest.raises(UnsupportedSpectrum):
        TimeOperator(ClockPOVM(rat0621(nat), rat0621(nat).p))
    op = TimeOperator(ClockPOVM(spec, 3, 0.25))
    assert op.matrix is op.matrix and not op.matrix.flags.writeable
    assert op.matrix.tobytes() == hermitian_time_operator(spec, 0.25).matrix.tobytes()


def _frame_spectrum(kind, p, seed, nat):
    rng = np.random.default_rng(seed)
    if kind == "equally-spaced":
        return build_equally_spaced(p, 1.0 + rng.random(), nat)
    if kind == "rational":
        fracs = random_rational_fracs(rng, min(p, 12))
        return build_rational([RationalRatio.from_fraction(f) for f in fracs], 1.0, nat)
    # levels just off r_n = n, so every d_nk is a small non-zero float
    levels = np.arange(p + 1) + rng.uniform(-0.01, 0.01, p + 1)
    levels[0] = 0.0
    return ClockSpectrum(levels, range(p + 1), 2 * math.pi, 1.0,
                         SpectrumKind.RATIONALIZED, 0.02)


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(["equally-spaced", "rational", "rationalized"]),
       p=st.integers(1, 300), seed=st.integers(0, 2**32 - 1), tau0=OFFSETS,
       above=st.one_of(st.sampled_from([0, 1, 2, 3, 10**3, 2**40, 2**62]),
                       st.integers(0, 2**62)))
def test_the_frame_is_the_whole_matrix_expression_to_the_byte(nat, kind, p, seed, tau0, above):
    # z+1 equal to d, just above it, and far above it, up to the 2^62 cap
    spec = _frame_spectrum(kind, p, seed, nat)
    zp1 = min(spec.dimension + above, 2**62)
    F = frame_operator(spec, zp1 - 1, tau0)
    assert F.tobytes() == frame_dense(spec, zp1, tau0).tobytes()
    if kind == "rationalized":
        assert identity_residual(spec, zp1 - 1, tau0) == frame_residual_dense(spec, zp1, tau0)


# --- POVM object ----------------------------------------------------------------

def test_povm_elements_sum_to_identity(nat):
    spec = rat014(nat)
    povm = ClockPOVM(spec, spec.r[-1], 0.05)
    total = sum(povm.element(m) for m in range(povm.n_outcomes))
    assert np.max(np.abs(total - np.eye(spec.dimension))) < 1e-12
    assert povm.weight == Fraction(3, 5)


def test_povm_element_is_one_grid_column(nat):
    for spec in (rat0621(nat), rationalized_spectrum([0.0, 1.0, math.e], 1e-2, nat)):
        povm = ClockPOVM(spec, spec.r[-1] + 4, 0.31)
        V = grid_amplitudes(spec, povm.z, povm.tau_0)
        for m in (0, 1, povm.z // 2, povm.z):
            expected = float(povm.weight) * np.outer(V[:, m], V[:, m].conj())
            assert np.max(np.abs(povm.element(m) - expected)) < 1e-12


def test_povm_element_refuses_an_index_off_the_dial(nat):
    povm = ClockPOVM(rat0621(nat), 21)
    for m in (1.5, 2.0, -1, 22):
        with pytest.raises(InvalidArgument, match="outcome index"):
            povm.element(m)
    assert np.array_equal(povm.element(np.int64(2)), povm.element(2))


def test_povm_rejects_small_z(nat):
    with pytest.raises(InvalidArgument):
        ClockPOVM(build_equally_spaced(4, 1.0, nat), 3)


def test_the_dial_times_are_filled_in_place(nat):
    # z = 10^6: the grid is 8 MB, and no int64 arange or product sits beside it
    povm = ClockPOVM(build_equally_spaced(5, 1.0, nat), 10**6, 0.3)
    tracemalloc.start()
    try:
        grid = povm.tau_grid
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8.5e6
    assert grid.tobytes() == (0.3 + np.arange(10**6 + 1) * (1.0 / (10**6 + 1))).tobytes()


# --- rationalized spectra: residual decay ---------------------------------------

def test_residual_decay_with_epsilon(nat):
    # single irrational ratio: the continued-fraction route makes the
    # integer-frequency mismatch shrink steadily as epsilon drops
    levels = [0.0, 1.0, (1 + math.sqrt(5)) / 2]
    residuals = []
    for eps in (1e-2, 1e-3, 1e-4, 1e-5):
        spec = rationalized_spectrum(levels, eps, nat)
        residuals.append(identity_residual(spec, spec.r[-1], 0.0))
    assert residuals[0] > 1e-12  # the approximation is genuinely inexact
    assert all(a > b for a, b in zip(residuals, residuals[1:]))
    assert residuals[-1] < residuals[0] / 10


def test_residual_no_decay_guarantee_for_compound_lcm(nat):
    # with several independent irrationals the per-ratio denominators
    # multiply through the lcm, so r_1*eps need not shrink; the residual is
    # measured, not assumed.  Pin the observed non-collapse at eps = 1e-4.
    levels = [0.0, 1.0, math.e, math.pi]
    spec = rationalized_spectrum(levels, 1e-4, nat)
    res = identity_residual(spec, spec.r[-1], 0.0)
    assert res > 0.1  # lcm(106, 113)-scale frequencies, eps*r_1 of order one


# --- first orthogonal time ------------------------------------------------------

@pytest.mark.parametrize("p", [1, 2, 5])
def test_first_orthogonal_time_equally_spaced(nat, p):
    spec = build_equally_spaced(p, 2.0, nat)
    t_orth = first_orthogonal_time(spec)
    assert t_orth == pytest.approx(spec.T / (p + 1), rel=1e-10)
    ref = first_zero_scan(spec.levels, spec.hbar, spec.T)
    assert t_orth == pytest.approx(ref, rel=1e-6)


# compared with ==: the two zeros of products are their closed forms
# (test_pinned_zeros_are_the_closed_forms)
FIRST_ORTHOGONAL_PINS = [
    ("equally-spaced", 1, "0x1.0000000000000p+0"),
    ("equally-spaced", 2, "0x1.5555555555556p-1"),
    ("equally-spaced", 7, "0x1.0000000000000p-2"),
    ("equally-spaced", 63, "0x1.0000000000000p-5"),
    ("equally-spaced", 255, "0x1.0000000000000p-7"),
    ("rational", [(5, 3), (7, 2)], None),                      # r = (0, 6, 10, 21)
    ("rational", [(3, 2), (5, 2)], "0x1.0c152382d7365p+1"),    # r = (0, 2, 3, 5)
    ("rationalized", ([0.0, 1.0, math.sqrt(2)], 1e-2), None),
    ("rationalized", ([0.0, 1.0, math.sqrt(2), math.sqrt(3)], 1e-2), None),
    # (1 + e^{-it}) (1 + e^{-i sqrt(2) t}) vanishes first at t = pi/sqrt(2)
    ("rationalized", ([0.0, 1.0, math.sqrt(2), 1.0 + math.sqrt(2)], 1e-3),
     "0x1.1c5831add62e4p+1"),
]


def _pinned_spectrum(kind, arg, consts):
    if kind == "equally-spaced":
        return build_equally_spaced(arg, 2.0, consts)
    if kind == "rational":
        return build_rational([RationalRatio(a, b) for a, b in arg], 1.0, consts)
    return rationalized_spectrum(*arg, consts)


@pytest.mark.parametrize("kind,arg,pinned", FIRST_ORTHOGONAL_PINS)
def test_first_orthogonal_time_is_pinned(nat, kind, arg, pinned):
    spec = _pinned_spectrum(kind, arg, nat)
    t_orth = first_orthogonal_time(spec)
    assert t_orth == (None if pinned is None else float.fromhex(pinned))
    # the oracle scans a window holding the first zero; at large p a whole
    # period would need a (p+1) x 400001 phase matrix
    window = spec.T if spec.p < 63 else 4 * spec.T / spec.dimension
    ref = first_zero_scan(spec.levels, spec.hbar, window,
                          n_grid=4001 if spec.p >= 63 else 200001)
    if t_orth is None:
        # the crude oracle may report a shallow dip; it must not be a zero
        assert ref is None or abs(np.exp(-1j * spec.levels * ref / spec.hbar).mean()) > 1e-9
    else:
        assert t_orth == pytest.approx(ref, rel=1e-6)


def test_pinned_zeros_are_the_closed_forms(nat):
    # (1 + x^2)(1 + x^3) with x = e^{-2 pi i t/T} vanishes first at t = T/6
    spec = build_rational([RationalRatio(3, 2), RationalRatio(5, 2)], 1.0, nat)
    assert spec.r == (0, 2, 3, 5)
    assert first_orthogonal_time(spec) == spec.T / 6 == 2 * math.pi / 3
    spec = rationalized_spectrum([0.0, 1.0, math.sqrt(2), 1.0 + math.sqrt(2)], 1e-3, nat)
    assert first_orthogonal_time(spec) == math.pi / math.sqrt(2)


def _product_spectrum(a, b, consts):
    """(1 + x^a)(1 + x^b): r = (0, a, b, a+b), first zero at T/(2 max(a, b))."""
    spec = build_rational([RationalRatio(b, a), RationalRatio(a + b, a)], 1.0, consts)
    assert spec.r == (0, a, b, a + b)
    return spec


def test_first_orthogonal_time_finds_the_first_of_two_close_zeros(nat):
    # the zeros at T/(2b) and T/(2a) come close when b - a is small; a search
    # that polished only scan minima returned the second one for these four
    pairs = [(39, 41), (36, 37), (53, 55), (50, 51)]
    pairs += [(a, b) for b in range(2, 32) for a in range(1, b) if math.gcd(a, b) == 1]
    for a, b in pairs:
        spec = _product_spectrum(a, b, nat)
        zero = spec.T / (2 * b)
        assert abs(first_orthogonal_time(spec) - zero) <= 2 * math.ulp(zero), (a, b)


def test_first_orthogonal_time_never_returns_a_later_zero(nat):
    # wider, the first zero is still the one found; when the two zeros come
    # close, |dS/dt| shrinks with |cos(pi a/(2b))| and double sums land a few
    # ulps from it (3 at most over b < 80)
    for b in range(32, 60, 3):
        for a in [a for a in range(1, b) if math.gcd(a, b) == 1]:
            spec = _product_spectrum(a, b, nat)
            zero = spec.T / (2 * b)
            assert abs(first_orthogonal_time(spec) - zero) <= 4 * math.ulp(zero), (a, b)


def _counting_slope(monkeypatch):
    calls = []
    slope = clockstates._overlap_sq_slope

    def counted(w, t):
        calls.append(t)
        return slope(w, t)
    monkeypatch.setattr(clockstates, "_overlap_sq_slope", counted)
    return calls


@pytest.mark.parametrize("build", [
    lambda c: build_rational([RationalRatio(5, 3), RationalRatio(7, 2), RationalRatio(113, 7),
                              RationalRatio(997, 11)], 1.0, c),
    lambda c: rationalized_spectrum([math.sqrt(n) for n in range(6)], 1e-3, c),
], ids=["rational-41874", "sqrt-n-1e-3"])
def test_none_is_certified_within_a_fixed_number_of_evaluations(nat, monkeypatch, build):
    # every scan step is either certified free of zeros by its chord bound or
    # narrowed until its minimum is polished; a Brent polish of every scan
    # minimum below 2 pi/32 made 216k slope calls here.  The 32 (r_p + 1)
    # scan points (1,340,000 and 1,445,856) take 16 B each as complex
    # samples, and the rationalized fold and the bounds work a window at a time
    spec = build(nat)
    n_grid = 32 * (spec.r[-1] + 1)
    calls = _counting_slope(monkeypatch)
    tracemalloc.start()
    try:
        t_orth = first_orthogonal_time(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert t_orth is None
    assert len(calls) <= 2000
    assert peak <= 32 * n_grid


def test_first_orthogonal_time_needs_no_scipy():
    # scipy set to None in sys.modules makes any import of it fail
    code = (
        "import json, sys\n"
        "sys.modules['scipy'] = None\n"
        "import test_clockstates as t\n"
        "from qclock import first_orthogonal_time, natural_units\n"
        "res = [first_orthogonal_time(t._pinned_spectrum(k, a, natural_units()))\n"
        "       for k, a, _ in t.FIRST_ORTHOGONAL_PINS]\n"
        "print(json.dumps([None if x is None else x.hex() for x in res]))\n")
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(os.path.abspath(clockstates.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, here]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=False)
    assert done.returncode == 0, done.stderr
    got = json.loads(done.stdout)
    assert got == [None if pin is None else float.fromhex(pin).hex()
                   for _, _, pin in FIRST_ORTHOGONAL_PINS]


def test_first_orthogonal_time_scan_memory_is_linear(nat, monkeypatch):
    spec = build_equally_spaced(255, 1.0, nat)
    first_orthogonal_time(spec)  # imports numpy.fft outside the trace
    calls = _counting_slope(monkeypatch)
    tracemalloc.start()
    try:
        t_orth = first_orthogonal_time(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    # the zero T/256 is scan point 32 of 8192: a few narrowings, then a
    # bisection from the narrowed step down to adjacent floats
    assert t_orth == spec.T / 256
    assert len(calls) <= 40


def test_first_orthogonal_time_refuses_scans_past_the_cap():
    # 32 (r_p + 1) = 2^30 + 32 samples, 24 GiB; refused before anything is allocated
    spec = _integer_spectrum((0, 2**25))
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match=BUDGET_MESSAGE):
            first_orthogonal_time(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("samples", [100.5, 32.0, 0, -3, "32", None])
def test_first_orthogonal_time_refuses_a_bad_samples_per_cycle(nat, samples):
    with pytest.raises(InvalidArgument, match="samples_per_cycle"):
        first_orthogonal_time(build_equally_spaced(3, 1.0, nat), samples_per_cycle=samples)


def test_first_orthogonal_time_takes_numpy_integer_samples(nat):
    spec = build_equally_spaced(3, 1.0, nat)
    assert first_orthogonal_time(spec, samples_per_cycle=np.int64(32)) == \
        first_orthogonal_time(spec)


def test_first_orthogonal_time_refuses_overflowing_frequencies(si):
    # E_1/hbar = 2 pi/T is past the float range at T = 1e-310 s, so no bound
    # on the search holds; a scan with an infinite curvature term never ends
    spec = build_equally_spaced(1, 1e-310, si)
    with pytest.raises(InvalidArgument, match="overflow"):
        first_orthogonal_time(spec)


def test_first_orthogonal_time_rational(nat):
    spec = rat0621(nat)
    t_orth = first_orthogonal_time(spec)
    ref = first_zero_scan(spec.levels, spec.hbar, spec.T, n_grid=2000001)
    if ref is None:
        assert t_orth is None
    else:
        assert t_orth == pytest.approx(ref, rel=1e-5)
