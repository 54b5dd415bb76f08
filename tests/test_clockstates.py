import math
import tracemalloc
from fractions import Fraction

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qclock import (ClockPOVM, ClockSpectrum, IncompatibleStates,
                    InvalidArgument, RationalRatio, SpectrumKind,
                    UnsupportedSpectrum, build_equally_spaced, build_rational,
                    clockstates, continuous_identity_residual,
                    energy_shift_unitary, evolve, first_orthogonal_time,
                    frame_operator, grid_amplitudes, hermitian_time_operator,
                    identity_residual, overlap, rationalized_spectrum,
                    time_state)

from oracles import (dial_operator_naive, first_zero_scan, frame_residual_naive,
                     gram_matrix_naive, random_rational_fracs, turns_fraction)


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
    with pytest.raises(InvalidArgument, match="2\\^62"):
        identity_residual(spec, 2**62)


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


def test_identity_residual_rejects_small_z(nat):
    spec = build_equally_spaced(4, 1.0, nat)
    with pytest.raises(InvalidArgument):
        identity_residual(spec, 3, 0.0)


def test_dense_assembly_dimension_cap(nat):
    spec = build_equally_spaced(4096, 1.0, nat)  # dimension 4097 > cap
    with pytest.raises(InvalidArgument):
        grid_amplitudes(spec, 4096)
    with pytest.raises(InvalidArgument):
        continuous_identity_residual(spec, 2 * 4098)


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
    assert np.allclose(np.sort(op.eigenvalues()), np.sort(op.tau_grid), atol=1e-10)
    assert np.trace(op.matrix).real == pytest.approx(op.tau_grid.sum(), rel=1e-12)


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
    grid = ClockPOVM(spec, p, tau0).tau_grid
    assert op.tau_grid.tobytes() == grid.tobytes()
    assert not op.tau_grid.flags.writeable
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


def test_povm_rejects_small_z(nat):
    with pytest.raises(InvalidArgument):
        ClockPOVM(build_equally_spaced(4, 1.0, nat), 3)


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


# captured before the scan became a residue-histogram FFT (exact spectra) and
# a fold of the dial rows (rationalized spectra); the scan only picks the
# brackets that Brent's method polishes, so the values must not move a bit
FIRST_ORTHOGONAL_PINS = [
    ("equally-spaced", 1, "0x1.0000000000000p+0"),
    ("equally-spaced", 2, "0x1.5555555555556p-1"),
    ("equally-spaced", 7, "0x1.0000000000000p-2"),
    ("equally-spaced", 63, "0x1.0000000000000p-5"),
    ("equally-spaced", 255, "0x1.0000000000000p-7"),
    ("rational", [(5, 3), (7, 2)], None),                      # r = (0, 6, 10, 21)
    ("rational", [(3, 2), (5, 2)], "0x1.0c152382d7366p+1"),    # r = (0, 2, 3, 5)
    ("rationalized", ([0.0, 1.0, math.sqrt(2)], 1e-2), None),
    ("rationalized", ([0.0, 1.0, math.sqrt(2), math.sqrt(3)], 1e-2), None),
    # (1 + e^{-it}) (1 + e^{-i sqrt(2) t}) vanishes first at t = pi/sqrt(2)
    ("rationalized", ([0.0, 1.0, math.sqrt(2), 1.0 + math.sqrt(2)], 1e-3),
     "0x1.1c5831add62e5p+1"),
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


def test_first_orthogonal_time_scan_memory_is_linear(nat):
    spec = build_equally_spaced(255, 1.0, nat)
    first_orthogonal_time(spec)  # imports scipy.optimize and numpy.fft outside the trace
    tracemalloc.start()
    try:
        t_orth = first_orthogonal_time(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert t_orth == pytest.approx(spec.T / spec.dimension, rel=1e-12)


def test_first_orthogonal_time_refuses_scans_past_the_cap():
    # 32 (r_p + 1) = 2^30 + 32 samples; refused before anything is allocated
    spec = _integer_spectrum((0, 2**25))
    tracemalloc.start()
    try:
        with pytest.raises(InvalidArgument, match="2\\^30"):
            first_orthogonal_time(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_first_orthogonal_time_rational(nat):
    spec = rat0621(nat)
    t_orth = first_orthogonal_time(spec)
    ref = first_zero_scan(spec.levels, spec.hbar, spec.T, n_grid=2000001)
    if ref is None:
        assert t_orth is None
    else:
        assert t_orth == pytest.approx(ref, rel=1e-5)
