import math
import tracemalloc
import unittest.mock
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qclock import (ClockPOVM, ClockSpectrum, IncompatibleStates, InvalidArgument,
                    InvalidDistribution, MeasurementRecord, NoEstimate,
                    OutcomeDistribution, RationalRatio, SpectrumKind, build_equally_spaced,
                    build_rational, circular_mean, clockstates, estimate_time,
                    evolve, measurement, outcome_probabilities,
                    rationalized_spectrum, sample, time_state, with_estimate)

from oracles import (circular_mean_dense, circular_mean_naive,
                     outcome_probabilities_naive, random_rational_fracs,
                     sample_counts_bincount)


def dial(n, T=1.0, tau_0=0.0):
    """A dial of n times over period T, on the two-level equally spaced clock."""
    return ClockPOVM(build_equally_spaced(1, T), n - 1, tau_0)


def test_grid_state_gives_kronecker_delta(nat):
    spec = build_equally_spaced(4, 1.0, nat)
    povm = ClockPOVM(spec, 4, 0.0)
    for k in range(5):
        state = time_state(spec, float(povm.tau_grid[k]))
        dist = outcome_probabilities(state, povm)
        expected = np.zeros(5)
        expected[k] = 1.0
        assert np.max(np.abs(dist.probs - expected)) < 1e-12


def test_energy_ground_state_is_uniform(nat):
    # E_0 = 0, so |<tau_m|E_0>|^2 = 1/(p+1) for every m and any z
    spec = build_equally_spaced(3, 1.0, nat)
    for z in (3, 7, 12):
        povm = ClockPOVM(spec, z, 0.0)
        psi = np.zeros(spec.dimension, dtype=complex)
        psi[0] = 1.0
        dist = outcome_probabilities(psi, povm)
        assert np.max(np.abs(dist.probs - 1.0 / (z + 1))) < 1e-12


def test_two_level_midgrid_closed_form(nat):
    # z = p = 1: P(m) = cos^2(pi (t - tau_m)/T), frozen from the brute-force
    # inner-product oracle at T = 2, t = 0.3
    spec = build_equally_spaced(1, 2.0, nat)
    povm = ClockPOVM(spec, 1, 0.0)
    dist = outcome_probabilities(time_state(spec, 0.3), povm)
    assert dist.probs[0] == pytest.approx(0.7938926261462367, abs=1e-12)
    assert dist.probs[1] == pytest.approx(0.20610737385376346, abs=1e-12)
    for m, tau_m in enumerate(povm.tau_grid):
        assert dist.probs[m] == pytest.approx(
            math.cos(math.pi * (0.3 - tau_m) / spec.T) ** 2, abs=1e-12)


def test_probabilities_sum_to_one_when_complete(nat, rng):
    spec = build_rational([RationalRatio(5, 3), RationalRatio(7, 2)], 1.0, nat)
    povm = ClockPOVM(spec, spec.r[-1], 0.1)  # z+1 = r_p + 1 > r_p
    for _ in range(5):
        dist = outcome_probabilities(time_state(spec, float(rng.uniform(0, spec.T))), povm)
        assert abs(dist.probs.sum() - 1.0) < 1e-10


def test_mismatched_state_rejected(nat):
    povm = ClockPOVM(build_equally_spaced(3, 1.0, nat), 3)
    other = time_state(build_equally_spaced(4, 1.0, nat), 0.0)
    with pytest.raises(IncompatibleStates):
        outcome_probabilities(other, povm)
    with pytest.raises(IncompatibleStates):
        outcome_probabilities(np.ones(7) / math.sqrt(7), povm)
    with pytest.raises(InvalidArgument):
        outcome_probabilities(np.ones(4), povm)  # not normalized
    with pytest.raises(InvalidArgument):
        outcome_probabilities(np.array([math.nan, 0, 0, 0]), povm)


def test_statistics_shift_covariance(nat, rng):
    # evolving by T/(z+1) rotates the outcome distribution by one index
    spec = build_rational([RationalRatio(3, 2), RationalRatio(2, 1)], 1.0, nat)
    z = spec.r[-1]
    povm = ClockPOVM(spec, z, float(rng.uniform(0, spec.T)))
    state = time_state(spec, float(rng.uniform(0, spec.T)))
    before = outcome_probabilities(state, povm).probs
    after = outcome_probabilities(evolve(state, spec.T / (z + 1)), povm).probs
    assert np.max(np.abs(after - np.roll(before, 1))) < 1e-10


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), p=st.integers(1, 5), extra=st.integers(0, 40),
       tau0=st.floats(-2.0, 2.0), t=st.floats(-2.0, 2.0))
def test_statistics_shift_covariance_on_exact_spectra(nat, seed, p, extra, tau0, t):
    # evolving by the exact T/(z+1) rotates the outcome distribution by one bin
    fracs = random_rational_fracs(np.random.default_rng(seed), p)
    spec = build_rational([RationalRatio.from_fraction(f) for f in fracs], 1.0, nat)
    z = spec.r[-1] + extra
    povm = ClockPOVM(spec, z, tau0 * spec.T)
    state = time_state(spec, t * spec.T)
    before = outcome_probabilities(state, povm).probs
    after = outcome_probabilities(evolve(state, Fraction(spec.T) / (z + 1)), povm).probs
    assert np.max(np.abs(after - np.roll(before, 1))) < 1e-12


def energy_state(spec, n):
    psi = np.zeros(spec.dimension, dtype=complex)
    psi[n] = 1.0
    return psi


def rat0621(nat):
    return build_rational([RationalRatio(5, 3), RationalRatio(7, 2)], 1.0, nat)


def oracle_case(spec, z, tau_0, state):
    """(spec, POVM, state, psi): state is a time t or an energy index n."""
    if isinstance(state, int):
        psi = energy_state(spec, state)
        return spec, ClockPOVM(spec, z, tau_0), psi, psi
    state = time_state(spec, state)
    return spec, ClockPOVM(spec, z, tau_0), state, state.amplitudes


ORACLE_CASES = {
    # r = (0, 1, 4) at z+1 = 3: r_1 and r_2 share residue 1
    "residue-collision": lambda nat: oracle_case(
        build_rational([RationalRatio(4, 1)], 1.0, nat), 2, 0.0, 0.3),
    "tau0-offset": lambda nat: oracle_case(rat0621(nat), 30, 0.37, 2.9),
    "energy-eigenstate": lambda nat: oracle_case(rat0621(nat), 21, 0.11, 2),
    "equally-spaced-z-above-p": lambda nat: oracle_case(
        build_equally_spaced(5, 1.0, nat), 40, 0.1, 0.23),
    "rationalized": lambda nat: oracle_case(
        rationalized_spectrum([0.0, 1.0, math.sqrt(2)], 1e-3, nat), 41, 0.2, 0.7),
}


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_outcome_probabilities_match_naive_oracle(nat, case):
    spec, povm, state, psi = ORACLE_CASES[case](nat)
    probs = outcome_probabilities(state, povm).probs
    ref = outcome_probabilities_naive(spec.levels, spec.hbar, spec.T, povm.z + 1,
                                      povm.tau_0, psi)
    assert probs == pytest.approx(ref, rel=0, abs=1e-12)


def test_outcome_probabilities_never_build_the_dial_grid(nat, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("outcome_probabilities must not assemble the dial grid")

    monkeypatch.setattr(clockstates, "grid_amplitudes", forbidden)
    monkeypatch.setattr(measurement, "grid_amplitudes", forbidden, raising=False)
    for make in ORACLE_CASES.values():
        _, povm, state, _ = make(nat)
        assert outcome_probabilities(state, povm).probs.shape == (povm.n_outcomes,)


def test_outcome_probabilities_memory_is_linear_in_z(nat):
    # the dense (p+1) x (z+1) grid alone would be 64 * 100001 * 16 B = 102 MB
    spec = build_equally_spaced(63, 1.0, nat)
    povm = ClockPOVM(spec, 10**5, 0.1)
    state = time_state(spec, 0.3)
    tracemalloc.start()
    try:
        dist = outcome_probabilities(state, povm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20
    assert abs(dist.probs.sum() - 1.0) < 1e-12


def test_overflowing_dial_phases_are_refused_without_warnings(nat):
    # tau_0 near the float maximum overflows the rationalized float phases;
    # over a period of 1e308 the dial time tau_1 = tau_0 + T/2 overflows too
    spec = rationalized_spectrum([0.0, 1.0, math.sqrt(2)], 1e-3, nat)
    huge = ClockSpectrum([0.0, 2 * math.pi * (1 + 1e-7) / 1e308], (0, 1), 1e308, 1.0,
                         SpectrumKind.RATIONALIZED, 1e-3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for spec in (spec, huge):
            povm = ClockPOVM(spec, spec.r[-1], tau_0=1.7e308)
            for state in (time_state(spec, 0.3), energy_state(spec, 1)):
                with pytest.raises(InvalidDistribution, match="finite"):
                    outcome_probabilities(state, povm)


# --- sampling -----------------------------------------------------------------

def test_chunked_sorted_sampling_matches_one_unsorted_draw(nat):
    spec = rat0621(nat)
    dist = outcome_probabilities(time_state(spec, 1.7), ClockPOVM(spec, 40, 0.2))
    shots = 3 * 2**20 + 7  # four chunks of at most 2^20 draws
    rec = sample(dist, shots, seed=2024)
    assert np.array_equal(rec.counts, sample_counts_bincount(dist.probs, shots, 2024))


@settings(max_examples=150, deadline=None)
@given(weights=arrays(np.float64, st.integers(2, 3000),
                      elements=st.sampled_from([0.0, 0.0, 1e-300, 1.0]) | st.floats(0.0, 1e3)),
       shots=st.integers(1, 5000), seed=st.integers(0, 2**64 - 1),
       chunk=st.sampled_from([1, 7, 1024, measurement.SAMPLE_CHUNK]))
def test_sample_counts_what_one_search_per_draw_counts(weights, shots, seed, chunk):
    # empty bins, runs of them at either end, and bins too narrow to hit
    assume(weights.sum() > 0.0)
    probs = weights / weights.sum()
    dist = OutcomeDistribution(probs, dial(probs.size))
    with unittest.mock.patch.object(measurement, "SAMPLE_CHUNK", chunk):
        rec = sample(dist, shots, seed)
    assert np.array_equal(rec.counts, sample_counts_bincount(dist.probs, shots, seed))


def test_sample_counts_stay_non_negative_where_the_cdf_dips():
    # 2*10^5 probabilities of -1e-12, which a distribution admits, make the cdf
    # fall by 2e-7 after its first bin; a draw in that dip belongs to the first
    # bin whose cdf exceeds it, the first one
    n, shots, seed = 2 * 10**5, 10**7, 1
    probs = np.full(n + 2, -1e-12)
    probs[0], probs[-1] = 0.5, 0.5 + n * 1e-12
    first = probs[0] / float(probs.sum())
    draws = np.random.default_rng(seed).random(shots)
    assert np.count_nonzero((draws < first) & (draws >= first - 2e-7 + 1e-12)) > 0
    rec = sample(OutcomeDistribution(probs, dial(n + 2)), shots, seed)
    assert rec.counts[0] == np.count_nonzero(draws < first)
    assert rec.counts[-1] == shots - rec.counts[0]
    assert not rec.counts[1:-1].any()


def test_one_measurement_shares_one_tau_grid(nat):
    # a measurement holds its POVM and never builds the grid; asked for, the
    # grid is built once, read-only, and holds the bits of ClockPOVM.times
    spec = rat0621(nat)
    povm = ClockPOVM(spec, 40, 0.2)
    dist = outcome_probabilities(time_state(spec, 1.3), povm)
    rec = with_estimate(sample(dist, 1000, seed=5))
    assert dist.povm is povm and rec.povm is povm
    assert "tau_grid" not in vars(povm)
    grid = povm.tau_grid
    assert povm.tau_grid is grid
    assert grid.dtype == np.float64 and not grid.flags.writeable
    assert grid.tobytes() == povm.times(0, povm.n_outcomes).tobytes()
    assert povm.times(7, 9).tobytes() == grid[7:9].tobytes()
    # a writable probability vector, or a read-only view of one, is still copied
    probs = np.full(4, 0.25)
    view = probs.view()
    view.setflags(write=False)
    for given in (probs, view):
        copy = OutcomeDistribution(given, dial(4)).probs
        assert copy is not given and not copy.flags.writeable
        probs[0] = 0.5
        assert copy[0] == 0.25
        probs[0] = 0.25


def test_sample_deterministic_distribution(nat):
    spec = build_equally_spaced(4, 1.0, nat)
    povm = ClockPOVM(spec, 4, 0.0)
    dist = outcome_probabilities(time_state(spec, float(povm.tau_grid[2])), povm)
    rec = sample(dist, 1000, seed=99)
    assert rec.counts[2] == 1000
    assert rec.counts.sum() == 1000


def test_sample_seed_reproducibility(nat):
    spec = build_equally_spaced(3, 1.0, nat)
    povm = ClockPOVM(spec, 9, 0.0)
    dist = outcome_probabilities(time_state(spec, 0.21), povm)
    a = sample(dist, 5000, seed=7)
    b = sample(dist, 5000, seed=7)
    c = sample(dist, 5000, seed=8)
    assert np.array_equal(a.counts, b.counts)
    assert not np.array_equal(a.counts, c.counts)


def test_sample_uniform_within_five_sigma(nat):
    spec = build_equally_spaced(3, 1.0, nat)
    z = 7
    povm = ClockPOVM(spec, z, 0.0)
    psi = np.zeros(spec.dimension, dtype=complex)
    psi[0] = 1.0
    dist = outcome_probabilities(psi, povm)
    shots = 10**5
    rec = sample(dist, shots, seed=123)
    p = 1.0 / (z + 1)
    sigma = math.sqrt(p * (1 - p) / shots)
    freq = rec.counts / shots
    assert np.max(np.abs(freq - p)) < 5 * sigma


def test_sample_rejects_bad_distribution(nat):
    dist = OutcomeDistribution(np.array([0.5, 0.3]), dial(2))
    with pytest.raises(InvalidDistribution):
        sample(dist, 10, seed=1)
    good = OutcomeDistribution(np.array([0.5, 0.5]), dial(2))
    with pytest.raises(InvalidArgument):
        sample(good, 0, seed=1)
    with pytest.raises(InvalidArgument, match="seed"):
        sample(good, 10, seed=-1)
    # nan passes any |sum - 1| tolerance test, so it is refused on construction
    for bad in (math.nan, math.inf):
        with pytest.raises(InvalidDistribution, match="finite"):
            OutcomeDistribution(np.array([0.5, bad]), dial(2))


def test_sample_renormalizes_small_drift(nat):
    drift = 1 + 2e-7
    dist = OutcomeDistribution(np.array([0.5 * drift, 0.5 * drift]), dial(2))
    rec = sample(dist, 100, seed=4)
    assert rec.counts.sum() == 100


# --- estimation ----------------------------------------------------------------

def test_estimate_single_outcome_returns_tau_k(nat):
    spec = build_equally_spaced(4, 1.0, nat)
    povm = ClockPOVM(spec, 4, 0.0)
    for k in range(5):
        dist = outcome_probabilities(time_state(spec, float(povm.tau_grid[k])), povm)
        rec = sample(dist, 250, seed=k)
        assert estimate_time(rec) == pytest.approx(povm.tau_grid[k], abs=1e-12)


def test_estimate_wraparound_is_zero_not_half_period(nat):
    # half the shots at tau_1 = T/100, half at tau_99 = T - T/100
    T = 1.0
    counts = np.zeros(100, dtype=np.int64)
    counts[[1, 99]] = 100
    rec = MeasurementRecord(seed=0, shots=200, counts=counts, povm=dial(100, T))
    est = estimate_time(rec)
    dist_to_zero = min(est, T - est)
    assert dist_to_zero < 1e-12
    assert abs(est - T / 2) > 0.4  # nowhere near the naive linear mean


def test_estimate_matches_naive_circular_mean(nat, rng):
    tau0 = float(rng.uniform(-1.0, 1.0))
    counts = rng.integers(1, 50, size=6)
    rec = MeasurementRecord(seed=0, shots=int(counts.sum()), counts=counts,
                            povm=dial(6, 1.0, tau0))
    assert estimate_time(rec) == pytest.approx(
        circular_mean_naive(counts, [tau0 + m / 6 for m in range(6)], 1.0), abs=1e-12)


def test_estimate_rejects_uniform_data(nat):
    rec = MeasurementRecord(seed=0, shots=4, counts=np.array([1, 1, 1, 1]), povm=dial(4))
    with pytest.raises(NoEstimate):
        estimate_time(rec)


def test_estimate_recovers_continuous_time(nat):
    # |t> on the z = p = 15 clock, 10^4 shots, fixed seed
    spec = build_equally_spaced(15, 1.0, nat)
    povm = ClockPOVM(spec, 15, 0.0)
    t_true = 0.2371
    dist = outcome_probabilities(time_state(spec, t_true), povm)
    rec = with_estimate(sample(dist, 10**4, seed=314159))
    err = abs(rec.estimate - t_true)
    err = min(err, spec.T - err)
    assert err < 2 * spec.T / (spec.p + 1)
    assert rec.estimate_error is not None and rec.estimate_error > 0


def test_circular_mean_error_shrinks_with_shots(nat):
    spec = build_equally_spaced(7, 1.0, nat)
    povm = ClockPOVM(spec, 7, 0.0)
    dist = outcome_probabilities(time_state(spec, 0.4), povm)
    _, err_small = circular_mean(sample(dist, 100, seed=5))
    _, err_big = circular_mean(sample(dist, 10**4, seed=5))
    assert err_big < err_small


# --- blocks over the dial ---------------------------------------------------------

def measured(state, povm, shots, seed):
    dist = outcome_probabilities(state, povm)
    rec = sample(dist, shots, seed)
    return dist.probs, rec.counts, circular_mean(rec)


BLOCK_CASES = {
    # z+1 = 2 * 4096 + 1: with blocks of 64 or 4096 a last window of one dial
    # time would remain, and joins the window before it
    "rational": lambda nat: (build_rational([RationalRatio(5, 3), RationalRatio(7, 2),
                                             RationalRatio(113, 7)], 1.0, nat), 8192, 0.31),
    "rational-tau0": lambda nat: (rat0621(nat), 9000, -2.7),
    "equally-spaced": lambda nat: (build_equally_spaced(9, 1.0, nat), 12345, 0.0),
    # complete to within sample's tolerance, unlike the 1e-3 approximation
    "rationalized": lambda nat: (rationalized_spectrum([0.0, 1.0, math.sqrt(2)], 1e-7, nat),
                                 9000, 0.2),
}


@pytest.mark.parametrize("case", BLOCK_CASES)
def test_the_block_size_changes_no_bit(nat, monkeypatch, case):
    spec, z, tau_0 = BLOCK_CASES[case](nat)
    povm = ClockPOVM(spec, z, tau_0 * spec.T)
    assert z + 1 > 2 * 4096  # several blocks of 4096, many of 64
    states = [time_state(spec, t * spec.T) for t in (0.37, 0.83)]
    results = []
    for block in (64, 4096, z + 2):
        monkeypatch.setattr(clockstates, "_BLOCK", block)
        results.append([measured(state, povm, 5000, seed=11) for state in states])
    for other in results[1:]:
        for (probs, counts, estimate), (probs0, counts0, estimate0) in zip(other, results[0]):
            assert np.array_equal(probs, probs0)
            assert np.array_equal(counts, counts0)
            assert estimate == estimate0


def test_windows_cover_the_dial_without_a_one_point_tail(monkeypatch):
    monkeypatch.setattr(clockstates, "_BLOCK", 4)
    assert list(clockstates._blocks(1)) == [(0, 1)]
    assert list(clockstates._blocks(8)) == [(0, 4), (4, 8)]
    assert list(clockstates._blocks(9)) == [(0, 4), (4, 9)]
    assert list(clockstates._blocks(10)) == [(0, 4), (4, 8), (8, 10)]
    assert list(clockstates._blocks(0)) == []


@st.composite
def sparse_records(draw):
    """Records with many empty bins, on dials of any (T, tau_0, z)."""
    n = draw(st.integers(2, 300))
    T = draw(st.floats(1e-3, 1e3))
    tau0 = draw(st.floats(-1e6, 1e6))
    counts = draw(arrays(np.int64, n, elements=st.sampled_from([0, 0, 0, 1, 2, 7])
                         | st.integers(0, 2**40)))
    if not counts.any():
        counts[draw(st.integers(0, n - 1))] = 1
    return MeasurementRecord(seed=0, shots=int(counts.sum()), counts=counts,
                             povm=dial(n, T, tau0))


@settings(max_examples=200, deadline=None)
@given(record=sparse_records(), block=st.sampled_from([64, 4096, 2**14]))
def test_circular_mean_is_the_whole_grid_sum_to_the_bit(record, block):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(clockstates, "_BLOCK", block)
        try:
            got = circular_mean(record)
        except NoEstimate:
            got = "uniform"
    try:
        ref = circular_mean_dense(record.counts, record.povm.tau_grid, record.povm.spectrum.T,
                                  record.shots)
    except ValueError as exc:
        ref = str(exc)
    if isinstance(ref, str):
        assert got == ref
    else:
        assert [x.hex() for x in got] == [x.hex() for x in ref]


def test_circular_mean_refuses_an_overflowing_angle_in_an_empty_bin():
    # 2 pi tau/T overflows to inf at tau_1 = 3.3e307, a bin with no counts: the
    # whole-grid sum is nan, so the refusal holds although exp skips that bin
    rec = MeasurementRecord(seed=0, shots=5, counts=[5, 0], povm=dial(2, 1e307, 2.8e307))
    assert math.isfinite(2.0 * math.pi * rec.povm.tau_grid[0])
    with pytest.raises(ValueError, match="overflow"):
        circular_mean_dense(rec.counts, rec.povm.tau_grid, rec.povm.spectrum.T, rec.shots)
    with pytest.raises(InvalidArgument, match="overflow"):
        circular_mean(rec)


def test_a_dial_exact_measurement_stays_under_six_mib(nat):
    # p = 5, z = 10^5: the record keeps probs and counts, 16 B per dial time
    # (1.6 MB), and no dial times; the twiddle table and the summands of the
    # circular mean, 16 B per dial time each, live one at a time.  Whole-length
    # temporaries in each kernel would take the same measurement to 8.0 MB.
    ratios = [RationalRatio(5, 3), RationalRatio(7, 2), RationalRatio(113, 7),
              RationalRatio(997, 11)]
    spec = build_rational(ratios, 1.3, nat)
    state = time_state(spec, 0.41 * spec.T)
    tracemalloc.start()
    try:
        povm = ClockPOVM(spec, 10**5)
        dist = outcome_probabilities(state, povm)
        rec = with_estimate(sample(dist, 10**5, seed=2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20
    assert rec.counts.sum() == 10**5 and rec.estimate is not None


def test_a_measurement_shares_its_arrays_and_freezes_no_caller_array(nat):
    spec = rat0621(nat)
    dist = outcome_probabilities(time_state(spec, 1.1), ClockPOVM(spec, 40, 0.2))
    assert not dist.probs.flags.writeable and dist.probs.flags.owndata
    assert OutcomeDistribution(dist.probs, dist.povm).probs is dist.probs
    rec = sample(dist, 1000, seed=3)
    assert not rec.counts.flags.writeable and rec.counts.flags.owndata
    est = with_estimate(rec)
    assert est.counts is rec.counts and est.povm is rec.povm
    # a caller's writable array is copied, never frozen
    counts = np.array([3, 0, 1])
    rec = MeasurementRecord(seed=0, shots=4, counts=counts, povm=dial(3))
    assert counts.flags.writeable and rec.counts is not counts
    counts[0] = 9
    assert rec.counts[0] == 3


@pytest.mark.parametrize("counts, taus, match", [
    ([-1, 2], [0.0, 0.5], "non-negative"),
    ([1, 2], [0.0, 1 / 3, 2 / 3], "equal-length"),
    ([3], [0.0, 1 / 3, 2 / 3], "equal-length"),
    ([[1, 2]], [0.0, 0.5], "equal-length"),
    ([0, 0], [0.0, 0.5], "shots must be >= 1"),
])
def test_a_record_refuses_negative_or_misshapen_counts(counts, taus, match):
    # taus is the dial the record is on: n = len(taus) times over T = 1
    povm = dial(len(taus))
    assert povm.tau_grid.tolist() == taus
    with pytest.raises(InvalidArgument, match=match):
        MeasurementRecord(seed=0, shots=sum(np.ravel(counts)), counts=counts, povm=povm)
