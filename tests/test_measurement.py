import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qclock import (ClockPOVM, IncompatibleStates, InvalidArgument,
                    InvalidDistribution, MeasurementRecord, NoEstimate,
                    OutcomeDistribution, RationalRatio, build_equally_spaced,
                    build_rational, circular_mean, clockstates, estimate_time,
                    evolve, measurement, outcome_probabilities,
                    rationalized_spectrum, sample, time_state, with_estimate)

from oracles import (circular_mean_naive, outcome_probabilities_naive,
                     random_rational_fracs)


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
    # tau_0 near the float maximum overflows the rationalized float phases
    spec = rationalized_spectrum([0.0, 1.0, math.sqrt(2)], 1e-3, nat)
    povm = ClockPOVM(spec, spec.r[-1], tau_0=1.7e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for state in (time_state(spec, 0.3), energy_state(spec, 1)):
            with pytest.raises(InvalidDistribution, match="finite"):
                outcome_probabilities(state, povm)


# --- sampling -----------------------------------------------------------------

def test_chunked_sorted_sampling_matches_one_unsorted_draw(nat):
    spec = rat0621(nat)
    dist = outcome_probabilities(time_state(spec, 1.7), ClockPOVM(spec, 40, 0.2))
    shots = 3 * 2**20 + 7  # four chunks of at most 2^20 draws
    rec = sample(dist, shots, seed=2024)
    total = float(dist.probs.sum())
    cdf = np.cumsum(dist.probs / total)
    cdf[-1] = 1.0
    draws = np.random.default_rng(2024).random(shots)
    ref = np.bincount(np.searchsorted(cdf, draws, side="right"), minlength=len(cdf))
    assert np.array_equal(rec.counts, ref)


def test_one_measurement_shares_one_tau_grid(nat):
    spec = rat0621(nat)
    povm = ClockPOVM(spec, 40, 0.2)
    grid = povm.tau_grid
    assert povm.tau_grid is grid
    assert grid.dtype == np.float64 and not grid.flags.writeable
    dist = outcome_probabilities(time_state(spec, float(grid[3])), povm)
    rec = with_estimate(sample(dist, 1000, seed=5))
    assert dist.tau_grid is grid and rec.tau_grid is grid
    # a writable grid, or a read-only view of one, is still copied
    taus = np.linspace(0.0, 1.0, 4, endpoint=False)
    view = taus.view()
    view.setflags(write=False)
    for given in (taus, view):
        copy = OutcomeDistribution(np.full(4, 0.25), given, 1.0).tau_grid
        assert copy is not given and not copy.flags.writeable
        taus[0] = 0.5
        assert copy[0] == 0.0
        taus[0] = 0.0


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
    dist = OutcomeDistribution(np.array([0.5, 0.3]), np.array([0.0, 0.5]), 1.0)
    with pytest.raises(InvalidDistribution):
        sample(dist, 10, seed=1)
    good = OutcomeDistribution(np.array([0.5, 0.5]), np.array([0.0, 0.5]), 1.0)
    with pytest.raises(InvalidArgument):
        sample(good, 0, seed=1)
    with pytest.raises(InvalidArgument, match="seed"):
        sample(good, 10, seed=-1)
    # nan passes any |sum - 1| tolerance test, so it is refused on construction
    for bad in (math.nan, math.inf):
        with pytest.raises(InvalidDistribution, match="finite"):
            OutcomeDistribution(np.array([0.5, bad]), np.array([0.0, 0.5]), 1.0)


def test_sample_renormalizes_small_drift(nat):
    drift = 1 + 2e-7
    dist = OutcomeDistribution(np.array([0.5 * drift, 0.5 * drift]),
                               np.array([0.0, 0.5]), 1.0)
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
    T = 1.0
    delta = 0.01
    rec = MeasurementRecord(seed=0, shots=200,
                            counts=np.array([100, 100]),
                            tau_grid=np.array([T - delta, delta]), T=T)
    est = estimate_time(rec)
    dist_to_zero = min(est, T - est)
    assert dist_to_zero < 1e-12
    assert abs(est - T / 2) > 0.4  # nowhere near the naive linear mean


def test_estimate_matches_naive_circular_mean(nat, rng):
    taus = np.sort(rng.uniform(0, 1.0, size=6))
    counts = rng.integers(1, 50, size=6)
    rec = MeasurementRecord(seed=0, shots=int(counts.sum()),
                            counts=counts, tau_grid=taus, T=1.0)
    assert estimate_time(rec) == pytest.approx(
        circular_mean_naive(counts, taus, 1.0), abs=1e-12)


def test_estimate_rejects_uniform_data(nat):
    rec = MeasurementRecord(seed=0, shots=4, counts=np.array([1, 1, 1, 1]),
                            tau_grid=np.array([0.0, 0.25, 0.5, 0.75]), T=1.0)
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
