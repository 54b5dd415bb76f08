"""Reading the clock: outcome statistics, seeded sampling, time estimation.

Outcome probabilities follow the Born rule for the dial POVM,
P(m) = (p+1)/(z+1) |<tau_m|psi>|^2.  Sampling is inverse-CDF draws from
numpy's PCG64 generator (``np.random.default_rng(seed)``), so a record is
reproduced bit-for-bit from its seed.  The amplitudes <tau_m|psi> are folded
level by level from the dial rows, so a distribution over z+1 outcomes costs
O(z+1) memory whatever p is; the (p+1) x (z+1) grid is never built.  Because
the dial is periodic, time is estimated with the circular mean of the
observed tau_m; a linear average would be biased by up to T/2 at the period
seam.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .clockstates import ClockPOVM, TimeState, _dial_rows
from .errors import (IncompatibleStates, InvalidArgument, InvalidDistribution,
                     NoEstimate)

# tolerated drift of sum(P) away from 1 before a distribution is rejected
SUM_TOLERANCE = 1e-6
# uniforms drawn, sorted and searched at a time by sample
SAMPLE_CHUNK = 2**20


def _read_only_grid(grid) -> np.ndarray:
    """The dial grid as a read-only float64 array, shared when it is one already.

    Only an array that owns its data is shared: a read-only view could still
    change through its writable base.
    """
    if (isinstance(grid, np.ndarray) and grid.dtype == np.float64
            and not grid.flags.writeable and grid.flags.owndata):
        return grid
    grid = np.array(grid, dtype=float)
    grid.setflags(write=False)
    return grid


@dataclass(frozen=True, eq=False)
class OutcomeDistribution:
    """Born-rule probabilities over the dial grid."""

    probs: np.ndarray
    tau_grid: np.ndarray
    T: float

    def __post_init__(self):
        probs = np.array(self.probs, dtype=float)
        grid = _read_only_grid(self.tau_grid)
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "tau_grid", grid)
        if probs.shape != grid.shape or probs.ndim != 1:
            raise InvalidArgument("probs and tau_grid must be equal-length vectors")
        if not np.isfinite(probs).all():
            raise InvalidDistribution("probabilities must be finite")
        if np.any(probs < -1e-12) or np.any(probs > 1.0 + 1e-12):
            raise InvalidDistribution("probabilities outside [0, 1]")


@dataclass(frozen=True, eq=False)
class MeasurementRecord:
    """One simulated experiment: counts per outcome plus its reproduction seed."""

    seed: int
    shots: int
    counts: np.ndarray
    tau_grid: np.ndarray
    T: float
    estimate: float | None = None
    estimate_error: float | None = None

    def __post_init__(self):
        counts = np.array(self.counts, dtype=np.int64)
        grid = _read_only_grid(self.tau_grid)
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "tau_grid", grid)
        if counts.sum() != self.shots:
            raise InvalidArgument("counts must sum to shots")


def outcome_probabilities(state, povm: ClockPOVM) -> OutcomeDistribution:
    """P(m) = (p+1)/(z+1) |<tau_m|psi>|^2 over the dial grid.

    ``state`` is a TimeState or a bare normalized amplitude vector over the
    energy basis (e.g. an energy eigenstate).
    """
    spec = povm.spectrum
    if isinstance(state, TimeState):
        if state.spectrum is not spec and not state.spectrum.same_as(spec):
            raise IncompatibleStates("state and POVM belong to different spectra")
        psi = state.amplitudes
    else:
        psi = np.asarray(state, dtype=complex)
        if psi.shape != (spec.dimension,):
            raise IncompatibleStates(
                f"state vector of length {psi.shape} does not fit dimension {spec.dimension}")
        if not abs(np.linalg.norm(psi) - 1.0) <= 1e-9:  # also refuses nan
            raise InvalidArgument("state vector must be normalized")
    # conj(<tau_m|psi>) = sum_n conj(psi_n) row_n, one row at a time; no BLAS,
    # whose threaded gemv leaves a worker spinning after it returns
    amp = np.zeros(povm.n_outcomes, dtype=complex)
    for c, row in zip(psi.conj(), _dial_rows(spec, povm.n_outcomes, povm.tau_0)):
        row *= c
        amp += row
    probs = float(povm.weight) * np.abs(amp) ** 2
    return OutcomeDistribution(probs, povm.tau_grid, spec.T)


def sample(dist: OutcomeDistribution, shots: int, seed: int) -> MeasurementRecord:
    """Inverse-CDF sampling; identical (dist, shots, seed) gives identical counts."""
    if shots < 1:
        raise InvalidArgument(f"shots must be >= 1, got {shots}")
    if seed < 0:  # PCG64 seeds are non-negative integers
        raise InvalidArgument(f"seed must be >= 0, got {seed}")
    total = float(dist.probs.sum())
    if abs(total - 1.0) > SUM_TOLERANCE:
        raise InvalidDistribution(
            f"probabilities sum to {total!r}; the generating POVM is not complete")
    cdf = np.cumsum(dist.probs / total)
    cdf[-1] = 1.0
    rng = np.random.default_rng(seed)
    # PCG64 random() gives the same stream however its calls are split, and
    # bincount ignores order, so chunked sorted draws count what one unsorted
    # draw would; sorted needles keep the search cache-friendly
    counts = np.zeros(len(cdf), dtype=np.int64)
    for start in range(0, shots, SAMPLE_CHUNK):
        draws = rng.random(min(SAMPLE_CHUNK, shots - start))
        draws.sort()
        counts += np.bincount(np.searchsorted(cdf, draws, side="right"), minlength=len(cdf))
    return MeasurementRecord(seed=int(seed), shots=int(shots), counts=counts,
                             tau_grid=dist.tau_grid, T=dist.T)


def circular_mean(record: MeasurementRecord) -> tuple[float, float]:
    """Circular mean of the observed dial times and its standard error.

    Returns (estimate mod T, standard error).  The error is the circular
    standard deviation sqrt(-2 ln Rbar) scaled to time units and divided by
    sqrt(shots).
    """
    T = record.T
    with np.errstate(over="ignore", invalid="ignore"):
        angles = 2.0 * math.pi * record.tau_grid / T
        resultant = np.sum(record.counts * np.exp(1j * angles))
    if not np.isfinite(resultant):
        raise InvalidArgument(f"dial times overflow the circular mean over period {T!r}")
    r_mag = abs(resultant) / record.shots
    if r_mag < 1e-9:
        raise NoEstimate("outcome data are uniform on the dial; no direction to average")
    estimate = (T / (2.0 * math.pi)) * math.atan2(resultant.imag, resultant.real) % T
    sigma = (T / (2.0 * math.pi)) * math.sqrt(max(-2.0 * math.log(min(r_mag, 1.0)), 0.0))
    return estimate, sigma / math.sqrt(record.shots)


def estimate_time(record: MeasurementRecord) -> float:
    """Point estimate of the dial time: the circular mean of the record."""
    return circular_mean(record)[0]


def with_estimate(record: MeasurementRecord) -> MeasurementRecord:
    """A copy of the record with the circular estimate fields filled in."""
    est, err = circular_mean(record)
    return MeasurementRecord(seed=record.seed, shots=record.shots,
                             counts=record.counts, tau_grid=record.tau_grid,
                             T=record.T, estimate=est, estimate_error=err)
