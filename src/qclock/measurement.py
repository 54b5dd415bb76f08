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

Memory per dial time (bin).  A measurement keeps 16 B: probs and counts,
8 B each.  The dial times are not kept: a distribution and its records hold
their ClockPOVM, and circular_mean takes each window's times from
ClockPOVM.times, so a measurement never builds ClockPOVM.tau_grid.  It holds
for a moment at most 16 B more, one item at a time: the twiddle table of an
exact spectrum while the amplitudes are folded, the CDF and a chunk's edges
(8 B each) while sample draws, and the complex summands while circular_mean
adds them.  So it peaks near 32 B per bin, charged by outcome_probabilities
before it allocates, plus windows of clockstates._BLOCK (2^12) bins and
sample's chunks of up to 2^20 draws.  The kernels work the dial a window at a
time, and every value is computed elementwise or by the same one np.sum as a
single pass, so the window size changes no bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .clockstates import ClockPOVM, TimeState, _blocks, _dial_rows
from .errors import (IncompatibleStates, InvalidArgument, InvalidDistribution, NoEstimate,
                     _at_least, spell)
from .spectrum import _charge

# tolerated drift of sum(P) away from 1 before a distribution is rejected
SUM_TOLERANCE = 1e-6
# uniforms drawn, sorted and searched at a time by sample
SAMPLE_CHUNK = 2**20
# names the draw that turns (probabilities, shots, seed) into counts; records
# carry it, so a change to how sample draws must come with a new id
SAMPLER = "numpy-default_rng-pcg64/inverse-cdf/sorted-chunks-2^20"


def _per_dial_time(owner, name: str, dtype) -> np.ndarray:
    """owner.name, set to a read-only array of dtype and refused unless it holds one
    value per dial time of owner.povm; shared when it is such an array already.

    Only an array that owns its data is shared: a read-only view could still
    change through its writable base.  A caller's writable array is copied,
    never frozen.
    """
    values = getattr(owner, name)
    if not (isinstance(values, np.ndarray) and values.dtype == dtype
            and not values.flags.writeable and values.flags.owndata):
        values = np.array(values, dtype=dtype)
        values.setflags(write=False)
    object.__setattr__(owner, name, values)
    if values.shape != (owner.povm.n_outcomes,):
        raise InvalidArgument(f"{name} and the dial's {owner.povm.n_outcomes} times "
                              "must be equal-length vectors")
    return values


@dataclass(frozen=True, eq=False)
class OutcomeDistribution:
    """Born-rule probabilities over the dial of povm, one per dial time."""

    probs: np.ndarray
    povm: ClockPOVM

    def __post_init__(self):
        probs = _per_dial_time(self, "probs", np.float64)
        if not np.isfinite(probs).all():
            raise InvalidDistribution("probabilities must be finite")
        if np.any(probs < -1e-12) or np.any(probs > 1.0 + 1e-12):
            raise InvalidDistribution("probabilities outside [0, 1]")


@dataclass(frozen=True, eq=False)
class MeasurementRecord:
    """One simulated experiment: counts per dial time of povm plus its reproduction seed."""

    seed: int
    shots: int
    counts: np.ndarray
    povm: ClockPOVM
    estimate: float | None = None
    estimate_error: float | None = None

    def __post_init__(self):
        counts = _per_dial_time(self, "counts", np.int64)
        object.__setattr__(self, "shots", _at_least("shots", self.shots, 1))
        if counts.min() < 0:
            raise InvalidArgument("counts must be non-negative")
        if counts.sum() != self.shots:
            raise InvalidArgument("counts must sum to shots")


def outcome_probabilities(state, povm: ClockPOVM) -> OutcomeDistribution:
    """P(m) = (p+1)/(z+1) |<tau_m|psi>|^2 over the dial grid.

    ``state`` is a TimeState or a bare normalized amplitude vector over the
    energy basis (e.g. an energy eigenstate).
    """
    spec = povm.spectrum
    if isinstance(state, TimeState):
        if not state.spectrum.same_as(spec):
            raise IncompatibleStates("state and POVM belong to different spectra")
        psi = state.amplitudes
    else:
        psi = np.asarray(state, dtype=complex)
        if psi.shape != (spec.dimension,):
            raise IncompatibleStates(
                f"state vector of length {psi.shape} does not fit dimension {spec.dimension}")
        if not abs(np.linalg.norm(psi) - 1.0) <= 1e-9:  # also refuses nan
            raise InvalidArgument("state vector must be normalized")
    zp1 = povm.n_outcomes
    _charge(32 * zp1, f"a measurement of {spell(zp1)} dial times")
    rows = _dial_rows(povm)
    weight = float(povm.weight)
    probs = np.empty(zp1)
    # conj(<tau_m|psi>) = sum_n conj(psi_n) row_n, one row at a time and one
    # window of m at a time; no BLAS, whose threaded gemv leaves a worker
    # spinning after it returns
    for start, stop in _blocks(zp1):
        amp, coeffs = np.zeros(stop - start, dtype=complex), iter(psi.conj())
        # a plain loop, so no reused zip tuple keeps a row while the next is gathered
        for row in rows(start, stop):
            row *= next(coeffs)
            amp += row
            del row
        probs[start:stop] = weight * np.abs(amp) ** 2
    probs.setflags(write=False)
    return OutcomeDistribution(probs, povm)


def sample(dist: OutcomeDistribution, shots: int, seed: int) -> MeasurementRecord:
    """Inverse-CDF sampling; identical (dist, shots, seed) gives identical counts."""
    shots, seed = _at_least("shots", shots, 1), _at_least("seed", seed, 0)  # PCG64 seeds are >= 0
    total = float(dist.probs.sum())
    if abs(total - 1.0) > SUM_TOLERANCE:
        raise InvalidDistribution(
            f"probabilities sum to {total!r}; the generating POVM is not complete")
    cdf = np.divide(dist.probs, total)
    np.cumsum(cdf, out=cdf)
    cdf[-1] = 1.0
    rng = np.random.default_rng(seed)
    # PCG64 random() gives the same stream however its calls are split, and a
    # count ignores order, so chunked sorted draws count what one unsorted draw
    # would.  A draw u falls in the first bin m with u < cdf[m]; over a sorted
    # chunk, edges[m] counts the draws u < cdf[m], so bin m holds
    # edges[m] - edges[m-1], from the same comparisons as one search per draw.
    # The running maximum changes no first bin, and keeps every count
    # non-negative where probabilities down to -1e-12 make the cdf dip
    np.maximum.accumulate(cdf, out=cdf)
    counts = None
    for start in range(0, shots, SAMPLE_CHUNK):
        draws = rng.random(min(SAMPLE_CHUNK, shots - start))
        draws.sort()
        edges = np.searchsorted(draws, cdf, side="left")
        del draws  # before the counts are allocated, which keeps the peak down
        if counts is None:
            counts = np.zeros(len(cdf), dtype=np.int64)
        counts += edges
        counts[1:] -= edges[:-1]
        del edges
    counts.setflags(write=False)
    return MeasurementRecord(seed=seed, shots=shots, counts=counts, povm=dist.povm)


def circular_mean(record: MeasurementRecord) -> tuple[float, float]:
    """Circular mean of the observed dial times and its standard error.

    Returns (estimate mod T, standard error).  The error is the circular
    standard deviation sqrt(-2 ln Rbar) scaled to time units and divided by
    sqrt(shots).
    """
    povm, counts = record.povm, record.counts
    T = povm.spectrum.T
    # only bins with counts call exp; the rest stay +0, and adding a zero of
    # either sign leaves a non-zero pairwise partial sum unchanged, so the one
    # np.sum over all bins rounds as the sum of counts * exp over all bins
    terms = np.zeros(counts.shape, dtype=complex)
    for start, stop in _blocks(counts.size):
        with np.errstate(over="ignore", invalid="ignore"):
            angles = 2.0 * math.pi * povm.times(start, stop) / T
        if not np.isfinite(angles).all():
            raise InvalidArgument(f"dial times overflow the circular mean over period {T!r}")
        hit = np.flatnonzero(counts[start:stop])
        terms[start + hit] = counts[start + hit] * np.exp(1j * angles[hit])
    resultant = np.sum(terms)
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
    """The record with the circular estimate fields filled in; its counts are shared."""
    est, err = circular_mean(record)
    return MeasurementRecord(seed=record.seed, shots=record.shots, counts=record.counts,
                             povm=record.povm, estimate=est, estimate_error=err)
