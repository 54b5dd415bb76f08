"""
Reading the dial: outcome statistics and time estimation
========================================================

Measuring the clock POVM on a state gives Born-rule probabilities over the
dial grid.  Sampling is seeded and reproducible; the dial time is estimated
with a circular mean because the clock face wraps around at T.
"""

import numpy as np

from qclock import (ClockPOVM, build_equally_spaced, estimate_time, evolve,
                    natural_units, outcome_probabilities, sample, time_state,
                    with_estimate)

nat = natural_units()
spec = build_equally_spaced(p=15, T=1.0, consts=nat)
povm = ClockPOVM(spec, z=15)

# A dial state sitting exactly on the grid gives a deterministic outcome.
on_grid = time_state(spec, float(povm.tau_grid[5]))
print("P for |tau_5>:", np.round(outcome_probabilities(on_grid, povm).probs, 12))

# A state between grid points spreads over nearby outcomes.
t_true = 0.2371
between = time_state(spec, t_true)
dist = outcome_probabilities(between, povm)
print("P for |t=0.2371> (rounded):", np.round(dist.probs, 4))
print("sum:", dist.probs.sum())

# Sampling is bit-reproducible from the seed (numpy PCG64, inverse CDF).
rec = sample(dist, shots=10_000, seed=314159)
again = sample(dist, shots=10_000, seed=314159)
print("counts:", rec.counts)
print("identical on the same seed:", np.array_equal(rec.counts, again.counts))

# The circular mean reads the dial without wraparound bias.
rec = with_estimate(rec)
print(f"true t = {t_true}, estimate = {rec.estimate:.5f} "
      f"+- {rec.estimate_error:.5f}")

# Wraparound in action: on a dial of 100 times, half the shots at tau_99 just
# before T, half at tau_1 just after 0.  A linear average would claim T/2; the
# circular mean stays at the seam.
from qclock import MeasurementRecord

counts = np.zeros(100, dtype=int)
counts[[1, 99]] = 100
seam = MeasurementRecord(seed=0, shots=200, counts=counts, povm=ClockPOVM(spec, z=99))
print("seam estimate:", estimate_time(seam))

# Evolving the state by one grid step rotates the statistics by one outcome.
shifted = outcome_probabilities(evolve(between, spec.T / 16), povm)
print("shifted == rolled:",
      np.allclose(shifted.probs, np.roll(dist.probs, 1), atol=1e-12))

# The ground state |E_0> is flat on the dial: the clock reads "no idea".
psi = np.zeros(spec.dimension, dtype=complex)
psi[0] = 1.0
flat = outcome_probabilities(psi, povm)
print("ground-state P(m) (uniform):", np.round(flat.probs, 6)[:4], "...")
