"""qclock: a numerical laboratory for finite-dimensional quantum clocks.

Build bounded discrete clock Hamiltonians (equally-spaced, exactly rational,
or rationalized approximations of arbitrary spectra), construct the
complementary time observable as a Hermitian operator or POVM, verify its
completeness and covariance exactly, simulate dial measurements, and evaluate
the relativistic limits on how finely such a clock can discretize and resolve
time.
"""

from .bounds import (BindingBound, BoundReport, ClockBody, MassOptimum,
                     MassRegime, SpreadingBound, bound_report,
                     confinement_rate, continuum_condition,
                     discretization_bound, discretization_bound_generic,
                     fundamental_resolution, gravitational_mass_limit,
                     optimize_mass, speed_limit_bound,
                     speed_limit_gravitational_floor, spreading_bound,
                     structural_bound)
from .clockstates import (ClockPOVM, TimeOperator, TimeState,
                          continuous_identity_residual, energy_shift_unitary,
                          evolve, first_orthogonal_time, frame_operator,
                          grid_amplitudes, hermitian_time_operator,
                          identity_residual, overlap, time_state)
from .errors import (CapacityError, DegenerateClock, IncompatibleStates,
                     InvalidArgument, InvalidConstants, InvalidDistribution,
                     NoEstimate, QClockError, SchwarzschildViolation,
                     UnsupportedSpectrum)
from .measurement import (MeasurementRecord, OutcomeDistribution,
                          circular_mean, estimate_time, outcome_probabilities,
                          sample, with_estimate)
from .spectrum import (ClockSpectrum, RationalRatio, SpectrumKind,
                       build_equally_spaced, build_rational, max_integer,
                       rationalize, rationalized_spectrum, read_spectrum,
                       simplest_fraction_between, write_spectrum)
from .units import (ConstantsSet, PlanckScale, codata2018,
                    derive_planck_scale, load_constants_file, natural_units,
                    resolve_constants)

__version__ = "0.1.0"
