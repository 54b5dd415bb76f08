"""Time states, the time operator, and completeness of the clock observable.

The clock's dial positions are the equal-weight superpositions

    |tau> = (p+1)^(-1/2) * sum_n exp(-i E_n tau / hbar) |E_n>

sampled on a grid tau_m = tau_0 + m T/(z+1), m = 0..z with z >= p.  The
family { (p+1)/(z+1) |tau_m><tau_m| } is a valid POVM exactly when the frame
operator

    F = (p+1)/(z+1) * sum_m |tau_m><tau_m|

equals the identity.  With integer phase frequencies r_n = E_n T/(2 pi hbar)
the off-diagonal entries of F are geometric sums sum_m exp(-2 pi i (r_n -
r_k) m/(z+1)), which vanish unless r_n - r_k is a multiple of z+1; hence
choosing z+1 > r_p guarantees completeness, and any difference divisible by
z+1 is a constructive counterexample.  F is summed over m in closed form, in
O((p+1)^2) for any z.  For exact spectra every sum is exactly 1 or 0:
F = D P D^H with P all-ones inside each residue class of r_n mod (z+1) and D
a diagonal phase, so the residual is read off the residue classes with no
eigensolver: 0 for distinct residues, else max(largest class - 1, 1).

The first orthogonal dial time is scanned on N = max(512, 32 (r_p+1))
samples of |<t0|t0 + k T/N>|.  On exact spectra those are one length-N FFT
of the histogram of r_n mod N; other spectra fold the float-phase dial rows.
Both take O(N) memory.

Phase evaluation note: for spectra with exact integer frequencies the phases
are reduced mod 1 in exact integer/Fraction arithmetic before exponentiating
(identical to exp(-i E_n tau/hbar) up to whole turns).  On the dial grid the
reduced phase r_n m/(z+1) is an exact integer index (r_n m mod (z+1)) into
one table of z+1 twiddles e^{-2 pi i k/(z+1)}, times the exact tau_0 offset
phase of each level.  Naive float phases lose ~r_p*eps of a turn, which would
swamp the 1e-12 completeness residuals this module is meant to certify at
large r_p.  Spectra without exact integers (rationalized approximations) use
the energies directly; their residual IS the quantity of interest.

On the equally spaced dial with z = p the time states are the DFT basis up
to an offset phase u_n per level, so sum_m f_m |tau_m><tau_m| is the
circulant u_n conj(u_k) c[(n-k) mod (p+1)] with c = fft(f)/(p+1): the
Hermitian time operator and its energy shifts are one length-(p+1) FFT.

All operations are pure; (p+1) x (p+1) matrices and the dense dial grid are
capped at dimension p+1 <= 4096, and dial rows and scans at 2^30 points.
The dense grid is built only on request (grid_amplitudes); measurement folds
the grid one row at a time and never holds it.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import IncompatibleStates, InvalidArgument, UnsupportedSpectrum
from .spectrum import ClockSpectrum, SpectrumKind

MAX_DENSE_DIMENSION = 4096
# points on one dial row or scan: the int64 gather index (r_n mod N) m must
# stay below 2^63, and N <= 2^30 keeps it below 2^60
MAX_DIAL_POINTS = 2**30
# |overlap| below which a polished minimum counts as an orthogonal dial time
_ZERO_TOL = 1e-9


def _check_dense(spec: ClockSpectrum) -> None:
    if spec.dimension > MAX_DENSE_DIMENSION:
        raise InvalidArgument(
            f"dense assembly capped at dimension {MAX_DENSE_DIMENSION}, got {spec.dimension}")


def _turns_single(spec: ClockSpectrum, tau) -> np.ndarray:
    """Phase in turns (cycles) for each level at one dial time.

    tau may be a float or an exact Fraction; exact inputs keep the reduction
    exact, so e.g. evolving by the Fraction T/(z+1) lands on the next grid
    state to the last ulp.
    """
    if not math.isfinite(tau):
        raise InvalidArgument(f"dial time must be finite, got {tau!r}")
    if spec.has_exact_integers:
        # (r_n x) mod 1 on the numerators; int true division rounds correctly,
        # so each turn is float((r_n x) % 1) without a Fraction per level
        x = Fraction(tau) / Fraction(spec.T)
        num, den = x.numerator, x.denominator
        return np.array([rn * num % den / den for rn in spec.r])
    return np.mod(spec.levels * (float(tau) / (2.0 * math.pi * spec.hbar)), 1.0)


def _dial_rows(spec: ClockSpectrum, zp1: int, tau_0):
    """Yield row n of the dial grid, (p+1)^-1/2 e^{-2 pi i phase_n(tau_m)} over m = 0..z.

    Exact spectra gather from one twiddle table w[k] = e^{-2 pi i k/(z+1)}:
    row n is w[(r_n mod (z+1)) m mod (z+1)] u_n with the exact tau_0 offset
    phase u_n, so z+1 complex exp serve all p+1 rows.  Other spectra take
    float phases f_n tau_m straight from the energies; an offset so large
    that they overflow gives nan rows, not warnings.  Rows are yielded one at
    a time, so a caller that folds them keeps O(z+1) memory.
    """
    if zp1 > MAX_DIAL_POINTS:
        raise InvalidArgument(f"dial grids capped at z+1 <= 2^30, got {zp1}")
    if not math.isfinite(tau_0):
        raise InvalidArgument(f"dial time must be finite, got {tau_0!r}")
    norm = math.sqrt(spec.dimension)
    if spec.has_exact_integers:
        m = np.arange(zp1, dtype=np.int64)
        w = np.exp(-2j * math.pi * (m / float(zp1)))
        u = np.exp(-2j * math.pi * _turns_single(spec, tau_0)) / norm
        for rn, un in zip(spec.r, u):
            index = m * (rn % zp1)
            row = w[np.remainder(index, zp1, out=index)]
            row *= un
            yield row
        return
    freqs = spec.levels / (2.0 * math.pi * spec.hbar)
    taus = float(tau_0) + np.arange(zp1) * (spec.T / zp1)
    for f in freqs:
        with np.errstate(over="ignore", invalid="ignore"):
            row = np.exp(-2j * math.pi * (f * taus))
            row /= norm
        yield row


def _outcome_count(spec: ClockSpectrum, z: int) -> int:
    """z+1 for a dial with z >= p."""
    if z < spec.p:
        raise InvalidArgument(f"need z >= p, got z={z}, p={spec.p}")
    return int(z) + 1


def grid_amplitudes(spec: ClockSpectrum, z: int, tau_0: float = 0.0) -> np.ndarray:
    """Matrix of time-state amplitudes, column m = |tau_m>, shape (p+1, z+1)."""
    zp1 = _outcome_count(spec, z)
    _check_dense(spec)
    # fromiter fills the grid row by row, holding one row beside it
    return np.fromiter(_dial_rows(spec, zp1, tau_0), dtype=np.dtype((complex, zp1)),
                       count=spec.dimension)


@dataclass(frozen=True, eq=False)
class TimeState:
    """A dial state |tau> expanded over the energy basis."""

    amplitudes: np.ndarray
    tau: float
    spectrum: ClockSpectrum

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=complex)
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        if amps.shape != (self.spectrum.dimension,):
            raise InvalidArgument("amplitude vector does not match spectrum dimension")

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


@dataclass(frozen=True, eq=False)
class ClockPOVM:
    """The family { (p+1)/(z+1) |tau_m><tau_m| }, m = 0..z."""

    spectrum: ClockSpectrum
    z: int
    tau_0: float = 0.0

    def __post_init__(self):
        if not isinstance(self.z, (int, np.integer)) or self.z < self.spectrum.p:
            raise InvalidArgument(f"need z >= p = {self.spectrum.p}, got {self.z!r}")
        if not math.isfinite(self.tau_0):
            raise InvalidArgument(f"dial offset tau_0 must be finite, got {self.tau_0!r}")
        object.__setattr__(self, "z", int(self.z))

    @property
    def n_outcomes(self) -> int:
        return self.z + 1

    @property
    def weight(self) -> Fraction:
        return Fraction(self.spectrum.dimension, self.z + 1)

    @functools.cached_property
    def tau_grid(self) -> np.ndarray:
        """The dial times tau_m, built once and read-only."""
        grid = self.tau_0 + np.arange(self.z + 1) * (self.spectrum.T / (self.z + 1))
        grid.setflags(write=False)
        return grid

    def element(self, m: int) -> np.ndarray:
        """The m-th POVM element as a dense (p+1, p+1) matrix."""
        if not 0 <= m <= self.z:
            raise InvalidArgument(f"outcome index {m} outside 0..{self.z}")
        _check_dense(self.spectrum)
        tau_m = Fraction(self.tau_0) + m * Fraction(self.spectrum.T) / (self.z + 1)
        v = time_state(self.spectrum, tau_m).amplitudes
        return float(self.weight) * np.outer(v, v.conj())


def time_state(spec: ClockSpectrum, tau: float) -> TimeState:
    """|tau> for any real tau; the continuous-dial state when tau is off-grid."""
    amps = np.exp(-2j * math.pi * _turns_single(spec, tau)) / math.sqrt(spec.dimension)
    return TimeState(amps, float(tau), spec)


def _require_same_spectrum(a: TimeState, b: TimeState) -> None:
    if a.spectrum is not b.spectrum and not a.spectrum.same_as(b.spectrum):
        raise IncompatibleStates("states belong to different spectra")


def overlap(a: TimeState, b: TimeState) -> complex:
    """<a|b> = (p+1)^(-1) sum_n exp(-i E_n (tau_b - tau_a)/hbar)."""
    _require_same_spectrum(a, b)
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def evolve(state: TimeState, dt: float) -> TimeState:
    """Schroedinger evolution by an external-time step dt: a dial rotation."""
    turns = _turns_single(state.spectrum, dt)
    amps = state.amplitudes * np.exp(-2j * math.pi * turns)
    return TimeState(amps, state.tau + float(dt), state.spectrum)


def _check_frame(spec: ClockSpectrum, zp1: int, tau_0) -> None:
    _check_dense(spec)
    if zp1 > 2**62:
        raise InvalidArgument(f"dial grids capped at z+1 <= 2^62, got {zp1}")
    if not math.isfinite(tau_0):
        raise InvalidArgument(f"dial time must be finite, got {tau_0!r}")


def _offset_phases(spec: ClockSpectrum, tau_0) -> np.ndarray:
    """u_n conj(u_k) with u_n = e^{-2 pi i t_n}, t_n the tau_0 offset in turns.

    The diagonal is exactly 1, so the phases never scale a diagonal entry.
    """
    u = np.exp(-2j * math.pi * _turns_single(spec, tau_0))
    phase = u[:, None] * u.conj()
    np.fill_diagonal(phase, 1.0)
    return phase


def _frame(spec: ClockSpectrum, zp1: int, tau_0) -> np.ndarray:
    """F_nk = e^{-2 pi i (t_n - t_k)} (z+1)^-1 sum_m e^{-2 pi i s_nk m/(z+1)}.

    t_n is the tau_0 offset in turns and s_nk = (E_n - E_k) T/(2 pi hbar)
    = (r_n - r_k) + d_nk.  The geometric sum is expm1(-2 pi i d) /
    ((z+1) expm1(-2 pi i s/(z+1))), with r_n - r_k reduced mod z+1 exactly
    so the small angle never cancels.  Exact spectra have d = 0, so every
    entry of the sum is exactly 1 or 0.  Costs O((p+1)^2) whatever z is.
    """
    _check_frame(spec, zp1, tau_0)
    res = np.array([rn % zp1 for rn in spec.r], dtype=np.int64)
    q = (res[:, None] - res[None, :] + zp1 // 2) % zp1 - zp1 // 2
    d = (np.zeros(spec.dimension) if spec.has_exact_integers else
         spec.levels * (spec.T / (2.0 * math.pi * spec.hbar)) - np.array(spec.r, dtype=float))
    dd = d[:, None] - d[None, :]
    angle = (q + dd) / zp1
    geo = np.divide(np.expm1(-2j * math.pi * dd), zp1 * np.expm1(-2j * math.pi * angle),
                    out=np.ones(q.shape, dtype=complex), where=angle != 0)
    return _offset_phases(spec, tau_0) * geo


def _completeness_residual(spec: ClockSpectrum, zp1: int, tau_0) -> float:
    """||F - I||_2 for the dial POVM with z+1 = zp1 outcomes.

    On exact spectra F = D P D^H, P all-ones inside each residue class of
    r_n mod (z+1), so F - I has eigenvalues c - 1 and -1 over the classes of
    size c: the residual is 0 for distinct residues, else max(c_max - 1, 1),
    exactly.  Other spectra take the eigenvalues of the closed-form F.
    """
    if not spec.has_exact_integers:
        F = _frame(spec, zp1, tau_0)
        return float(np.abs(np.linalg.eigvalsh(F - np.eye(len(F)))).max())
    _check_frame(spec, zp1, tau_0)
    largest = max(Counter(rn % zp1 for rn in spec.r).values())
    return 0.0 if largest == 1 else float(max(largest - 1, 1))


def frame_operator(spec: ClockSpectrum, z: int, tau_0: float = 0.0) -> np.ndarray:
    """F = (p+1)/(z+1) * sum_m |tau_m><tau_m|, summed over m in closed form."""
    return _frame(spec, _outcome_count(spec, z), tau_0)


def identity_residual(spec: ClockSpectrum, z: int, tau_0: float = 0.0) -> float:
    """Operator 2-norm of the frame operator minus the identity.

    Zero certifies the POVM resolves the identity; on exact spectra the value
    is exact, on rationalized ones it is good to float accuracy.
    """
    return _completeness_residual(spec, _outcome_count(spec, z), tau_0)


def continuous_identity_residual(spec: ClockSpectrum, quad_points: int,
                                 t_0: float = 0.0, *,
                                 enforce_nyquist: bool = True) -> float:
    """Residual of (p+1)/T * integral |t><t| dt over one period.

    The integral is evaluated with the periodic trapezoid rule, which is
    exact for the trigonometric-polynomial integrand once quad_points
    exceeds every phase-frequency difference |r_n - r_k|.  The default guard
    demands quad_points >= 2 (r_p + 1); pass enforce_nyquist=False to study
    aliasing below it.
    """
    r_p = spec.r[-1]
    if enforce_nyquist and quad_points < 2 * (r_p + 1):
        raise InvalidArgument(
            f"need quad_points >= 2*(r_p+1) = {2 * (r_p + 1)}, got {quad_points}")
    if quad_points < 2:
        raise InvalidArgument("need at least 2 quadrature points")
    # the N-point periodic trapezoid over [t_0, t_0+T] is the dial grid with z+1 = N
    return _completeness_residual(spec, int(quad_points), t_0)


@dataclass(frozen=True, eq=False)
class TimeOperator:
    """The Hermitian dial observable, z = p, in the energy basis."""

    matrix: np.ndarray
    tau_grid: np.ndarray
    spectrum: ClockSpectrum

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)


def _dial_circulant(spec: ClockSpectrum, tau_0, f) -> np.ndarray:
    """sum_m f_m |tau_m><tau_m| on the z = p dial of an equally spaced spectrum.

    With r_n = n, <E_n|tau_m> = u_n e^{-2 pi i n m/(p+1)} / sqrt(p+1), so
    entry (n, k) is u_n conj(u_k) c[(n-k) mod (p+1)], c = fft(f)/(p+1):
    one length-(p+1) FFT and a gather, O((p+1)^2) instead of a grid product.
    """
    _check_dense(spec)
    c = np.fft.fft(f) / spec.dimension
    n = np.arange(spec.dimension)
    # n - k lies in [-p, p], and a negative index wraps mod p+1
    return _offset_phases(spec, tau_0) * c[n[:, None] - n]


def hermitian_time_operator(spec: ClockSpectrum, tau_0: float = 0.0) -> TimeOperator:
    """tau_hat = sum_m tau_m |tau_m><tau_m| for the equally-spaced clock.

    Only the equally-spaced spectrum admits orthogonal time states, so only
    there does the dial observable collapse to a Hermitian operator.  The
    dial times are ClockPOVM(spec, p, tau_0).tau_grid.
    """
    if spec.kind is not SpectrumKind.EQUALLY_SPACED:
        raise UnsupportedSpectrum(
            "the Hermitian time operator exists only for equally-spaced spectra")
    taus = ClockPOVM(spec, spec.p, tau_0).tau_grid
    matrix = _dial_circulant(spec, tau_0, taus)
    matrix = 0.5 * (matrix + matrix.conj().T)  # scrub rounding asymmetry
    return TimeOperator(matrix, taus, spec)


def energy_shift_unitary(op: TimeOperator, delta_e: float) -> np.ndarray:
    """exp(-i delta_e tau_hat / hbar): a cyclic one-step shift of the energy basis.

    With delta_e = +2 pi hbar/T the shift is downward (|E_n> -> |E_{n-1 mod
    d}>, a consequence of the e^{-i E tau} phase sign); the opposite sign
    raises.  Either way tau_hat generates energy shifts.
    """
    spec = op.spectrum
    phases = np.exp(-1j * delta_e * op.tau_grid / spec.hbar)
    return _dial_circulant(spec, float(op.tau_grid[0]), phases)


def overlap_magnitude(spec: ClockSpectrum, dt):
    """|<t0 | t0 + dt>| for the flat dial state; independent of t0."""
    dt_arr = np.atleast_1d(np.asarray(dt, dtype=float))
    phases = np.exp(-1j * np.outer(spec.levels / spec.hbar, dt_arr))
    out = np.abs(phases.mean(axis=0))
    return out if np.ndim(dt) else float(out[0])


def _overlap_sq_slope(spec: ClockSpectrum, t: float) -> float:
    """d/dt |<t0|t0+t>|^2; crosses zero linearly at each overlap zero."""
    w = spec.levels / spec.hbar
    ph = np.exp(-1j * w * t)
    s = ph.mean()
    ds = (-1j * w * ph).mean()
    return 2.0 * (s.conjugate() * ds).real


def _scan_overlaps(spec: ClockSpectrum, n_grid: int) -> np.ndarray:
    """|<t0|t0 + k T/N>| for k = 0..N-1, N = n_grid, in O(N) memory.

    On exact spectra sum_n e^{-2 pi i r_n k/N} is the length-N DFT of the
    histogram of r_n mod N.  Other spectra fold the float-phase dial rows.
    """
    if spec.has_exact_integers:
        hist = np.bincount(np.array([rn % n_grid for rn in spec.r], dtype=np.int64),
                           minlength=n_grid)
        return np.abs(np.fft.fft(hist)) / spec.dimension
    total = np.zeros(n_grid, dtype=complex)
    for row in _dial_rows(spec, n_grid, 0.0):
        total += row
    return np.abs(total) / math.sqrt(spec.dimension)


def first_orthogonal_time(spec: ClockSpectrum, *,
                          samples_per_cycle: int = 32) -> float | None:
    """First dt > 0 with <t0|t0+dt> = 0, found by a scan plus root polish.

    Returns None when no orthogonal configuration exists within one period
    (generic spectra need not ever reach one).  The scan takes
    N = max(512, samples_per_cycle (r_p+1)) <= 2^30 samples, so no sign
    structure is missed: near a simple zero |overlap| <= (step/2)*|d
    overlap/dt| <= pi/samples_per_cycle at the nearest sample, and every
    candidate below that cut gets polished.  On exact spectra the samples
    are one FFT of the residue histogram of r_n mod N; other spectra sum the
    float-phase dial rows.  The minimum itself is located as a sign change
    of d|overlap|^2/dt, which Brent's method pins to machine precision.
    """
    if spec.p < 1:
        return None
    n_grid = max(512, samples_per_cycle * (spec.r[-1] + 1))
    if n_grid > MAX_DIAL_POINTS:
        raise InvalidArgument(
            f"orthogonality scans capped at 2^30 points, got {n_grid} = "
            f"{samples_per_cycle} x (r_p+1)")
    from scipy.optimize import brentq, minimize_scalar  # slow import, only needed here
    ts = np.linspace(0.0, spec.T, n_grid, endpoint=False)[1:]
    g = _scan_overlaps(spec, n_grid)[1:]
    step = ts[1] - ts[0]
    candidate_cut = 2.0 * math.pi / samples_per_cycle
    # local minima of |overlap|, in time order
    interior = np.where((g[1:-1] <= g[:-2]) & (g[1:-1] <= g[2:]))[0] + 1
    for i in interior:
        if g[i] > candidate_cut:
            continue
        a, b = ts[i] - step, ts[i] + step
        if _overlap_sq_slope(spec, a) < 0.0 < _overlap_sq_slope(spec, b):
            t_min = float(brentq(lambda t: _overlap_sq_slope(spec, t), a, b,
                                 xtol=1e-15 * spec.T, rtol=4 * np.finfo(float).eps))
        else:
            res = minimize_scalar(
                lambda t: overlap_magnitude(spec, t) ** 2,
                bounds=(a, b), method="bounded", options={"xatol": 1e-15 * spec.T})
            t_min = float(res.x)
        if overlap_magnitude(spec, t_min) < _ZERO_TOL:
            return t_min
    return None
