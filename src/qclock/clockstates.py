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

The first orthogonal dial time is the first zero of S(t) = <t0|t0+t> =
mean_n e^{-i w_n t}, w_n = E_n/hbar, found by a certified search.  S is
sampled at t_k = k h, h = T/N, N = max(512, 32 (r_p+1)).  On exact spectra
the samples are one real FFT of the histogram of r_n mod N, over half a
period: S(T - t) = conj S(t), so the first zero lies in (0, T/2].  Other
spectra fold the float-phase dial rows over the period, a window at a time.
Either way the samples take 16 B each.  On a step [a, b], S departs from the
chord [S(a), S(b)] by at most max|S''| (b-a)^2/8 <= mean(w_n^2) (b-a)^2/8,
so |S| there is at least the chord's distance from 0 less that curvature
term and a rounding allowance of 4 eps (p+1 + T max w_n): the phases w_n t
are rounded relative to their size, at most T max w_n, and a sum of p+1
unit terms (or an FFT, whose error grows as log N) rounds once per term.
Steps whose bound exceeds _ZERO_TOL hold no zero.  The rest are taken in
time order.  Only where the chord comes within the curvature term, the
allowance and _ZERO_TOL of 0 can S vanish, so a step is narrowed to that
stretch when it is at most half the step, and halved otherwise, until the
curvature term is below _ZERO_TOL.  The one minimum left is bisected on the
sign of d|S|^2/dt down to adjacent floats, and the float of the two with the
smaller |S| is the zero if |S| < _ZERO_TOL there.  So a zero is never
skipped for a later one, however close the two lie.  None certifies that
every step was either bounded above _ZERO_TOL or polished to a minimum that
stayed above it: on (0, T - h], and on all of (0, T) for exact spectra.

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
The time operator's c is the DFT of the real dial times, taken once as an
rfft half and mirrored conjugate-even; its matrix keeps the circulant's lower
triangle and writes the upper as the conjugate mirror, Hermitian to the bit.
Its eigenvalues need no solve: there the dial states are orthonormal (the
exact residual is 0, read off the distinct residues n mod (p+1)), so
tau_hat = sum_m tau_m |tau_m><tau_m| is its own spectral decomposition, and
its eigenvalues are the dial times tau_m, its eigenvectors the dial states.

Each dense (p+1)^2 operator is built in its own buffer: every step of the
whole-matrix expression it stands for is worked in place, or a row at a time,
in that expression's operand order, so the result has the same bits.  The
time operator's complex matrix, built only when it is read, and the energy
shifts peak at 16 B per entry and 112 B per level, the frame operator at
about 41 B per entry.  The rationalized residual's eigvalsh copies the frame
inside LAPACK, in memory numpy does not allocate, which tracemalloc does not
see and no charge counts.

Every dial entry point builds its dial as a ClockPOVM, the one check of z
and tau_0.  The frame operator holds r_n mod (z+1) in int64, so it and the
rationalized residual take z+1 <= 2^62; the exact residual takes any z.

All operations are pure.  A path whose arrays grow with z, N or p is charged
its peak in bytes by spectrum._charge before it allocates; the exact residual,
O(p+1), is not.  The dense grid is built only on request (grid_amplitudes);
measurement folds the grid one row and one window of _BLOCK = 2^12 dial
times at a time and never holds it.  Every windowed pass walks _blocks.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import (CapacityError, IncompatibleStates, InvalidArgument, UnsupportedSpectrum,
                     _at_least, _finite, _integer, spell)
from .spectrum import ClockSpectrum, SpectrumKind, _charge

# entries a windowed pass holds at a time: dial times, scan steps, written values.
# A power of two, so every window starts on a SIMD lane boundary and an
# elementwise pass rounds each entry as one whole-array pass would.
_BLOCK = 2**12
# |overlap| below which a polished minimum counts as an orthogonal dial time
_ZERO_TOL = 1e-9


def _turns_single(spec: ClockSpectrum, tau) -> np.ndarray:
    """Phase in turns (cycles) for each level at one dial time.

    tau may be a float or an exact Fraction; exact inputs keep the reduction
    exact, so e.g. evolving by the Fraction T/(z+1) lands on the next grid
    state to the last ulp.
    """
    if not _finite(tau):
        raise InvalidArgument(f"dial time must be finite, got {spell(tau)}")
    if spec.has_exact_integers:
        # (r_n x) mod 1 on the numerators; int true division rounds correctly,
        # so each turn is float((r_n x) % 1) without a Fraction per level
        x = Fraction(tau) / Fraction(spec.T)
        num, den = x.numerator, x.denominator
        return np.array([rn * num % den / den for rn in spec.r])
    return np.mod(spec.levels * (float(tau) / (2.0 * math.pi * spec.hbar)), 1.0)


def _blocks(n: int):
    """The windows [start, stop) that cover range(n), _BLOCK entries each.

    A last window of one entry joins the window before it: numpy takes a
    one-element array times a scalar down its scalar path, which rounds
    without the fused multiply-add that the SIMD tail of a longer pass uses.
    """
    start = 0
    while start < n:
        stop = n if n - start <= _BLOCK + 1 else start + _BLOCK
        yield start, stop
        start = stop


def _phase_factors(spec: ClockSpectrum, tau) -> np.ndarray:
    """e^{-2 pi i t_n}, t_n the phase of level n at dial time tau in turns."""
    return np.exp(-2j * math.pi * _turns_single(spec, tau))


def _dial_rows(povm: ClockPOVM):
    """rows(start, stop) yields row n of the dial grid over the window m = start..stop-1.

    Row n is (p+1)^-1/2 e^{-2 pi i phase_n(tau_m)}.  Exact spectra gather from
    one twiddle table w[k] = e^{-2 pi i k/(z+1)}, built here once, a block at
    a time: row n is w[(r_n mod (z+1)) m mod (z+1)] u_n with the exact tau_0
    offset phase u_n, so z+1 complex exp serve all p+1 rows and every window.
    Other spectra take float phases f_n tau_m straight from the energies, with
    tau_m from povm.times; a time that overflows gives a nan row, not a
    warning.  Every entry is computed elementwise, so a window holds
    the same bits as the same stretch of a full row; rows(0, z+1) yields full
    rows.  A caller that folds the rows a window at a time, and drops each row
    before it asks for the next, keeps one window of memory beside the 16 B per
    dial time of the table.
    The gather index (r_n mod (z+1)) m is int64 and at most z^2, so a z with
    z^2 >= 2^63 is refused first; the byte budget keeps z far below that.
    """
    spec, zp1 = povm.spectrum, povm.n_outcomes
    norm = math.sqrt(spec.dimension)
    if spec.has_exact_integers:
        if povm.z ** 2 >= 2**63:
            raise CapacityError(f"the int64 gather index needs z^2 < 2^63, got z = {spell(povm.z)}")
        w = np.empty(zp1, dtype=complex)
        for start, stop in _blocks(zp1):
            np.exp(-2j * math.pi * (np.arange(start, stop) / float(zp1)), out=w[start:stop])
        u = _phase_factors(spec, povm.tau_0) / norm

        def rows(start, stop):
            m = np.arange(start, stop, dtype=np.int64)
            for rn, un in zip(spec.r, u):
                index = m * (rn % zp1)
                row = w[np.remainder(index, zp1, out=index)]
                row *= un
                yield row
                del row, index  # so the next gather holds one row and one index
        return rows
    freqs = spec.levels / (2.0 * math.pi * spec.hbar)

    def rows(start, stop):
        taus = povm.times(start, stop)
        for f in freqs:
            with np.errstate(over="ignore", invalid="ignore"):
                row = np.exp(-2j * math.pi * (f * taus))
                row /= norm
            yield row
            del row
    return rows


def grid_amplitudes(spec: ClockSpectrum, z: int, tau_0: float = 0.0) -> np.ndarray:
    """Matrix of time-state amplitudes, column m = |tau_m>, shape (p+1, z+1)."""
    povm = ClockPOVM(spec, z, tau_0)
    zp1 = povm.n_outcomes
    # fromiter fills the grid row by row; beside it sit the twiddle table, the
    # window's m, and the next row with its gather index, 48 B per dial time
    _charge(16 * (spec.dimension + 3) * zp1, f"a {spec.dimension} x {spell(zp1)} dial grid")
    return np.fromiter(_dial_rows(povm)(0, zp1), dtype=np.dtype((complex, zp1)),
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
    """The family { (p+1)/(z+1) |tau_m><tau_m| }, m = 0..z: the one check that
    z is an int >= p (a float, even 4.0, is not) and tau_0 is finite."""

    spectrum: ClockSpectrum
    z: int
    tau_0: float = 0.0

    def __post_init__(self):
        if not _integer(self.z) or self.z < self.spectrum.p:
            raise InvalidArgument(f"need z >= p = {self.spectrum.p}, got {spell(self.z)}")
        if not _finite(self.tau_0):
            why = ("is past the float64 range" if isinstance(self.tau_0, (int, Fraction))
                   else "must be finite")
            raise InvalidArgument(f"dial offset tau_0 {why}, got {spell(self.tau_0)}")
        object.__setattr__(self, "z", int(self.z))

    @property
    def n_outcomes(self) -> int:
        return self.z + 1

    @property
    def weight(self) -> Fraction:
        return Fraction(self.spectrum.dimension, self.z + 1)

    def times(self, start: int, stop: int) -> np.ndarray:
        """The dial times tau_m for m in [start, stop), as float64.

        The one spelling of the dial: tau_0 + m * (T/(z+1)), worked in place in
        that order, so the same m gives the same bits in every caller.  A time
        past the float range is inf, without a warning; a z+1 past the float
        range, whose step T/(z+1) Python cannot divide out, is refused.
        """
        if not _finite(self.z + 1):
            raise InvalidArgument(f"the dial step T/(z+1) is past the float64 range at "
                                  f"z+1 = {spell(self.z + 1)}")
        step = self.spectrum.T / (self.z + 1)
        taus = np.arange(start, stop, dtype=float)
        taus *= step
        with np.errstate(over="ignore"):
            taus += float(self.tau_0)
        return taus

    @functools.cached_property
    def tau_grid(self) -> np.ndarray:
        """The dial times tau_m, built once and read-only."""
        _charge(8 * (self.z + 1), f"a dial of {spell(self.z + 1)} times")
        grid = self.times(0, self.z + 1)
        grid.setflags(write=False)
        return grid

    def element(self, m: int) -> np.ndarray:
        """The m-th POVM element as a dense (p+1, p+1) matrix."""
        if not _integer(m) or not 0 <= m <= self.z:
            raise InvalidArgument(
                f"outcome index {spell(m)} outside the integers 0..{spell(self.z)}")
        _charge(16 * self.spectrum.dimension ** 2, "a POVM element")
        tau_m = Fraction(self.tau_0) + m * Fraction(self.spectrum.T) / (self.z + 1)
        v = time_state(self.spectrum, tau_m).amplitudes
        return float(self.weight) * np.outer(v, v.conj())


def time_state(spec: ClockSpectrum, tau: float) -> TimeState:
    """|tau> for any real tau; the continuous-dial state when tau is off-grid."""
    amps = _phase_factors(spec, tau) / math.sqrt(spec.dimension)
    return TimeState(amps, float(tau), spec)


def overlap(a: TimeState, b: TimeState) -> complex:
    """<a|b> = (p+1)^(-1) sum_n exp(-i E_n (tau_b - tau_a)/hbar)."""
    if not a.spectrum.same_as(b.spectrum):
        raise IncompatibleStates("states belong to different spectra")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def evolve(state: TimeState, dt: float) -> TimeState:
    """Schroedinger evolution by an external-time step dt: a dial rotation."""
    amps = state.amplitudes * _phase_factors(state.spectrum, dt)
    return TimeState(amps, state.tau + float(dt), state.spectrum)


def _offset_phases(spec: ClockSpectrum, tau_0, other, out: np.ndarray) -> np.ndarray:
    """out[n] = (u_n conj(u_k)) * other(n), u_n = e^{-2 pi i t_n} with t_n the tau_0
    offset in turns, a row at a time, since a broadcast product allocates numpy's
    iterator buffers.  The phases' diagonal is exactly 1, so it scales no entry."""
    u = _phase_factors(spec, tau_0)
    uc, phase = u.conj(), np.empty(len(u), dtype=complex)
    for n, un in enumerate(u):
        np.multiply(un, uc, out=phase)
        phase[n] = 1.0
        np.multiply(phase, other(n), out=out[n])
    return out


def _frame(spec: ClockSpectrum, zp1: int, tau_0) -> np.ndarray:
    """F_nk = e^{-2 pi i (t_n - t_k)} (z+1)^-1 sum_m e^{-2 pi i s_nk m/(z+1)}.

    t_n is the tau_0 offset in turns and s_nk = (E_n - E_k) T/(2 pi hbar)
    = (r_n - r_k) + d_nk.  The geometric sum is expm1(-2 pi i d) /
    ((z+1) expm1(-2 pi i s/(z+1))), with r_n - r_k reduced mod z+1 exactly
    so the small angle never cancels.  Exact spectra have d = 0, so every
    entry of the sum is exactly 1 or 0.  Costs O((p+1)^2) whatever z is; the
    residues are int64, so z+1 is at most 2^62.

    Each (p+1)^2 array is worked in place and dropped once used, with the
    elementwise operations of the whole-matrix expression in their operand
    order (a complex multiply with fused multiply-add is not commutative in
    its imaginary part), so F holds the same bits.  It peaks at about 41 B
    per entry, while the two expm1 terms, the angle and its mask coexist,
    and is charged 48.
    """
    if zp1 > 2**62:
        raise InvalidArgument(f"dial grids capped at z+1 <= 2^62, got {spell(zp1)}")
    _charge(48 * spec.dimension ** 2, "a frame operator")
    res = np.array([rn % zp1 for rn in spec.r], dtype=np.int64)
    q = res[:, None] - res[None, :]
    q += zp1 // 2
    q %= zp1
    q -= zp1 // 2
    d = (np.zeros(spec.dimension) if spec.has_exact_integers else
         spec.levels * (spec.T / (2.0 * math.pi * spec.hbar)) - np.array(spec.r, dtype=float))
    dd = d[:, None] - d[None, :]
    angle = q + dd
    del q
    angle /= zp1
    geo = -2j * math.pi * dd
    del dd
    np.expm1(geo, out=geo)
    turning = angle != 0  # where the sum is not z+1 equal terms
    den = -2j * math.pi * angle
    del angle
    np.expm1(den, out=den)
    np.multiply(zp1, den, out=den)
    np.divide(geo, den, out=geo, where=turning)
    del den
    geo[~turning] = 1
    del turning
    return _offset_phases(spec, tau_0, lambda n: geo[n], geo)


def _completeness_residual(spec: ClockSpectrum, zp1: int, tau_0) -> float:
    """||F - I||_2 for the dial POVM with z+1 = zp1 outcomes.

    On exact spectra F = D P D^H, P all-ones inside each residue class of
    r_n mod (z+1), so F - I has eigenvalues c - 1 and -1 over the classes of
    size c: the residual is 0 for distinct residues, else max(c_max - 1, 1),
    exactly, in Python ints for any z+1.  Other spectra take the eigenvalues
    of the closed-form F, less 1 on its diagonal in place.
    """
    if not spec.has_exact_integers:
        F = _frame(spec, zp1, tau_0)
        F[np.diag_indices_from(F)] -= 1
        return float(np.abs(np.linalg.eigvalsh(F)).max())
    largest = max(Counter(rn % zp1 for rn in spec.r).values())
    return 0.0 if largest == 1 else float(max(largest - 1, 1))


def frame_operator(spec: ClockSpectrum, z: int, tau_0: float = 0.0) -> np.ndarray:
    """F = (p+1)/(z+1) * sum_m |tau_m><tau_m|, summed over m in closed form."""
    return _frame(spec, ClockPOVM(spec, z, tau_0).n_outcomes, tau_0)


def identity_residual(spec: ClockSpectrum, z: int, tau_0: float = 0.0) -> float:
    """Operator 2-norm of the frame operator minus the identity.

    Zero certifies the POVM resolves the identity; on exact spectra the value
    is exact for any z, on rationalized ones it is good to float accuracy.
    """
    return _completeness_residual(spec, ClockPOVM(spec, z, tau_0).n_outcomes, tau_0)


def continuous_identity_residual(spec: ClockSpectrum, quad_points: int,
                                 t_0: float = 0.0, *,
                                 enforce_nyquist: bool = True) -> float:
    """Residual of (p+1)/T * integral |t><t| dt over one period.

    The integral is evaluated with the periodic trapezoid rule, which is
    exact for the trigonometric-polynomial integrand once quad_points
    exceeds every phase-frequency difference |r_n - r_k|.  The default guard
    demands quad_points >= 2 (r_p + 1); pass enforce_nyquist=False to study
    aliasing below it.  Fewer than p+1 nodes make no POVM, so no ClockPOVM
    checks quad_points and t_0.
    """
    if not _integer(quad_points):
        raise InvalidArgument(f"quad_points must be an integer, got {spell(quad_points)}")
    if enforce_nyquist and quad_points < (least := 2 * (spec.r[-1] + 1)):
        raise InvalidArgument(f"need quad_points >= 2*(r_p+1) = {least}, got {spell(quad_points)}")
    if quad_points < 2:
        raise InvalidArgument("need at least 2 quadrature points")
    if not _finite(t_0):  # the exact residual computes no phase to refuse it
        raise InvalidArgument(f"dial time must be finite, got {spell(t_0)}")
    # the N-point periodic trapezoid over [t_0, t_0+T] is the dial grid with z+1 = N
    return _completeness_residual(spec, int(quad_points), t_0)


def _dial_spectrum(transform, f) -> np.ndarray:
    """c = transform(f)/len(f), transform np.fft.fft or np.fft.rfft; an f that is not
    finite, or whose sums overflow, is refused."""
    with np.errstate(over="ignore", invalid="ignore"):
        c = transform(f) / len(f)
    if not np.isfinite(c).all():
        raise InvalidArgument("the dial operator's sums overflow the float range")
    return c


def _dial_circulant(povm: ClockPOVM, spectrum) -> np.ndarray:
    """sum_m f_m |tau_m><tau_m| on the z = p dial povm of an equally spaced spectrum,
    from c = spectrum() = fft(f)/(p+1), the dial's spectrum, made after the charge.

    With r_n = n, <E_n|tau_m> = u_n e^{-2 pi i n m/(p+1)} / sqrt(p+1), so
    entry (n, k) is u_n conj(u_k) c[(n-k) mod (p+1)]: one length-(p+1) FFT,
    O((p+1)^2) instead of a grid product.  The offset phases of row n are
    multiplied by a slice of c reversed twice over, c[n], c[n-1], ... mod p+1,
    so the operator is built in its one buffer of 16 B per entry, with no
    index matrix or gathered copy.  The charge covers the O(p+1) vectors beside
    the buffer, c and the f it came from among them: 112 B per level.
    """
    spec, d = povm.spectrum, povm.spectrum.dimension
    _charge(16 * d * d + 112 * d, "a dial operator")
    c = spectrum()
    twice = np.concatenate([c[::-1], c[::-1]])  # from d-1-n on: c[n], c[n-1], ...
    del c
    return _offset_phases(spec, povm.tau_0, lambda n: twice[d - 1 - n:2 * d - 1 - n],
                          np.empty((d, d), dtype=complex))


@dataclass(frozen=True, eq=False)
class TimeOperator:
    """tau_hat = sum_m tau_m |tau_m><tau_m| on the z = p dial povm of an equally
    spaced spectrum, the Hermitian dial observable, in the energy basis.

    The dial's spectrum c = rfft(tau_grid)/(p+1) is taken here, once, so a dial
    whose times or their sum overflow the float range is refused at construction.
    eigenvalues() reads the dial times and leaves matrix, the complex (p+1)^2
    operator, unbuilt; matrix is built on first read from the same c, with no
    second FFT.
    """

    povm: ClockPOVM
    _half: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        spec = self.povm.spectrum
        if spec.kind is not SpectrumKind.EQUALLY_SPACED:
            raise UnsupportedSpectrum(
                "the Hermitian time operator exists only for equally-spaced spectra")
        if self.povm.z != spec.p:
            raise InvalidArgument(f"the time operator needs the z = p = {spec.p} dial, "
                                  f"got z = {spell(self.povm.z)}")
        object.__setattr__(self, "_half", _dial_spectrum(np.fft.rfft, self.povm.tau_grid))

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        """The complex operator, built on first read in its one buffer, whose peak the
        module docstring gives; read-only.  Its lower triangle is the circulant of the
        dial's spectrum c, mirrored conjugate-even from its rfft half, c[d-j] = conj(c[j]),
        and each row's strict upper part the conjugate of the column below the diagonal,
        so it is Hermitian to the bit."""
        half, d = self._half, self.povm.spectrum.dimension
        matrix = _dial_circulant(self.povm, lambda: np.concatenate(
            [half, half[d - len(half):0:-1].conj()]))
        for n in range(d - 1):
            np.conjugate(matrix[n + 1:, n], out=matrix[n, n + 1:])
        matrix.setflags(write=False)
        return matrix

    def eigenvalues(self) -> np.ndarray:
        """The eigenvalues of tau_hat, ascending: the dial times, povm.tau_grid itself
        (read-only).  The z = p dial states are orthonormal, so tau_hat is its own
        spectral decomposition (the module docstring); nothing is solved or allocated."""
        return self.povm.tau_grid


def hermitian_time_operator(spec: ClockSpectrum, tau_0: float = 0.0) -> TimeOperator:
    """tau_hat = sum_m tau_m |tau_m><tau_m| for the equally-spaced clock.

    Only the equally-spaced spectrum admits orthogonal time states, so only
    there does the dial observable collapse to a Hermitian operator.  The
    dial times are ClockPOVM(spec, p, tau_0).tau_grid; a dial whose times or
    their sum overflow the float range is refused.
    """
    return TimeOperator(ClockPOVM(spec, spec.p, tau_0))


def energy_shift_unitary(op: TimeOperator, delta_e: float) -> np.ndarray:
    """exp(-i delta_e tau_hat / hbar): a cyclic one-step shift of the energy basis.

    With delta_e = +2 pi hbar/T the shift is downward (|E_n> -> |E_{n-1 mod
    d}>, a consequence of the e^{-i E tau} phase sign); the opposite sign
    raises.  Either way tau_hat generates energy shifts.  The phases and their
    FFT are made after the operator's charge.
    """
    def spectrum():
        with np.errstate(over="ignore", invalid="ignore"):
            phases = (np.exp(-1j * delta_e * op.povm.tau_grid / op.povm.spectrum.hbar)
                      if _finite(delta_e) else None)
        if phases is None or not np.isfinite(phases).all():
            raise InvalidArgument(f"energy shift {spell(delta_e)} gives non-finite phases")
        return _dial_spectrum(np.fft.fft, phases)

    return _dial_circulant(op.povm, spectrum)


def _overlap_sq_slope(w: np.ndarray, t: float) -> tuple[complex, float]:
    """S = <t0|t0+t> and d|S|^2/dt for w_n = E_n/hbar; the slope crosses zero
    linearly at each zero of S."""
    ph = np.exp(w * (-1j * t))
    s = complex(ph.sum()) / len(w)
    return s, 2.0 * (s.conjugate() * complex(np.dot(w, ph))).imag / len(w)


def _scan_overlaps(spec: ClockSpectrum, n_grid: int) -> np.ndarray:
    """S_k = <t0|t0 + k T/N>, N = n_grid: k <= N/2 from a real FFT of the histogram of
    r_n mod N on exact spectra (S_{N-k} = conj S_k), else all k < N from the dial rows."""
    if spec.has_exact_integers:
        s = np.fft.rfft(np.bincount([rn % n_grid for rn in spec.r], minlength=n_grid))
        s = np.append(s, s[-1].conjugate()) if n_grid % 2 else s
        return np.divide(s, spec.dimension, out=s)
    s, rows = np.zeros(n_grid, dtype=complex), _dial_rows(ClockPOVM(spec, n_grid - 1))
    for start, stop in _blocks(n_grid):
        for row in rows(start, stop):
            s[start:stop] += row
            del row
    return np.divide(s, math.sqrt(spec.dimension), out=s)


def first_orthogonal_time(spec: ClockSpectrum, *,
                          samples_per_cycle: int = 32) -> float | None:
    """First dt > 0 with |S| = |<t0|t0+dt>| < _ZERO_TOL, or None if there is none.

    On each of N = max(512, samples_per_cycle (r_p+1)) scan steps h = T/N,
    |S| >= (distance from 0 to the chord) - mean(w_n^2) h^2/8 - 4 eps (p+1 + T max w_n),
    w_n = E_n/hbar, the last term a rounding allowance (the module docstring sets out
    the search).  None certifies |S| >= _ZERO_TOL on (0, T - h], on all of (0, T) if exact.
    """
    n_grid = max(512, _at_least("samples_per_cycle", samples_per_cycle, 1) * (spec.r[-1] + 1))
    _charge((24 if spec.has_exact_integers else 17) * n_grid, f"a scan of {n_grid} points")
    with np.errstate(over="ignore"):  # an E_n/hbar past the float range is refused
        w, h = spec.levels / spec.hbar, spec.T / n_grid
        curv = float(np.mean((w * h) ** 2)) / 8  # the curvature term of one scan step
    if not math.isfinite(curv):
        raise InvalidArgument("phase frequencies E_n/hbar overflow the orthogonality search")
    slack = _ZERO_TOL + 4 * np.finfo(float).eps * (spec.dimension + spec.T * w[-1])
    s = _scan_overlaps(spec, n_grid)
    for start, stop in _blocks(len(s) - 1):  # the steps [k, k+1], k in [start, stop)
        g = abs(v := s[start:stop + 1])  # (|S_k| + |S_k+1| - |S_k+1 - S_k|)/2 <= chord distance
        near = np.flatnonzero(g[:-1] + g[1:] - abs(np.diff(v)) <= 2 * (slack + curv))
        for k in (near + start).tolist():
            stack = [(k * h, (k + 1) * h, complex(s[k]), complex(s[k + 1]))]
            while stack:
                a, b, sa, sb = stack.pop()
                rho, d = slack + curv * ((b - a) / h) ** 2, sb - sa
                u = -(sa.conjugate() * d).real / (abs(d) ** 2 + 1e-300)  # nearest to 0
                du = math.sqrt(max(rho * rho - abs(sa + u * d) ** 2, 0.0)) / (abs(d) + 1e-300)
                lo, hi = max(u - du, 0.0), min(u + du, 1.0)  # where the chord is within rho
                if lo >= hi:
                    continue
                a2, b2, m = a + lo * (b - a), a + hi * (b - a), 0.5 * (a + b)
                if rho - slack > _ZERO_TOL and a < m < b:  # narrow, or else halve
                    ts = [a2, b2] if hi - lo <= 0.5 and b2 - a2 < b - a else [a, m, b]
                    ss = [sa if t == a else sb if t == b else _overlap_sq_slope(w, t)[0] for t in ts]
                    stack += reversed(list(zip(ts, ts[1:], ss, ss[1:])))
                    continue
                while a2 < (m := 0.5 * (a2 + b2)) < b2:
                    a2, b2 = (m, b2) if _overlap_sq_slope(w, m)[1] < 0.0 else (a2, m)
                size, t = min((abs(_overlap_sq_slope(w, t)[0]), t) for t in (a2, b2))
                if size < _ZERO_TOL:
                    return t
    return None
