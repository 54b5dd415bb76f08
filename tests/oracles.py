"""Independent reference implementations used to cross-check the library.

Everything here is deliberately naive: plain loops, float phases straight
from the energies, grid searches.  None of it shares code with qclock
internals, so agreement is evidence rather than tautology.
"""
import csv
import io
import json
import math
from fractions import Fraction

import numpy as np

# CODATA 2018, typed from the NIST table rather than imported from the package
ORACLE_HBAR = 1.054571817e-34
ORACLE_C = 299792458.0
ORACLE_G = 6.67430e-11


def brute_force_simplest(x: float, eps: float, qmax: int = 5000):
    """Smallest-denominator fraction within eps of x, by exhaustive scan."""
    for q in range(1, qmax + 1):
        base = round(x * q)
        for num in (base - 1, base, base + 1):
            if num < 0:
                continue
            if math.gcd(num, q) != 1 and not (num == 0 and q == 1):
                continue
            if abs(x - num / q) <= eps:
                return num, q
    raise AssertionError(f"no fraction within {eps} of {x} with denominator <= {qmax}")


def frame_residual_naive(levels, hbar, T, zp1, tau0) -> float:
    """POVM completeness residual from float phases and explicit loops."""
    d = len(levels)
    F = np.zeros((d, d), dtype=complex)
    for m in range(zp1):
        tau = tau0 + m * T / zp1
        v = np.exp(-1j * np.asarray(levels) * tau / hbar) / math.sqrt(d)
        F += np.outer(v, v.conj())
    F *= d / zp1
    return float(np.linalg.norm(F - np.eye(d), 2))


def outcome_probabilities_naive(levels, hbar, T, zp1, tau0, psi) -> np.ndarray:
    """Born-rule P(m) = d/(z+1) |<tau_m|psi>|^2 from float phases, one m at a time."""
    d = len(levels)
    probs = np.empty(zp1)
    for m in range(zp1):
        tau = tau0 + m * T / zp1
        v = np.exp(-1j * np.asarray(levels) * tau / hbar) / math.sqrt(d)
        probs[m] = d / zp1 * abs(np.vdot(v, psi)) ** 2
    return probs


def gram_matrix_naive(levels, hbar, taus) -> np.ndarray:
    d = len(levels)
    V = np.array([np.exp(-1j * np.asarray(levels) * t / hbar) / math.sqrt(d)
                  for t in taus]).T
    return V.conj().T @ V


def dial_operator_naive(levels, hbar, taus, f) -> np.ndarray:
    """sum_m f_m |tau_m><tau_m| as V diag(f) V^H, V from float phases exp(-i E_n tau_m/hbar)."""
    levels = np.asarray(levels)
    V = np.exp(-1j * np.outer(levels, taus) / hbar) / math.sqrt(len(levels))
    return (V * np.asarray(f)[None, :]) @ V.conj().T


def first_zero_scan(levels, hbar, T, n_grid=400001, threshold=1e-3):
    """Crude first orthogonalization time: dense scan plus golden refine."""
    ts = np.linspace(0.0, T, n_grid, endpoint=False)[1:]
    g = np.abs(np.exp(-1j * np.outer(ts, np.asarray(levels)) / hbar).mean(axis=1))
    below = g < threshold
    if not below.any():
        return None
    # centre the refinement window on the minimum of the first dip
    start = int(np.argmax(below))
    end = start
    while end + 1 < len(ts) and below[end + 1]:
        end += 1
    i = start + int(np.argmin(g[start:end + 1]))
    a, b = ts[max(i - 2, 0)], ts[min(i + 2, len(ts) - 1)]
    invphi = (math.sqrt(5) - 1) / 2

    def f(t):
        return abs(np.exp(-1j * np.asarray(levels) * t / hbar).mean()) ** 2

    c, d = b - invphi * (b - a), a + invphi * (b - a)
    for _ in range(200):
        if f(c) < f(d):
            b, d = d, c
            c = b - invphi * (b - a)
        else:
            a, c = c, d
            d = a + invphi * (b - a)
    return 0.5 * (a + b)


def dt_min_grid(theta, hbar, c, G, include_compton=True, n=200001,
                span=(1e-15, 1e15)):
    """Grid minimizer over log mass for the three-curve resolution bound."""
    m_ref = (c**4 * hbar * theta / (32.0 * G**2)) ** (1.0 / 3.0)
    ms = m_ref * np.exp(np.linspace(math.log(span[0]), math.log(span[1]), n))
    dt = np.maximum(np.sqrt(hbar * theta / (2.0 * ms)) / c, 4.0 * G * ms / c**3)
    if include_compton:
        dt = np.maximum(dt, hbar / (ms * c**2))
    i = int(dt.argmin())
    return float(ms[i]), float(dt[i])


def circular_mean_naive(counts, taus, T):
    """Reference circular mean via explicit angle accumulation."""
    s = sum(cnt * complex(math.cos(2 * math.pi * t / T), math.sin(2 * math.pi * t / T))
            for cnt, t in zip(counts, taus))
    return (T / (2 * math.pi)) * math.atan2(s.imag, s.real) % T


def circular_mean_dense(counts, taus, T, shots):
    """(estimate, error) from counts * exp over every dial time and one np.sum.

    The whole-grid expression of the circular mean, kept as the bit-for-bit
    reference for the blocked one; raises ValueError where that refuses.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        angles = 2.0 * math.pi * np.asarray(taus) / T
        resultant = np.sum(np.asarray(counts) * np.exp(1j * angles))
    if not np.isfinite(resultant):
        raise ValueError("overflow")
    r_mag = abs(resultant) / shots
    if r_mag < 1e-9:
        raise ValueError("uniform")
    estimate = (T / (2.0 * math.pi)) * math.atan2(resultant.imag, resultant.real) % T
    sigma = (T / (2.0 * math.pi)) * math.sqrt(max(-2.0 * math.log(min(r_mag, 1.0)), 0.0))
    return estimate, sigma / math.sqrt(shots)


def sample_counts_bincount(probs, shots, seed):
    """Inverse-CDF counts from one unsorted draw of every shot: one search per
    draw, then a bincount of the bins."""
    total = float(probs.sum())
    cdf = np.cumsum(probs / total)
    cdf[-1] = 1.0
    draws = np.random.default_rng(seed).random(shots)
    return np.bincount(np.searchsorted(cdf, draws, side="right"), minlength=len(cdf))


def random_rational_fracs(rng, p, den_max=9, max_step=3):
    """Strictly increasing fractions > 1 for E_n/E_1, n = 2..p."""
    fracs = []
    current = Fraction(1)
    for _ in range(p - 1):
        den = int(rng.integers(1, den_max + 1))
        lo = current.numerator * den // current.denominator + 1
        frac = Fraction(int(rng.integers(lo, lo + max_step * den + 1)), den)
        fracs.append(frac)
        current = frac
    return fracs


def turns_fraction(r, T, tau):
    """Dial phase in turns, (r_n tau/T) mod 1, with one Fraction per level."""
    x = Fraction(tau) / Fraction(T)
    return np.array([float((rn * x) % 1) for rn in r])


# the float64 expression a version 2 measure document states for its dial
DIAL_FORMULA = "tau_m = tau0 + m * (T / n_outcomes)"


def dial_grid(dial) -> np.ndarray:
    """The dial times of a version 2 measure document, rebuilt from its dial entry."""
    assert dial["formula"] == DIAL_FORMULA
    n = dial["n_outcomes"]
    return dial["tau0"] + np.arange(n) * (dial["T"] / n)


def measure_v1_text(doc) -> str:
    """The version 1 stdout of a parsed version 2 measure document.

    Version 1 had no schema, dial or sampler field and listed every dial time
    under result.tau_grid; otherwise the two documents agree.
    """
    v1 = {key: value for key, value in doc.items() if key != "schema"}
    result = {key: value for key, value in doc["result"].items()
              if key not in ("dial", "sampler")}
    result["tau_grid"] = dial_grid(doc["result"]["dial"]).tolist()
    v1["result"] = result
    return json.dumps(v1, sort_keys=True, indent=2) + "\n"


def measure_csv_v1_text(doc, csv_text: str) -> str:
    """The m,tau_m,count,frequency CSV that came with version 1 and early version 2
    records, rebuilt from a parsed measure document and its m,count,frequency CSV.

    Each tau_m comes from the document's dial entry and is spelled by csv.writer.
    """
    rows = list(csv.reader(io.StringIO(csv_text, newline="")))
    assert rows[0] == ["m", "count", "frequency"]
    taus = dial_grid(doc["result"]["dial"]).tolist()
    assert [int(m) for m, _, _ in rows[1:]] == list(range(len(taus)))
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(["m", "tau_m", "count", "frequency"])
    writer.writerows((int(m), tau, int(count), frequency)
                     for (m, count, frequency), tau in zip(rows[1:], taus))
    return out.getvalue()


def bounds_naive(hbar, c, G, l_C, m_rest, m, theta, T, p, count, z, levels):
    """(delta_tau_min, structural, speed limit, spreading, fundamental, mass limit,
    binding) of one clock, in Python floats and the paper's formulas; count is
    p+1 for an equally spaced spectrum and r_p for a generic one."""
    l_p, t_p = math.sqrt(hbar * G / c**3), math.sqrt(hbar * G / c**5)
    chi = l_C / (4.0 * l_p * t_p) - m_rest * c**2 / hbar
    levels = np.asarray(levels)
    speed = max(math.pi * hbar / (2.0 * float(levels.mean())),
                math.pi * hbar / (2.0 * float(levels.std())))
    spreading = math.sqrt(hbar * theta / (2.0 * m)) / c
    mass_limit = (c**4 * hbar * theta / (32.0 * G**2)) ** (1.0 / 3.0)
    if theta >= 4.0 * t_p:
        fundamental = 2.0 ** (1.0 / 3.0) * theta ** (1.0 / 3.0) * t_p ** (2.0 / 3.0)
    else:  # the kink of max(spreading, Compton, gravity) over the mass
        def curves(mass):
            return (math.sqrt(hbar * theta / (2.0 * mass)) / c, hbar / (mass * c**2),
                    4.0 * G * mass / c**3)
        m_cg = math.sqrt(hbar * c / (4.0 * G))
        spread_cg, compton_cg, _ = curves(m_cg)
        fundamental = max(curves(m_cg if compton_cg >= spread_cg else mass_limit))
    lower = {"structural": T / (p + 1), "speed_limit": speed, "spreading": spreading,
             "fundamental": fundamental}
    return (2.0 * math.pi / chi * count / (z + 1), lower["structural"], speed, spreading,
            fundamental, mass_limit, max(lower, key=lower.get))


SWEEP_HEADER = ["delta_tau_min", "structural_dt", "speed_limit_dt", "spreading_dt",
                "fundamental_dt", "mass_limit", "binding"]


def sweep_csv_rows(param, lo, hi, steps, report) -> str:
    """The sweep CSV of a loop over the steps: report(value) is the BoundReport
    of the step whose swept parameter is value, and csv.writer spells each row."""
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow([param, *SWEEP_HEADER])
    for value in np.linspace(lo, hi, steps).tolist():
        r = report(value)
        writer.writerow([value, r.delta_tau_min, r.structural_dt, r.speed_limit_dt,
                         r.spreading_dt, r.fundamental_dt, r.mass_limit, r.binding.value])
    return out.getvalue()


# --- the dense operators as whole-matrix expressions ---------------------------
#
# Each (p+1)^2 operator below is written as one numpy expression over whole
# matrices, temporaries and all.  The library builds the same entries in one
# buffer, so these are its bit-for-bit references: equal bytes, not equal
# values within a tolerance.

def offset_phases_dense(spec, tau0) -> np.ndarray:
    """u_n conj(u_k), u_n = e^{-2 pi i t_n} with t_n the tau0 offset of level n in
    turns (Fraction-reduced on exact spectra), and a diagonal of exactly 1."""
    turns = (turns_fraction(spec.r, spec.T, tau0) if spec.has_exact_integers else
             np.mod(spec.levels * (float(tau0) / (2.0 * math.pi * spec.hbar)), 1.0))
    u = np.exp(-2j * math.pi * turns)
    phase = u[:, None] * u.conj()
    np.fill_diagonal(phase, 1.0)
    return phase


def dial_circulant_gathered(spec, tau0, f) -> np.ndarray:
    """sum_m f_m |tau_m><tau_m| on the z = p dial of an equally spaced spectrum:
    the offset phases times c[(n - k) mod (p+1)], c = fft(f)/(p+1), gathered by
    an int64 index matrix."""
    with np.errstate(over="ignore", invalid="ignore"):
        c = np.fft.fft(f) / spec.dimension
    n = np.arange(spec.dimension)
    return offset_phases_dense(spec, tau0) * c[n[:, None] - n]


def real_form_dense(matrix, u) -> np.ndarray:
    """Q^H D^H M D Q, D = diag(u) and Q = (I + iJ)/sqrt 2 with J the index reversal
    n -> -n mod d, from whole-matrix products: the real symmetric form of the
    phase-twisted Hermitian circulant M = D C D^H, with a rounding-level imaginary part."""
    d = len(u)
    J = np.eye(d)[-np.arange(d) % d]
    Q = (np.eye(d) + 1j * J) / math.sqrt(2)
    return Q.conj().T @ (u.conj()[:, None] * matrix * u) @ Q


def real_form_toeplitz_hankel(taus) -> np.ndarray:
    """S_nk = Re c[(n-k) mod d] - Im c[(n+k) mod d], c = fft(taus)/d mirrored
    conjugate-even from its rfft half, d = len(taus), one row at a time: the
    real symmetric Toeplitz-plus-Hankel form that real_form_dense reduces the
    time operator to, exactly symmetric and with the eigenvalues of tau_hat
    (the centrohermitian reduction, A. Lee, Linear Algebra Appl. 29, 1980)."""
    d = len(taus)
    half = np.fft.rfft(taus) / d
    c = np.concatenate([half, half[d - len(half):0:-1].conj()])
    re, im = np.tile(c.real, 2), np.tile(c.imag, 2)
    form = np.empty((d, d))
    for n in range(d):
        np.subtract(re[d - n:2 * d - n], im[n:n + d], out=form[n])
    return form


def energy_shift_spectral(povm, delta_e) -> np.ndarray:
    """sum_m exp(-i delta_e tau_m/hbar) ClockPOVM.element(m) on a z = p dial: the
    energy shift from the time operator's spectral decomposition, whose dial
    states are orthonormal, with tau_m = tau0 + m T/(p+1) in float."""
    spec = povm.spectrum
    taus = float(povm.tau_0) + np.arange(povm.n_outcomes) * (spec.T / povm.n_outcomes)
    phases = np.exp(-1j * delta_e * taus / spec.hbar)
    return sum(phase * povm.element(m) for m, phase in enumerate(phases))


def hermitian_mirror_dense(spec, tau0, f) -> np.ndarray:
    """sum_m f_m |tau_m><tau_m| for real f on the z = p dial of an equally spaced
    spectrum: the offset phases times c[(n - k) mod (p+1)], c the conjugate-even
    spectrum of f from its rfft half (c[j] = conj(c[p+1-j]) past the half), with
    the strict upper triangle assigned from the conjugated transpose.  Assigned,
    not added to a zero triangle, since 0.0 + -0.0 would drop the sign of a zero."""
    d = spec.dimension
    half = np.fft.rfft(f) / d
    c = np.array([half[j] if j < len(half) else np.conj(half[d - j]) for j in range(d)])
    n = np.arange(d)
    matrix = offset_phases_dense(spec, tau0) * c[n[:, None] - n]
    upper = np.triu_indices(d, 1)
    matrix[upper] = matrix.conj().T[upper]
    return matrix


def frame_dense(spec, zp1, tau0) -> np.ndarray:
    """The closed-form frame operator: offset phases times the geometric sums
    expm1(-2 pi i d)/((z+1) expm1(-2 pi i s/(z+1))), 1 where s/(z+1) = 0."""
    res = np.array([rn % zp1 for rn in spec.r], dtype=np.int64)
    q = (res[:, None] - res[None, :] + zp1 // 2) % zp1 - zp1 // 2
    d = (np.zeros(spec.dimension) if spec.has_exact_integers else
         spec.levels * (spec.T / (2.0 * math.pi * spec.hbar)) - np.array(spec.r, dtype=float))
    dd = d[:, None] - d[None, :]
    angle = (q + dd) / zp1
    geo = np.divide(np.expm1(-2j * math.pi * dd), zp1 * np.expm1(-2j * math.pi * angle),
                    out=np.ones(q.shape, dtype=complex), where=angle != 0)
    return offset_phases_dense(spec, tau0) * geo


def frame_residual_dense(spec, zp1, tau0) -> float:
    """||F - I||_2 of frame_dense from the eigenvalues of the Hermitian F - I."""
    F = frame_dense(spec, zp1, tau0)
    return float(np.abs(np.linalg.eigvalsh(F - np.eye(len(F)))).max())
