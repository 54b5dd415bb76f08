"""Independent reference implementations used to cross-check the library.

Everything here is deliberately naive: plain loops, float phases straight
from the energies, grid searches.  None of it shares code with qclock
internals, so agreement is evidence rather than tautology.
"""
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
