"""
The equally-spaced quantum clock
================================

A clock Hamiltonian with levels E_n = 2*pi*hbar*n/T, n = 0..p, has a
complementary time observable whose p+1 dial states form an orthonormal
basis.  This script builds the clock, checks orthonormality, and looks at
the Hermitian time operator that exists in this (and only this) case.
"""

import numpy as np

from qclock import (build_equally_spaced, energy_shift_unitary,
                    grid_amplitudes, hermitian_time_operator,
                    identity_residual, natural_units, overlap, time_state)

nat = natural_units()

# A five-dimensional clock that ticks back to its start after T = 2.
spec = build_equally_spaced(p=4, T=2.0, consts=nat)
print("levels:", spec.levels)
print("integer phase frequencies r_n:", spec.r)

# The p+1 dial states at tau_m = m T/(p+1) are orthonormal: their Gram
# matrix is the identity.
V = grid_amplitudes(spec, z=spec.p)
gram = V.conj().T @ V
print("max |Gram - identity|:", np.max(np.abs(gram - np.eye(spec.p + 1))))

# Equivalently, the frame operator resolves the identity exactly.
print("identity residual at z = p:", identity_residual(spec, spec.p))

# Off-grid dial states exist too; they are just not orthogonal to the grid.
mid = time_state(spec, 0.2)
first = time_state(spec, 0.0)
print("|<tau_0|t=0.2>| =", abs(overlap(first, mid)))

# With z = p the observable collapses to a Hermitian operator whose
# eigenvalues are exactly the dial readings: the orthonormal dial states are
# its eigenvectors, so eigenvalues() returns the dial grid, and a numerical
# solve of its matrix agrees.
op = hermitian_time_operator(spec)
print("time operator eigenvalues:", op.eigenvalues())
print("eigvalsh of its matrix:   ", np.round(np.linalg.eigvalsh(op.matrix), 12))

# The time operator generates shifts in energy: exponentiating it against
# one level spacing permutes the energy basis cyclically.
U = energy_shift_unitary(op, 2 * np.pi * spec.hbar / spec.T)
print("|U| column pattern (one-step cyclic shift):")
print(np.round(np.abs(U), 12))
