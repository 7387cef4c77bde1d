"""The closed-form central solution against the Pick matrix and against ``solve``.

Degree-2 data (zeros of ``sigma`` at ``0.3 e^{+-i}``, of ``a`` at
``0.6 e^{+-0.5i}``) at the bank poles of ``default_bank_poles(n)`` scaled
to radius ``r``, solved at the central ``sigma_c``, whose zeros are the
nonzero poles.  Each bound is ten times an error measured on a 2-vCPU
x86-64 host with OpenBLAS, rounded up (for the densities, see below).
"""

import numpy as np
import pytest

from central_oracle import central_density, leja_product, moment_matrix, pick_matrix
from nevpick.analysis import spectral_density, spectrum_angles
from nevpick.continuation import solve
from nevpick.ingestion import BANK_RADIUS, default_bank_poles, exact_values, nodes_from_poles
from nevpick.polyalg import MonicPolynomial
from nevpick.problem import InterpolationProblem

SIGMA = MonicPolynomial.from_roots([0.3 * np.exp(1j), 0.3 * np.exp(-1j)])
A = MonicPolynomial.from_roots([0.6 * np.exp(0.5j), 0.6 * np.exp(-0.5j)])
MOMENT_POINTS = 2**14   # at 2^12 the n >= 12 cases read 4e-7, 9e-8 and 4e-4


def central_data(n, r):
    """The reciprocal nodes and the values at ``n`` bank poles of radius ``r``."""
    zeta = default_bank_poles(n) * (r / BANK_RADIUS)
    return zeta, exact_values(SIGMA, A, zeta)


# (n, r, bound): max |moments - Pick| / max |Pick|, measured 8.9e-15,
# 2.7e-15, 3.8e-15, 9.6e-15 and 3.8e-14
@pytest.mark.parametrize("n, r, bound", [
    (4, 0.7, 9e-14), (8, 0.97, 3e-14), (12, 0.99, 4e-14), (20, 0.99, 1e-13), (28, 0.995, 4e-13),
])
def test_density_has_the_pick_matrix_as_moments(n, r, bound):
    zeta, w = central_data(n, r)
    pick = pick_matrix(zeta, w)
    err = np.max(np.abs(moment_matrix(zeta, w, MOMENT_POINTS) - pick)) / np.max(np.abs(pick))
    assert err < bound


# (n, r, bound): max |spectral_density / Phi_c - 1| on the density's grid,
# with sigma_c multiplied out in Leja order, measured 2.11e-14, 7.37e-14,
# 6.64e-14, 9.73e-14 and 1.25e-13.  With the factors in the order of the
# bank poles (MonicPolynomial.from_roots) it read 2.2e-14, 8.0e-14,
# 3.5e-13, 1.2e-11 and 1.8e-9: the rounding of sigma_c's coefficients,
# not the solve.  The bounds at n = 4 and 8 were set on those readings
# and are below ten times the new ones, so they stay
@pytest.mark.parametrize("n, r, bound", [
    (4, 0.7, 2e-13), (8, 0.97, 4e-13), (12, 0.99, 6.7e-13), (20, 0.99, 9.8e-13),
    (28, 0.995, 1.3e-12),
])
def test_solve_at_central_sigma_matches_the_closed_form(n, r, bound):
    zeta, w = central_data(n, r)
    problem = InterpolationProblem(nodes_from_poles(zeta), tuple(w),
                                   MonicPolynomial(leja_product(zeta[1:])))
    density = spectral_density(solve(problem))
    assert np.max(np.abs(density / central_density(zeta, w, spectrum_angles()) - 1.0)) < bound
