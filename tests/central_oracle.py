"""The closed-form central solution: an oracle that does not run the solver.

For reciprocal nodes ``zeta`` (``zeta_0 = 0``, the node at infinity) and
values ``w``, take the central choice ``sigma_c(z) = prod (z - zeta_k)``
over the nonzero ``zeta_k``.  Its solution is the maximum-entropy
interpolant, whose spectral density has the closed form

    ``Phi_c(t) = Re(x_0) / |k(t)^H x|^2``,  ``x = Pick^-1 e_0``,
    ``k_i(t) = 1 / (1 - zeta_i e^{it})``,

with ``Pick`` the Pick matrix of the data and ``e_0`` the unit vector of
the node at infinity.  ``Pick`` is the moment matrix
``int Phi k k^H dt / 2 pi`` of the kernel ``k``, and ``Phi_c`` is the
maximum-entropy density with those moments (Georgiou, IEEE TAC 46(1),
2001; Byrnes, Georgiou and Lindquist, 2001).  The module uses numpy
alone and forms the Pick matrix from its definition, so it shares no
code with ``nevpick``: :func:`moment_matrix` checks the formula against
``Pick``, and ``Phi_c`` checks a solve at ``sigma_c`` against it.
:func:`leja_product` gives ``sigma_c``'s coefficients with little enough
rounding that the check at n = 28 measures the solve.
"""

import numpy as np


def pick_matrix(zeta: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``(w_k + conj(w_l)) / (1 - zeta_k conj(zeta_l))``."""
    return (w[:, None] + np.conj(w)[None, :]) / (1.0 - zeta[:, None] * np.conj(zeta)[None, :])


def kernel(zeta: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """``k_i(t) = 1 / (1 - zeta_i e^{it})``: one row per node, one column per angle."""
    return 1.0 / (1.0 - np.outer(zeta, np.exp(1j * thetas)))


def central_density(zeta: np.ndarray, w: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """``Phi_c`` at the angles ``thetas``."""
    e_0 = np.zeros(zeta.size)
    e_0[0] = 1.0
    x = np.linalg.solve(pick_matrix(zeta, w), e_0)
    return x[0].real / np.abs(x @ np.conj(kernel(zeta, thetas))) ** 2


def moment_matrix(zeta: np.ndarray, w: np.ndarray, points: int) -> np.ndarray:
    """``sum Phi_c k k^H / points`` over ``points`` equally spaced angles: the
    rectangle rule for ``int Phi_c k k^H dt / 2 pi``, which should be ``Pick``."""
    thetas = 2.0 * np.pi * np.arange(points) / points
    k = kernel(zeta, thetas)
    return (k * central_density(zeta, w, thetas)) @ k.conj().T / points


def leja_product(roots) -> np.ndarray:
    """Real parts of the coefficients of ``prod (z - r)`` over ``roots``
    (descending powers), with the factors multiplied in Leja order.  As in
    ``MonicPolynomial.from_roots``, the imaginary parts are dropped: bank
    poles are conjugate-closed only to rounding.

    The root of largest modulus comes first; each next one is the root not
    yet taken whose product of distances to those taken is largest (ties go
    to the lowest index).  In this order the coefficients come out about as
    accurate as a correctly rounded product, where the order of
    ``default_bank_poles`` loses about six digits at n = 28 near the circle
    (Calvetti and Reichel, Numer. Algorithms 33, 2003; Reichel, BIT 30, 1990).
    """
    roots = np.asarray(roots, dtype=complex)
    order = [int(np.argmax(np.abs(roots)))] if roots.size else []
    distances = np.ones(roots.size)
    for _ in range(1, roots.size):
        distances *= np.abs(roots - roots[order[-1]])
        distances[order] = -1.0
        order.append(int(np.argmax(distances)))
    return np.poly(roots[order]).real
