import numpy as np
import pytest

from nevpick.polyalg import MonicPolynomial, build_S
from nevpick.problem import INF, InterpolationProblem, validate


def sym_coeffs(x, y) -> np.ndarray:
    """Coefficients of ``x(z) y(1/z) + y(z) x(1/z)`` by direct convolution.

    Independent of ``build_S``; serves as its cross-check.  Returns the
    ``z^k`` coefficients for ``k = 0, ..., n``.
    """
    a = np.asarray(x, dtype=float)
    b = np.asarray(y, dtype=float)
    if a.size != b.size:
        raise ValueError("coefficient vectors must have equal length")
    m = a.size
    return np.array([a[: m - k] @ b[k:] + b[: m - k] @ a[k:] for k in range(m)])

# ---------------------------------------------------------------------------
# Reference 8-point instance (degree 7): nodes, values, and spectral zeros,
# with the published solution coefficients used by the acceptance tests.
# ---------------------------------------------------------------------------

REFERENCE_NODES = (
    INF,
    0.3344 - 1.2044j,
    0.3344 + 1.2044j,
    0.8709 - 0.8967j,
    0.8709 + 0.8967j,
    1.1 + 0.0j,
    -0.6474 - 0.8893j,
    -0.6474 + 0.8893j,
)

REFERENCE_VALUES = (
    0.5 + 0.0j,
    0.5451 + 0.3645j,
    0.5451 - 0.3645j,
    0.7973 + 0.2568j,
    0.7973 - 0.2568j,
    0.7693 + 0.0j,
    0.7693 - 0.7693j,
    0.7693 + 0.7693j,
)

REFERENCE_SPECTRAL_ZEROS = (
    0.95 * np.exp(2.3j),
    0.95 * np.exp(-2.3j),
    0.95 * np.exp(1.22j),
    0.95 * np.exp(-1.22j),
    0.99j,
    -0.99j,
    -0.99 + 0.0j,
)

# published coefficients of the solution (descending powers, monic)
REFERENCE_B = (1.0, -1.364, 1.112, -0.3812, -0.4479, 1.119, -1.412, 0.8781)
# the z^3 coefficient is printed without a sign; compare it by magnitude
REFERENCE_A = (1.0, -1.771, 1.815, -1.205, 1.28, -1.814, 1.773, -0.8775)
REFERENCE_A_UNSIGNED_INDEX = 4


@pytest.fixture(scope="session")
def reference_problem():
    sigma = MonicPolynomial.from_roots(REFERENCE_SPECTRAL_ZEROS)
    return InterpolationProblem(REFERENCE_NODES, REFERENCE_VALUES, sigma)


@pytest.fixture(scope="session")
def reference_solution(reference_problem):
    from nevpick.continuation import solve

    return solve(reference_problem)


# ---------------------------------------------------------------------------
# Random-instance generators shared across test modules.
# ---------------------------------------------------------------------------


def random_schur_monic(rng, n, r_min=0.1, r_max=0.85):
    """Random real monic polynomial with all roots strictly inside the disk."""
    roots = []
    remaining = n
    if remaining % 2 == 1:
        roots.append(rng.uniform(-r_max, r_max) + 0.0j)
        remaining -= 1
    while remaining > 0:
        r = rng.uniform(r_min, r_max)
        th = rng.uniform(0.15, np.pi - 0.15)
        roots.extend([r * np.exp(1j * th), r * np.exp(-1j * th)])
        remaining -= 2
    return MonicPolynomial.from_roots(roots)


def random_nodes(rng, n, zeta_max=0.85):
    """Conjugate-closed node set (infinity plus n finite nodes, |z| > 1)."""
    zetas = []
    remaining = n
    if remaining % 2 == 1:
        z = rng.uniform(0.15, zeta_max) * rng.choice([-1.0, 1.0])
        zetas.append(complex(z))
        remaining -= 1
    while remaining > 0:
        r = rng.uniform(0.15, zeta_max)
        th = rng.uniform(0.2, np.pi - 0.2)
        zetas.extend([r * np.exp(1j * th), r * np.exp(-1j * th)])
        remaining -= 2
    if len({round(z.real, 9) + 1j * round(z.imag, 9) for z in zetas}) < len(zetas):
        return random_nodes(rng, n, zeta_max)
    return (INF,) + tuple(1.0 / z for z in zetas)


def positive_real_values(rng, n, nodes, r_max=0.85):
    """Values of a random strictly positive-real degree-n function at the nodes.

    The function is q(z)/a(z) where a is a random Schur polynomial and q
    solves the symmetrized-coefficient system against a random Schur
    numerator spectrum, so q(z)a(1/z) + a(z)q(1/z) > 0 on the circle.
    """
    a = random_schur_monic(rng, n, r_max=r_max)
    s = random_schur_monic(rng, n, r_max=r_max)
    rhs = 0.5 * sym_coeffs(s.coeffs, s.coeffs)
    q = np.linalg.solve(build_S(a.coeffs), rhs)
    values = []
    for z in nodes:
        zeta = 0.0 if np.isinf(complex(z).real) or np.isinf(complex(z).imag) else 1.0 / z
        values.append(np.polyval(q[::-1], zeta) / np.polyval(a.coeffs[::-1], zeta))
    values[0] = complex(values[0].real, 0.0)
    return tuple(values)


def random_problem(rng, n, max_tries=200, pick_floor=1e-5):
    """Random valid interpolation problem (positive-definite Pick matrix).

    Draws are restricted to well-posed instances: the Pick spectrum must not
    be nearly singular (relative floor ``pick_floor``), keeping the sampled
    problems away from the boundary of the solvable class where interpolant
    poles collapse onto the unit circle.
    """
    from nevpick.problem import pick_matrix

    for _ in range(max_tries):
        nodes = random_nodes(rng, n, zeta_max=0.75)
        values = positive_real_values(rng, n, nodes, r_max=0.75)
        sigma = random_schur_monic(rng, n, r_max=0.75)
        problem = InterpolationProblem(nodes, values, sigma)
        if validate(problem):
            continue
        eigs = np.linalg.eigvalsh(pick_matrix(problem))
        if eigs[0] > pick_floor * eigs[-1]:
            return problem
    raise RuntimeError("failed to draw a valid random problem")
