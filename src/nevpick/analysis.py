"""Post-solve analysis: numerical rank of P, model reduction, spectral density.

The singular values of the recovered matrix ``P`` reveal the smallest
degree of a positive-real interpolant consistent with the data (the
"positive degree"): values below a relative threshold are treated as zero.
Model reduction keeps the spectral zeros of largest modulus, restricts the
interpolation conditions, and re-solves at the lower order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .continuation import Solution, SolveOptions, solve
from .polyalg import TOL_ROOT_PAIR, MonicPolynomial, conjugate_pairs
from .problem import InterpolationProblem

__all__ = [
    "DegreeReport",
    "RunRecord",
    "singular_values",
    "estimate_positive_degree",
    "dominant_zeros",
    "reduce_model",
    "spectral_density",
    "log_spectral_deviation",
]

#: default relative threshold separating "numerically nonzero" singular values
DEFAULT_TAU_RANK = 1e-2


@dataclass(frozen=True, eq=False)
class RunRecord:
    """Outcome of one Monte Carlo run (singular values or an error message)."""

    run: int
    seed: int
    singular_values: np.ndarray | None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.singular_values is not None


@dataclass(frozen=True, eq=False)
class DegreeReport:
    """Estimated positive degree plus the full spectrum it was read from.

    ``singular_values`` is the per-run mean when several runs contributed;
    the full spectrum is always carried so callers can apply their own
    threshold judgment.
    """

    singular_values: np.ndarray
    estimated_degree: int
    threshold: float
    per_run: tuple = ()
    runs_failed: int = 0

    @property
    def runs_attempted(self) -> int:
        return len(self.per_run)


def singular_values(P: np.ndarray) -> np.ndarray:
    """Singular values of a symmetric matrix, sorted descending."""
    P = np.asarray(P, dtype=float)
    if P.size == 0:
        return np.zeros(0)
    if np.max(np.abs(P - P.T)) > 1e-8 * max(1.0, np.max(np.abs(P))):
        raise ValueError("matrix must be symmetric")
    return np.linalg.svd(P, compute_uv=False)


def estimate_positive_degree(svals, tau_rank: float = DEFAULT_TAU_RANK) -> int:
    """Count of singular values at or above ``tau_rank`` times the largest."""
    s = np.asarray(svals, dtype=float)
    if s.size == 0 or s[0] <= 0.0:
        return 0
    if np.any(np.diff(s) > 0):
        raise ValueError("singular values must be sorted descending")
    return int(np.count_nonzero(s >= tau_rank * s[0]))


def _conjugate_groups(points: np.ndarray):
    """Group a conjugate-closed point set into reals and conjugate pairs.

    Returns ``(modulus, |angle|, [indices])`` tuples; a pair contributes
    both indices, a real point stands alone.
    """
    points = np.asarray(points, dtype=complex)
    groups = []
    for k, j in enumerate(conjugate_pairs(points, TOL_ROOT_PAIR * (1.0 + np.abs(points)))):
        if j is None:
            raise ValueError(f"point {points[k]} has no conjugate partner")
        if j >= k:
            z = points[k]
            groups.append((abs(z), abs(np.angle(z)), [k] if j == k else [k, j]))
    return groups


def _select_groups(groups, count: int, what: str) -> list:
    selected: list[int] = []
    for _, _, members in groups:
        if len(selected) == count:
            break
        if len(selected) + len(members) > count:
            raise ValueError(
                f"cannot keep {count} {what} without splitting a conjugate pair"
            )
        selected.extend(members)
    if len(selected) != count:
        raise ValueError(f"only {len(selected)} {what} available, requested {count}")
    return selected


def dominant_zeros(zeros, m: int) -> list:
    """The ``m`` zeros of largest modulus, keeping conjugate pairs together.

    Ties in modulus are broken by ascending angle.  Raises when the
    selection would split a conjugate pair.
    """
    zeros = np.asarray(zeros, dtype=complex)
    groups = _conjugate_groups(zeros)
    groups.sort(key=lambda g: (-g[0], g[1]))
    real = {members[0] for _, _, members in groups if len(members) == 1}
    # real representatives come back exactly real
    return [complex(zeros[k].real) if k in real else complex(zeros[k])
            for k in _select_groups(groups, m, "zeros")]


def _default_kept_nodes(problem: InterpolationProblem, m: int) -> list:
    """Indices of the infinity node plus the ``m`` nodes of smallest
    reciprocal modulus (the closest filter-bank poles), pairs kept together."""
    zeta = problem.node_reciprocals()
    groups = _conjugate_groups(zeta[1:])
    groups.sort(key=lambda g: (g[0], g[1]))
    kept = _select_groups(groups, m, "interpolation nodes")
    return [0] + sorted(k + 1 for k in kept)


def reduce_model(
    solution: Solution,
    target_degree: int,
    keep_nodes=None,
    opts: SolveOptions | None = None,
):
    """Re-solve at a lower degree using the dominant spectral zeros.

    Builds the reduced spectral-zero polynomial from the ``target_degree``
    zeros of largest modulus, keeps ``target_degree + 1`` of the original
    interpolation conditions (by default the infinity node plus the nodes
    of smallest reciprocal modulus; pass ``keep_nodes`` index list to
    override), and solves the reduced problem.  Returns
    ``(reduced_problem, reduced_solution)``.
    """
    problem = solution.problem
    n = problem.n
    m = int(target_degree)
    if not 0 < m <= n:
        raise ValueError(f"target degree must be in 1..{n}, got {m}")
    if m == n:
        sigma_red = problem.sigma
    else:
        zeros_kept = dominant_zeros(solution.diagnostics.spectral_zeros, m)
        sigma_red = MonicPolynomial.from_roots(zeros_kept)
    if keep_nodes is None:
        kept = _default_kept_nodes(problem, m)
    else:
        kept = list(keep_nodes)
        if len(kept) != m + 1 or kept[0] != 0:
            raise ValueError("keep_nodes must list m + 1 indices starting with 0")
    reduced = InterpolationProblem(
        tuple(problem.nodes[k] for k in kept),
        tuple(problem.values[k] for k in kept),
        sigma_red,
    )
    return reduced, solve(reduced, opts)


def spectral_density(solution: Solution, thetas) -> np.ndarray:
    """Power spectral density ``scale * rho^2 |sigma(e^it)|^2 / |a(e^it)|^2``.

    Equals ``2 Re f(e^it)`` of the (denormalized) interpolant pointwise.
    """
    z = np.exp(1j * np.asarray(thetas, dtype=float))
    num = np.abs(np.polyval(solution.problem.sigma.coeffs, z)) ** 2
    den = np.abs(np.polyval(solution.a.coeffs, z)) ** 2
    return solution.scale * solution.rho**2 * num / den


def log_spectral_deviation(full: Solution, reduced: Solution, num_points: int = 256) -> float:
    """Relative L2 distance between log spectral densities on a circle grid."""
    thetas = np.linspace(0.0, 2.0 * np.pi, num_points, endpoint=False)
    lf = np.log(spectral_density(full, thetas))
    lr = np.log(spectral_density(reduced, thetas))
    denom = float(np.linalg.norm(lf))
    return float(np.linalg.norm(lr - lf)) / max(denom, 1e-12)
