"""Post-solve analysis: numerical rank of P, model reduction, spectral density.

The singular values of the recovered matrix ``P`` reveal the smallest
degree of a positive-real interpolant consistent with the data (the
"positive degree"): values below a relative threshold are treated as zero.
Model reduction keeps the spectral zeros of largest modulus, restricts the
interpolation conditions, and re-solves at the lower order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .continuation import Solution, solve
from .polyalg import (
    DEFAULT_TAU_RANK,
    DEVIATION_FLOOR,
    SPECTRUM_POINTS,
    TOL_ROOT_PAIR,
    TOL_SYM,
    MonicPolynomial,
    conjugate_pairs,
    is_integer,
)
from .problem import InterpolationProblem

__all__ = [
    "DegreeReport",
    "RunRecord",
    "singular_values",
    "estimate_positive_degree",
    "dominant_zeros",
    "reduce_model",
    "spectral_density",
    "spectrum_angles",
    "log_spectral_deviation",
]

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

    @property
    def runs_attempted(self) -> int:
        return len(self.per_run)

    @property
    def runs_failed(self) -> int:
        return sum(1 for rec in self.per_run if not rec.ok)


def singular_values(P: np.ndarray) -> np.ndarray:
    """Singular values of a symmetric matrix, sorted descending."""
    P = np.asarray(P, dtype=float)
    if P.size == 0:
        return np.zeros(0)
    if np.abs(P - P.T).max() > TOL_SYM * max(1.0, np.abs(P).max()):
        raise ValueError("matrix must be symmetric")
    return np.linalg.svd(P, compute_uv=False)


def estimate_positive_degree(svals, tau_rank: float = DEFAULT_TAU_RANK) -> int:
    """Count of singular values at or above ``tau_rank`` times the largest."""
    s = np.asarray(svals, dtype=float)
    if s.size == 0 or s[0] <= 0.0:
        return 0
    if (np.diff(s) > 0).any():
        raise ValueError("singular values must be sorted descending")
    return int(np.count_nonzero(s >= tau_rank * s[0]))


def _conjugate_groups(points: np.ndarray):
    """Group a conjugate-closed point set into reals and conjugate pairs.

    Returns ``(modulus, |angle|, [indices])`` tuples; a pair contributes
    both indices, a real point stands alone.
    """
    points = np.asarray(points, dtype=complex)
    # one arctan2 call for all points (what np.angle computes): numpy's
    # arctan2 may differ from math.atan2 in the last bit, and the angles break ties
    angles = np.abs(np.arctan2(points.imag, points.real))
    groups = []
    for k, j in enumerate(conjugate_pairs(points, TOL_ROOT_PAIR * (1.0 + np.abs(points)))):
        if j is None:
            raise ValueError(f"point {points[k]} has no conjugate partner")
        if j >= k:
            groups.append((abs(points[k]), angles[k], [k] if j == k else [k, j]))
    return groups


def _fillable(count: int, singles: int, pairs: int) -> bool:
    """Whether ``count`` points can be made up of whole groups: ``singles``
    reals and ``pairs`` conjugate pairs."""
    return count >= 0 and count - 2 * min(pairs, count // 2) <= singles


def _select_groups(groups, count: int, what: str) -> list:
    """Members of ``count`` points' worth of groups, taken in rank order.

    A group is taken only when the count left after it can still be made
    up of the groups ranked behind it, so a pair that would overflow is
    skipped for a later real point.  Raises only when no conjugate-closed
    choice of ``count`` points exists.
    """
    sizes = [len(members) for _, _, members in groups]
    singles, pairs = sizes.count(1), sizes.count(2)
    if singles + 2 * pairs < count:
        raise ValueError(f"only {singles + 2 * pairs} {what} available, requested {count}")
    if not _fillable(count, singles, pairs):
        raise ValueError(f"cannot keep {count} {what} without splitting a conjugate pair")
    selected: list[int] = []
    for (_, _, members), size in zip(groups, sizes):
        singles, pairs = (singles - 1, pairs) if size == 1 else (singles, pairs - 1)
        if _fillable(count - len(selected) - size, singles, pairs):
            selected.extend(members)
    return selected


def dominant_zeros(zeros, m: int) -> list:
    """The ``m`` zeros of largest modulus, keeping conjugate pairs together.

    Moduli within ``TOL_ROOT_PAIR * (1 + |z|)`` of the largest modulus of
    a tie count as equal (computed roots of equal modulus differ in the
    last digits), and ties are broken by ascending angle.  A group that
    would leave a count no later groups can fill is skipped; raises when no
    conjugate-closed choice of ``m`` zeros exists.  ``m`` is a nonnegative
    integer (numpy integers included, booleans not); anything else raises
    ``ValueError``.
    """
    if not (is_integer(m) and m >= 0):
        raise ValueError(f"m must be a nonnegative integer, got {m!r}")
    zeros = np.asarray(zeros, dtype=complex)
    groups = _conjugate_groups(zeros)
    groups.sort(key=lambda g: -g[0])
    ranked, tie = [], []
    for group in groups:
        if tie and tie[0][0] - group[0] > TOL_ROOT_PAIR * (1.0 + tie[0][0]):
            ranked += sorted(tie, key=lambda g: g[1])
            tie = []
        tie.append(group)
    ranked += sorted(tie, key=lambda g: g[1])
    real = {members[0] for _, _, members in groups if len(members) == 1}
    # real representatives come back exactly real
    return [complex(zeros[k].real) if k in real else complex(zeros[k])
            for k in _select_groups(ranked, m, "zeros")]


def _default_kept_nodes(problem: InterpolationProblem, m: int) -> list:
    """Indices of the infinity node plus the ``m`` nodes of smallest
    reciprocal modulus (the closest filter-bank poles), pairs kept together."""
    zeta = problem.node_reciprocals()
    groups = _conjugate_groups(zeta[1:])
    groups.sort(key=lambda g: (g[0], g[1]))
    kept = _select_groups(groups, m, "interpolation nodes")
    return [0] + sorted(k + 1 for k in kept)


def reduce_model(solution: Solution, target_degree: int):
    """Re-solve at a lower degree using the dominant spectral zeros.

    Builds the reduced spectral-zero polynomial from the ``target_degree``
    zeros of largest modulus, keeps ``target_degree + 1`` of the original
    interpolation conditions (the infinity node plus the nodes of smallest
    reciprocal modulus), and solves the reduced problem.  Returns
    ``(reduced_problem, reduced_solution)``.
    """
    problem = solution.problem
    n = problem.n
    m = target_degree
    if not (is_integer(m) and 0 < m <= n):
        raise ValueError(f"target degree must be an integer in 1..{n}, got {m!r}")
    if m == n:
        sigma_red = problem.sigma
    else:
        zeros_kept = dominant_zeros(solution.diagnostics.spectral_zeros, m)
        sigma_red = MonicPolynomial.from_roots(zeros_kept)
    kept = _default_kept_nodes(problem, m)
    reduced = InterpolationProblem(
        tuple(problem.nodes[k] for k in kept),
        tuple(problem.values[k] for k in kept),
        sigma_red,
    )
    return reduced, solve(reduced)


def spectrum_angles() -> np.ndarray:
    """The angles ``theta_k = 2 pi k / N``, ``k = 0..N-1``, of the circle grid
    of ``N = SPECTRUM_POINTS`` points on which densities are evaluated."""
    return np.linspace(0.0, 2.0 * np.pi, SPECTRUM_POINTS, endpoint=False)


def _grid_moduli(coeffs: np.ndarray) -> np.ndarray:
    """``|c(e^{i theta_k})|`` on the :func:`spectrum_angles` grid for each row
    ``c`` of the real coefficient array ``coeffs``, from one FFT along the rows.

    For real ``c``, ``|FFT(c)_k| = |c(e^{i theta_k})|`` in either order of
    the coefficients.  Coefficients ``N`` apart multiply the same power on
    the grid (``z^N = 1`` there), so a degree at or above ``N`` is folded
    modulo ``N`` first, where ``fft(c, N)`` would truncate it.
    """
    from numpy.fft import fft   # loaded on first use: a solve needs no numpy.fft

    rows, width = coeffs.shape
    if width > SPECTRUM_POINTS:
        padded = np.pad(coeffs, ((0, 0), (0, -width % SPECTRUM_POINTS)))
        coeffs = padded.reshape(rows, -1, SPECTRUM_POINTS).sum(axis=1)
    return np.abs(fft(coeffs, SPECTRUM_POINTS))


def spectral_density(solution: Solution) -> np.ndarray:
    """Power spectral density ``scale * rho^2 |sigma(e^it)|^2 / |a(e^it)|^2``
    at the ``SPECTRUM_POINTS`` angles of :func:`spectrum_angles`.

    Equals ``2 Re f(e^it)`` of the (denormalized) interpolant pointwise.
    Both moduli come from one FFT of the stacked coefficients of ``sigma``
    and ``a``, whose cost does not grow with the degree.  The FFT's
    rounding error is absolute, about ``eps log N`` times the norm of the
    coefficients, so relative to the density it grows where ``|a(e^it)|``
    is small: on the reference instance (poles of modulus 0.99) the
    density is within 1.45e-12 of a 40-digit one, against 2.0e-13 for
    Horner's rule.
    """
    sigma, a = _grid_moduli(np.stack((solution.problem.sigma.coeffs, solution.a.coeffs)))
    return solution.scale * solution.rho**2 * sigma**2 / a**2


def log_spectral_deviation(full: Solution, reduced: Solution) -> float:
    """Relative L2 distance between the log spectral densities of the two
    solutions on the :func:`spectral_density` grid."""
    lf = np.log(spectral_density(full))
    lr = np.log(spectral_density(reduced))
    gap = lr - lf
    return math.sqrt(gap.dot(gap)) / max(math.sqrt(lf.dot(lf)), DEVIATION_FLOOR)
