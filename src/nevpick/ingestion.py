"""Interpolation-data generation from simulated time series.

Unit-variance Gaussian white noise is passed through a stable rational
filter ``sigma(z)/a(z)``; the output runs through a bank of first-order
filters ``z / (z - p_k)`` whose poles double as reciprocal interpolation
nodes.  The value of the underlying positive-real function at ``1/p_k`` is

    ``f(1/p_k) = (1 - p_k^2) E[u_k^2] / 2``

estimated by the sample second moment of the bank output (the plain
square, not the squared magnitude, so complex poles produce the complex
analytic continuation of the real-pole case).  An exact, noise-free
variant evaluates ``f`` directly from the filter, for tests and sharp
degree detection.  The Monte Carlo driver repeats the full pipeline
(simulate, filter, estimate, solve, singular values) with per-run seeds.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter

from .analysis import (
    DEFAULT_TAU_RANK,
    DegreeReport,
    RunRecord,
    estimate_positive_degree,
    singular_values,
)
from .continuation import SOLVE_ERRORS, PathError, SolveOptions, solve
from .polyalg import TOL_NODE, MonicPolynomial, build_S, conjugate_pairs, roots_and_schur
from .problem import INF, InterpolationProblem, is_positive_definite, pick_matrix, require_distinct

__all__ = [
    "FilterBankSpec",
    "MonteCarloConfig",
    "default_bank_poles",
    "nodes_from_poles",
    "simulate_arma",
    "filter_bank",
    "estimate_values",
    "positive_real_numerator",
    "exact_values",
    "embed_sigma",
    "run_problem",
    "monte_carlo",
]


def default_bank_poles(n: int, radius: float = 0.7) -> np.ndarray:
    """Conjugate-closed bank poles: 0 plus ``n`` points on a circle.

    The ``n`` nonzero poles sit equally spaced on the circle of the given
    radius, rotated off the real axis for even ``n``; odd ``n`` keeps one
    real pole at ``+radius``.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    k = np.arange(n)
    if n % 2 == 0:
        angles = (2 * k + 1) * np.pi / n if n else np.zeros(0)
    else:
        angles = 2 * np.pi * k / n
    return np.concatenate(([0.0 + 0.0j], radius * np.exp(1j * angles)))


def nodes_from_poles(poles) -> tuple:
    """Interpolation nodes ``1/p_k`` with the zero pole mapped to infinity."""
    nodes = []
    for p in poles:
        p = complex(p)
        nodes.append(INF if p == 0 else 1.0 / p)
    return tuple(nodes)


@dataclass(frozen=True, eq=False)
class FilterBankSpec:
    """Bank poles plus sampling controls for one estimation run."""

    poles: tuple
    samples: int
    burn_in: int = 1000
    seed: int = 0

    def __post_init__(self):
        poles = tuple(complex(p) for p in self.poles)
        if not poles or poles[0] != 0:
            raise ValueError("poles[0] must be 0 (the node at infinity)")
        if any(abs(p) >= 1.0 for p in poles):
            raise ValueError("all bank poles must satisfy |p| < 1")
        require_distinct(poles, "bank poles")
        if None in conjugate_pairs(poles, TOL_NODE):
            raise ValueError("bank poles must be closed under conjugation")
        if self.samples <= 0 or self.burn_in < 0:
            raise ValueError("samples must be positive and burn_in nonnegative")
        object.__setattr__(self, "poles", poles)

    @property
    def n(self) -> int:
        return len(self.poles) - 1


def simulate_arma(
    sigma: MonicPolynomial,
    a: MonicPolynomial,
    samples: int,
    burn_in: int = 1000,
    seed: int = 0,
) -> np.ndarray:
    """Simulate ``y_t = sum_i sigma_i e_(t-i) - sum_j a_j y_(t-j)``.

    ``e`` is unit-variance Gaussian white noise from a seeded generator;
    the recursion starts from zero state and the first ``burn_in`` outputs
    are discarded.  Deterministic per seed.
    """
    if sigma.degree != a.degree:
        raise ValueError("sigma and a must have the same degree")
    if not roots_and_schur(a)[1]:
        raise ValueError("filter denominator is not Schur stable")
    rng = np.random.default_rng(seed)
    e = rng.standard_normal(samples + burn_in)
    y = lfilter(sigma.coeffs, a.coeffs, e)
    return y[burn_in:]


def filter_bank(y: np.ndarray, spec: FilterBankSpec) -> np.ndarray:
    """Run ``y`` through every first-order section ``u_t = p u_(t-1) + y_t``.

    Returns an array of shape ``(n + 1, len(y))``; rows for complex poles
    are complex, and conjugate poles produce exactly conjugate rows.
    """
    y = np.asarray(y, dtype=float)
    out = np.empty((len(spec.poles), y.size), dtype=complex)
    for k, p in enumerate(spec.poles):
        out[k] = lfilter([1.0], [1.0, -p], y)
    return out


def estimate_values(bank_outputs: np.ndarray, spec: FilterBankSpec) -> np.ndarray:
    """Interpolation-value estimates ``(1 - p_k^2) mean(u_k^2) / 2``.

    The plain second moment keeps conjugate poles producing conjugate
    estimates; conjugate symmetry is then enforced exactly by averaging
    each estimate with the conjugate of its partner (which also forces the
    value at infinity to be real).  A warning is emitted when the implied
    Pick matrix is not positive definite (typically a short sample).
    """
    poles = np.asarray(spec.poles)
    second_moment = np.mean(bank_outputs**2, axis=1)
    w = 0.5 * (1.0 - poles**2) * second_moment
    w = 0.5 * (w + np.conj(w[conjugate_pairs(poles, TOL_NODE)]))
    probe = InterpolationProblem(
        nodes_from_poles(poles), tuple(w), MonicPolynomial.from_roots([0.0] * spec.n)
    )
    if not is_positive_definite(pick_matrix(probe)):
        warnings.warn(
            "estimated values give a non-positive-definite Pick matrix; "
            "consider increasing the sample count",
            RuntimeWarning,
            stacklevel=2,
        )
    return w


def positive_real_numerator(sigma: MonicPolynomial, a: MonicPolynomial) -> np.ndarray:
    """Numerator ``q`` of the positive-real function matching a spectral factor.

    Solves the linear system making ``q(z) a(1/z) + a(z) q(1/z)`` match the
    autocorrelation coefficients of ``sigma``, so ``f = q/a`` satisfies
    ``f(z) + f(1/z) = sigma(z) sigma(1/z) / (a(z) a(1/z))``.
    """
    if sigma.degree != a.degree:
        raise ValueError("sigma and a must have the same degree")
    rhs = 0.5 * (build_S(sigma.coeffs) @ sigma.coeffs)
    return np.linalg.solve(build_S(a.coeffs), rhs)


def exact_values(sigma: MonicPolynomial, a: MonicPolynomial, poles) -> np.ndarray:
    """Noise-free interpolation values ``f(1/p_k)`` of the true filter."""
    q = positive_real_numerator(sigma, a)
    zeta = np.asarray([complex(p) for p in poles])
    vals = np.polyval(q[::-1], zeta) / np.polyval(a.coeffs[::-1], zeta)
    vals[np.abs(zeta) == 0] = vals[np.abs(zeta) == 0].real
    return vals


def embed_sigma(sigma: MonicPolynomial, order: int) -> MonicPolynomial:
    """Pad a spectral-zero polynomial with zeros at the origin up to ``order``."""
    extra = order - sigma.degree
    if extra < 0:
        raise ValueError("order must be at least the degree of sigma")
    return MonicPolynomial(np.concatenate((sigma.coeffs, np.zeros(extra))))


@dataclass(frozen=True, eq=False)
class MonteCarloConfig:
    """Full pipeline configuration for degree detection.

    ``variant`` is ``"monte-carlo"`` (simulate, filter, estimate) or
    ``"exact"`` (noise-free true values).  ``sigma_hat`` defaults to the
    true zeros padded with zeros at the origin up to ``order``.  Per-run
    seeds are ``seed ^ run_index``.
    """

    sigma: MonicPolynomial
    a: MonicPolynomial
    order: int
    sigma_hat: MonicPolynomial | None = None
    poles: tuple | None = None
    samples: int = 10_000
    burn_in: int = 1000
    seed: int = 0
    runs: int = 1
    variant: str = "monte-carlo"
    tau_rank: float = DEFAULT_TAU_RANK

    def __post_init__(self):
        if self.variant not in ("monte-carlo", "exact"):
            raise ValueError("variant must be 'monte-carlo' or 'exact'")
        if self.order < self.sigma.degree:
            raise ValueError("order must be at least the true degree")
        if self.runs < 1:
            raise ValueError("runs must be positive")
        if self.poles is not None and len(self.poles) != self.order + 1:
            raise ValueError(f"bank_poles must list order + 1 = {self.order + 1} poles")
        if self.sigma_hat is not None and self.sigma_hat.degree != self.order:
            raise ValueError(f"sigma_hat must have degree order = {self.order}")


def run_problem(config: MonteCarloConfig, seed: int) -> tuple:
    """The data of one run: ``(problem, y)``.

    The ``"monte-carlo"`` variant simulates the series ``y`` with ``seed``,
    runs the bank and estimates the values (its Pick warning is silenced;
    the problem is validated downstream); the ``"exact"`` variant takes the
    true values and has no series (``y`` is None).
    """
    if config.poles is None:
        poles = tuple(default_bank_poles(config.order))
    else:
        poles = tuple(complex(p) for p in config.poles)
    y = None
    if config.variant == "exact":
        values = exact_values(config.sigma, config.a, poles)
    else:
        spec = FilterBankSpec(poles=poles, samples=config.samples, burn_in=config.burn_in,
                              seed=seed)
        y = simulate_arma(config.sigma, config.a, config.samples, config.burn_in, seed)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            values = estimate_values(filter_bank(y, spec), spec)
    problem = InterpolationProblem(
        nodes_from_poles(poles), tuple(values),
        config.sigma_hat or embed_sigma(config.sigma, config.order),
    )
    return problem, y


def monte_carlo(config: MonteCarloConfig, solve_opts: SolveOptions | None = None) -> DegreeReport:
    """Repeat the pipeline ``config.runs`` times and aggregate singular values.

    Runs are independent (each with seed ``seed ^ run_index``).  A run that
    fails with one of the solver's typed errors is recorded, excluded from
    the mean, and counted; any other exception propagates.  Raises
    :class:`PathError` when every run fails.
    """
    records = []
    for r in range(config.runs):
        seed_r = config.seed ^ r
        try:
            problem, _ = run_problem(config, seed_r)
            sv = singular_values(solve(problem, solve_opts).P)
            records.append(RunRecord(run=r, seed=seed_r, singular_values=sv))
        except SOLVE_ERRORS as exc:
            records.append(
                RunRecord(run=r, seed=seed_r, singular_values=None,
                          error=f"{type(exc).__name__}: {exc}")
            )
    good = [rec.singular_values for rec in records if rec.ok]
    if not good:
        raise PathError("all Monte Carlo runs failed: " + (records[0].error or ""))
    mean_sv = np.mean(good, axis=0)
    return DegreeReport(
        singular_values=mean_sv,
        estimated_degree=estimate_positive_degree(mean_sv, config.tau_rank),
        threshold=config.tau_rank,
        per_run=tuple(records),
        runs_failed=sum(1 for rec in records if not rec.ok),
    )
