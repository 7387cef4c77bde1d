"""Interpolation-data generation from simulated time series.

Unit-variance Gaussian white noise is passed through a stable rational
filter ``sigma(z)/a(z)``; the output runs through a bank of first-order
filters ``z / (z - p_k)`` whose poles double as reciprocal interpolation
nodes.  The value of the underlying positive-real function at ``1/p_k`` is

    ``f(1/p_k) = (1 - p_k^2) E[u_k^2] / 2``

estimated by the sample second moment of the bank output (the plain
square, not the squared magnitude, so complex poles produce the complex
analytic continuation of the real-pole case).  The bank filters each
conjugate pair of poles once, in place in its own row of the bank, through
the private kernel of ``scipy.signal.sosfilt`` (the public wrapper would
filter a complex copy of the series and cost a per-call overhead), and
writes the partner's row as its exact conjugate; pole 0 passes ``y``
through unfiltered.  An exact, noise-free
variant evaluates ``f`` directly from the filter, for tests and sharp
degree detection.  The Monte Carlo driver repeats the full pipeline
(simulate, filter, estimate, solve, singular values) with per-run seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .analysis import DegreeReport, RunRecord, estimate_positive_degree
from .continuation import SOLVE_ERRORS, PathError, solve
from .polyalg import (BANK_RADIUS, BURN_IN, DEFAULT_TAU_RANK, SAMPLES, TOL_NODE,
                      MonicPolynomial, build_S, conjugate_pairs, is_integer, is_schur)
from .problem import INF, InterpolationProblem, coincident_pairs

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


def default_bank_poles(n: int) -> np.ndarray:
    """Conjugate-closed bank poles: 0 plus ``n`` points on a circle.

    The ``n`` nonzero poles sit equally spaced on the circle of radius
    ``BANK_RADIUS``, rotated off the real axis for even ``n``; odd ``n``
    keeps one real pole at ``+BANK_RADIUS``.  ``n`` is a nonnegative
    integer (numpy integers included, booleans not).
    """
    if not (is_integer(n) and n >= 0):
        raise ValueError(f"n must be a nonnegative integer, got {n!r}")
    k = np.arange(n)
    if n % 2 == 0:
        angles = (2 * k + 1) * np.pi / n
    else:
        angles = 2 * np.pi * k / n
    return np.concatenate(([0.0 + 0.0j], BANK_RADIUS * np.exp(1j * angles)))


def nodes_from_poles(poles) -> tuple:
    """Interpolation nodes ``1/p_k`` with the zero pole mapped to infinity."""
    nodes = []
    for p in poles:
        p = complex(p)
        nodes.append(INF if p == 0 else 1.0 / p)
    return tuple(nodes)


def _check_counts(samples, burn_in, seed) -> None:
    """The rule for a series' sample counts and seed: ``samples`` a positive
    and ``burn_in`` and ``seed`` nonnegative integers (numpy integers
    included, booleans not)."""
    if not (is_integer(samples) and samples > 0):
        raise ValueError(f"samples must be a positive integer, got {samples!r}")
    if not (is_integer(burn_in) and burn_in >= 0):
        raise ValueError(f"burn_in must be a nonnegative integer, got {burn_in!r}")
    if not (is_integer(seed) and seed >= 0):
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")


def _check_filter(sigma: MonicPolynomial, a: MonicPolynomial) -> None:
    """The rule for a filter ``sigma(z)/a(z)``: ``sigma`` and ``a`` of the same
    degree, and ``a`` Schur stable (every root inside the unit circle)."""
    if sigma.degree != a.degree:
        raise ValueError("sigma and a must have the same degree")
    if not is_schur(a):
        raise ValueError("filter denominator a is not Schur stable")


@dataclass(frozen=True, eq=False)
class FilterBankSpec:
    """Bank poles plus sampling controls for one estimation run.

    ``partners`` is derived, not passed: ``partners[k]`` is the index of the
    conjugate of ``poles[k]`` (``k`` itself for a real pole).  ``samples``
    is a positive and ``burn_in`` and ``seed`` nonnegative integers (numpy
    integers included, booleans not).
    """

    poles: tuple
    samples: int
    burn_in: int = BURN_IN
    seed: int = 0             # checked, then read by nothing in the package
    partners: tuple = field(init=False, repr=False)

    def __post_init__(self):
        poles = tuple(complex(p) for p in self.poles)
        if not poles or poles[0] != 0:
            raise ValueError("poles[0] must be 0 (the node at infinity)")
        if not all(abs(p) < 1.0 for p in poles):     # a NaN pole fails too
            raise ValueError("all bank poles must satisfy |p| < 1")
        coincident = coincident_pairs(poles)
        if coincident:
            raise ValueError("bank poles {} and {} coincide".format(*coincident[0]))
        partners = conjugate_pairs(poles, TOL_NODE)
        if None in partners:
            raise ValueError("bank poles must be closed under conjugation")
        _check_counts(self.samples, self.burn_in, self.seed)
        object.__setattr__(self, "poles", poles)
        object.__setattr__(self, "partners", tuple(partners))


def simulate_arma(
    sigma: MonicPolynomial,
    a: MonicPolynomial,
    samples: int,
    burn_in: int = BURN_IN,
    seed: int = 0,
) -> np.ndarray:
    """Simulate ``y_t = sum_i sigma_i e_(t-i) - sum_j a_j y_(t-j)``.

    ``e`` is unit-variance Gaussian white noise from a seeded generator;
    the recursion starts from zero state and the first ``burn_in`` outputs
    are discarded.  Deterministic per seed.  ``samples``, ``burn_in`` and
    ``seed`` follow :class:`FilterBankSpec`'s rule, and ``sigma`` and ``a``
    the filter rule (same degree, ``a`` Schur stable); a breach of either
    raises ``ValueError``.
    """
    _check_counts(samples, burn_in, seed)
    _check_filter(sigma, a)
    # imported here, not at module level: solving never needs it
    from scipy.signal import lfilter

    rng = np.random.default_rng(seed)
    e = rng.standard_normal(samples + burn_in)
    y = lfilter(sigma.coeffs, a.coeffs, e)
    return y[burn_in:]


def filter_bank(y, spec: FilterBankSpec) -> np.ndarray:
    """Run ``y`` through every first-order section ``u_t = p u_(t-1) + y_t``.

    ``y`` is a nonempty 1-d real series; anything else raises
    ``ValueError``.  Returns an array of shape ``(n + 1, len(y))``.  The row
    of pole 0 is ``y`` itself; a real pole is filtered in real arithmetic by
    ``lfilter``; each conjugate pair of poles is filtered once, in place in
    its row, as the one-pole section ``[1, 0, 0, 1, -p, 0]`` of
    ``sosfilt``'s kernel (bit-identical to ``lfilter``'s complex path, and
    about twice as fast), and the partner's row is the exact conjugate of
    its row.
    """
    y = np.asarray(y)
    if y.ndim != 1 or y.size == 0 or np.iscomplexobj(y):
        raise ValueError("y must be a nonempty 1-d real series")
    from scipy.signal import lfilter
    # sosfilt(sos, x) makes a C-ordered complex copy of x and filters it in
    # place with this kernel, after a per-call overhead of about 16 us; the
    # bank row is already C-contiguous and complex, so the kernel filters it
    # where it lies, with the same bits and no copy.  Imported here, not at
    # module level: solving never needs it.
    from scipy.signal._sosfilt import _sosfilt

    y = np.asarray(y, dtype=float)
    out = np.empty((len(spec.poles), y.size), dtype=complex)
    for k, j in enumerate(spec.partners):
        p = spec.poles[k]
        if p == 0:
            out[k] = y
        elif j == k:
            out[k] = lfilter([1.0], [1.0, -p.real], y)
        elif k < j:
            out[k] = y
            sos = np.array([[1.0, 0.0, 0.0, 1.0, -p, 0.0]], dtype=complex)
            _sosfilt(sos, out[k:k + 1], np.zeros((1, 1, 2), dtype=complex))
            np.conjugate(out[k], out=out[j])
    return out


def estimate_values(bank_outputs: np.ndarray, spec: FilterBankSpec) -> np.ndarray:
    """Interpolation-value estimates ``(1 - p_k^2) mean(u_k^2) / 2``.

    The plain second moment keeps conjugate poles producing conjugate
    estimates.  A row's moment is one dot product ``u_k @ u_k / N`` (``@``
    does not conjugate), so no copy of the bank is made; it is formed once
    per conjugate pair, and the partner's is its exact conjugate, as the
    partner row is in the bank ``filter_bank`` makes.  The poles of a pair
    are conjugate only within ``TOL_NODE``, so conjugate symmetry is then
    enforced exactly by averaging each estimate with the conjugate of its
    partner (which also forces the value at infinity to be real).  A short
    sample can give values whose Pick matrix is not positive definite;
    ``validate`` reports that as ``pick-not-pd`` when they are solved.  The
    bank must have one row per pole of ``spec``, as ``filter_bank(y, spec)``
    makes it; any other row count raises ``ValueError``.
    """
    if len(bank_outputs) != len(spec.poles):
        raise ValueError(f"the bank must have {len(spec.poles)} rows, got {len(bank_outputs)}")
    poles = np.asarray(spec.poles)
    moment = np.empty(len(poles), dtype=bank_outputs.dtype)
    for k, j in enumerate(spec.partners):
        if k <= j:
            moment[k] = bank_outputs[k] @ bank_outputs[k]
        if k < j:
            moment[j] = np.conj(moment[k])
    w = 0.5 * (1.0 - poles**2) * (moment / bank_outputs.shape[1])
    return 0.5 * (w + np.conj(w[list(spec.partners)]))


def positive_real_numerator(sigma: MonicPolynomial, a: MonicPolynomial) -> np.ndarray:
    """Numerator ``q`` of the positive-real function matching a spectral factor.

    Solves the linear system making ``q(z) a(1/z) + a(z) q(1/z)`` match the
    autocorrelation coefficients of ``sigma``, so ``f = q/a`` satisfies
    ``f(z) + f(1/z) = sigma(z) sigma(1/z) / (a(z) a(1/z))``.  ``f`` is
    positive real only for a Schur-stable ``a``: a filter that breaks the
    filter rule of :func:`simulate_arma` raises ``ValueError``.
    """
    _check_filter(sigma, a)
    rhs = 0.5 * (build_S(sigma.coeffs) @ sigma.coeffs)
    return np.linalg.solve(build_S(a.coeffs), rhs)


def exact_values(sigma: MonicPolynomial, a: MonicPolynomial, poles) -> np.ndarray:
    """Noise-free interpolation values ``f(1/p_k)`` of the true filter.

    ``sigma`` and ``a`` follow the filter rule of :func:`simulate_arma`
    (checked by :func:`positive_real_numerator`; ``ValueError`` otherwise).
    """
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


#: The data variants of a Monte Carlo configuration, the default first:
#: simulate, filter and estimate; or take the noise-free true values.
VARIANTS = ("monte-carlo", "exact")


@dataclass(frozen=True, eq=False)
class MonteCarloConfig:
    """Full pipeline configuration for degree detection.

    ``variant`` is one of :data:`VARIANTS`: Monte Carlo (simulate, filter,
    estimate), the default, or exact (noise-free true values).
    ``sigma_hat`` defaults to the true zeros padded with zeros at the
    origin up to ``order`` (``embed_sigma(sigma, order)``), and ``poles`` to
    ``default_bank_poles(order)``.  ``sigma_hat`` is resolved at
    construction and is never ``None`` afterwards: the given or padded
    polynomial, checked once to have degree ``order`` and to be Schur
    stable, and shared by every run.  ``sigma`` and ``a`` follow the filter
    rule of :func:`simulate_arma`.
    ``spec`` is derived, not passed: the checked bank of every run.  Per-run
    seeds are drawn from ``np.random.SeedSequence(seed).spawn(runs)``.
    ``samples`` and ``burn_in`` default to ``SAMPLES`` and ``BURN_IN`` of
    the table in :mod:`nevpick.polyalg`.  ``tau_rank``, the
    threshold of the degree estimate, lies in ``(0, 1]``.  ``order``,
    ``runs``, ``samples``, ``burn_in`` and ``seed`` are integers (numpy
    integers included, booleans not); the last three are checked by ``spec``.
    """

    sigma: MonicPolynomial
    a: MonicPolynomial
    order: int
    sigma_hat: MonicPolynomial | None = None
    poles: tuple | None = None
    samples: int = SAMPLES
    burn_in: int = BURN_IN
    seed: int = 0
    runs: int = 1
    variant: str = VARIANTS[0]
    tau_rank: float = DEFAULT_TAU_RANK
    spec: FilterBankSpec = field(init=False, repr=False)

    def __post_init__(self):
        order, degree = self.order, self.sigma.degree
        if not (is_integer(order) and order >= degree):
            raise ValueError(f"order must be an integer of at least {degree}, got {order!r}")
        if self.variant not in VARIANTS:
            raise ValueError("variant must be " + " or ".join(map(repr, VARIANTS)))
        if not (is_integer(self.runs) and self.runs >= 1):
            raise ValueError(f"runs must be a positive integer, got {self.runs!r}")
        if not 0 < self.tau_rank <= 1:
            raise ValueError(f"tau_rank must lie in (0, 1], got {self.tau_rank}")
        _check_filter(self.sigma, self.a)
        if self.poles is not None and len(self.poles) != order + 1:
            raise ValueError(f"bank_poles must list order + 1 = {order + 1} poles")
        sigma_hat = embed_sigma(self.sigma, order) if self.sigma_hat is None else self.sigma_hat
        if sigma_hat.degree != order:
            raise ValueError(f"sigma_hat must have degree order = {order}")
        if not is_schur(sigma_hat):
            raise ValueError("sigma_hat (given, or sigma padded with zeros) is not Schur stable")
        object.__setattr__(self, "sigma_hat", sigma_hat)
        poles = default_bank_poles(order) if self.poles is None else self.poles
        object.__setattr__(self, "spec", FilterBankSpec(
            poles=poles, samples=self.samples, burn_in=self.burn_in, seed=self.seed))


def run_problem(config: MonteCarloConfig, seed: int) -> tuple:
    """The data of one run: ``(problem, y)``.

    The Monte Carlo variant, the first of :data:`VARIANTS`, simulates the
    series ``y`` with ``seed``, runs the bank and estimates the values (the
    problem is validated when it is solved); the exact variant takes the
    true values and has no series (``y`` is None).  Every run's problem
    takes the one ``config.sigma_hat`` resolved at construction.
    """
    spec = config.spec
    if config.variant == VARIANTS[0]:
        y = simulate_arma(config.sigma, config.a, config.samples, config.burn_in, seed)
        values = estimate_values(filter_bank(y, spec), spec)
    else:
        y, values = None, exact_values(config.sigma, config.a, spec.poles)
    problem = InterpolationProblem(
        nodes_from_poles(spec.poles), tuple(values), config.sigma_hat)
    return problem, y


def monte_carlo(config: MonteCarloConfig) -> DegreeReport:
    """Repeat the pipeline ``config.runs`` times and aggregate singular values.

    Run ``r`` simulates with ``int(children[r].generate_state(1)[0])`` of
    ``children = np.random.SeedSequence(config.seed).spawn(config.runs)``, so
    adjacent base seeds do not share runs; the seed is recorded, and
    ``run_problem(config, seed)`` reproduces the run.  A run that fails with
    one of the solver's typed errors is recorded, excluded from the mean, and
    counted; any other exception propagates.  Raises :class:`PathError` when
    every run fails.
    """
    records = []
    for r, child in enumerate(np.random.SeedSequence(config.seed).spawn(config.runs)):
        seed_r = int(child.generate_state(1)[0])
        try:
            problem, _ = run_problem(config, seed_r)
            sv = solve(problem).diagnostics.singular_values
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
    )
