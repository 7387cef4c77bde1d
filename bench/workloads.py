"""Seeded workloads of the nevpick benchmark.

An item is one unit of user work plus the checks its outputs must pass:

* ``near_circle``: one solve whose spectral zeros lie close to the unit
  circle, so step control, Newton correction and ``build_S`` do the work;
* ``detect_mc``: one Monte Carlo run of the degree-detection experiment
  (simulate, filter bank, estimate values, solve, singular values), the
  only workload that exercises ingestion;
* ``bank_large``: a solve at an even order 16..28 on noise-free data,
  then a reduction to the true degree and a spectral comparison, where the
  cost of each state (operator pair, Stein solve, roots) dominates.

Items are built from the run's seed before any timing starts; the program
only ever sees the generated problems.  Per-item random streams come from
``np.random.SeedSequence(seed).spawn``, so adjacent seeds share no items.
``near_circle`` and ``bank_large`` perturb a fixed suite with those streams
rather than drawing afresh; their builders say why.

Each workload has a fixed item count, and a run times every item several
times; see ``run.py``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

import nevpick as nv

#: Errors nevpick raises for a numerical or input failure.  An item that
#: raises one of them counts as failed; any other exception is a bug.
TYPED_ERRORS = (
    nv.PathError,
    nv.CorrectorError,
    nv.SteinConsistencyError,
    nv.RealnessError,
    nv.ProblemValidationError,
    np.linalg.LinAlgError,
)

TOL_INTERP = 1e-10
TOL_CEE = 1e-8
TOL_PUBLISHED = 2e-3
TOL_LOG_SPECTRAL = 1e-8

# ---------------------------------------------------------------------------
# Published degree-7 reference instance, with the printed coefficients of
# its solution (descending powers, monic).
# ---------------------------------------------------------------------------

REFERENCE_NODES = (
    nv.INF,
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
REFERENCE_B = (1.0, -1.364, 1.112, -0.3812, -0.4479, 1.119, -1.412, 0.8781)
REFERENCE_A = (1.0, -1.771, 1.815, -1.205, 1.28, -1.814, 1.773, -0.8775)
# the z^3 coefficient of a is printed without a sign; compare it by magnitude
REFERENCE_A_UNSIGNED_INDEX = 4

# Degree-2 truth of the paper's degree-detection experiment.
DETECT_SIGMA_ZEROS = (0.31 * np.exp(0.98j), 0.31 * np.exp(-0.98j))
DETECT_A_ZEROS = (0.76 * np.exp(1.45j), 0.76 * np.exp(-1.45j))
# Ten times the paper's sample count, so ingestion is a visible share.
DETECT_SAMPLES = 100_000
DETECT_BURN_IN = 1000

BANK_TRUE_DEGREE = 4

# near_circle and bank_large draw fixed suites from this seed, and the run's
# seed turns their zeros by at most SEED_JITTER radians
SUITE_SEED = 20240524
SEED_JITTER = 0.01


class CheckFailed(AssertionError):
    """An item's output failed a correctness check."""


@dataclass(frozen=True)
class Item:
    """One unit of user work; ``run()`` returns its accepted path states."""

    label: str
    run: Callable[[], int]


@dataclass(frozen=True)
class Workload:
    """A workload's item builder and its fixed item count.

    The count is sized so that one pass over the items takes about a third
    of a 25-second run at the commit that introduced the benchmark.
    """

    build: Callable[[int, int], list]
    items: int

    @property
    def tail_pct(self) -> int:
        """The highest whole percentile that leaves at least ten items beyond it."""
        return (100 * (self.items - 10)) // self.items


def reference_problem() -> nv.InterpolationProblem:
    sigma = nv.MonicPolynomial.from_roots(REFERENCE_SPECTRAL_ZEROS)
    return nv.InterpolationProblem(REFERENCE_NODES, REFERENCE_VALUES, sigma)


def check_solution(sol: nv.Solution, label: str) -> int:
    """Check the endpoint certificates; return the accepted states of the path."""
    if sol.trajectory[-1].nu != 1.0:
        raise CheckFailed(f"{label}: path ended at nu={sol.trajectory[-1].nu!r}, not 1")
    interp = sol.diagnostics.max_interp_residual
    if not interp <= TOL_INTERP:
        raise CheckFailed(f"{label}: interpolation residual {interp:.3e} > {TOL_INTERP:.0e}")
    cee = sol.diagnostics.cee_residual
    if not cee <= TOL_CEE:
        raise CheckFailed(f"{label}: CEE residual {cee:.3e} > {TOL_CEE:.0e}")
    return len(sol.trajectory) - 1


def check_published(a_coeffs, b_coeffs, label: str):
    """Compare a solution of the reference instance with the printed coefficients."""
    b_err = float(np.max(np.abs(np.asarray(b_coeffs) - REFERENCE_B)))
    a_errs = np.abs(np.asarray(a_coeffs) - REFERENCE_A)
    k = REFERENCE_A_UNSIGNED_INDEX
    a_errs[k] = abs(abs(a_coeffs[k]) - abs(REFERENCE_A[k]))
    a_err = float(np.max(a_errs))
    if not (a_err <= TOL_PUBLISHED and b_err <= TOL_PUBLISHED):
        raise CheckFailed(
            f"{label}: published coefficients missed by a {a_err:.2e}, b {b_err:.2e} "
            f"(> {TOL_PUBLISHED:.0e})"
        )


def _spread_roots(rng, n: int, r_lo: float, r_hi: float, margin: float) -> list:
    """``n`` conjugate-closed points with moduli in ``[r_lo, r_hi)``.

    One conjugate pair falls in each of ``n // 2`` equal angular sectors of
    ``(margin, pi - margin)``, away from the sector edges; odd ``n`` adds one
    real point.  Keeping the points apart keeps the companion matrix of
    their polynomial well conditioned.
    """
    roots = []
    if n % 2:
        roots.append(complex(rng.uniform(r_lo, r_hi) * rng.choice([-1.0, 1.0])))
    pairs = n // 2
    width = (np.pi - 2.0 * margin) / max(pairs, 1)
    for k in range(pairs):
        theta = margin + width * (k + 0.2 + 0.6 * rng.uniform())
        r = rng.uniform(r_lo, r_hi)
        roots += [r * np.exp(1j * theta), r * np.exp(-1j * theta)]
    return roots


def _solve_item(problem: nv.InterpolationProblem, label: str) -> int:
    return check_solution(nv.solve(problem), label)


def _reference_item() -> int:
    sol = nv.solve(reference_problem())
    states = check_solution(sol, "reference")
    check_published(sol.a.coeffs, sol.b.coeffs, "reference")
    return states


def _near_circle_draw(rng, n: int) -> nv.InterpolationProblem:
    # values of a degree-2 positive-real function at n + 1 filter-bank nodes,
    # interpolated with n spectral zeros close to the unit circle
    sigma_true = nv.MonicPolynomial.from_roots(_spread_roots(rng, 2, 0.1, 0.6, 0.3))
    a_true = nv.MonicPolynomial.from_roots(_spread_roots(rng, 2, 0.3, 0.8, 0.3))
    poles = [0j] + _spread_roots(rng, n, 0.6, 0.92, 0.2)
    values = nv.exact_values(sigma_true, a_true, poles)
    sigma = nv.MonicPolynomial.from_roots(_spread_roots(rng, n, 0.93, 0.99, 0.3))
    return nv.InterpolationProblem(nv.nodes_from_poles(poles), tuple(values), sigma)


def _rotate_zeros(poly: nv.MonicPolynomial, rng) -> nv.MonicPolynomial:
    """Turn each conjugate pair of zeros by its own angle of at most
    ``SEED_JITTER`` radians; moduli and real zeros stay."""
    zeros = []
    for z in np.roots(poly.coeffs):
        if z.imag > 0:
            z = z * np.exp(1j * SEED_JITTER * rng.uniform(-1.0, 1.0))
            zeros += [z, np.conj(z)]
        elif z.imag == 0:
            zeros.append(z.real)
    return nv.MonicPolynomial.from_roots(zeros)


def build_near_circle(seed: int, count: int) -> list:
    """Item 0 is the reference instance; the rest have degree 5..8 in turn.

    Path lengths here are heavy-tailed (one instance in ten takes over two
    and a half times the median), so independent draws per seed moved the
    work of a 40-item run by a fifth from seed to seed.  The instances are
    therefore a fixed suite drawn from ``SUITE_SEED``, and the run's seed
    turns the spectral zeros of each one by a small angle: every seed gets
    problems of its own, while the mix of path lengths stays that of the
    suite.
    """
    items = [Item("reference", _reference_item)]
    suite = np.random.SeedSequence(SUITE_SEED).spawn(count - 1)
    jitter = np.random.SeedSequence(seed).spawn(count - 1)
    for k, (base, child) in enumerate(zip(suite, jitter), start=1):
        n = 5 + (k - 1) % 4
        label = f"near_circle[{k}] n={n}"
        rng = np.random.default_rng(base)
        for _ in range(100):
            problem = _near_circle_draw(rng, n)
            if not nv.validate(problem):
                break
        else:
            raise RuntimeError(f"{label}: no valid draw in 100 tries")
        sigma = _rotate_zeros(problem.sigma, np.random.default_rng(child))
        problem = nv.InterpolationProblem(problem.nodes, problem.values, sigma)
        items.append(Item(label, partial(_solve_item, problem, label)))
    return items


def _detect_item(order: int, seed: int, label: str) -> int:
    sigma = nv.MonicPolynomial.from_roots(DETECT_SIGMA_ZEROS)
    a = nv.MonicPolynomial.from_roots(DETECT_A_ZEROS)
    poles = tuple(nv.default_bank_poles(order))
    spec = nv.FilterBankSpec(poles=poles, samples=DETECT_SAMPLES, burn_in=DETECT_BURN_IN, seed=seed)
    y = nv.simulate_arma(sigma, a, DETECT_SAMPLES, DETECT_BURN_IN, seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        values = nv.estimate_values(nv.filter_bank(y, spec), spec)
    problem = nv.InterpolationProblem(
        nv.nodes_from_poles(poles), tuple(values), nv.ingestion.embed_sigma(sigma, order)
    )
    sol = nv.solve(problem)
    svals = nv.singular_values(sol.P)
    if svals.size != order or not np.all(np.isfinite(svals)):
        raise CheckFailed(f"{label}: singular values {svals!r}")
    return check_solution(sol, label)


def build_detect_mc(seed: int, count: int) -> list:
    """Orders 2..6 in turn, each item with its own simulation seed."""
    items = []
    for k, child in enumerate(np.random.SeedSequence(seed).spawn(count)):
        order = 2 + k % 5
        label = f"detect_mc[{k}] n={order}"
        run_seed = int(child.generate_state(1)[0])
        items.append(Item(label, partial(_detect_item, order, run_seed, label)))
    return items


def _bank_truth(rng) -> tuple:
    sigma_true = nv.MonicPolynomial.from_roots(
        _spread_roots(rng, BANK_TRUE_DEGREE, 0.1, 0.6, 0.3)
    )
    a_true = nv.MonicPolynomial.from_roots(_spread_roots(rng, BANK_TRUE_DEGREE, 0.3, 0.8, 0.3))
    return sigma_true, a_true


def _bank_problem(sigma_true, a_true, n: int) -> nv.InterpolationProblem:
    """Noise-free order-``n`` data of the truth, with its zeros padded at the origin."""
    poles = nv.default_bank_poles(n)
    values = nv.exact_values(sigma_true, a_true, poles)
    return nv.InterpolationProblem(
        nv.nodes_from_poles(poles), tuple(values), nv.ingestion.embed_sigma(sigma_true, n)
    )


def _bank_item(sigma_true, a_true, n: int, label: str) -> int:
    sol = nv.solve(_bank_problem(sigma_true, a_true, n))
    states = check_solution(sol, label)
    _, reduced = nv.reduce_model(sol, BANK_TRUE_DEGREE)
    states += check_solution(reduced, label + " reduced")
    dev = nv.log_spectral_deviation(sol, reduced)
    if not dev <= TOL_LOG_SPECTRAL:
        raise CheckFailed(f"{label}: log-spectral deviation {dev:.3e} > {TOL_LOG_SPECTRAL:.0e}")
    return states


def build_bank_large(seed: int, count: int) -> list:
    """Even orders 16..28 in turn, each with its own degree-4 truth.

    Odd orders put a lone real pole on the bank circle, and the default node
    selection of ``reduce_model`` cannot keep four nodes without splitting a
    conjugate pair.  With four items per order the median item is one of a
    handful, so as in ``near_circle`` the truths are a fixed suite whose
    zeros the run's seed turns by a small angle.  A truth whose data fail
    ``validate`` is redrawn here, before timing.
    """
    items = []
    suite = np.random.SeedSequence(SUITE_SEED).spawn(count)
    jitter = np.random.SeedSequence(seed).spawn(count)
    for k, (base, child) in enumerate(zip(suite, jitter)):
        n = 16 + 2 * (k % 7)
        label = f"bank_large[{k}] n={n}"
        rng = np.random.default_rng(base)
        turn = np.random.default_rng(child)
        for _ in range(100):
            truth = tuple(_rotate_zeros(poly, turn) for poly in _bank_truth(rng))
            if not nv.validate(_bank_problem(*truth, n)):
                break
        else:
            raise RuntimeError(f"{label}: no valid draw in 100 tries")
        items.append(Item(label, partial(_bank_item, *truth, n, label)))
    return items


WORKLOADS = {
    "near_circle": Workload(
        build=build_near_circle,
        items=48,
    ),
    "detect_mc": Workload(
        build=build_detect_mc,
        items=75,
    ),
    "bank_large": Workload(
        build=build_bank_large,
        items=28,
    ),
}


def build(name: str, seed: int) -> list:
    """The workload's items for ``seed``."""
    workload = WORKLOADS[name]
    return workload.build(seed, workload.items)
