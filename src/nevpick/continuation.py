"""Homotopy path following from the central solution to the target problem.

The solution vector ``p`` of the covariance extension equation is tracked
as the interpolation values are deformed from the constant 1/2 (where the
solution is exactly ``p = 0``) to the requested values.  At parameter
``nu`` the residual map is

    ``G(p, nu) = E S(a(p)) [1; b(p)] - 2 (1 - h' p) d``

with ``E = [I_n 0]``, ``a(p) = (I - U)(Gamma p + sigma) - u`` and
``b(p) = (I + U)(Gamma p + sigma) + u`` built from the operator pair at
``nu``.  Zeros of ``G`` in ``{p : p = P h, P >= 0, h' P h < 1}`` are
followed by a classical fourth-order Runge-Kutta (RK4) predictor and a
Newton corrector with adaptive step control; the trajectory has no turning
points or bifurcations, so plain parameterization by ``nu`` suffices.  The
RK4 predictor departs from the Euler step of the source method: with the
same acceptance band it allows far longer steps near the unit circle.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import cee_core
from .cee_core import CeeMatrices, OperatorPair, g_of_p, operator_pair, recover_P
from .polyalg import (
    MAX_NEWTON_ITERS,
    STEP_GROWTH,
    STEP_MAX,
    CompanionData,
    MonicPolynomial,
    build_S,
    companion,
)
from .problem import (
    InterpolationProblem,
    ProblemValidationError,
    is_inf_node,
    normalize,
    validate,
)

__all__ = [
    "ContinuationState",
    "Diagnostics",
    "Solution",
    "SolveOptions",
    "HomotopyContext",
    "CorrectorError",
    "PathError",
    "SOLVE_ERRORS",
    "ab_of_p",
    "eval_G",
    "jac_G",
    "dG_dnu",
    "predictor",
    "corrector",
    "solve",
]


class CorrectorError(RuntimeError):
    """Newton correction failed to converge (reported to the step driver)."""


class PathError(RuntimeError):
    """Path following failed (step size underflowed without acceptance)."""


#: The typed errors of a failed solve: invalid input or a numerical failure.
SOLVE_ERRORS = (ProblemValidationError, PathError, CorrectorError, cee_core.SteinConsistencyError,
                cee_core.RealnessError, np.linalg.LinAlgError)


@dataclass(frozen=True)
class SolveOptions:
    """Tunables of the predictor-corrector path follower (the CLI solver flags).

    The step cap, step growth and Newton budget are the package constants
    ``STEP_MAX``, ``STEP_GROWTH`` and ``MAX_NEWTON_ITERS``.
    """

    mu: float = 1e-4                 # predictor acceptance band on |e1' G|
    tol_corrector: float = 1e-12     # max-norm residual for corrector acceptance
    step_init: float = 0.1
    step_min: float = 1e-8

    def __post_init__(self):
        for name in ("mu", "tol_corrector", "step_init", "step_min"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True, eq=False)
class ContinuationState:
    """One accepted point of the trajectory."""

    nu: float
    p: np.ndarray
    step: float              # step size used to reach this state (0 at the start)
    corrector_iters: int
    residual: float          # max-norm of G at acceptance
    a_roots: np.ndarray      # roots of a(p) at this state (sorted)


@dataclass(frozen=True, eq=False)
class Diagnostics:
    """Post-solve certificates and locations."""

    interp_residuals: np.ndarray     # |f(z_k) - w_k| per node, original scale
    max_interp_residual: float
    cee_residual: float
    poles: np.ndarray                # roots of a
    zeros: np.ndarray                # roots of b
    spectral_zeros: np.ndarray       # roots of sigma
    singular_values: np.ndarray      # of the recovered P, descending
    cond_V: float                    # condition estimate of the node matrix


@dataclass(frozen=True, eq=False)
class Solution:
    """Solved instance: interpolant data plus the trajectory that led to it.

    The interpolant is ``f(z) = scale * b(z) / (2 a(z))`` with both
    polynomials monic; ``scale`` undoes the internal normalization to
    value 1/2 at infinity and equals twice the requested value there.
    """

    problem: InterpolationProblem
    a: MonicPolynomial
    b: MonicPolynomial
    rho: float
    P: np.ndarray
    p: np.ndarray
    scale: float
    trajectory: tuple
    diagnostics: Diagnostics

    def interpolant(self, z):
        """Evaluate ``f(z) = scale * b(z) / (2 a(z))``; accepts the infinity sentinel."""
        z = complex(z)
        zeta = 0.0 if is_inf_node(z) else 1.0 / z
        return self.interpolant_from_reciprocal(zeta)

    def interpolant_from_reciprocal(self, zeta):
        """Evaluate the interpolant at ``z = 1/zeta`` (``zeta`` may be 0 or an array)."""
        num = np.polyval(self.b.coeffs[::-1], zeta)
        den = np.polyval(self.a.coeffs[::-1], zeta)
        return self.scale * num / (2.0 * den)


class HomotopyContext:
    """Caches everything ``G`` needs: companion data, ``d``, and operator pairs.

    Built from a *normalized* problem (value exactly 1/2 at infinity).
    Operator pairs are memoized per parameter value, so repeated corrector
    evaluations at a fixed ``nu`` reuse one matrix inverse.
    """

    def __init__(self, problem: InterpolationProblem):
        if problem.values[0] != 0.5:
            raise ValueError("HomotopyContext requires a normalized problem")
        self.problem = problem
        self.n = problem.n
        self.comp: CompanionData = companion(problem.sigma)
        # first n autocorrelation coefficients of sigma
        s = problem.sigma.coeffs
        self.d = 0.5 * (build_S(s) @ s)[: self.n]
        self.cee: CeeMatrices = cee_core.build_cee_matrices(problem)
        self._pairs: dict[float, OperatorPair] = {}

    @property
    def is_central(self) -> bool:
        """True when the target values already equal 1/2 everywhere."""
        return bool(np.all(self.cee.T_dot == 0.0))

    def operators(self, nu: float) -> OperatorPair:
        key = float(nu)
        pair = self._pairs.get(key)
        if pair is None:
            pair = operator_pair(self.cee, key)
            self._pairs[key] = pair
        return pair


def _v_and_g(pair: OperatorPair, comp: CompanionData, p: np.ndarray):
    """``v = Gamma p + sigma`` and ``g = U v + u``, so ``a = v - g``, ``b = v + g``."""
    v = comp.sigma_vec + comp.Gamma @ p
    return v, pair.U @ v + pair.u


def ab_of_p(pair: OperatorPair, comp: CompanionData, p: np.ndarray):
    """Monic polynomials ``a`` and ``b`` encoded by ``p`` at one parameter.

    ``a = (I - U)(Gamma p + sigma) - u`` and ``b = (I + U)(Gamma p + sigma) + u``
    are the coefficient tails; the leading 1 is prepended.
    """
    v, g = _v_and_g(pair, comp, p)
    return MonicPolynomial(_pad(1.0, v - g)), MonicPolynomial(_pad(1.0, v + g))


def _pad(lead: float, vec: np.ndarray) -> np.ndarray:
    return np.concatenate(([lead], vec))


def eval_G(p: np.ndarray, nu: float, ctx: HomotopyContext) -> np.ndarray:
    """Residual ``E S(a(p)) [1; b(p)] - 2 (1 - h' p) d`` at parameter ``nu``."""
    v, g = _v_and_g(ctx.operators(nu), ctx.comp, p)
    sym = build_S(_pad(1.0, v - g)) @ _pad(1.0, v + g)
    hp = p[0] if ctx.n else 0.0
    return sym[: ctx.n] - 2.0 * (1.0 - hp) * ctx.d


def jac_G(p: np.ndarray, nu: float, ctx: HomotopyContext) -> np.ndarray:
    """Jacobian of ``G`` in ``p``.

    With ``v = Gamma p + sigma`` and ``g = U v + u`` (so ``a + b = 2 v`` and
    ``b - a = 2 g``), bilinearity of the symmetrized product gives

        ``dG/dp = -2 E S([0; g]) [0; U Gamma] + 2 E S([1; v]) [0; Gamma] + 2 d h'``.

    The rank-one term is the derivative of ``-2 (1 - h' p) d``.
    """
    pair = ctx.operators(nu)
    n = ctx.n
    Gamma = ctx.comp.Gamma
    v, g = _v_and_g(pair, ctx.comp, p)
    zrow = np.zeros((1, n))
    J = -2.0 * (build_S(_pad(0.0, g))[:n] @ np.vstack([zrow, pair.U @ Gamma]))
    J += 2.0 * (build_S(_pad(1.0, v))[:n] @ np.vstack([zrow, Gamma]))
    J[:, 0] += 2.0 * ctx.d
    return J


def dG_dnu(p: np.ndarray, nu: float, ctx: HomotopyContext) -> np.ndarray:
    """Partial derivative of ``G`` in the homotopy parameter.

    Only the operator pair depends on ``nu``; since ``a - b = -2 g``,

        ``dG/dnu = -2 E S([0; g]) [0; U_dot v + u_dot]``.
    """
    pair = ctx.operators(nu)
    v, g = _v_and_g(pair, ctx.comp, p)
    g_dot = pair.U_dot @ v + pair.u_dot
    return -2.0 * (build_S(_pad(0.0, g))[: ctx.n] @ _pad(0.0, g_dot))


def _tangent(p: np.ndarray, nu: float, ctx: HomotopyContext) -> np.ndarray:
    """Trajectory tangent ``dp/dnu = -(dG/dp)^-1 dG/dnu`` (implicit function theorem)."""
    if ctx.n == 0:
        return np.zeros(0)
    return -np.linalg.solve(jac_G(p, nu, ctx), dG_dnu(p, nu, ctx))


def predictor(
    p: np.ndarray,
    nu: float,
    nu_next: float,
    ctx: HomotopyContext,
    tangent: np.ndarray | None = None,
) -> np.ndarray:
    """RK4 prediction of the trajectory point at ``nu_next`` from ``(p, nu)``.

    Integrates ``dp/dnu = -(dG/dp)^-1 dG/dnu`` over one step of length
    ``dnu = nu_next - nu`` by the classical Runge-Kutta rule, with tangents
    at ``nu``, twice at ``nu + dnu/2``, and at ``nu_next``.  ``tangent`` is
    the tangent at ``(p, nu)`` when the caller already has it.  A singular
    Jacobian at any stage raises ``numpy.linalg.LinAlgError``.
    """
    dnu = nu_next - nu
    k1 = _tangent(p, nu, ctx) if tangent is None else tangent
    mid = nu + 0.5 * dnu
    k2 = _tangent(p + 0.5 * dnu * k1, mid, ctx)
    k3 = _tangent(p + 0.5 * dnu * k2, mid, ctx)
    k4 = _tangent(p + dnu * k3, nu_next, ctx)
    return p + (dnu / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def corrector(
    p_hat: np.ndarray,
    nu: float,
    ctx: HomotopyContext,
    opts: SolveOptions | None = None,
    residual_log: list | None = None,
):
    """Newton iteration on ``G(., nu) = 0`` from the predicted point.

    Returns ``(p, iterations)`` once the max-norm residual is at or below
    ``opts.tol_corrector``.  Raises :class:`CorrectorError` on iteration
    budget exhaustion, a singular Jacobian, a non-finite iterate, or an
    iterate leaving the feasible region ``h' p < 1``.
    """
    opts = opts or SolveOptions()
    p = np.array(p_hat, dtype=float)
    for k in range(MAX_NEWTON_ITERS + 1):
        if p.size and p[0] >= 1.0:
            raise CorrectorError(f"iterate left the region h'p < 1 at nu={nu:.6g}")
        G = eval_G(p, nu, ctx)
        r = float(np.max(np.abs(G))) if G.size else 0.0
        if residual_log is not None:
            residual_log.append(r)
        if not math.isfinite(r):
            raise CorrectorError(f"non-finite residual at nu={nu:.6g}")
        if r <= opts.tol_corrector:
            return p, k
        if k == MAX_NEWTON_ITERS:
            break
        try:
            p = p - np.linalg.solve(jac_G(p, nu, ctx), G)
        except np.linalg.LinAlgError as exc:
            raise CorrectorError(f"singular Jacobian at nu={nu:.6g}") from exc
        if not np.all(np.isfinite(p)):
            raise CorrectorError(f"non-finite iterate at nu={nu:.6g}")
    raise CorrectorError(
        f"no convergence in {MAX_NEWTON_ITERS} iterations at nu={nu:.6g} "
        f"(residual {r:.3e})"
    )


def _sorted_roots(poly: MonicPolynomial) -> np.ndarray:
    return np.sort_complex(np.roots(poly.coeffs))


def _make_state(ctx, nu, p, step, iters, residual) -> ContinuationState:
    a, _ = ab_of_p(ctx.operators(nu), ctx.comp, p)
    p_ro = np.array(p)
    p_ro.flags.writeable = False
    return ContinuationState(
        nu=float(nu),
        p=p_ro,
        step=float(step),
        corrector_iters=int(iters),
        residual=float(residual),
        a_roots=_sorted_roots(a),
    )


def _follow_path(ctx: HomotopyContext, opts: SolveOptions) -> list:
    """March ``nu`` from 0 to 1; return the list of accepted states."""
    p = np.zeros(ctx.n)
    r0 = eval_G(p, 0.0, ctx)
    states = [_make_state(ctx, 0.0, p, 0.0, 0, np.max(np.abs(r0)) if r0.size else 0.0)]
    if ctx.is_central:
        return states

    nu = 0.0
    step = opts.step_init
    # tangent at (p, nu); a rejected step leaves both unchanged, so it is reused
    tangent = None
    while nu < 1.0:
        if step < opts.step_min:
            raise PathError(f"step size underflowed below {opts.step_min:.1e} at nu={nu:.6g}")
        target = nu + step
        if target >= 1.0 - 1e-12:
            target = 1.0
        dnu = target - nu
        try:
            if tangent is None:
                tangent = _tangent(p, nu, ctx)
            p_hat = predictor(p, nu, target, ctx, tangent)
        except np.linalg.LinAlgError:
            step = 0.5 * dnu
            continue
        band = eval_G(p_hat, target, ctx)
        if abs(band[0]) > opts.mu:
            step = 0.5 * dnu
            continue
        residuals = []
        try:
            p_new, iters = corrector(p_hat, target, ctx, opts, residuals)
        except CorrectorError:
            step = 0.5 * dnu
            continue
        nu, p, tangent = target, p_new, None
        states.append(_make_state(ctx, nu, p, dnu, iters, residuals[-1]))
        step = min(STEP_GROWTH * dnu, STEP_MAX)
    return states


def solve(problem: InterpolationProblem, opts: SolveOptions | None = None) -> Solution:
    """Solve one interpolation instance end to end.

    Validates, normalizes to value 1/2 at infinity, follows the homotopy
    path from the central solution ``p = 0``, recovers the matrix ``P`` by
    the Stein equation at the endpoint, and assembles the interpolant with
    full diagnostics.  Deterministic: identical inputs and options produce
    bit-identical trajectories.

    Raises :class:`~nevpick.problem.ProblemValidationError` on invalid input
    and :class:`PathError` when step control fails.
    """
    opts = opts or SolveOptions()
    violations = validate(problem)
    if violations:
        raise ProblemValidationError(violations)
    norm = normalize(problem)
    ctx = HomotopyContext(norm.problem)
    states = _follow_path(ctx, opts)
    p = states[-1].p

    pair = ctx.operators(1.0)
    g = g_of_p(pair, ctx.comp, p)
    P = recover_P(ctx.comp, p, g)
    a, b = ab_of_p(pair, ctx.comp, p)
    rho = math.sqrt(1.0 - (p[0] if ctx.n else 0.0))

    solution = Solution(
        problem=problem,
        a=a,
        b=b,
        rho=rho,
        P=P,
        p=p,
        scale=norm.scale,
        trajectory=tuple(states),
        diagnostics=None,
    )
    f_vals = solution.interpolant_from_reciprocal(problem.node_reciprocals())
    interp_residuals = np.abs(f_vals - problem.values_array())
    svals = np.linalg.svd(P, compute_uv=False) if ctx.n else np.zeros(0)
    diagnostics = Diagnostics(
        interp_residuals=interp_residuals,
        max_interp_residual=float(np.max(interp_residuals)),
        cee_residual=cee_core.cee_residual(P, ctx.comp, g),
        poles=_sorted_roots(a),
        zeros=_sorted_roots(b),
        spectral_zeros=_sorted_roots(problem.sigma),
        singular_values=svals,
        cond_V=ctx.cee.cond_V,
    )
    return dataclasses.replace(solution, diagnostics=diagnostics)
