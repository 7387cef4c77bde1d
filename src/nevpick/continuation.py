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
same acceptance band it allows far longer steps near the unit circle.  The
step control departs too: the band residual of an RK4 prediction scales as
``dnu^5``, so the next step is ``dnu * (STEP_SAFETY * MU_BAND / |e1' G|)^(1/5)``,
clipped to ``STEP_ACCEPT_RANGE`` after an accepted step and to
``STEP_REJECT_RANGE`` after a prediction outside the band.  The band
``MU_BAND``, the Newton tolerance ``TOL_NEWTON`` and the step bounds
``STEP_INIT`` and ``STEP_MIN`` are constants of the table in
:mod:`nevpick.polyalg`; a solve takes no options.

``G``, ``dG/dp`` and ``dG/dnu`` at one point need only ``S([1; v])`` and
``S([0; g])``, the two slices of one stacked product per point;
:class:`HomotopyContext` keeps it for the last point evaluated, so a
tangent, a band test followed by the first Newton residual, or a Newton
iterate forms it once.  The context also keeps that point's residual
``G`` once evaluated, so the band test's residual is the corrector's first
one.  An accepted state and the endpoint read ``a = v - g`` and
``b = v + g`` from the same entry, and a point at the same ``nu`` reuses
its operator pair.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import cee_core
from .cee_core import build_V, operator_pair, recover_P, v_and_g
from .polyalg import (
    MAX_NEWTON_ITERS,
    MU_BAND,
    STEP_ACCEPT_RANGE,
    STEP_INIT,
    STEP_MIN,
    STEP_REJECT_RANGE,
    STEP_SAFETY,
    STEP_SNAP,
    TOL_CEE,
    TOL_NEWTON,
    MonicPolynomial,
    build_S,
    companion,
    readonly,
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
    "HomotopyContext",
    "CorrectorError",
    "PathError",
    "SOLVE_ERRORS",
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
SOLVE_ERRORS = (ProblemValidationError, PathError, cee_core.SteinConsistencyError,
                cee_core.RealnessError, np.linalg.LinAlgError)


@dataclass(frozen=True, eq=False)
class ContinuationState:
    """One accepted point of the trajectory.

    ``a_roots`` is computed on first read and kept: the path follower never
    needs the roots, so a solve pays for them only where they are read.
    """

    nu: float
    p: np.ndarray
    step: float              # step size used to reach this state (0 at the start)
    corrector_iters: int
    residual: float          # max-norm of G at acceptance
    a: np.ndarray            # coefficients (1, v - g) of a(p) at this state (read-only)

    @cached_property
    def a_roots(self) -> np.ndarray:
        """Roots of ``a(p)`` at this state (sorted, read-only)."""
        return readonly(np.sort_complex(np.roots(self.a)))


@dataclass(frozen=True, eq=False)
class Diagnostics:
    """Post-solve certificates and locations.

    The certificates are computed eagerly; ``solve`` enforces only the CEE
    residual.  The locations, the singular values and ``cond_V`` are
    computed on first read from the private inputs below, and kept; the
    arrays they return are read-only.
    """

    interp_residuals: np.ndarray     # |f(z_k) - w_k| per node, original scale
    max_interp_residual: float
    cee_residual: float
    _trajectory: tuple = field(repr=False)   # the solution's accepted states
    _b: np.ndarray = field(repr=False)       # coefficients of b
    _P: np.ndarray = field(repr=False)       # the recovered P (read-only)
    _zeta: np.ndarray = field(repr=False)    # reciprocal nodes (normalization keeps them)

    @cached_property
    def poles(self) -> np.ndarray:
        """Roots of ``a``: the last state's ``a_roots``."""
        return self._trajectory[-1].a_roots

    @cached_property
    def zeros(self) -> np.ndarray:
        """Roots of ``b``, sorted."""
        return readonly(np.sort_complex(np.roots(self._b)))

    @cached_property
    def spectral_zeros(self) -> np.ndarray:
        """Roots of ``sigma``: the first state's ``a_roots`` (``a = sigma`` at ``nu = 0``)."""
        return self._trajectory[0].a_roots

    @cached_property
    def singular_values(self) -> np.ndarray:
        """Singular values of the recovered ``P``, descending."""
        return readonly(np.linalg.svd(self._P, compute_uv=False))

    @cached_property
    def cond_V(self) -> float:
        """Condition number of the node matrix ``V``."""
        return float(np.linalg.cond(build_V(self._zeta)))


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
    """Holds everything ``G`` needs: the companion matrix ``Gamma`` of
    ``sigma``, its coefficient tail ``s``, ``d``, the slope ``T_dot`` of
    ``T(nu) = nu T_dot`` with the identity ``eye`` of its size, and one
    cached point.  The four arrays are read-only.

    Normalizes its problem (value exactly 1/2 at infinity), of which it
    keeps only ``scale``, the factor that undoes the normalization.  The
    cached point is the linearization of the last point evaluated, with its
    operator pair and, once ``eval_G`` asks for it, its read-only residual:
    Newton iterates, a band test and the tangents of one ``nu`` share one
    matrix inverse, and a new ``nu`` forms a new pair.  The context owns the
    stack it hands to ``build_S`` and the vector ``[1; b]`` of ``eval_G``,
    with their constant entries written once.
    """

    def __init__(self, problem: InterpolationProblem):
        problem, self.scale = normalize(problem)
        self.n = problem.n
        self.Gamma = companion(problem.sigma)
        self.s = problem.sigma.tail
        # first n autocorrelation coefficients of sigma
        c = problem.sigma.coeffs
        self.d = 0.5 * (build_S(c) @ c)[: self.n]
        self.twice_d = 2.0 * self.d   # the rank-one column of jac_G
        self.T_dot = cee_core.build_cee_matrices(problem)
        # formed once: adding 1 to the diagonal per call is slower than adding this copy
        self.eye = readonly(np.eye(self.n + 1))
        self._point = ((None, None), None)   # (key, linearization) of the last point evaluated
        self._G = None                       # eval_G at that point, once evaluated
        # per-point buffers, their leading entries written once: the stack
        # [[1, v], [0, g]] of build_S and the vector [1; v + g] of eval_G
        self._rows = np.zeros((2, self.n + 1))
        self._rows[0, 0] = 1.0
        self._b = np.ones(self.n + 1)

    def linearization(self, p: np.ndarray, nu: float):
        """``(pair, v, g, S([1; v]), S([0; g]))`` at ``(p, nu)``.

        The entry of the last point asked for is kept, keyed by ``nu`` and
        the bytes of ``p`` (so a changed ``p`` is a new point): ``eval_G``,
        ``jac_G`` and ``dG_dnu`` at one point share one pair of products,
        the two slices of one stacked ``build_S([[1, v], [0, g]])``.  A new
        point at the entry's ``nu`` keeps the entry's operator pair.
        """
        p = np.asarray(p, dtype=float)
        key = (float(nu), p.tobytes())
        last_key, last = self._point
        if last_key != key:
            pair = last[0] if last_key[0] == key[0] else operator_pair(self.T_dot, self.eye, key[0])
            v, g = v_and_g(pair, self.Gamma, self.s, p)
            # build_S copies the stack, so the buffer is free for the next point
            rows = self._rows
            rows[0, 1:] = v
            rows[1, 1:] = g
            S_v, S_g = build_S(rows)
            self._point = (key, (pair, v, g, S_v, S_g))
            self._G = None
        return self._point[1]


def _pad(lead: float, vec: np.ndarray) -> np.ndarray:
    return np.concatenate(([lead], vec))


def eval_G(p: np.ndarray, nu: float, ctx: HomotopyContext) -> np.ndarray:
    """Residual ``E S(a(p)) [1; b(p)] - 2 (1 - h' p) d`` at parameter ``nu``.

    ``S`` is linear, so ``S(a) = S([1; v]) - S([0; g])``: the two products
    that ``jac_G`` and ``dG_dnu`` use at the same point.  The result is
    read-only and kept by ``ctx``: a second call at the same point returns
    the same array.
    """
    _, v, g, S_v, S_g = ctx.linearization(p, nu)
    if ctx._G is None:
        np.add(v, g, out=ctx._b[1:])
        sym = (S_v - S_g) @ ctx._b
        hp = p[0] if ctx.n else 0.0
        ctx._G = readonly(sym[: ctx.n] - 2.0 * (1.0 - hp) * ctx.d)
    return ctx._G


def jac_G(p: np.ndarray, nu: float, ctx: HomotopyContext) -> np.ndarray:
    """Jacobian of ``G`` in ``p``.

    With ``v = Gamma p + sigma`` and ``g = U v + u`` (so ``a + b = 2 v`` and
    ``b - a = 2 g``), bilinearity of the symmetrized product gives

        ``dG/dp = 2 (E S([1; v])[:, 1:] - E S([0; g])[:, 1:] U) Gamma + 2 d h'``.

    The rank-one term is the derivative of ``-2 (1 - h' p) d``.
    """
    pair, _, _, S_v, S_g = ctx.linearization(p, nu)
    n = ctx.n
    J = S_v[:n, 1:] - S_g[:n, 1:] @ pair.U
    J = 2.0 * (J @ ctx.Gamma)
    J[:, 0] += ctx.twice_d
    return J


def dG_dnu(p: np.ndarray, nu: float, ctx: HomotopyContext) -> np.ndarray:
    """Partial derivative of ``G`` in the homotopy parameter.

    Only the operator pair depends on ``nu``; since ``a - b = -2 g``,

        ``dG/dnu = -2 E S([0; g])[:, 1:] (U_dot v + u_dot)``.
    """
    pair, v, _, _, S_g = ctx.linearization(p, nu)
    return -2.0 * (S_g[: ctx.n, 1:] @ (pair.U_dot @ v + pair.u_dot))


def _tangent(p: np.ndarray, nu: float, ctx: HomotopyContext) -> np.ndarray:
    """Trajectory tangent ``dp/dnu = -(dG/dp)^-1 dG/dnu`` (implicit function theorem)."""
    return -np.linalg.solve(jac_G(p, nu, ctx), dG_dnu(p, nu, ctx))


def predictor(
    p: np.ndarray,
    nu: float,
    nu_next: float,
    ctx: HomotopyContext,
    tangent: np.ndarray,
) -> np.ndarray:
    """RK4 prediction of the trajectory point at ``nu_next`` from ``(p, nu)``.

    Integrates ``dp/dnu = -(dG/dp)^-1 dG/dnu`` over one step of length
    ``dnu = nu_next - nu`` by the classical Runge-Kutta rule, with tangents
    at ``nu`` (``tangent``, the caller's), twice at ``nu + dnu/2``, and at
    ``nu_next``.  A singular Jacobian at any stage raises
    ``numpy.linalg.LinAlgError``.
    """
    dnu = nu_next - nu
    mid = nu + 0.5 * dnu
    k2 = _tangent(p + 0.5 * dnu * tangent, mid, ctx)
    k3 = _tangent(p + 0.5 * dnu * k2, mid, ctx)
    k4 = _tangent(p + dnu * k3, nu_next, ctx)
    return p + (dnu / 6.0) * (tangent + 2.0 * k2 + 2.0 * k3 + k4)


def corrector(p_hat: np.ndarray, nu: float, ctx: HomotopyContext):
    """Newton iteration on ``G(., nu) = 0`` from the predicted point.

    Returns ``(p, iterations, residual)`` once the max-norm residual is at
    or below ``TOL_NEWTON``.  Raises :class:`CorrectorError` on iteration budget
    exhaustion, a singular Jacobian, a non-finite residual (which a
    non-finite iterate makes), or an iterate leaving the feasible region
    ``h' p < 1``.
    """
    p = np.array(p_hat, dtype=float)
    for k in range(MAX_NEWTON_ITERS + 1):
        if p.size and p[0] >= 1.0:
            raise CorrectorError(f"iterate left the region h'p < 1 at nu={nu:.6g}")
        G = eval_G(p, nu, ctx)
        r = float(np.abs(G).max(initial=0.0))
        if not math.isfinite(r):
            raise CorrectorError(f"non-finite residual at nu={nu:.6g}")
        if r <= TOL_NEWTON:
            return p, k, r
        if k == MAX_NEWTON_ITERS:
            break
        try:
            p = p - np.linalg.solve(jac_G(p, nu, ctx), G)
        except np.linalg.LinAlgError as exc:
            raise CorrectorError(f"singular Jacobian at nu={nu:.6g}") from exc
    raise CorrectorError(
        f"no convergence in {MAX_NEWTON_ITERS} iterations at nu={nu:.6g} "
        f"(residual {r:.3e})"
    )


def _make_state(ctx, nu, p, step, iters, residual) -> ContinuationState:
    # the residual at (p, nu) has just been evaluated, so v and g are at hand
    _, v, g, _, _ = ctx.linearization(p, nu)
    return ContinuationState(
        nu=float(nu),
        p=readonly(np.array(p)),
        step=float(step),
        corrector_iters=int(iters),
        residual=float(residual),
        a=readonly(_pad(1.0, v - g)),
    )


def _follow_path(ctx: HomotopyContext) -> list:
    """March ``nu`` from 0 to 1; return the list of accepted states."""
    p = np.zeros(ctx.n)
    r0 = eval_G(p, 0.0, ctx)
    states = [_make_state(ctx, 0.0, p, 0.0, 0, np.abs(r0).max(initial=0.0))]
    if not np.any(ctx.T_dot):
        # the target values already equal 1/2 everywhere
        return states

    nu = 0.0
    step = STEP_INIT
    # tangent at (p, nu); a rejected step leaves both unchanged, so it is reused
    tangent = None
    while nu < 1.0:
        if step < STEP_MIN:
            raise PathError(f"step size underflowed below {STEP_MIN:.1e} at nu={nu:.6g}")
        target = nu + step
        if target >= 1.0 - STEP_SNAP:
            target = 1.0
        dnu = target - nu
        try:
            if tangent is None:
                tangent = _tangent(p, nu, ctx)
            p_hat = predictor(p, nu, target, ctx, tangent)
        except np.linalg.LinAlgError:
            step = 0.5 * dnu
            continue
        band = abs(eval_G(p_hat, target, ctx)[0])
        # the RK4 prediction error, and with it the band residual, scales as dnu^5
        factor = (STEP_SAFETY * MU_BAND / band) ** 0.2 if band > 0.0 else math.inf
        if band > MU_BAND:
            step = dnu * _clip(factor, STEP_REJECT_RANGE)
            continue
        try:
            p_new, iters, residual = corrector(p_hat, target, ctx)
        except CorrectorError:
            step = 0.5 * dnu
            continue
        nu, p, tangent = target, p_new, None
        states.append(_make_state(ctx, nu, p, dnu, iters, residual))
        step = dnu * _clip(factor, STEP_ACCEPT_RANGE)
    return states


def _clip(x: float, bounds: tuple) -> float:
    lo, hi = bounds
    return min(max(x, lo), hi)


def solve(problem: InterpolationProblem) -> Solution:
    """Solve one interpolation instance end to end.

    Validates, normalizes to value 1/2 at infinity, follows the homotopy
    path from the central solution ``p = 0``, recovers the matrix ``P`` from
    the covariance extension equation at the endpoint, and assembles the
    interpolant with full diagnostics.  Deterministic: identical inputs produce bit-identical
    trajectories.

    Raises :class:`~nevpick.problem.ProblemValidationError` on invalid input,
    :class:`PathError` when step control fails, and
    :class:`~nevpick.cee_core.SteinConsistencyError` when the recovered ``P``
    fails a check of :func:`~nevpick.cee_core.recover_P` or its CEE residual
    exceeds ``TOL_CEE``.
    """
    violations = validate(problem)
    if violations:
        raise ProblemValidationError(violations)
    ctx = HomotopyContext(problem)
    states = _follow_path(ctx)
    p = states[-1].p

    _, v, g, _, _ = ctx.linearization(p, 1.0)
    P = readonly(recover_P(ctx.Gamma, ctx.s, p, g))
    cee_res = cee_core.cee_residual(P, ctx.Gamma, g)
    if not cee_res <= TOL_CEE:
        raise cee_core.SteinConsistencyError(
            f"CEE residual {cee_res:.3e} of the recovered matrix exceeds {TOL_CEE:.0e}")
    a, b = MonicPolynomial(_pad(1.0, v - g)), MonicPolynomial(_pad(1.0, v + g))
    rho = math.sqrt(1.0 - (p[0] if ctx.n else 0.0))

    solution = Solution(
        problem=problem,
        a=a,
        b=b,
        rho=rho,
        P=P,
        p=p,
        scale=ctx.scale,
        trajectory=tuple(states),
        diagnostics=None,
    )
    zeta = problem.node_reciprocals()
    f_vals = solution.interpolant_from_reciprocal(zeta)
    interp_residuals = np.abs(f_vals - problem.values_array())
    diagnostics = Diagnostics(
        interp_residuals=interp_residuals,
        max_interp_residual=float(np.max(interp_residuals)),
        cee_residual=cee_res,
        _trajectory=solution.trajectory,
        _b=b.coeffs,
        _P=P,
        _zeta=zeta,
    )
    return dataclasses.replace(solution, diagnostics=diagnostics)
