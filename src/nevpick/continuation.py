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
``dnu^5``, so with band ``mu`` the next step is
``dnu * (STEP_SAFETY * mu / |e1' G|)^(1/5)``.  After an accepted step the
factor is capped at the attempt's growth and needs no floor: an accepted
prediction has ``|e1' G| <= mu``, so its factor is at least
``STEP_SAFETY^(1/5)``, about 0.87.  After a prediction outside the band the
factor is clipped to ``STEP_REJECT_RANGE``.  The target of a step is
``min(nu + step, 1)``.

The start of the path is known in closed form and is not computed.  At
``nu = 0``, ``T = 0``, so ``u``, ``U`` and ``g = U v + u`` vanish, and at
``p = 0`` then ``a = b = v = sigma``: ``G(0, 0) = E S(sigma) [1; s] - 2 d``
is 0, because ``d`` is half that product, and
``dG/dnu = -2 E S([0; g])[:, 1:] (U_dot v + u_dot)`` is 0 with ``g``.
The start state (``p = 0``, ``a = sigma``, residual 0) and its tangent
(0) need no operator pair, residual, Jacobian or linear solve, and the
first RK4 stage of a path is its first operator pair and tangent solve.

The band and the first step depart as well.  A solve climbs a ladder of
up to three attempts at the path, the :class:`~nevpick.polyalg.PathAttempt`
records ``ATTEMPTS`` (band ``mu``, first step, growth cap).  The first two,
``LOOSE_ATTEMPT`` and ``FAST_ATTEMPT``, have a thousand and a hundred
times the paper's band, take the whole path as their first step and let
an accepted step grow the next by up to 4: a short path is then one RK4
step.  When a rung's path raises :class:`PathError` or its endpoint fails
a certificate (:class:`~nevpick.cee_core.SteinConsistencyError`), the
solve follows the path again on the same context as the next rung says;
the last, ``FALLBACK_ATTEMPT``, is the paper's band on steps from 0.1
growing by up to 2, and the solve raises what it raises.  The band is a
speed setting, not the guard against a wrong root: a certified endpoint
is the unique solution, so each rung only turns the failures of the rungs
before it into certificates, and a solve fails only when its last two
rungs, taken alone, fail too.  Every path ends with one more Newton step
at ``nu = 1``, kept only if it lowers the residual, so the endpoint sits
at the float root of ``G(., 1)`` whatever steps led there.  The attempts,
the Newton tolerance ``TOL_NEWTON`` and the step floor ``STEP_MIN`` are
constants of the table in :mod:`nevpick.polyalg`; a solve takes no
options.

``G``, ``dG/dp`` and ``dG/dnu`` at one point need only ``S([1; v])`` and
``S([0; g])``, the two slices of one stacked product per point, which
:class:`HomotopyContext` forms from the strided views of its own
:class:`~nevpick.polyalg.SymStack` and keeps for the last point
evaluated, so a tangent, a band test followed by the first Newton
residual, or a Newton iterate forms it once.  The context also keeps
that point's residual ``G`` once evaluated, so the band test's residual
is the corrector's first one.  An accepted state reads ``a = v - g``
from the entry, the endpoint keeps the last state's ``a`` and reads
``b = v + g`` from the same entry, and a point at the same ``nu`` reuses
its operator pair.

Floating-point warnings are silenced inside the path follower.  Its linear
algebra runs through :func:`~nevpick.polyalg.solve_vector` and
:func:`~nevpick.polyalg.inverse`, which call LAPACK without numpy's per-call
error state; a singular matrix there raises ``LinAlgError``, which halves
the step, and a non-finite value surfaces as :class:`CorrectorError` (the
step is halved too) or, once the step underflows, as :class:`PathError`.
The matrix products of a path point are ``ndarray.dot`` calls, here and
in :mod:`nevpick.cee_core`: ``dot`` calls the BLAS routine that ``@``
calls, so the bits are the same, and at these sizes skips about as much
time in ``@``'s dispatch as a matrix-vector product takes in BLAS.

The interpolant is evaluated from one power table of its points,
``np.vander``, times the coefficients of ``b`` and ``a``: a fixed number
of numpy calls whatever the degree, where Horner's rule makes two per
coefficient.  The solve's interpolation residuals,
:meth:`Solution.interpolant` and :meth:`Solution.interpolant_from_reciprocal`
share that helper.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import cee_core
from .cee_core import build_V, operator_pair, recover_P, v_and_g
from .polyalg import (
    ATTEMPTS,
    MAX_NEWTON_ITERS,
    STEP_MIN,
    STEP_REJECT_RANGE,
    STEP_SAFETY,
    TOL_NEWTON,
    MonicPolynomial,
    PathAttempt,
    SymStack,
    build_S,
    companion,
    readonly,
    roots,
    solve_vector,
)
from .problem import (
    InterpolationProblem,
    ProblemValidationError,
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
                np.linalg.LinAlgError)


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
        return readonly(np.sort_complex(roots(self.a)))


@dataclass(frozen=True, eq=False)
class Diagnostics:
    """Post-solve certificates and locations.

    The certificates are computed eagerly; ``solve`` enforces only the CEE
    residual.  The locations, the singular values and ``cond_V`` are
    computed on first read from the private inputs below, and kept.  Every
    array a field holds or a property returns is read-only.
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
        return readonly(np.sort_complex(roots(self._b)))

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
    Both evaluation methods form one power table of their points:
    :meth:`interpolant` of ``1/z`` outside the closed unit disk and of ``z``
    inside it, :meth:`interpolant_from_reciprocal` of the ``zeta`` given.
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
        """Evaluate ``f(z) = scale * b(z) / (2 a(z))``; accepts the infinity sentinel.

        Evaluated in ``z`` where ``|z| <= 1`` and in ``1/z`` beyond, so no
        power of either overflows: ``f(0)`` is ``scale * b_n / (2 a_n)``.
        """
        z = complex(z)
        if abs(z) <= 1.0:
            return _half_ratio(z, self.b.coeffs[::-1], self.a.coeffs[::-1], self.scale)
        return self.interpolant_from_reciprocal(0.0 if cmath.isinf(z) else 1.0 / z)

    def interpolant_from_reciprocal(self, zeta):
        """Evaluate the interpolant at ``z = 1/zeta`` (``zeta`` may be 0 or an array).

        Multiplying ``b(z)`` and ``a(z)`` by ``zeta^n`` puts their
        coefficients in increasing powers of ``zeta``, as they are stored.
        """
        return _half_ratio(zeta, self.b.coeffs, self.a.coeffs, self.scale)


def _half_ratio(x, top: np.ndarray, bottom: np.ndarray, scale: float):
    """``scale * top(x) / (2 bottom(x))``, the coefficients of ``top`` and
    ``bottom`` in increasing powers of ``x``, from one power table of ``x``.

    In the shape of ``x``: a scalar gives a numpy scalar.
    """
    x = np.asarray(x)
    powers = np.vander(x.ravel(), len(top), increasing=True)
    return (scale * powers.dot(top) / (2.0 * powers.dot(bottom))).reshape(x.shape)[()]


class HomotopyContext:
    """Holds everything ``G`` needs: the coefficients ``sigma`` of
    ``sigma`` (``a`` at the start), its companion matrix ``Gamma`` and its
    double ``twice_Gamma``, its coefficient tail ``s``, ``d`` and its
    double ``twice_d``, the slope ``T_dot`` of ``T(nu) = nu T_dot`` with
    the identity ``eye`` of its size, and one cached point.  The eight
    arrays are read-only.

    Normalizes its problem's values (value exactly 1/2 at infinity) and
    builds ``T_dot`` from them and the problem's reciprocal nodes; of the
    normalization it keeps only ``scale``, the factor that undoes it.  The
    cached point is the linearization of the last point evaluated, with its
    operator pair and, once ``eval_G`` asks for it, its read-only residual:
    Newton iterates, a band test and the tangents of one ``nu`` share one
    matrix inverse, and a new ``nu`` forms a new pair.  The context owns a
    :class:`~nevpick.polyalg.SymStack` of the two vectors ``[1; v]`` and
    ``[0; g]`` and the vector ``[1; b]`` of ``eval_G``, with their constant
    entries written once: a new point writes ``v`` and ``g`` into the stack
    and adds its two strided views into a new array of products.
    """

    def __init__(self, problem: InterpolationProblem):
        w, self.scale = normalize(problem)
        self.n = problem.n
        self.Gamma = companion(problem.sigma)
        # doubling is exact, so (A - B U) @ twice_Gamma == 2 (A - B U) @ Gamma bit for bit
        self.twice_Gamma = readonly(2.0 * self.Gamma)
        self.sigma = problem.sigma.coeffs
        self.s = problem.sigma.tail
        # first n autocorrelation coefficients of sigma
        self.d = readonly(0.5 * (build_S(self.sigma) @ self.sigma)[: self.n])
        self.twice_d = readonly(2.0 * self.d)   # the rank-one column of jac_G
        self.T_dot = cee_core.build_cee_matrices(problem.node_reciprocals(), w)
        # formed once: adding 1 to the diagonal per call is slower than adding this copy
        self.eye = readonly(np.eye(self.n + 1))
        self._point = ((None, None), None)   # (key, linearization) of the last point evaluated
        self._G = None                       # eval_G at that point, once evaluated
        # per-point buffers, their leading entries written once: the stack
        # [[1, v], [0, g]] of the products and the vector [1; v + g] of eval_G
        self._stack = SymStack(2, self.n + 1)
        self._stack.rows[0, 0] = 1.0
        self._v, self._g = self._stack.rows[:, 1:]
        self._b = np.ones(self.n + 1)

    def linearization(self, p: np.ndarray, nu: float):
        """``(pair, v, g, S([1; v]), S([0; g]))`` at ``(p, nu)``.

        The entry of the last point asked for is kept, keyed by ``nu`` and
        the bytes of ``p`` (so a changed ``p`` is a new point): ``eval_G``,
        ``jac_G`` and ``dG_dnu`` at one point share one pair of products,
        the two slices of one new array from the context's stack
        ``[[1, v], [0, g]]``, equal bit for bit to ``build_S([1, v])``
        and ``build_S([0, g])``.  A new point at the entry's ``nu`` keeps
        the entry's operator pair.
        """
        p = np.asarray(p, dtype=float)
        key = (float(nu), p.tobytes())
        last_key, last = self._point
        if last_key != key:
            pair = last[0] if last_key[0] == key[0] else operator_pair(self.T_dot, self.eye, key[0])
            v, g = v_and_g(pair, self.Gamma, self.s, p)
            # the products are a new array, so the stack is free for the next point
            self._v[...] = v
            self._g[...] = g
            S = self._stack.products()
            self._point = (key, (pair, v, g, S[0], S[1]))
            self._G = None
        return self._point[1]


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
        sym = (S_v - S_g).dot(ctx._b)
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
    J = (S_v[:n, 1:] - S_g[:n, 1:].dot(pair.U)).dot(ctx.twice_Gamma)
    J[:, 0] += ctx.twice_d
    return J


def dG_dnu(p: np.ndarray, nu: float, ctx: HomotopyContext) -> np.ndarray:
    """Partial derivative of ``G`` in the homotopy parameter.

    Only the operator pair depends on ``nu``; since ``a - b = -2 g``,

        ``dG/dnu = -2 E S([0; g])[:, 1:] (U_dot v + u_dot)``.
    """
    pair, v, _, _, S_g = ctx.linearization(p, nu)
    return -2.0 * S_g[: ctx.n, 1:].dot(pair.U_dot.dot(v) + pair.u_dot)


def _tangent(p: np.ndarray, nu: float, ctx: HomotopyContext) -> np.ndarray:
    """Trajectory tangent ``dp/dnu = -(dG/dp)^-1 dG/dnu`` (implicit function theorem)."""
    return -solve_vector(jac_G(p, nu, ctx), dG_dnu(p, nu, ctx))


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
            p = p - solve_vector(jac_G(p, nu, ctx), G)
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
        a=readonly(np.concatenate(([1.0], v - g))),
    )


def _follow_path(ctx: HomotopyContext, attempt: PathAttempt) -> list:
    """March ``nu`` from 0 to 1 with the band and step schedule of ``attempt``;
    return the list of accepted states.

    The first state is the central solution ``p = 0`` with ``a = sigma``
    and residual 0, and the tangent there is 0: both are known in closed
    form (``G`` and ``dG/dnu`` vanish at ``p = 0``, ``nu = 0``; see the
    module docstring), so neither is evaluated.  The last state holds the
    endpoint after :func:`_end_step`.
    """
    # a singular or non-finite point reaches the step driver as LinAlgError
    # or a non-finite residual; numpy's floating-point warnings, the invalid
    # flag of a singular solve_vector or inverse among them, would repeat it
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # the central solution, in closed form (module docstring)
        p = readonly(np.zeros(ctx.n))
        states = [ContinuationState(nu=0.0, p=p, step=0.0, corrector_iters=0, residual=0.0,
                                    a=ctx.sigma)]
        if not ctx.T_dot.any():
            # the target values already equal 1/2 everywhere
            return states

        mu = attempt.band
        nu = 0.0
        step = attempt.first_step
        # tangent at (p, nu), 0 at the start; a rejected step leaves both
        # unchanged, so it is reused
        tangent = np.zeros(ctx.n)
        while nu < 1.0:
            if step < STEP_MIN:
                raise PathError(f"step size underflowed below {STEP_MIN:.1e} at nu={nu:.6g}")
            target = min(nu + step, 1.0)
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
            factor = (STEP_SAFETY * mu / band) ** 0.2 if band > 0.0 else math.inf
            if band > mu:
                step = dnu * _clip(factor, STEP_REJECT_RANGE)
                continue
            try:
                p_new, iters, residual = corrector(p_hat, target, ctx)
            except CorrectorError:
                step = 0.5 * dnu
                continue
            nu, p, tangent = target, p_new, None
            if nu == 1.0:
                p, residual = _end_step(ctx, p, residual)
            states.append(_make_state(ctx, nu, p, dnu, iters, residual))
            step = dnu * min(factor, attempt.growth)
        return states


def _end_step(ctx: HomotopyContext, p: np.ndarray, residual: float) -> tuple:
    """One more Newton step at ``nu = 1`` from the corrected endpoint ``p``.

    Returns ``(p, residual)`` of the step's point if its residual is lower,
    else the inputs: the endpoint then sits at the float root of ``G(., 1)``
    however long the steps before it were.
    """
    try:
        p_new = p - solve_vector(jac_G(p, 1.0, ctx), eval_G(p, 1.0, ctx))
    except np.linalg.LinAlgError:
        return p, residual
    r = float(np.abs(eval_G(p_new, 1.0, ctx)).max(initial=0.0))
    return (p_new, r) if r < residual else (p, residual)


def _certified_path(ctx: HomotopyContext, attempt: PathAttempt) -> tuple:
    """Follow the path as ``attempt`` says and certify its endpoint.

    Returns the states, the recovered ``P`` and its CEE residual, as
    :func:`~nevpick.cee_core.recover_P` returns them after its checks, and
    the tail ``v + g`` of ``b`` at the endpoint.
    """
    states = tuple(_follow_path(ctx, attempt))
    p = states[-1].p
    _, v, g, _, _ = ctx.linearization(p, 1.0)
    P, cee_res = recover_P(ctx.Gamma, ctx.s, p, g)
    return states, P, cee_res, v + g


def _clip(x: float, bounds: tuple) -> float:
    lo, hi = bounds
    return min(max(x, lo), hi)


def solve(problem: InterpolationProblem) -> Solution:
    """Solve one interpolation instance end to end.

    Validates, normalizes to value 1/2 at infinity, follows the homotopy
    path from the central solution ``p = 0``, recovers and certifies the
    matrix ``P`` from the covariance extension equation at the endpoint,
    and assembles the interpolant with full diagnostics.  The path is
    followed as each of ``ATTEMPTS`` says in turn, ``LOOSE_ATTEMPT``,
    ``FAST_ATTEMPT`` and ``FALLBACK_ATTEMPT``, on one context, until one
    certifies; the trajectory is that attempt's.  A rung whose path raises
    :class:`PathError` or whose endpoint raises
    :class:`~nevpick.cee_core.SteinConsistencyError` hands over to the next.
    Deterministic: identical inputs produce bit-identical trajectories.

    Raises :class:`~nevpick.problem.ProblemValidationError` on invalid input,
    and, when the fallback attempt fails too, what it raises:
    :class:`PathError` when step control fails and
    :class:`~nevpick.cee_core.SteinConsistencyError` when the recovered ``P``
    fails a check of :func:`~nevpick.cee_core.recover_P`, its CEE residual
    bound ``TOL_CEE`` among them.
    """
    violations = validate(problem)
    if violations:
        raise ProblemValidationError(violations)
    ctx = HomotopyContext(problem)
    for attempt in ATTEMPTS:
        try:
            states, P, cee_res, b_tail = _certified_path(ctx, attempt)
            break
        except (PathError, cee_core.SteinConsistencyError):
            if attempt is ATTEMPTS[-1]:
                raise
    p = states[-1].p
    a, b = MonicPolynomial(states[-1].a), MonicPolynomial(np.concatenate(([1.0], b_tail)))
    zeta = problem.node_reciprocals()
    f_vals = _half_ratio(zeta, b.coeffs, a.coeffs, ctx.scale)     # in powers of zeta = 1/z
    interp_residuals = readonly(np.abs(f_vals - problem.values_array()))
    return Solution(
        problem=problem,
        a=a,
        b=b,
        rho=math.sqrt(1.0 - (p[0] if ctx.n else 0.0)),
        P=P,
        p=p,
        scale=ctx.scale,
        trajectory=states,
        diagnostics=Diagnostics(
            interp_residuals=interp_residuals,
            max_interp_residual=float(interp_residuals.max()),
            cee_residual=cee_res,
            _trajectory=states,
            _b=b.coeffs,
            _P=P,
            _zeta=zeta,
        ),
    )
