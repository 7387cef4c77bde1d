"""Core ingredients of the covariance-extension-equation reformulation.

From the reciprocal nodes and the normalized values (value 1/2 at
infinity) of a problem this module builds

* the scaled node Vandermonde matrix ``V`` with rows ``(1, 1/z_k, ..., 1/z_k^n)``,
* the slope ``T_dot`` of ``T(nu) = V^-1 W(nu) V - 1/2 I``, where
  ``W(nu) = 1/2 I + nu (W - 1/2 I)`` is the interpolation-value diagonal;
  ``T`` is real for conjugate-symmetric data and ``T(nu) = nu * T_dot``,
* the operator pair ``[u U] = [0 I] (I + T)^-1 T`` and its ``nu`` derivative,

and it evaluates / solves the covariance extension equation

    ``P = Gamma (P - P h h' P) Gamma' + g(P) g(P)'``

whose right-hand vector is ``g = u + U s + U Gamma P h``, with ``s`` the
coefficient tail of ``sigma``.  At the path endpoint ``P`` is read off that
equation by a shift recursion: the on-trajectory identity ``P h = p`` turns
it into a Stein equation in the nilpotent upper shift, which
back-substitution solves with numpy alone.  :func:`recover_P` holds the
whole endpoint certificate: ``P h == p``, positive semidefiniteness,
``h' P h < 1`` and the CEE residual bound ``TOL_CEE``.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .polyalg import (
    TOL_CEE,
    TOL_P_PH,
    TOL_P_PSD,
    eigvalsh,
    inverse,
    readonly,
    solve_complex,
)

__all__ = [
    "OperatorPair",
    "RealnessError",
    "SteinConsistencyError",
    "build_V",
    "build_cee_matrices",
    "operator_pair",
    "cee_residual",
    "recover_P",
]


class RealnessError(ValueError):
    """A matrix that should be real (by conjugate symmetry) is not.

    Nothing raises it: :func:`~nevpick.problem.validate` is the one
    conjugate-symmetry check of a solve.  The name stays importable for
    callers that catch it.
    """


class SteinConsistencyError(RuntimeError):
    """The recovered matrix fails an on-trajectory consistency check."""


class OperatorPair(NamedTuple):
    """Operator pair ``(u, U)`` at one homotopy parameter, with their ``nu`` derivatives.

    From :func:`operator_pair` the fields are read-only column views of two
    locked arrays, ``[u U]`` and ``[u_dot U_dot]``.
    """

    u: np.ndarray
    U: np.ndarray
    u_dot: np.ndarray
    U_dot: np.ndarray


def build_V(zeta) -> np.ndarray:
    """Node matrix with row k equal to ``(1, z_k^-1, ..., z_k^-n)``.

    Takes the reciprocal nodes ``zeta_k = 1/z_k`` (0 for the infinite node).
    This is the plain Vandermonde in the powers of ``z_k`` with each row
    scaled by ``z_k^-n``, which keeps entries O(1) for distant nodes and
    makes the row for the infinite node ``(1, 0, ..., 0)``.  Row scalings
    are harmless downstream: ``T`` is invariant under left multiplication
    of ``V`` by any nonsingular diagonal.  The nodes must be distinct, as
    :func:`~nevpick.problem.validate` checks; coincident nodes make ``V``
    singular.
    """
    zeta = np.asarray(zeta, dtype=complex)
    return np.vander(zeta, N=zeta.size, increasing=True)


def build_cee_matrices(zeta: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The nu-independent slope ``T_dot`` (read-only) from the reciprocal
    nodes ``zeta`` and the normalized values ``w`` (``w[0] = 1/2``), both
    complex arrays, as :func:`~nevpick.problem.normalize` returns ``w``.

    ``T_dot = V^-1 (W - 1/2 I) V`` is real analytically for conjugate-symmetric
    nodes and values, and the real part is returned without a check:
    :func:`~nevpick.problem.validate` is the one symmetry rule.  Once it has
    passed, each node's conjugate is a node within ``TOL_NODE`` and each
    value's partner is its conjugate within ``TOL_VALUE (1 + |w|)``.  For
    exactly conjugate nodes, with ``k'`` the partner of ``k``,
    ``conj(T_dot) = V^-1 diag(conj(w_k') - 1/2) V``, so the real part is the
    ``T_dot`` of the values ``(w_k + conj(w_k')) / 2``: a broken value pair
    is solved as the pair's average, which no real interpolant can beat.
    ``T(nu) = nu * T_dot`` exactly, so the start ``T(0) = 0`` is exact.
    """
    V = build_V(zeta)
    T_dot = solve_complex(V, (w - 0.5)[:, None] * V)
    return readonly(np.ascontiguousarray(T_dot.real))


def operator_pair(T_dot: np.ndarray, eye: np.ndarray, nu: float) -> OperatorPair:
    """Evaluate ``(u, U, u_dot, U_dot)`` at one homotopy parameter.

    ``eye`` is the identity of the size of ``T_dot``, formed once by the caller.

    With ``M = I + T = I + nu T_dot``, ``(I + T)^-1 T = nu M^-1 T_dot`` and
    its ``nu`` derivative is ``M^-1 T_dot M^-1``; the bottom rows of the
    first give ``(u, U)`` and of the second ``(u_dot, U_dot)``, from one
    inverse; the equal form ``I - M^-1`` would lose digits for small ``nu``.
    ``M`` is nonsingular for admissible data (its eigenvalues are the
    shifted values ``1/2 + nu (w_k - 1/2)``, all with positive real part).
    A singular ``M`` raises the ``LinAlgError`` of
    :func:`~nevpick.polyalg.inverse` and sets numpy's invalid flag; the path
    follower ignores the flag and catches the error, which halves its step.
    """
    M_inv = inverse(eye + nu * T_dot)
    # ndarray.dot: the BLAS call of @ without its dispatch (see nevpick.continuation)
    bottom = M_inv[1:].dot(T_dot)
    uU = readonly(nu * bottom)
    slope = readonly(bottom.dot(M_inv))
    return OperatorPair(uU[:, 0], uU[:, 1:], slope[:, 0], slope[:, 1:])


def v_and_g(pair: OperatorPair, Gamma: np.ndarray, s: np.ndarray, p: np.ndarray):
    """``v = Gamma p + s`` and ``g = U v + u``, so ``a = v - g`` and ``b = v + g``."""
    v = s + Gamma.dot(p)
    return v, pair.U.dot(v) + pair.u


def cee_residual(P: np.ndarray, Gamma: np.ndarray, g: np.ndarray) -> float:
    """Frobenius norm of ``P - Gamma (P - P h h' P) Gamma' - g g'``.

    ``h = e1``, so ``P h h' P`` is the outer product of column 0 and row 0.
    """
    res = (P - Gamma @ (P - P[:, :1] @ P[:1]) @ Gamma.T - g[:, None] * g).ravel()
    return math.sqrt(res.dot(res))


def recover_P(Gamma: np.ndarray, s: np.ndarray, p: np.ndarray, g: np.ndarray) -> tuple:
    """Recover and certify the covariance-extension matrix from the endpoint vector ``p``.

    Returns ``(P, residual)``: the read-only ``P`` and its
    :func:`cee_residual`.  With ``P h = p`` the equation is the Stein form
    ``P - Gamma P Gamma' = g g' - (Gamma p)(Gamma p)'``, whose operator
    ``I - Gamma x Gamma`` is ill-conditioned when the spectral zeros cluster
    near the unit circle.  Writing ``Gamma = Z - s h'``, with ``Z`` the upper
    shift and ``s`` the coefficient tail of ``sigma``, and using ``P h = p`` once more in
    ``Gamma P Gamma'`` leaves

        ``P - Z P Z' = R = g g' - (Gamma p)(Gamma p)' - (Z p s' + s (Z p)') + p_1 s s'``.

    ``Z`` is nilpotent, so ``P = sum_k Z^k R Z'^k``: each row of ``P`` is the
    row of ``R`` plus the next row of ``P`` shifted left, a bottom-up
    recursion in O(n^2) with no linear solve.  ``P`` is exactly symmetric
    by construction, for any input: ``R`` is symmetric entry by entry (IEEE
    products commute, and ``sZ + sZ'`` adds the same two numbers in both
    orders), and ``P_ij``, ``P_ji`` add the same terms in the same order.
    Nothing forces the first column (``P h``, as ``h = e1``) to equal ``p``,
    so the checks ``P h == p``, positive semidefiniteness, ``h' P h < 1``
    and a CEE residual at most ``TOL_CEE`` are genuine.  A violation raises
    :class:`SteinConsistencyError`.
    """
    n = s.size
    if n == 0:
        return readonly(np.zeros((0, 0))), 0.0
    Gp = Gamma @ p
    sZ = np.concatenate((p[1:], [0.0]))[:, None] * s
    # one sum sZ + sZ' keeps R, and so P, bitwise symmetric
    P = g[:, None] * g - Gp[:, None] * Gp - (sZ + sZ.T) + p[0] * (s[:, None] * s)
    for i in range(n - 2, -1, -1):
        P[i, :-1] += P[i + 1, 1:]
    if np.abs(P[:, 0] - p).max() > TOL_P_PH * (1.0 + float(np.abs(p).max())):
        raise SteinConsistencyError("P h differs from p; the point is off the trajectory")
    eigs = eigvalsh(P)
    if eigs[0] < -TOL_P_PSD:
        raise SteinConsistencyError(f"recovered matrix has eigenvalue {eigs[0]:.3e} < 0")
    if not P[0, 0] < 1.0:
        raise SteinConsistencyError(f"h' P h = {P[0, 0]:.6g} must be below 1")
    residual = cee_residual(P, Gamma, g)
    if not residual <= TOL_CEE:
        raise SteinConsistencyError(
            f"CEE residual {residual:.3e} of the recovered matrix exceeds {TOL_CEE:.0e}")
    return readonly(P), residual
