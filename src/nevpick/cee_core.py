"""Core ingredients of the covariance-extension-equation reformulation.

From a normalized problem (value 1/2 at infinity) this module builds

* the scaled node Vandermonde matrix ``V`` with rows ``(1, 1/z_k, ..., 1/z_k^n)``,
* the slope ``T_dot`` of ``T(nu) = V^-1 W(nu) V - 1/2 I``, where
  ``W(nu) = 1/2 I + nu (W - 1/2 I)`` is the interpolation-value diagonal;
  ``T`` is real for conjugate-symmetric data and ``T(nu) = nu * T_dot``,
* the operator pair ``[u U] = [0 I] (I + T)^-1 T`` and its ``nu`` derivative,

and it evaluates / solves the covariance extension equation

    ``P = Gamma (P - P h h' P) Gamma' + g(P) g(P)'``

whose right-hand vector is ``g = u + U sigma_vec + U Gamma P h``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_discrete_lyapunov

from .polyalg import TOL_P_PH, TOL_P_PSD, TOL_P_SYM, TOL_REAL, CompanionData
from .problem import InterpolationProblem, require_distinct

__all__ = [
    "OperatorPair",
    "CeeMatrices",
    "RealnessError",
    "SteinConsistencyError",
    "build_V",
    "build_cee_matrices",
    "operator_pair",
    "g_of_p",
    "cee_residual",
    "recover_P",
]


class RealnessError(ValueError):
    """A matrix that should be real (by conjugate symmetry) is not."""


class SteinConsistencyError(RuntimeError):
    """The recovered matrix fails an on-trajectory consistency check."""


def _frozen_fields(obj, *names):
    # instances are shared read-only across evaluations; lock the arrays
    for name in names:
        arr = np.asarray(getattr(obj, name))
        arr.flags.writeable = False
        object.__setattr__(obj, name, arr)


@dataclass(frozen=True, eq=False)
class OperatorPair:
    """Operator pair ``(u, U)`` at one homotopy parameter, with derivatives."""

    nu: float
    u: np.ndarray
    U: np.ndarray
    u_dot: np.ndarray
    U_dot: np.ndarray

    def __post_init__(self):
        _frozen_fields(self, "u", "U", "u_dot", "U_dot")


@dataclass(frozen=True, eq=False)
class CeeMatrices:
    """Problem-level matrices shared by every homotopy-parameter evaluation.

    ``T_dot = V^-1 (W - 1/2 I) V`` is independent of ``nu``;
    ``T(nu) = nu * T_dot`` exactly, so the start ``T(0) = 0`` is exact.
    """

    V: np.ndarray
    w_target: np.ndarray
    T_dot: np.ndarray
    cond_V: float

    def __post_init__(self):
        _frozen_fields(self, "V", "w_target", "T_dot")


def build_V(zeta) -> np.ndarray:
    """Node matrix with row k equal to ``(1, z_k^-1, ..., z_k^-n)``.

    Takes the reciprocal nodes ``zeta_k = 1/z_k`` (0 for the infinite node).
    This is the plain Vandermonde in the powers of ``z_k`` with each row
    scaled by ``z_k^-n``, which keeps entries O(1) for distant nodes and
    makes the row for the infinite node ``(1, 0, ..., 0)``.  Row scalings
    are harmless downstream: ``T`` is invariant under left multiplication
    of ``V`` by any nonsingular diagonal.
    """
    zeta = np.asarray(zeta, dtype=complex)
    require_distinct(zeta)
    return np.vander(zeta, N=zeta.size, increasing=True)


def build_cee_matrices(problem: InterpolationProblem) -> CeeMatrices:
    """Build V and the nu-independent slope ``T_dot`` for a normalized problem.

    ``T_dot = V^-1 (W - 1/2 I) V`` is real analytically for conjugate-symmetric
    nodes and values; an imaginary residue above ``TOL_REAL`` signals broken
    symmetry and raises :class:`RealnessError`.
    """
    V = build_V(problem.node_reciprocals())
    w = problem.values_array()
    T_dot = np.linalg.solve(V, (w - 0.5)[:, None] * V)
    residue = float(np.max(np.abs(T_dot.imag)))
    if residue > TOL_REAL:
        raise RealnessError(
            f"imaginary residue {residue:.3e} exceeds {TOL_REAL:.0e}; "
            "node/value set is not conjugate symmetric"
        )
    return CeeMatrices(V=V, w_target=w, T_dot=np.ascontiguousarray(T_dot.real),
                       cond_V=float(np.linalg.cond(V)))


def operator_pair(cee: CeeMatrices, nu: float) -> OperatorPair:
    """Evaluate ``(u, U, u_dot, U_dot)`` at one homotopy parameter.

    With ``M = I + T = I + nu T_dot``, ``(I + T)^-1 T = nu M^-1 T_dot`` and
    its ``nu`` derivative is ``M^-1 T_dot M^-1``; the bottom rows of the
    first give ``(u, U)`` and of the second ``(u_dot, U_dot)``, from one
    inverse; the equal form ``I - M^-1`` would lose digits for small ``nu``.
    ``M`` is nonsingular for admissible data (its eigenvalues are the
    shifted values ``1/2 + nu (w_k - 1/2)``, all with positive real part);
    a singular ``M`` means corrupted input and surfaces as ``LinAlgError``.
    """
    m = cee.T_dot.shape[0]
    try:
        M_inv = np.linalg.inv(np.eye(m) + nu * cee.T_dot)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            "I + T is singular, which valid interpolation data cannot produce; "
            "the input is corrupted"
        ) from exc
    bottom = M_inv[1:] @ cee.T_dot
    uU = nu * bottom
    slope = bottom @ M_inv
    return OperatorPair(
        nu=float(nu),
        u=np.ascontiguousarray(uU[:, 0]),
        U=np.ascontiguousarray(uU[:, 1:]),
        u_dot=np.ascontiguousarray(slope[:, 0]),
        U_dot=np.ascontiguousarray(slope[:, 1:]),
    )


def g_of_p(pair: OperatorPair, comp: CompanionData, p: np.ndarray) -> np.ndarray:
    """Right-hand vector ``g = u + U (sigma_vec + Gamma p)``."""
    return pair.u + pair.U @ (comp.sigma_vec + comp.Gamma @ p)


def cee_residual(P: np.ndarray, comp: CompanionData, g: np.ndarray) -> float:
    """Frobenius norm of ``P - Gamma (P - P h h' P) Gamma' - g g'``."""
    G = comp.Gamma
    Ph = P @ comp.h
    hP = P.T @ comp.h
    res = P - G @ (P - np.outer(Ph, hP)) @ G.T - np.outer(g, g)
    return float(np.linalg.norm(res, "fro"))


def recover_P(comp: CompanionData, p: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Recover the covariance-extension matrix from the endpoint vector ``p``.

    Solves the linear Stein form ``P - Gamma P Gamma' = -Gamma p p' Gamma' + g g'``
    (uniquely solvable because the companion polynomial is Schur) and checks
    the on-trajectory consistency conditions ``P h == p``, symmetry,
    positive semidefiniteness and ``h' P h < 1``.  Violations raise
    :class:`SteinConsistencyError`.
    """
    n = comp.n
    if n == 0:
        return np.zeros((0, 0))
    G = comp.Gamma
    Gp = G @ p
    rhs = np.outer(g, g) - np.outer(Gp, Gp)
    P = solve_discrete_lyapunov(G, rhs)
    scale = max(1.0, float(np.max(np.abs(P))))
    if np.max(np.abs(P - P.T)) > TOL_P_SYM * scale:
        raise SteinConsistencyError("recovered matrix is not symmetric")
    P = 0.5 * (P + P.T)
    if np.max(np.abs(P @ comp.h - p)) > TOL_P_PH * (1.0 + float(np.max(np.abs(p)))):
        raise SteinConsistencyError("P h differs from p; the point is off the trajectory")
    eigs = np.linalg.eigvalsh(P)
    if eigs[0] < -TOL_P_PSD:
        raise SteinConsistencyError(f"recovered matrix has eigenvalue {eigs[0]:.3e} < 0")
    hPh = float(comp.h @ P @ comp.h)
    if not hPh < 1.0:
        raise SteinConsistencyError(f"h' P h = {hPh:.6g} must be below 1")
    return P
