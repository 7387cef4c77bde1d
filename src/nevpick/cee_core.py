"""Core ingredients of the covariance-extension-equation reformulation.

From a normalized problem (value 1/2 at infinity) this module builds

* the scaled node Vandermonde matrix ``V`` with rows ``(1, 1/z_k, ..., 1/z_k^n)``,
* the interpolation-value diagonal ``W(nu) = 1/2 I + nu (W - 1/2 I)``,
* ``T(nu) = V^-1 W(nu) V - 1/2 I``, which is real for conjugate-symmetric
  data and affine in ``nu`` (``T(nu) = nu * T(1)``),
* the operator pair ``[u U] = [0 I] (I + T)^-1 T`` and its ``nu`` derivative,

and it evaluates / solves the covariance extension equation

    ``P = Gamma (P - P h h' P) Gamma' + g(P) g(P)'``

whose right-hand vector is ``g = u + U sigma_vec + U Gamma P h``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_discrete_lyapunov, toeplitz

from .polyalg import CompanionData
from .problem import InterpolationProblem

__all__ = [
    "OperatorPair",
    "CeeMatrices",
    "RealnessError",
    "SteinConsistencyError",
    "build_V",
    "build_W",
    "build_T",
    "build_cee_matrices",
    "operator_pair",
    "compute_uU",
    "compute_uU_dot",
    "uU_from_covariance",
    "g_of_p",
    "cee_residual",
    "recover_P",
]

#: imaginary residue above which conjugate symmetry is considered broken
TOL_REAL = 1e-9


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


def _reciprocals(nodes) -> np.ndarray:
    if isinstance(nodes, InterpolationProblem):
        return nodes.node_reciprocals()
    out = np.empty(len(nodes), dtype=complex)
    for k, z in enumerate(nodes):
        z = complex(z)
        out[k] = 0.0 if (np.isinf(z.real) or np.isinf(z.imag)) else 1.0 / z
    return out


def build_V(nodes) -> np.ndarray:
    """Node matrix with row k equal to ``(1, z_k^-1, ..., z_k^-n)``.

    This is the plain Vandermonde in the powers of ``z_k`` with each row
    scaled by ``z_k^-n``, which keeps entries O(1) for distant nodes and
    makes the row for the infinite node ``(1, 0, ..., 0)``.  Row scalings
    are harmless downstream: ``T`` is invariant under left multiplication
    of ``V`` by any nonsingular diagonal.
    """
    zeta = _reciprocals(nodes)
    m = zeta.size
    for k in range(m):
        for j in range(k + 1, m):
            if abs(zeta[k] - zeta[j]) <= 1e-14:
                raise ValueError(f"nodes {k} and {j} coincide; V would be singular")
    return np.vander(zeta, N=m, increasing=True)


def build_W(values, nu: float) -> np.ndarray:
    """Diagonal of ``W(nu) = 1/2 I + nu (W - 1/2 I)`` as a 1-d array."""
    w = np.asarray(values, dtype=complex)
    return 0.5 + nu * (w - 0.5)


def _real_similarity(V: np.ndarray, diag: np.ndarray, tol_real: float) -> np.ndarray:
    """Real part of ``V^-1 diag(d) V`` after checking the imaginary residue."""
    M = np.linalg.solve(V, diag[:, None] * V)
    residue = float(np.max(np.abs(M.imag)))
    if residue > tol_real:
        raise RealnessError(
            f"imaginary residue {residue:.3e} exceeds {tol_real:.0e}; "
            "node/value set is not conjugate symmetric"
        )
    return np.ascontiguousarray(M.real)


def build_T(V: np.ndarray, W: np.ndarray, tol_real: float = TOL_REAL) -> np.ndarray:
    """Real matrix ``T = V^-1 W V - 1/2 I`` (``W`` given by its diagonal).

    Conjugate-symmetric nodes/values make the product real analytically;
    an imaginary residue above ``tol_real`` signals broken symmetry and
    raises :class:`RealnessError`.
    """
    T = _real_similarity(V, np.asarray(W, dtype=complex), tol_real)
    return T - 0.5 * np.eye(V.shape[0])


def build_cee_matrices(problem: InterpolationProblem, tol_real: float = TOL_REAL) -> CeeMatrices:
    """Build V and the nu-independent slope ``T_dot`` for a normalized problem."""
    V = build_V(problem)
    w = problem.values_array()
    T_dot = _real_similarity(V, w - 0.5, tol_real)
    return CeeMatrices(V=V, w_target=w, T_dot=T_dot, cond_V=float(np.linalg.cond(V)))


def compute_uU(T: np.ndarray):
    """Operator pair from ``[u U] = [0 I_n] (I + T)^-1 T``.

    ``I + T`` is nonsingular for admissible data (its eigenvalues are the
    shifted values ``w_k + 1/2``, all with positive real part); a singular
    system here means corrupted input and surfaces as ``LinAlgError``.
    """
    m = T.shape[0]
    try:
        X = np.linalg.solve(np.eye(m) + T, T)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            "I + T is singular, which valid interpolation data cannot produce; "
            "the input is corrupted"
        ) from exc
    bottom = X[1:, :]
    return np.ascontiguousarray(bottom[:, 0]), np.ascontiguousarray(bottom[:, 1:])


def compute_uU_dot(T: np.ndarray, T_dot: np.ndarray):
    """Derivative of the operator pair in the homotopy parameter.

    Since ``(I+T)^-1 T = I - (I+T)^-1``, the derivative of the product is
    ``(I+T)^-1 T_dot (I+T)^-1``; its bottom rows give ``(u_dot, U_dot)``.
    """
    m = T.shape[0]
    M = np.eye(m) + T
    X = np.linalg.solve(M, T_dot)
    Y = np.linalg.solve(M.T, X.T).T
    bottom = Y[1:, :]
    return np.ascontiguousarray(bottom[:, 0]), np.ascontiguousarray(bottom[:, 1:])


def operator_pair(cee: CeeMatrices, nu: float) -> OperatorPair:
    """Evaluate ``(u, U, u_dot, U_dot)`` at one homotopy parameter."""
    T = nu * cee.T_dot
    u, U = compute_uU(T)
    u_dot, U_dot = compute_uU_dot(T, cee.T_dot)
    return OperatorPair(nu=float(nu), u=u, U=U, u_dot=u_dot, U_dot=U_dot)


def uU_from_covariance(c) -> tuple:
    """Operator pair of the covariance-extension special case.

    ``c = (1, c1, ..., cn)`` must have a positive-definite Toeplitz matrix.
    The series ``z^n / (z^n + c1 z^(n-1) + ... + cn) = 1 - u1/z - u2/z^2 - ...``
    gives ``u``; ``U`` is the strictly lower-triangular Toeplitz matrix of
    ``(u1, ..., u_(n-1))``.
    """
    c = np.asarray(c, dtype=float)
    if c.ndim != 1 or c.size < 1 or c[0] != 1.0:
        raise ValueError("covariance vector must be 1-d with c[0] == 1")
    n = c.size - 1
    eigs = np.linalg.eigvalsh(toeplitz(c))
    if not eigs[0] > 0:
        raise ValueError("Toeplitz matrix of the covariance sequence is not positive definite")
    v = np.zeros(n + 1)
    v[0] = 1.0
    for k in range(1, n + 1):
        v[k] = -(c[1 : k + 1] @ v[k - 1 :: -1])
    u = -v[1:]
    col = np.zeros(n)
    if n > 1:
        col[1:] = u[:-1]
    U = toeplitz(col, np.zeros(n))
    return u, U


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


def recover_P(
    comp: CompanionData,
    p: np.ndarray,
    g: np.ndarray,
    tol_sym: float = 1e-10,
    tol_ph: float = 1e-8,
    tol_psd: float = 1e-8,
) -> np.ndarray:
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
    if np.max(np.abs(P - P.T)) > tol_sym * scale:
        raise SteinConsistencyError("recovered matrix is not symmetric")
    P = 0.5 * (P + P.T)
    if np.max(np.abs(P @ comp.h - p)) > tol_ph * (1.0 + float(np.max(np.abs(p)))):
        raise SteinConsistencyError("P h differs from p; the point is off the trajectory")
    eigs = np.linalg.eigvalsh(P)
    if eigs[0] < -tol_psd:
        raise SteinConsistencyError(f"recovered matrix has eigenvalue {eigs[0]:.3e} < 0")
    hPh = float(comp.h @ P @ comp.h)
    if not hPh < 1.0:
        raise SteinConsistencyError(f"h' P h = {hPh:.6g} must be below 1")
    return P
