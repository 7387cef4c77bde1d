"""Problem instances for degree-constrained interpolation by positive-real functions.

An instance carries ``n + 1`` interpolation nodes outside the closed unit
disk (index 0 is always the point at infinity), the target values in the
open right half-plane, and a monic degree-``n`` spectral-zero polynomial.
The point at infinity is a dedicated sentinel (:data:`INF`); every formula
uses the reciprocal convention ``1/inf == 0`` instead of a large float.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .polyalg import TOL_NODE, TOL_PD, TOL_VALUE, MonicPolynomial, conjugate_pairs, roots_and_schur

__all__ = [
    "INF",
    "InterpolationProblem",
    "NormalizedProblem",
    "Violation",
    "ProblemValidationError",
    "validate",
    "coincident_pairs",
    "require_distinct",
    "pick_matrix",
    "is_positive_definite",
    "normalize",
    "complex_to_json",
    "complex_from_json",
    "poly_from_json",
    "problem_to_json_dict",
    "problem_from_json_dict",
]

#: Sentinel for the node at infinity (always index 0 of the node list).
INF = complex(math.inf, 0.0)


def is_inf_node(z: complex) -> bool:
    z = complex(z)
    return cmath.isinf(z)


@dataclass(frozen=True, eq=False)
class InterpolationProblem:
    """Nodes, values and spectral zeros of one interpolation instance.

    Only structural coherence (matching lengths, sigma degree) is enforced
    at construction; semantic requirements are reported by :func:`validate`
    as data so a front end can print all of them at once.
    """

    nodes: tuple
    values: tuple
    sigma: MonicPolynomial

    def __post_init__(self):
        nodes = tuple(complex(z) for z in self.nodes)
        values = tuple(complex(w) for w in self.values)
        if len(nodes) == 0 or len(nodes) != len(values):
            raise ValueError("nodes and values must be nonempty and of equal length")
        if self.sigma.degree != len(nodes) - 1:
            raise ValueError(
                f"sigma degree {self.sigma.degree} does not match node count {len(nodes)}"
            )
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return len(self.nodes) - 1

    def node_reciprocals(self) -> np.ndarray:
        """Reciprocals 1/z_k as a complex array, with 0 for the infinite node."""
        out = np.empty(len(self.nodes), dtype=complex)
        for k, z in enumerate(self.nodes):
            out[k] = 0.0 if is_inf_node(z) else 1.0 / z
        return out

    def values_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=complex)


@dataclass(frozen=True, eq=False)
class NormalizedProblem:
    """Problem rescaled so that the value at infinity is exactly 1/2.

    ``scale`` is twice the original value at infinity; multiplying the
    solved interpolant by it undoes the normalization.
    """

    problem: InterpolationProblem
    scale: float

    def __post_init__(self):
        if self.problem.values[0] != 0.5:
            raise ValueError("normalized problem must have values[0] == 0.5 exactly")
        if not self.scale > 0:
            raise ValueError("scale must be positive")


@dataclass(frozen=True)
class Violation:
    """One machine-readable validation failure."""

    code: str
    message: str
    index: int | None = None

    def __str__(self):
        where = f" (index {self.index})" if self.index is not None else ""
        return f"[{self.code}]{where} {self.message}"


class ProblemValidationError(ValueError):
    """Raised by the solver entry point when validation finds violations."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__("; ".join(str(v) for v in self.violations))


def coincident_pairs(zeta) -> list:
    """Index pairs ``(k, j)``, ``k < j``, of points closer than ``TOL_NODE``.

    Applied to reciprocal nodes, which for a filter bank are its poles.
    """
    zeta = np.asarray(zeta)
    close = np.abs(zeta[:, None] - zeta[None, :]) <= TOL_NODE
    k, j = np.nonzero(np.triu(close, 1))
    return list(zip(k.tolist(), j.tolist()))


def require_distinct(zeta, what: str = "nodes"):
    """Raise ``ValueError`` naming the first coincident pair of points."""
    pairs = coincident_pairs(zeta)
    if pairs:
        raise ValueError(f"{what} {pairs[0][0]} and {pairs[0][1]} coincide")


def validate(problem: InterpolationProblem) -> list:
    """Check every instance invariant; return a list of violations (empty = valid).

    Checks: infinity sentinel at index 0 with a real value, all finite nodes
    strictly outside the closed unit disk, distinct nodes, conjugate closure
    of node/value pairs, values in the open right half-plane, a Schur
    spectral-zero polynomial, and positive definiteness of the Pick matrix.
    """
    out: list[Violation] = []
    nodes = problem.nodes
    values = problem.values
    n = problem.n

    if not is_inf_node(nodes[0]):
        out.append(Violation("node-inf-sentinel", "nodes[0] must be the point at infinity", 0))
    if abs(values[0].imag) > 1e-12 * max(1.0, abs(values[0])):
        out.append(Violation("value0-real", f"values[0] = {values[0]} must be real", 0))

    structurally_sound = True
    for k in range(1, n + 1):
        z = nodes[k]
        if is_inf_node(z):
            out.append(Violation("node-domain", "only nodes[0] may be infinite", k))
            structurally_sound = False
        elif abs(z) <= 1.0:
            out.append(Violation("node-domain", f"|z_{k}| = {abs(z):.6g} must exceed 1", k))
            structurally_sound = False

    zeta = problem.node_reciprocals()
    for k, j in coincident_pairs(zeta):
        out.append(Violation("node-distinct", f"nodes {k} and {j} coincide", j))
        structurally_sound = False

    warr = problem.values_array()
    for k, j in enumerate(conjugate_pairs(zeta, TOL_NODE)):
        if j is None:
            out.append(Violation("conjugate-closure", f"node {k} has no conjugate partner", k))
            structurally_sound = False
        elif abs(warr[j] - np.conj(warr[k])) > TOL_VALUE * (1.0 + abs(warr[k])):
            out.append(
                Violation(
                    "conjugate-closure",
                    f"value at conjugate node {j} is not the conjugate of value {k}",
                    k,
                )
            )

    for k, w in enumerate(values):
        if not w.real > 0:
            out.append(Violation("value-rhp", f"Re(w_{k}) = {w.real:.6g} must be positive", k))

    if not roots_and_schur(problem.sigma)[1]:
        out.append(Violation("sigma-not-schur", "sigma has a root with modulus >= 1"))

    if structurally_sound:
        P = pick_matrix(problem)
        if not is_positive_definite(P):
            out.append(Violation("pick-not-pd", "Pick matrix is not positive definite"))

    return out


def pick_matrix(problem: InterpolationProblem) -> np.ndarray:
    """Hermitian Pick matrix ``(w_k + conj(w_l)) / (1 - conj(z_l)^-1 z_k^-1)``.

    The infinite node contributes reciprocal 0, so its row and column reduce
    to ``w_k + conj(w_l)`` and the (0, 0) entry is ``2 w_0``.
    """
    zeta = problem.node_reciprocals()
    require_distinct(zeta)
    w = problem.values_array()
    num = w[:, None] + np.conj(w)[None, :]
    den = 1.0 - zeta[:, None] * np.conj(zeta)[None, :]
    return num / den


def is_positive_definite(M: np.ndarray) -> bool:
    """True iff the Hermitian matrix ``M`` has minimum eigenvalue above
    ``TOL_PD`` times its maximum eigenvalue.

    Rejects (raises) inputs that are not Hermitian within 1e-10.
    """
    M = np.asarray(M)
    if M.size == 0:
        return True
    scale = max(1.0, float(np.max(np.abs(M))))
    if np.max(np.abs(M - M.conj().T)) > 1e-10 * scale:
        raise ValueError("matrix is not Hermitian")
    eigs = np.linalg.eigvalsh(0.5 * (M + M.conj().T))
    return bool(eigs[0] > TOL_PD * max(eigs[-1], 0.0))


def normalize(problem: InterpolationProblem) -> NormalizedProblem:
    """Divide all values by ``2 w_0`` so the value at infinity becomes 1/2.

    The positive scaling multiplies the Pick matrix by ``1 / (2 w_0)`` and
    therefore preserves positive definiteness.
    """
    w0 = problem.values[0]
    if abs(w0.imag) > 1e-12 * max(1.0, abs(w0)) or not w0.real > 0:
        raise ValueError(f"value at infinity must be real and positive, got {w0}")
    scale = 2.0 * w0.real
    scaled = [w / scale for w in problem.values]
    scaled[0] = 0.5 + 0.0j
    return NormalizedProblem(
        problem=InterpolationProblem(problem.nodes, tuple(scaled), problem.sigma),
        scale=scale,
    )


# ---------------------------------------------------------------------------
# JSON schema (consumed and produced by the CLI)
#
# {"nodes": ["inf" | {"re": r, "im": i}, ...],
#  "values": [{"re": r, "im": i}, ...],
#  "sigma_coeffs": [1, s1, ..., sn]}            (descending powers, real)
# or "sigma_roots": [{"re": r, "im": i}, ...] in place of sigma_coeffs.
# ---------------------------------------------------------------------------


def complex_to_json(z) -> dict:
    """``{"re": r, "im": i}`` for a complex number."""
    z = complex(z)
    return {"re": float(z.real), "im": float(z.imag)}


def complex_from_json(obj) -> complex:
    """Parse ``{"re": r, "im": i}`` (missing parts are 0) or a plain number."""
    if isinstance(obj, dict):
        return complex(float(obj.get("re", 0.0)), float(obj.get("im", 0.0)))
    if isinstance(obj, (int, float)):
        return complex(obj)
    raise ValueError(f"cannot parse complex value from {obj!r}")


def poly_from_json(data: dict, name: str) -> MonicPolynomial:
    """Monic polynomial from ``<name>_coeffs`` (descending, real) or ``<name>_roots``."""
    if f"{name}_coeffs" in data:
        return MonicPolynomial(np.asarray(data[f"{name}_coeffs"], dtype=float))
    if f"{name}_roots" in data:
        return MonicPolynomial.from_roots([complex_from_json(r) for r in data[f"{name}_roots"]])
    raise ValueError(f"needs either '{name}_coeffs' or '{name}_roots'")


def problem_to_json_dict(problem: InterpolationProblem) -> dict:
    nodes = ["inf" if is_inf_node(z) else complex_to_json(z) for z in problem.nodes]
    return {
        "nodes": nodes,
        "values": [complex_to_json(w) for w in problem.values],
        "sigma_coeffs": [float(c) for c in problem.sigma.coeffs],
    }


def problem_from_json_dict(data: dict) -> InterpolationProblem:
    try:
        raw_nodes = data["nodes"]
        raw_values = data["values"]
    except KeyError as exc:
        raise ValueError(f"problem JSON is missing key {exc}") from None
    nodes = tuple(INF if node == "inf" else complex_from_json(node) for node in raw_nodes)
    values = tuple(complex_from_json(w) for w in raw_values)
    return InterpolationProblem(nodes, values, poly_from_json(data, "sigma"))
