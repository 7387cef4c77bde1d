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
import numbers
from dataclasses import dataclass

import numpy as np

from .polyalg import (
    TOL_NODE,
    TOL_PD,
    TOL_VALUE,
    MonicPolynomial,
    conjugate_pairs,
    eigvalsh,
    is_schur,
    readonly,
)

__all__ = [
    "INF",
    "InterpolationProblem",
    "Violation",
    "ProblemValidationError",
    "validate",
    "coincident_pairs",
    "pick_matrix",
    "is_positive_definite",
    "normalize",
    "complex_to_json",
    "complex_from_json",
    "complex_list_from_json",
    "poly_from_json",
    "problem_to_json_dict",
    "problem_from_json_dict",
]

#: Sentinel for the node at infinity (always index 0 of the node list).
INF = complex(math.inf, 0.0)


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
        # 1/inf is 0 and 1/0 is infinite (a node validate rejects); 1.0 / z
        # is Python's complex division, whose bits numpy's need not match
        object.__setattr__(self, "_zeta", readonly(np.array(
            [0j if cmath.isinf(z) else INF if z == 0 else 1.0 / z for z in nodes])))

    @property
    def n(self) -> int:
        return len(self.nodes) - 1

    def node_reciprocals(self) -> np.ndarray:
        """Reciprocals 1/z_k as one complex array formed at construction and
        shared by every call (read-only), with 0 for an infinite node and
        :data:`INF` for a node at 0."""
        return self._zeta

    def values_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=complex)


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


def _modulus(z: complex) -> float:
    """``abs(z)``, or ``inf`` where it lies beyond the float range and Python's ``abs`` raises."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf


def coincident_pairs(zeta) -> list:
    """Index pairs ``(k, j)``, ``k < j``, of points closer than ``TOL_NODE``.

    Applied to reciprocal nodes, which for a filter bank are its poles.
    """
    zeta = np.asarray(zeta)
    k, j = (np.abs(zeta[:, None] - zeta[None, :]) <= TOL_NODE).nonzero()
    upper = k < j
    return list(zip(k[upper].tolist(), j[upper].tolist()))


def validate(problem: InterpolationProblem) -> list:
    """Check every instance invariant; return a list of violations (empty = valid).

    Checks: infinity sentinel at index 0, all other nodes finite and
    strictly outside the closed unit disk, distinct nodes, conjugate
    closure of node/value pairs, finite values in the open right
    half-plane, a Schur spectral-zero polynomial, and positive definiteness
    of the Pick matrix.  This is the one check of the nodes on the way into
    :func:`~nevpick.continuation.solve`, and its one conjugate-symmetry
    rule: the solve takes the real part of ``T_dot``, :func:`normalize` the
    real part of ``w_0`` and the Pick test the Hermitian part of the Pick
    matrix, without checks of their own.  A self-conjugate node, the point
    at infinity among them, is its own partner, so its value ``w`` passes
    when ``2 |Im w| <= TOL_VALUE (1 + |w|)``; the value at infinity has no
    rule of its own.  The Pick test is skipped when an earlier check makes
    it meaningless.  Numpy's floating-point warnings are silenced in the
    pairing and Pick tests: what they would warn of is reported as a
    violation.
    """
    out: list[Violation] = []
    nodes = problem.nodes
    values = problem.values

    if not cmath.isinf(nodes[0]):
        out.append(Violation("node-inf-sentinel", "nodes[0] must be the point at infinity", 0))

    # each loop first makes the cheap test that a valid entry passes; only
    # an entry that fails it takes the checks that word its violation
    structurally_sound = True
    for k, z in enumerate(nodes):
        if k and 1.0 < _modulus(z) < math.inf:
            continue
        if cmath.isnan(z):
            out.append(Violation("not-finite", f"node {k} is {z}", k))
            structurally_sound = False
        elif k and cmath.isinf(z):
            out.append(Violation("node-domain", "only nodes[0] may be infinite", k))
            structurally_sound = False
        elif k and _modulus(z) <= 1.0:
            out.append(Violation("node-domain", f"|z_{k}| = {abs(z):.6g} must exceed 1", k))
            structurally_sound = False

    zeta = problem.node_reciprocals()
    # the reciprocal of a node at 0 is infinite, and the distances to it are
    # inf or NaN; a Pick matrix of values as large as 1e308 overflows.  Such
    # input is reported below, so numpy's warnings about it would only repeat it
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # a NaN node (reported above) has no distance to the others, so pair none
        paired = not np.isnan(zeta).any()
        for k, j in coincident_pairs(zeta) if paired else ():
            out.append(Violation("node-distinct", f"nodes {k} and {j} coincide", j))
            structurally_sound = False

        for k, j in enumerate(conjugate_pairs(zeta, TOL_NODE) if paired else ()):
            if j is None:
                out.append(Violation("conjugate-closure", f"node {k} has no conjugate partner", k))
                structurally_sound = False
            # the smaller modulus sets the tolerance, so a broken pair is
            # reported at both its indices even when one value's modulus is inf
            elif values[j] != values[k].conjugate() and (
                    _modulus(values[j] - values[k].conjugate())
                    > TOL_VALUE * (1.0 + min(_modulus(values[k]), _modulus(values[j])))):
                out.append(
                    Violation(
                        "conjugate-closure",
                        f"value {k} must be real: node {k} is its own conjugate" if j == k
                        else f"value at conjugate node {j} is not the conjugate of value {k}",
                        k,
                    )
                )

        for k, w in enumerate(values):
            if 0.0 < w.real < math.inf and abs(w.imag) < math.inf:
                continue
            if not cmath.isfinite(w):
                out.append(Violation("not-finite", f"value {k} is {w}", k))
                structurally_sound = False
            else:
                out.append(Violation("value-rhp", f"Re(w_{k}) = {w.real:.6g} must be positive", k))

        if not is_schur(problem.sigma):
            out.append(Violation("sigma-not-schur", "sigma has a root with modulus >= 1"))

        # values as large as 1e308 overflow the Pick matrix, which then is
        # not positive definite
        if structurally_sound and not is_positive_definite(pick_matrix(problem)):
            out.append(Violation("pick-not-pd", "Pick matrix is not positive definite"))

    return out


def pick_matrix(problem: InterpolationProblem) -> np.ndarray:
    """Hermitian Pick matrix ``(w_k + conj(w_l)) / (1 - conj(z_l)^-1 z_k^-1)``.

    The infinite node contributes reciprocal 0, so its row and column reduce
    to ``w_k + conj(w_l)`` and the (0, 0) entry is ``2 w_0``.
    """
    zeta = problem.node_reciprocals()
    w = problem.values_array()
    num = w[:, None] + np.conj(w)[None, :]
    den = 1.0 - zeta[:, None] * np.conj(zeta)[None, :]
    return num / den


def is_positive_definite(M: np.ndarray) -> bool:
    """True iff the Hermitian part ``H = (M + M^H) / 2`` of ``M`` has minimum
    eigenvalue above ``TOL_PD`` times its maximum eigenvalue.

    No input is rejected for its asymmetry.  A Pick matrix is Hermitian
    analytically for any nodes and values, so what asymmetry
    :func:`pick_matrix` returns is rounding; it is largest near the unit
    circle, where ``1 - zeta_k conj(zeta_l)`` cancels.  ``H`` is the nearest
    Hermitian matrix to ``M``, so its eigenvalues differ from those of the
    matrix meant by at most that rounding.  A matrix whose Hermitian part
    has a NaN or infinite entry is not positive definite.
    """
    M = np.asarray(M)
    if M.size == 0:
        return True
    H = 0.5 * (M + M.conj().T)
    # a NaN or infinite entry (M + M^H may overflow) has no eigenvalues to test
    if not np.isfinite(H).all():
        return False
    eigs = eigvalsh(H)
    return bool(eigs[0] > TOL_PD * max(eigs[-1], 0.0))


def normalize(problem: InterpolationProblem) -> tuple:
    """``(w, scale)``: the values divided by ``scale = 2 Re w_0``, as one
    read-only complex array whose value at infinity ``w[0]`` is exactly 1/2.

    Each ``w[k]`` is Python's complex division ``values[k] / scale``.
    Multiplying the solved interpolant by ``scale`` undoes the normalization.
    The positive scaling multiplies the Pick matrix by ``1 / (2 Re w_0)`` and
    therefore preserves positive definiteness.  The nodes and ``sigma`` do
    not change, so the normalized values are all a solve needs besides
    ``problem``.  The only guard is ``Re w_0 > 0``: :func:`validate` judges
    whether ``w_0`` is real, and a ``w_0`` it accepts is taken as its real
    part, the average with its conjugate, as ``build_cee_matrices`` takes
    every self-conjugate value.  The interpolation residual at infinity is
    then ``|Im w_0|``.
    """
    w0 = problem.values[0]
    if not w0.real > 0:
        raise ValueError(f"value at infinity must have a positive real part, got {w0}")
    scale = 2.0 * w0.real
    w = np.array([v / scale for v in problem.values], dtype=complex)
    w[0] = 0.5
    return readonly(w), scale


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


def _typed(value, kind, what: str):
    """``value`` if it is a ``kind`` and not a boolean; else ``ValueError``."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"expected {what}, got {value!r}")
    return value


def complex_from_json(obj) -> complex:
    """Parse ``{"re": r, "im": i}`` (missing parts are 0) or a plain number;
    each part must be a JSON number, not a boolean, a string or null."""
    if isinstance(obj, dict):
        re, im = (_typed(obj.get(k, 0), numbers.Real, f"a number for '{k}'") for k in ("re", "im"))
        return complex(float(re), float(im))
    return complex(_typed(obj, numbers.Real, "a number"))


def complex_list_from_json(value, key: str) -> tuple:
    """The complex numbers of the JSON list ``value`` of field ``key``."""
    return tuple(complex_from_json(z) for z in _typed(value, list, f"a list for '{key}'"))


def poly_from_json(data: dict, name: str) -> MonicPolynomial:
    """Monic polynomial from ``<name>_coeffs`` (descending, real) or ``<name>_roots``."""
    coeffs, roots = f"{name}_coeffs", f"{name}_roots"
    if coeffs in _typed(data, dict, "a JSON object"):
        return MonicPolynomial([_typed(c, numbers.Real, f"a number in '{coeffs}'")
                                for c in _typed(data[coeffs], list, f"a list for '{coeffs}'")])
    if roots in data:
        return MonicPolynomial.from_roots(complex_list_from_json(data[roots], roots))
    raise ValueError(f"needs either '{coeffs}' or '{roots}'")


def problem_to_json_dict(problem: InterpolationProblem) -> dict:
    nodes = ["inf" if cmath.isinf(z) else complex_to_json(z) for z in problem.nodes]
    return {
        "nodes": nodes,
        "values": [complex_to_json(w) for w in problem.values],
        "sigma_coeffs": [float(c) for c in problem.sigma.coeffs],
    }


def problem_from_json_dict(data: dict) -> InterpolationProblem:
    try:
        raw_nodes = _typed(data, dict, "a JSON object")["nodes"]
        raw_values = data["values"]
    except KeyError as exc:
        raise ValueError(f"problem JSON is missing key {exc}") from None
    nodes = tuple(INF if node == "inf" else complex_from_json(node)
                  for node in _typed(raw_nodes, list, "a list for 'nodes'"))
    values = complex_list_from_json(raw_values, "values")
    return InterpolationProblem(nodes, values, poly_from_json(data, "sigma"))
