"""Polynomial and structured-matrix primitives shared by the solver.

Conventions used throughout the package:

* polynomial coefficient vectors are stored in **descending powers**,
  so ``(1, c1, ..., cn)`` represents ``z^n + c1 z^(n-1) + ... + cn``;
* a "full" coefficient vector is a plain 1-d ``numpy`` array of length
  ``n + 1`` whose leading entry may be anything (differences of monic
  polynomials have a leading 0);
* the monic case is wrapped in :class:`MonicPolynomial`, which pins the
  leading coefficient to exactly 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "MonicPolynomial",
    "CompanionData",
    "eval_poly",
    "roots_and_schur",
    "companion",
    "build_S",
    "conjugate_pairs",
]

# Tolerances and step-control constants of the whole package, in one table.
# Nodes are compared as reciprocals 1/z_k, which for a filter bank are its poles.
TOL_NODE = 1e-12        # distinct nodes / poles; conjugate matching of them (absolute)
TOL_ROOT_PAIR = 1e-8    # conjugate matching of computed roots, relative to 1 + |z|
TOL_VALUE = 1e-9        # conjugate closure of interpolation values, relative to 1 + |w|
TOL_IMAG = 1e-9         # imaginary coefficients of a root set's polynomial, relative
TOL_REAL = 1e-9         # imaginary residue of V^-1 W V (broken conjugate symmetry)
TOL_PD = 1e-12          # positive-definite: smallest eigenvalue relative to the largest
TOL_P_SYM = 1e-10       # recovered P: asymmetry relative to its largest entry,
TOL_P_PH = 1e-8         # ... |P h - p| relative to 1 + |p|,
TOL_P_PSD = 1e-8        # ... and the floor on its smallest eigenvalue
STEP_MAX = 0.2          # largest continuation step
STEP_GROWTH = 1.5       # step growth after an accepted step
MAX_NEWTON_ITERS = 25   # Newton budget of one correction


def _coeff_array(poly) -> np.ndarray:
    """Coerce an argument to a 1-d float coefficient array (descending)."""
    if isinstance(poly, MonicPolynomial):
        return poly.coeffs
    arr = np.asarray(poly, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("coefficient vector must be 1-d and nonempty")
    return arr


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class MonicPolynomial:
    """Real monic polynomial ``z^n + c1 z^(n-1) + ... + cn``.

    ``coeffs`` holds ``(1, c1, ..., cn)`` in descending powers; the leading
    entry must be exactly 1.  Instances are immutable.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.array(self.coeffs, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("coeffs must be a nonempty 1-d vector")
        if arr[0] != 1.0:
            raise ValueError("leading coefficient must be exactly 1")
        object.__setattr__(self, "coeffs", _readonly(arr))

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1

    @property
    def tail(self) -> np.ndarray:
        """Coefficients after the leading 1, i.e. ``(c1, ..., cn)``."""
        return self.coeffs[1:]

    @classmethod
    def from_roots(cls, roots) -> "MonicPolynomial":
        """Monic polynomial with the given (conjugate-closed) roots."""
        c = np.atleast_1d(np.poly(np.asarray(roots, dtype=complex)))
        scale = max(1.0, float(np.max(np.abs(c))))
        if np.max(np.abs(c.imag)) > TOL_IMAG * scale:
            raise ValueError("roots are not closed under conjugation")
        return cls(c.real)

    def __call__(self, z):
        return eval_poly(self, z)

    def __repr__(self):
        return f"MonicPolynomial(degree={self.degree}, coeffs={self.coeffs.tolist()})"


@dataclass(frozen=True, eq=False)
class CompanionData:
    """Companion-form realization of a monic polynomial.

    ``Gamma`` is the n-by-n matrix whose first column is the negated tail
    of the polynomial and whose remaining columns are a shifted identity;
    its characteristic polynomial is the polynomial itself.  ``h`` is the
    unit vector ``(1, 0, ..., 0)`` and ``sigma_vec`` the coefficient tail.
    """

    Gamma: np.ndarray
    h: np.ndarray
    sigma_vec: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "Gamma", _readonly(np.array(self.Gamma, dtype=float)))
        object.__setattr__(self, "h", _readonly(np.array(self.h, dtype=float)))
        object.__setattr__(self, "sigma_vec", _readonly(np.array(self.sigma_vec, dtype=float)))

    @property
    def n(self) -> int:
        return self.sigma_vec.size


def eval_poly(poly, z):
    """Evaluate a descending-coefficient polynomial at finite ``z``.

    ``z`` may be scalar or an array; the result is complex when ``z`` is.
    The point at infinity must be handled by the caller (leading-coefficient
    convention); never pass it here.
    """
    return np.polyval(_coeff_array(poly), z)


def roots_and_schur(poly):
    """All roots of ``poly`` plus a strict unit-disk membership flag.

    Returns ``(roots, is_schur)`` where ``is_schur`` is true iff every root
    satisfies ``|root| < 1``.  Roots come from the eigenvalues of a
    companion matrix (``numpy.roots``).
    """
    c = _coeff_array(poly)
    r = np.roots(c)
    is_schur = bool(r.size == 0 or np.max(np.abs(r)) < 1.0)
    return r, is_schur


def companion(sigma: MonicPolynomial) -> CompanionData:
    """Companion data (Gamma, h, sigma_vec) for a monic polynomial."""
    n = sigma.degree
    sv = sigma.tail
    Gamma = np.zeros((n, n))
    if n:
        Gamma[:, 0] = -sv
    if n > 1:
        Gamma[np.arange(n - 1), np.arange(1, n)] = 1.0
    h = np.zeros(n)
    if n:
        h[0] = 1.0
    return CompanionData(Gamma=Gamma, h=h, sigma_vec=sv)


@lru_cache(maxsize=None)
def _sym_index(m: int) -> tuple:
    """Index arrays into a length ``m + 1`` zero-padded vector for :func:`build_S`.

    Entry ``[i, j]`` of the first picks ``x[i + j]`` (Hankel part) and of the
    second ``x[j - i]`` (upper Toeplitz part); positions outside either part
    pick the padding zero at index ``m``.
    """
    i, j = np.indices((m, m))
    hank = i + j
    hank[hank >= m] = m
    toep = j - i
    toep[toep < 0] = m
    return _readonly(hank), _readonly(toep)


def build_S(x) -> np.ndarray:
    """Symmetrized-product matrix of a full coefficient vector.

    For vectors ``x, y`` of length ``n + 1``, ``build_S(x) @ y`` gives the
    ``z^k`` coefficients (k = 0..n) of ``x(z) y(1/z) + y(z) x(1/z)``.  The
    matrix is the sum of the Hankel matrix ``H[i, j] = x[i + j]`` and the
    upper-triangular Toeplitz matrix with first row ``x``.  The leading
    entry of ``x`` may be 0 (e.g. a difference of monic polynomials).
    """
    v = _coeff_array(x)
    hank, toep = _sym_index(v.size)
    padded = np.append(v, 0.0)
    return padded[hank] + padded[toep]


def conjugate_pairs(points, tol) -> list:
    """Partner index of each point under one-to-one conjugate matching.

    Greedy in index order: a point within ``tol`` (scalar or per point) of
    the real axis pairs with itself; any other takes the nearest unused
    point within ``tol`` of its conjugate, or ``None`` when there is none.
    """
    points = np.asarray(points, dtype=complex)
    tol = np.broadcast_to(tol, points.shape)
    partner = [None] * points.size
    used = np.zeros(points.size, dtype=bool)
    for k, z in enumerate(points):
        if used[k]:
            continue
        used[k] = True
        if abs(z.imag) <= tol[k]:
            partner[k] = k
            continue
        dist = np.abs(points - np.conj(z))
        dist[used] = np.inf
        j = int(np.argmin(dist))
        if dist[j] <= tol[k]:
            used[j] = True
            partner[k], partner[j] = j, k
    return partner
