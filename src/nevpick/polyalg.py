"""Polynomial, structured-matrix and linear-algebra primitives shared by the solver.

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

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

__all__ = [
    "MonicPolynomial",
    "is_schur",
    "companion",
    "build_S",
    "conjugate_pairs",
]


class PathAttempt(NamedTuple):
    """One attempt of a solve at the path: its predictor band and step schedule."""

    band: float        # acceptance band on |e1' G| at the predicted point
    first_step: float  # first continuation step in nu
    growth: float      # largest factor of the next step over an accepted one


# Tolerances, step control and defaults of the whole package, in one table.
# Nodes are compared as reciprocals 1/z_k, which for a filter bank are its poles.
TOL_NODE = 1e-12        # distinct nodes / poles; conjugate matching of them (absolute)
TOL_ROOT_PAIR = 1e-8    # conjugate matching of computed roots, relative to 1 + |z|
TOL_VALUE = 1e-9        # conjugate closure of interpolation values, relative to 1 + |w|
TOL_IMAG = 1e-9         # imaginary coefficients of a root set's polynomial, relative
TOL_PD = 1e-12          # positive-definite: smallest eigenvalue relative to the largest
TOL_P_PH = 1e-8         # recovered P: |P h - p| relative to 1 + |p|,
TOL_P_PSD = 1e-8        # ... and the floor on its smallest eigenvalue
TOL_CEE = 1e-8          # CEE residual of a solution (Frobenius norm, absolute)
TOL_SYM = 1e-8          # symmetric input to singular_values: asymmetry relative to its largest entry
TOL_NEWTON = 1e-12      # max-norm residual of G at which a Newton correction is accepted
# The attempts of a solve at the path, a ladder tried in order (see PathAttempt
# above): each rung follows the path again when the one before fails.  The band sets
# the speed, not the answer: a certified endpoint is the unique solution whatever
# band led there.  The first two rungs take the whole path as their first step and
# let an accepted step grow the next by up to 4, with a thousand and a hundred times
# the paper's band; the last is the paper's band on steps from 0.1 growing by up to 2.
LOOSE_ATTEMPT = PathAttempt(band=1e-1, first_step=1.0, growth=4.0)
FAST_ATTEMPT = PathAttempt(band=1e-2, first_step=1.0, growth=4.0)
FALLBACK_ATTEMPT = PathAttempt(band=1e-4, first_step=0.1, growth=2.0)
ATTEMPTS = (LOOSE_ATTEMPT, FAST_ATTEMPT, FALLBACK_ATTEMPT)
STEP_MIN = 1e-8         # a step below this declares the path failed
STEP_SAFETY = 0.5       # step control: the band residual aimed at, as a share of the band
STEP_REJECT_RANGE = (0.1, 0.5)   # step factor bounds after a prediction outside the band
MAX_NEWTON_ITERS = 25   # Newton budget of one correction
DEFAULT_TAU_RANK = 1e-2  # degree detection: threshold relative to the largest singular value
BANK_RADIUS = 0.7       # modulus of the nonzero poles of the default filter bank
SAMPLES = 10_000        # Monte Carlo: samples kept per simulated series,
BURN_IN = 1000          # ... after discarding this many outputs of the zero-state start
SPECTRUM_POINTS = 256   # equally spaced angles of the circle grid of spectral densities
DEVIATION_FLOOR = 1e-12  # log-spectral deviation: floor on the norm it is relative to


def _coeff_array(poly) -> np.ndarray:
    """The one coercion of a real coefficient vector (descending) to a 1-d
    float array: a :class:`MonicPolynomial` gives its ``coeffs`` and a float
    array itself, with no copy.

    Complex coefficients raise ``TypeError``, in an array as in a list
    (numpy's cast of an array would drop the imaginary parts with only a
    warning); a vector that is not 1-d or is empty raises ``ValueError``.
    """
    if isinstance(poly, MonicPolynomial):
        return poly.coeffs
    arr = np.asarray(poly)
    if arr.dtype.kind == "c":
        raise TypeError("coefficients must be real, got a complex array")
    arr = np.asarray(arr, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("coefficient vector must be 1-d and nonempty")
    return arr


def is_integer(x) -> bool:
    """Whether ``x`` is an integral number (numpy integers included) and not a bool."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def readonly(arr) -> np.ndarray:
    """``arr`` as an array locked against writes (shared across evaluations)."""
    arr = np.asarray(arr)
    # setflags costs half of what assigning to arr.flags.writeable does
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class MonicPolynomial:
    """Real monic polynomial ``z^n + c1 z^(n-1) + ... + cn``.

    ``coeffs`` holds ``(1, c1, ..., cn)`` in descending powers; the leading
    entry must be exactly 1.  Instances are immutable.  The coefficients
    are coerced by the rule of every coefficient vector of the package
    (``_coeff_array``: complex ones raise ``TypeError``, a vector that is
    not 1-d or is empty ``ValueError``) and then copied.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.array(_coeff_array(self.coeffs))
        if arr[0] != 1.0:
            raise ValueError("leading coefficient must be exactly 1")
        if not np.isfinite(arr).all():
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coeffs", readonly(arr))

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
        scale = max(1.0, float(np.abs(c).max()))
        if np.abs(c.imag).max() > TOL_IMAG * scale:
            raise ValueError("roots are not closed under conjugation")
        return cls(c.real)

    def __repr__(self):
        return f"MonicPolynomial(degree={self.degree}, coeffs={self.coeffs.tolist()})"


def is_schur(poly) -> bool:
    """True iff every root of ``poly`` satisfies ``|root| < 1``.

    Roots come from the eigenvalues of a companion matrix (:func:`roots`).
    """
    r = roots(poly)
    return bool(np.abs(r).max(initial=0.0) < 1.0)


def companion(sigma: MonicPolynomial) -> np.ndarray:
    """Companion matrix ``Gamma`` of a monic polynomial (read-only).

    Its first column is the negated tail of the polynomial and its remaining
    columns are a shifted identity, so its characteristic polynomial is the
    polynomial itself.  The vector ``h`` of the method is the unit vector
    ``e1``, so ``h' x`` is written ``x[0]`` throughout.
    """
    n = sigma.degree
    Gamma = np.zeros((n, n))
    if n:
        Gamma[:, 0] = -sigma.tail
    Gamma[np.arange(n - 1), np.arange(1, n)] = 1.0
    return readonly(Gamma)


class SymStack:
    """A stack of ``count`` coefficient vectors of length ``m`` and their
    symmetrized-product matrices (see :func:`build_S`).

    The vectors live in the writable ``(count, m)`` view ``rows`` of a
    zero-padded ``(count, 3m - 2)`` buffer: each row holds ``m - 1`` zeros,
    the vector and ``m - 1`` zeros.  Two fixed read-only strided views of
    the buffer start at the vector's first entry; entry ``[r, i, j]`` of
    the Hankel view reads ``rows[r, i + j]`` (strides ``(row, +1, +1)`` in
    entries) and of the upper-Toeplitz view ``rows[r, j - i]`` (strides
    ``(row, -1, +1)``), and outside either part each reads a padding zero.
    :meth:`products` adds the two views, so a new stack of products after
    a write to ``rows`` costs one ``np.add`` and no gather.
    """

    __slots__ = ("rows", "_hank", "_toep")

    def __init__(self, count: int, m: int):
        buf = np.zeros((count, 3 * m - 2))
        self.rows = buf[:, m - 1 : 2 * m - 1]
        row, item = buf.strides
        start = (m - 1) * item
        self._hank = readonly(np.ndarray((count, m, m), buffer=buf, offset=start,
                                         strides=(row, item, item)))
        self._toep = readonly(np.ndarray((count, m, m), buffer=buf, offset=start,
                                         strides=(row, -item, item)))

    def products(self) -> np.ndarray:
        """``build_S`` of every row: a new C-contiguous ``(count, m, m)`` array.

        A later write to ``rows`` leaves the returned array unchanged.
        """
        return np.add(self._hank, self._toep, out=np.empty(self._hank.shape))


def build_S(x) -> np.ndarray:
    """Symmetrized-product matrix of one full coefficient vector.

    For vectors ``x, y`` of length ``n + 1``, ``build_S(x) @ y`` gives the
    ``z^k`` coefficients (k = 0..n) of ``x(z) y(1/z) + y(z) x(1/z)``.  The
    matrix is the sum of the Hankel matrix ``H[i, j] = x[i + j]`` and the
    upper-triangular Toeplitz matrix with first row ``x``.  The leading
    entry of ``x`` may be 0 (e.g. a difference of monic polynomials); an
    ``x`` that is not 1-d raises ``ValueError``.  The result is a new
    C-contiguous array.  It is the one-off form of :class:`SymStack`, which
    a caller that forms products of new vectors of one size again and
    again, or of a stack of vectors at once, keeps instead.
    """
    x = _coeff_array(x)
    stack = SymStack(1, x.size)
    stack.rows[0] = x
    return stack.products()[0]


# The solver's linear algebra: one small dense solve per tangent and per
# Newton step, one inverse per new nu, and once per solve the node system,
# the roots and the eigenvalue checks.  numpy.linalg calls the LAPACK
# gufuncs below inside a per-call np.errstate and type dispatch that, at
# these sizes, cost about as much as LAPACK does; calling the gufuncs with
# numpy's own signature and argument order gives the same bits without
# them.  A singular matrix, or a failure to converge, makes LAPACK fill the
# output with NaN and set the invalid flag, whose warning the caller's
# np.errstate governs.


def solve_vector(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``x`` with ``A x = b`` for a nonempty square float matrix and a vector.

    Bit-identical to ``np.linalg.solve(A, b)``.  Raises
    ``numpy.linalg.LinAlgError`` when the first entry of ``x`` is NaN: a
    singular ``A``, or a NaN input that reaches it.
    """
    x = _umath_linalg.solve1(A, b, signature="dd->d")
    if math.isnan(x[0]):
        raise LinAlgError("Singular matrix")
    return x


def inverse(A: np.ndarray) -> np.ndarray:
    """Inverse of a nonempty square float matrix, bit-identical to ``np.linalg.inv(A)``.

    Raises ``numpy.linalg.LinAlgError`` when its first entry is NaN: a
    singular ``A``, or a NaN input that reaches it.
    """
    A_inv = _umath_linalg.inv(A, signature="d->d")
    if math.isnan(A_inv[0, 0]):
        raise LinAlgError("Singular matrix")
    return A_inv


def solve_complex(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``X`` with ``A X = B`` for a nonempty square complex matrix and a
    complex matrix of right-hand sides, bit-identical to ``np.linalg.solve(A, B)``.

    Raises ``numpy.linalg.LinAlgError`` when ``X[0, 0]`` is NaN: a singular
    ``A``, or a NaN input that reaches it.
    """
    X = _umath_linalg.solve(A, B, signature="DD->D")
    if X[0, 0] != X[0, 0]:   # NaN in either part
        raise LinAlgError("Singular matrix")
    return X


def eigvalsh(A: np.ndarray) -> np.ndarray:
    """Eigenvalues, ascending, of a nonempty real symmetric or complex
    Hermitian matrix, read from its lower triangle; bit-identical to
    ``np.linalg.eigvalsh(A)``.

    Raises ``numpy.linalg.LinAlgError`` when the first is NaN: LAPACK did
    not converge, or met a NaN.  A NaN input need not surface there, so a
    caller whose input may hold one checks it first.
    """
    w = _umath_linalg.eigvalsh_lo(A, signature="D->d" if A.dtype.kind == "c" else "d->d")
    if math.isnan(w[0]):
        raise LinAlgError("Eigenvalues did not converge")
    return w


def roots(poly) -> np.ndarray:
    """Roots of a real polynomial (descending coefficients), bit-identical to ``np.roots``.

    As there, leading and trailing zero coefficients are trimmed, the
    eigenvalues of the companion matrix of the rest are the roots, each
    trailing zero adds a root at 0, and the result is real when every
    imaginary part is 0.  Raises ``numpy.linalg.LinAlgError`` on a
    non-finite companion matrix, as ``np.roots`` does, or a NaN eigenvalue
    (LAPACK did not converge).
    """
    c = _coeff_array(poly)
    nonzero = c.nonzero()[0]
    if not nonzero.size:
        return np.array([])
    first, last = int(nonzero[0]), int(nonzero[-1])
    w = np.array([])
    if last > first:
        A = np.eye(last - first, k=-1)
        A[0] = -c[first + 1 : last + 1] / c[first]
        # the rest of A is 0 and 1; LAPACK given a non-finite entry prints an error
        if not np.isfinite(A[0]).all():
            raise LinAlgError("Array must not contain infs or NaNs")
        w = _umath_linalg.eigvals(A, signature="d->D")
        if w[0] != w[0]:   # NaN in either part
            raise LinAlgError("Eigenvalues did not converge")
        if not w.imag.any():
            w = w.real
    trailing = c.size - 1 - last
    return np.concatenate((w, np.zeros(trailing, w.dtype))) if trailing else w


def conjugate_pairs(points, tol) -> list:
    """Partner index of each point under one-to-one conjugate matching.

    Greedy in index order: a point within ``tol`` (scalar or per point) of
    the real axis pairs with itself; any other takes the nearest unused
    point within ``tol`` of its conjugate, or ``None`` when there is none.
    Ties go to the lowest index, and a NaN distance to an unused point
    leaves the point without a partner (the rules of ``np.argmin``).
    """
    points = np.asarray(points, dtype=complex)
    size = points.size
    if not size:
        return []
    tol = (np.zeros(size) + tol).tolist()
    # row k: the distance of each point after k from the conjugate of point k,
    # and inf up to k
    dist = np.abs(points - np.conj(points)[:, None])
    index = np.arange(size)
    dist[index[:, None] >= index] = math.inf
    # each point's nearest later point by np.argmin: while that point is
    # unused, it is also the choice among the unused ones
    nearest = dist.argmin(axis=1)
    least = dist[index, nearest].tolist()
    nearest = nearest.tolist()
    partner = [None] * size
    used = [False] * size
    for k, z in enumerate(points.tolist()):
        if used[k]:
            continue
        if abs(z.imag) <= tol[k]:
            partner[k] = k
            continue
        j, best = nearest[k], least[k]
        if used[j]:
            # taken: np.argmin over the row with every used point's distance set to inf
            row = np.where(used, math.inf, dist[k])
            j = int(row.argmin())
            best = row[j]
        if best <= tol[k]:
            used[j] = True
            partner[k], partner[j] = j, k
    return partner
