"""Interpolation-data generation from simulated time series.

Unit-variance Gaussian white noise is passed through a stable rational
filter ``sigma(z)/a(z)``; the output runs through a bank of first-order
filters ``z / (z - p_k)`` whose poles double as reciprocal interpolation
nodes.  The value of the underlying positive-real function at ``1/p_k`` is

    ``f(1/p_k) = (1 - p_k^2) E[u_k^2] / 2``

estimated by the sample second moment of the bank output (the plain
square, not the squared magnitude, so complex poles produce the complex
analytic continuation of the real-pole case).  Both recursions, the
simulation's and the bank's, run in private C functions of about fifty
lines in all.  The simulation's repeats ``scipy.signal.lfilter``'s
transposed direct form II and writes only the outputs after the burn-in.
The bank filters each pole's section ``u_t = y_t + p u_(t-1)`` in one
pass over ``y``, with one complex step: up to three conjugate pairs or
real poles share a pass, each pair writing its row and the partner's
row, its exact conjugate, together, and a real pole is a pair whose two
rows are one, with imaginary parts +0.0; pole 0 passes ``y`` through
unfiltered.  The loops form the same products and sums, in the same
order, as ``lfilter`` and ``sosfilt`` do, and are compiled without
contraction into fused multiply-adds and without ``-ffast-math``, so the
series and every bank entry have the bits of ``lfilter``'s (a bank zero
entry's sign aside, where the series itself has exact zeros).  They are
compiled with the interpreter's own C compiler (about 70 ms with gcc)
and loaded with ``ctypes`` on a process's first simulation or bank
call; nothing is compiled at import.
``_PythonSections`` is their twin in Python floats, statement by
statement, with the same bits.  It is the check: a loaded library is
used only where its output on a fixed series is the twin's, byte for
byte.  And it is the fallback: it runs wherever ``sysconfig`` gives no
compiler (CPython's Windows builds), wherever compiling or loading
fails, and wherever the library's output differs.  It is slow: per 1e5
samples, about 50 ms for a degree-2 simulation and 33 ms per conjugate
pair or real pole of the bank, where the compiled sections take about
3 ms for a simulation and 1 ms for a bank of order 6.
No path imports scipy.  An exact, noise-free
variant evaluates ``f`` directly from the filter, for tests and sharp
degree detection.  The Monte Carlo driver repeats the full pipeline
(simulate, filter, estimate, solve, singular values) with per-run seeds.
"""

from __future__ import annotations

import ctypes
import functools
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .analysis import DegreeReport, RunRecord, check_tau_rank, estimate_positive_degree
from .continuation import SOLVE_ERRORS, PathError, solve
from .polyalg import (BANK_RADIUS, BURN_IN, DEFAULT_TAU_RANK, SAMPLES, TOL_NODE,
                      MonicPolynomial, build_S, conjugate_pairs, is_integer, is_schur)
from .problem import INF, InterpolationProblem, coincident_pairs

__all__ = [
    "FilterBankSpec",
    "MonteCarloConfig",
    "default_bank_poles",
    "nodes_from_poles",
    "simulate_arma",
    "filter_bank",
    "estimate_values",
    "positive_real_numerator",
    "exact_values",
    "embed_sigma",
    "run_problem",
    "monte_carlo",
]


def default_bank_poles(n: int) -> np.ndarray:
    """Conjugate-closed bank poles: 0 plus ``n`` points on a circle.

    The ``n`` nonzero poles sit equally spaced on the circle of radius
    ``BANK_RADIUS``, rotated off the real axis for even ``n``; odd ``n``
    keeps one real pole at ``+BANK_RADIUS``.  ``n`` is a nonnegative
    integer (numpy integers included, booleans not).
    """
    if not (is_integer(n) and n >= 0):
        raise ValueError(f"n must be a nonnegative integer, got {n!r}")
    k = np.arange(n)
    if n % 2 == 0:
        angles = (2 * k + 1) * np.pi / n
    else:
        angles = 2 * np.pi * k / n
    return np.concatenate(([0.0 + 0.0j], BANK_RADIUS * np.exp(1j * angles)))


def nodes_from_poles(poles) -> tuple:
    """Interpolation nodes ``1/p_k`` with the zero pole mapped to infinity."""
    nodes = []
    for p in poles:
        p = complex(p)
        nodes.append(INF if p == 0 else 1.0 / p)
    return tuple(nodes)


def _check_counts(samples, burn_in, seed) -> None:
    """The rule for a series' sample counts and seed: ``samples`` a positive
    and ``burn_in`` and ``seed`` nonnegative integers (numpy integers
    included, booleans not)."""
    if not (is_integer(samples) and samples > 0):
        raise ValueError(f"samples must be a positive integer, got {samples!r}")
    if not (is_integer(burn_in) and burn_in >= 0):
        raise ValueError(f"burn_in must be a nonnegative integer, got {burn_in!r}")
    if not (is_integer(seed) and seed >= 0):
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")


def _check_filter(sigma: MonicPolynomial, a: MonicPolynomial) -> None:
    """The rule for a filter ``sigma(z)/a(z)``: ``sigma`` and ``a`` of the same
    degree, and ``a`` Schur stable (every root inside the unit circle)."""
    if sigma.degree != a.degree:
        raise ValueError("sigma and a must have the same degree")
    if not is_schur(a):
        raise ValueError("filter denominator a is not Schur stable")


@dataclass(frozen=True, eq=False)
class FilterBankSpec:
    """Bank poles plus sampling controls for one estimation run.

    ``partners`` is derived, not passed: ``partners[k]`` is the index of the
    conjugate of ``poles[k]`` (``k`` itself for a real pole).  ``samples``
    is a positive and ``burn_in`` and ``seed`` nonnegative integers (numpy
    integers included, booleans not).
    """

    poles: tuple
    samples: int
    burn_in: int = BURN_IN
    seed: int = 0             # checked, then read by nothing in the package
    partners: tuple = field(init=False, repr=False)

    def __post_init__(self):
        poles = tuple(complex(p) for p in self.poles)
        if not poles or poles[0] != 0:
            raise ValueError("poles[0] must be 0 (the node at infinity)")
        if not all(abs(p) < 1.0 for p in poles):     # a NaN pole fails too
            raise ValueError("all bank poles must satisfy |p| < 1")
        coincident = coincident_pairs(poles)
        if coincident:
            raise ValueError("bank poles {} and {} coincide".format(*coincident[0]))
        partners = conjugate_pairs(poles, TOL_NODE)
        if None in partners:
            raise ValueError("bank poles must be closed under conjugation")
        _check_counts(self.samples, self.burn_in, self.seed)
        object.__setattr__(self, "poles", poles)
        object.__setattr__(self, "partners", tuple(partners))


def simulate_arma(
    sigma: MonicPolynomial,
    a: MonicPolynomial,
    samples: int,
    burn_in: int = BURN_IN,
    seed: int = 0,
) -> np.ndarray:
    """Simulate ``y_t = sum_i sigma_i e_(t-i) - sum_j a_j y_(t-j)``.

    ``e`` is unit-variance Gaussian white noise from a seeded generator;
    the recursion starts from zero state and the first ``burn_in`` outputs
    are discarded.  Deterministic per seed.  The recursion runs in the
    compiled section of the module docstring, compiled on the process's
    first simulation or bank call, and in its Python twin wherever that
    section does not load (about 50 ms per 1e5 samples at degree 2); the
    bits are ``lfilter``'s on both paths.  ``samples``, ``burn_in`` and
    ``seed`` follow :class:`FilterBankSpec`'s rule, and ``sigma`` and
    ``a`` the filter rule (same degree, ``a`` Schur stable); a breach of
    either raises ``ValueError``.
    """
    _check_counts(samples, burn_in, seed)
    _check_filter(sigma, a)
    e = np.random.default_rng(seed).standard_normal(samples + burn_in)
    y = np.empty(samples)
    state = np.zeros(a.degree)      # kept referenced: the section writes it
    _kernel().arma(e.ctypes.data, y.ctypes.data, e.size, burn_in, sigma.coeffs.ctypes.data,
                   a.coeffs.ctypes.data, a.degree, state.ctypes.data)
    return y


#: The compiled sections.  ``arma`` is ``lfilter``'s transposed direct
#: form II for a monic ``a`` of degree ``m``, ``y = z_0 + b_0 x``,
#: ``z_k = (z_(k+1) + x b_(k+1)) - y a_(k+1)`` and ``z_(m-1) = x b_m -
#: y a_m``, with ``z_0`` in a register and ``z_1 .. z_(m-1)`` in
#: ``z[1 .. m-1]`` (``z`` holds ``m`` zeros); degree 0 gives ``0.0 + b_0
#: x``, as ``lfilter``'s convolution does.  It writes only the outputs
#: after the first ``skip``.  ``bank_pairs`` runs ``w`` = 1 to 3 conjugate
#: pairs of the bank in one pass over ``y``, each pair's state in
#: registers, so their latency chains overlap; a pair's ``u_t = y_t + p
#: u_(t-1)`` is the complex sum ``(y_t, 0) + p u_(t-1)``, as in
#: ``sosfilt``'s section: the ``0.0 +`` keeps its zero imaginary parts
#: positive, as ``sosfilt``'s are, where ``p`` has a negative imaginary
#: part.  A real pole ``p`` is a pair of pole ``(p, 0.0)`` whose two row
#: addresses are its one row, and the step then has ``lfilter``'s real
#: bits: the state's imaginary part starts at +0.0 and the ``0.0 +`` keeps
#: it there, ``x - 0.0 * (+0.0)`` is ``x`` for every ``x`` (``-0.0``
#: included), so ``t`` is ``y_t + p u_(t-1)``, and the partner's row is
#: stored first, so the pole's own +0.0 overwrites the partner's -0.0.
_KERNEL_SOURCE = r"""
#include <stddef.h>

void arma(const double *e, double *y, ptrdiff_t n, ptrdiff_t skip,
          const double *b, const double *a, ptrdiff_t m, double *z)
{
    double x, w, z0 = 0.0;
    for (ptrdiff_t i = 0; i < n; i++) {
        x = e[i];
        w = z0 + b[0] * x;
        if (m == 1) {
            z0 = x * b[1] - w * a[1];
        } else if (m > 1) {
            z0 = (z[1] + x * b[1]) - w * a[1];
            for (ptrdiff_t k = 2; k < m; k++)
                z[k - 1] = (z[k] + x * b[k]) - w * a[k];
            z[m - 1] = x * b[m] - w * a[m];
        }
        if (i >= skip)
            y[i - skip] = w;
    }
}

/* sample i of the pair of pole (p[0], p[1]) and state s, into the partner's
   conjugate row u[1], then the pair's row u[0] */
static inline void pair_step(double y, const double *p, double *s, double *const *u, ptrdiff_t i)
{
    double t = y + (p[0] * s[0] - p[1] * s[1]);
    s[1] = 0.0 + (p[0] * s[1] + p[1] * s[0]);
    s[0] = t;
    u[1][2 * i] = t;
    u[1][2 * i + 1] = -s[1];
    u[0][2 * i] = t;
    u[0][2 * i + 1] = s[1];
}

/* pair k of the w has pole (p[2k], p[2k+1]) and rows u[2k], u[2k+1] */
void bank_pairs(const double *y, ptrdiff_t n, ptrdiff_t w, const double *p, double *const *u)
{
    double s[6] = {0.0};
    for (ptrdiff_t i = 0; i < n; i++) {
        pair_step(y[i], p, s, u, i);
        if (w > 1)
            pair_step(y[i], p + 2, s + 2, u + 2, i);
        if (w > 2)
            pair_step(y[i], p + 4, s + 4, u + 4, i);
    }
}
"""

#: No contraction into fused multiply-adds and no ``-ffast-math``, so the
#: sections round as ``lfilter`` and ``sosfilt`` do and keep subnormals.
_KERNEL_FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")


def _doubles(address: int, n: int):
    """The ``n`` doubles at ``address``, read and written in place."""
    return (ctypes.c_double * n).from_address(address)


#: Samples per block of ``_blocks``: every index into a block's views is
#: below 256, a small int CPython does not allocate, so a loop over a block
#: allocates nothing and runs about twice as fast as one over the series.
_BLOCK = 128


def _blocks(n: int, *series):
    """Samples ``0 .. n - 1`` in blocks of up to ``_BLOCK``: per block, per
    ``(address, width)`` of ``series``, a view of the block's samples of
    ``width`` doubles each at ``address``."""
    for start in range(0, n, _BLOCK):
        yield [_doubles(a + 8 * w * start, w * min(_BLOCK, n - start)) for a, w in series]


class _PythonSections:
    """The compiled sections in Python floats, called as they are: the
    sections wherever no library loads, and the check a library must pass.

    A namespace, as the loaded library is: its functions are called on the
    class, with the C's names and arguments.  Each repeats the C's
    statements, on the addresses the C gets; ``arma`` keeps the register
    ``z_0`` in ``z[0]`` of a list of its own, which folds the C's three
    branches into one loop, and ``bank_pairs`` runs its pairs one after
    another, which the independent pairs allow, and stores the partner's
    row first, as the C does, so a real pole's two views of its one row
    end with its own +0.0 imaginary parts.  Python's float arithmetic
    is IEEE double and never contracts, so the outputs have the C's bits.
    The series are read and the rows written one double at a time, the
    bank's in ``_blocks``, so no copy of either is made.
    """

    def arma(e, y, n, skip, b, a, m, z):
        e, y = _doubles(e, n), _doubles(y, n - skip)
        b, a = _doubles(b, m + 1)[:], _doubles(a, m + 1)[:]
        z = [0.0] * (m + 1)
        for i in range(n):
            x = e[i]
            w = z[0] + b[0] * x
            for k in range(1, m):
                z[k - 1] = (z[k] + x * b[k]) - w * a[k]
            if m:
                z[m - 1] = x * b[m] - w * a[m]
            if i >= skip:
                y[i - skip] = w

    def bank_pairs(y, n, w, p, u):
        p, u = _doubles(p, 2 * w), (ctypes.c_size_t * (2 * w)).from_address(u)
        for first, second, p0, p1 in zip(u[::2], u[1::2], p[::2], p[1::2]):
            s0 = s1 = 0.0
            for ys, row, partner in _blocks(n, (y, 1), (first, 2), (second, 2)):
                for i in range(len(ys)):
                    t = ys[i] + (p0 * s0 - p1 * s1)
                    s1 = 0.0 + (p0 * s1 + p1 * s0)
                    s0 = t
                    partner[2 * i] = t
                    partner[2 * i + 1] = -s1
                    row[2 * i] = t
                    row[2 * i + 1] = s1


@functools.cache
def _kernel():
    """The compiled sections, once per process, or ``_PythonSections``.

    ``_KERNEL_SOURCE`` goes to the interpreter's own C compiler
    (``sysconfig``'s ``CC``) on its standard input, and the library it
    writes into a private temporary directory is loaded, then removed with
    the directory.  The library is used only where its outputs on
    ``_kernel_outputs``' fixed series are the twin's, byte for byte (the
    twin's share of the first call is about 2 ms, the compile's about 70).
    Elsewhere the twin runs, with the same bits and about 20 to 120 times
    slower (per 1e5 samples, 50 ms for a degree-2 simulation and 33 ms a
    bank pair or real pole): where there is no ``CC`` (CPython's Windows
    builds), where compiling or loading fails (the compiler's output is
    captured, nothing is raised), and where the library's outputs differ
    (a compiler whose default floating-point mode reorders, contracts or
    flushes).
    """
    # imported here, not at module level: import nevpick starts no process
    import shlex
    import subprocess
    import sysconfig

    cc = sysconfig.get_config_var("CC")
    if not cc:
        return _PythonSections
    try:
        with tempfile.TemporaryDirectory(ignore_cleanup_errors=True) as tmp:
            library = os.path.join(tmp, "bank.so")
            subprocess.run([*shlex.split(cc), *_KERNEL_FLAGS, "-x", "c", "-", "-o", library],
                           input=_KERNEL_SOURCE, text=True, capture_output=True, check=True,
                           timeout=60)
            kernel = ctypes.CDLL(library)
    except (OSError, ValueError, subprocess.SubprocessError):
        return _PythonSections
    pointer, size = ctypes.c_void_p, ctypes.c_ssize_t
    kernel.arma.argtypes = (pointer, pointer, size, size, pointer, pointer, size, pointer)
    kernel.bank_pairs.argtypes = (pointer, size, size, pointer, pointer)
    for section in (kernel.arma, kernel.bank_pairs):
        section.restype = None
    same = list(_kernel_outputs(kernel)) == list(_kernel_outputs(_PythonSections))
    return kernel if same else _PythonSections


def _row_addresses(out: np.ndarray, rows) -> np.ndarray:
    """The addresses of rows ``rows`` of ``out``, as ``bank_pairs`` takes them."""
    return out.ctypes.data + out.strides[0] * np.asarray(rows, dtype=np.uintp)


def _kernel_outputs(kernel):
    """The bytes of the sections' outputs on a fixed series, one output at
    a time.

    The series (256 samples), the poles (two pairs and a negative real
    pole, filtered as blocks of one, two and three, the real pole's two
    addresses on its one row, so no row is left unwritten) and the
    coefficients of the two filters (degree 1, and degree 5 on ``arma``'s
    loop over ``z``) are dyadic, so exact on every host, and each output rounds
    from between the 12th and the 48th sample on: contraction, reordering
    or extended precision changes their bits, and so does flushing the
    subnormal copy of the series to zero.
    """
    base = (np.arange(1, 257) * 37 % 101 - 50) / 16.0
    pairs = np.array([-0.625, -0.6875, 0.5, 0.75, -0.8125, 0.0])
    filters = [(np.array([1.0, 0.25]), np.array([1.0, -0.5])),
               (np.array([1.0, -0.375, -0.46875, 0.2109375, -0.033203125, 0.0146484375]),
                np.array([1.0, -0.75, -0.3125, 0.234375, 0.015625, -0.01171875]))]
    skip = 16
    for y in (base, base * 2.0 ** -1060):
        for w in (1, 2, 3):
            at = (0, 1, 2, 3, 4, 4)[:2 * w]
            rows = np.empty((at[-1] + 1, y.size), dtype=complex)
            addresses = _row_addresses(rows, at)
            kernel.bank_pairs(y.ctypes.data, y.size, w, pairs.ctypes.data, addresses.ctypes.data)
            yield rows.tobytes()
        for b, a in filters:
            out, state = np.empty(y.size - skip), np.zeros(a.size - 1)
            kernel.arma(y.ctypes.data, out.ctypes.data, y.size, skip, b.ctypes.data,
                        a.ctypes.data, a.size - 1, state.ctypes.data)
            yield out.tobytes()


def filter_bank(y, spec: FilterBankSpec) -> np.ndarray:
    """Run ``y`` through every first-order section ``u_t = p u_(t-1) + y_t``.

    ``y`` is a nonempty 1-d real finite series; anything else raises
    ``ValueError``.  Returns an array of shape ``(n + 1, len(y))``.  The row
    of pole 0 is ``y`` itself; every other row is written in one pass over
    ``y`` by the compiled sections of the module docstring, compiled on
    the process's first simulation or bank call: the conjugate pairs and
    the real poles up to three to a pass, each pair once, with the
    partner's row the exact conjugate of its row, and a real pole as a pair
    of pole ``(p.real, 0.0)`` whose two rows are its one row.  The
    sections' Python twin runs where they do not load (per 1e5 samples,
    about 33 ms a pair or a real pole), with the same bits.  The
    bits are ``lfilter``'s, but for the sign of a zero entry where ``y``
    has exact zeros.
    """
    y = np.asarray(y)
    if y.ndim != 1 or y.size == 0 or np.iscomplexobj(y):
        raise ValueError("y must be a nonempty 1-d real series")
    # contiguous doubles: the compiled sections read y through a pointer
    y = np.ascontiguousarray(y, dtype=float)
    if not np.isfinite(y).all():
        # an infinite sample leaves only inf and nan in its rows after it
        raise ValueError("y must be finite")
    out = np.empty((len(spec.poles), y.size), dtype=complex)
    out[0] = y
    # a real pole is a pair of imaginary part +0.0 whose two rows are one
    members = [(k, j) for k, j in enumerate(spec.partners) if 0 < k <= j]
    for first in range(0, len(members), 3):
        block = members[first:first + 3]
        poles = np.array([(spec.poles[k].real, spec.poles[k].imag if k < j else 0.0)
                          for k, j in block])
        rows = _row_addresses(out, [r for pair in block for r in pair])
        _kernel().bank_pairs(y.ctypes.data, y.size, len(block), poles.ctypes.data, rows.ctypes.data)
    return out


def estimate_values(bank_outputs: np.ndarray, spec: FilterBankSpec) -> np.ndarray:
    """Interpolation-value estimates ``(1 - p_k^2) mean(u_k^2) / 2``.

    The plain second moment keeps conjugate poles producing conjugate
    estimates.  A row's moment is one dot product ``u_k @ u_k / N`` (``@``
    does not conjugate), so no copy of the bank is made; it is formed once
    per conjugate pair, and the partner's is its exact conjugate, as the
    partner row is in the bank ``filter_bank`` makes.  The poles of a pair
    are conjugate only within ``TOL_NODE``, so conjugate symmetry is then
    enforced exactly by averaging each estimate with the conjugate of its
    partner (which also forces the value at infinity to be real).  A short
    sample can give values whose Pick matrix is not positive definite;
    ``validate`` reports that as ``pick-not-pd`` when they are solved.  The
    bank, an array or nested lists, must be 2-d, with one row per pole of
    ``spec`` and at least one column, as ``filter_bank(y, spec)`` makes
    it; any other shape raises ``ValueError``.
    """
    bank_outputs = np.asarray(bank_outputs)
    if bank_outputs.ndim != 2 or bank_outputs.shape[1] == 0:
        raise ValueError(f"the bank must be 2-d with at least one column, "
                         f"got shape {bank_outputs.shape}")
    if len(bank_outputs) != len(spec.poles):
        raise ValueError(f"the bank must have {len(spec.poles)} rows, got {len(bank_outputs)}")
    poles = np.asarray(spec.poles)
    moment = np.empty(len(poles), dtype=bank_outputs.dtype)
    for k, j in enumerate(spec.partners):
        if k <= j:
            moment[k] = bank_outputs[k] @ bank_outputs[k]
        if k < j:
            moment[j] = np.conj(moment[k])
    w = 0.5 * (1.0 - poles**2) * (moment / bank_outputs.shape[1])
    return 0.5 * (w + np.conj(w[list(spec.partners)]))


def positive_real_numerator(sigma: MonicPolynomial, a: MonicPolynomial) -> np.ndarray:
    """Numerator ``q`` of the positive-real function matching a spectral factor.

    Solves the linear system making ``q(z) a(1/z) + a(z) q(1/z)`` match the
    autocorrelation coefficients of ``sigma``, so ``f = q/a`` satisfies
    ``f(z) + f(1/z) = sigma(z) sigma(1/z) / (a(z) a(1/z))``.  ``f`` is
    positive real only for a Schur-stable ``a``: a filter that breaks the
    filter rule of :func:`simulate_arma` raises ``ValueError``.
    """
    _check_filter(sigma, a)
    rhs = 0.5 * (build_S(sigma.coeffs) @ sigma.coeffs)
    return np.linalg.solve(build_S(a.coeffs), rhs)


def exact_values(sigma: MonicPolynomial, a: MonicPolynomial, poles) -> np.ndarray:
    """Noise-free interpolation values ``f(1/p_k)`` of the true filter.

    ``sigma`` and ``a`` follow the filter rule of :func:`simulate_arma`
    (checked by :func:`positive_real_numerator`; ``ValueError`` otherwise).
    """
    q = positive_real_numerator(sigma, a)
    zeta = np.asarray([complex(p) for p in poles])
    vals = np.polyval(q[::-1], zeta) / np.polyval(a.coeffs[::-1], zeta)
    vals[np.abs(zeta) == 0] = vals[np.abs(zeta) == 0].real
    return vals


def embed_sigma(sigma: MonicPolynomial, order: int) -> MonicPolynomial:
    """Pad a spectral-zero polynomial with zeros at the origin up to ``order``.

    ``order`` is an integer (numpy integers included, booleans not) of at
    least ``sigma``'s degree; anything else raises ``ValueError``.
    """
    if not (is_integer(order) and order >= sigma.degree):
        raise ValueError(f"order must be an integer of at least {sigma.degree}, got {order!r}")
    return MonicPolynomial(np.concatenate((sigma.coeffs, np.zeros(order - sigma.degree))))


#: The data variants of a Monte Carlo configuration, the default first:
#: simulate, filter and estimate; or take the noise-free true values.
VARIANTS = ("monte-carlo", "exact")


@dataclass(frozen=True, eq=False)
class MonteCarloConfig:
    """Full pipeline configuration for degree detection.

    ``variant`` is one of :data:`VARIANTS`: Monte Carlo (simulate, filter,
    estimate), the default, or exact (noise-free true values).
    ``sigma_hat`` defaults to the true zeros padded with zeros at the
    origin up to ``order`` (``embed_sigma(sigma, order)``), and ``poles`` to
    ``default_bank_poles(order)``.  ``sigma_hat`` is resolved at
    construction and is never ``None`` afterwards: the given or padded
    polynomial, checked once to have degree ``order`` and to be Schur
    stable, and shared by every run.  ``sigma`` and ``a`` follow the filter
    rule of :func:`simulate_arma`.
    ``spec`` is derived, not passed: the checked bank of every run.  Per-run
    seeds are drawn from ``np.random.SeedSequence(seed).spawn(runs)``.
    ``samples`` and ``burn_in`` default to ``SAMPLES`` and ``BURN_IN`` of
    the table in :mod:`nevpick.polyalg`.  ``tau_rank``, the threshold of
    the degree estimate, follows :func:`~nevpick.analysis.check_tau_rank`'s
    rule.  ``order``, ``runs``, ``samples``, ``burn_in`` and ``seed`` are
    integers (numpy integers included, booleans not); the last three are
    checked by ``spec``.
    """

    sigma: MonicPolynomial
    a: MonicPolynomial
    order: int
    sigma_hat: MonicPolynomial | None = None
    poles: tuple | None = None
    samples: int = SAMPLES
    burn_in: int = BURN_IN
    seed: int = 0
    runs: int = 1
    variant: str = VARIANTS[0]
    tau_rank: float = DEFAULT_TAU_RANK
    spec: FilterBankSpec = field(init=False, repr=False)

    def __post_init__(self):
        order, degree = self.order, self.sigma.degree
        if not (is_integer(order) and order >= degree):
            raise ValueError(f"order must be an integer of at least {degree}, got {order!r}")
        if self.variant not in VARIANTS:
            raise ValueError("variant must be " + " or ".join(map(repr, VARIANTS)))
        if not (is_integer(self.runs) and self.runs >= 1):
            raise ValueError(f"runs must be a positive integer, got {self.runs!r}")
        check_tau_rank(self.tau_rank)
        _check_filter(self.sigma, self.a)
        if self.poles is not None and len(self.poles) != order + 1:
            raise ValueError(f"bank_poles must list order + 1 = {order + 1} poles")
        sigma_hat = embed_sigma(self.sigma, order) if self.sigma_hat is None else self.sigma_hat
        if sigma_hat.degree != order:
            raise ValueError(f"sigma_hat must have degree order = {order}")
        if not is_schur(sigma_hat):
            raise ValueError("sigma_hat (given, or sigma padded with zeros) is not Schur stable")
        object.__setattr__(self, "sigma_hat", sigma_hat)
        poles = default_bank_poles(order) if self.poles is None else self.poles
        object.__setattr__(self, "spec", FilterBankSpec(
            poles=poles, samples=self.samples, burn_in=self.burn_in, seed=self.seed))


def run_problem(config: MonteCarloConfig, seed: int) -> tuple:
    """The data of one run: ``(problem, y)``.

    The Monte Carlo variant, the first of :data:`VARIANTS`, simulates the
    series ``y`` with ``seed``, runs the bank and estimates the values (the
    problem is validated when it is solved); the exact variant takes the
    true values and has no series (``y`` is None).  Every run's problem
    takes the one ``config.sigma_hat`` resolved at construction.
    """
    spec = config.spec
    if config.variant == VARIANTS[0]:
        y = simulate_arma(config.sigma, config.a, config.samples, config.burn_in, seed)
        values = estimate_values(filter_bank(y, spec), spec)
    else:
        y, values = None, exact_values(config.sigma, config.a, spec.poles)
    problem = InterpolationProblem(
        nodes_from_poles(spec.poles), tuple(values), config.sigma_hat)
    return problem, y


def monte_carlo(config: MonteCarloConfig) -> DegreeReport:
    """Repeat the pipeline ``config.runs`` times and aggregate singular values.

    Run ``r`` simulates with ``int(children[r].generate_state(1)[0])`` of
    ``children = np.random.SeedSequence(config.seed).spawn(config.runs)``, so
    adjacent base seeds do not share runs; the seed is recorded, and
    ``run_problem(config, seed)`` reproduces the run.  A run that fails with
    one of the solver's typed errors is recorded, excluded from the mean, and
    counted; any other exception propagates.  Raises :class:`PathError` when
    every run fails.
    """
    records = []
    for r, child in enumerate(np.random.SeedSequence(config.seed).spawn(config.runs)):
        seed_r = int(child.generate_state(1)[0])
        try:
            problem, _ = run_problem(config, seed_r)
            sv = solve(problem).diagnostics.singular_values
            records.append(RunRecord(run=r, seed=seed_r, singular_values=sv))
        except SOLVE_ERRORS as exc:
            records.append(
                RunRecord(run=r, seed=seed_r, singular_values=None,
                          error=f"{type(exc).__name__}: {exc}")
            )
    good = [rec.singular_values for rec in records if rec.ok]
    if not good:
        raise PathError("all Monte Carlo runs failed: " + (records[0].error or ""))
    mean_sv = np.mean(good, axis=0)
    return DegreeReport(
        singular_values=mean_sv,
        estimated_degree=estimate_positive_degree(mean_sv, config.tau_rank),
        threshold=config.tau_rank,
        per_run=tuple(records),
    )
