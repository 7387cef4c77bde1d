import ctypes
import os
import shlex
import shutil
import subprocess
import sys
import sysconfig
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.signal import lfilter, sosfilt, welch

from conftest import sym_coeffs
from nevpick import ingestion
from nevpick.analysis import singular_values
from nevpick.cee_core import SteinConsistencyError
from nevpick.continuation import solve
from nevpick.ingestion import (
    FilterBankSpec,
    MonteCarloConfig,
    default_bank_poles,
    embed_sigma,
    estimate_values,
    exact_values,
    filter_bank,
    monte_carlo,
    nodes_from_poles,
    positive_real_numerator,
    run_problem,
    simulate_arma,
)
from nevpick.polyalg import TOL_NODE, MonicPolynomial, build_S
from nevpick.problem import INF, InterpolationProblem, ProblemValidationError, validate


def degree2_system():
    sigma = MonicPolynomial.from_roots([0.31 * np.exp(0.98j), 0.31 * np.exp(-0.98j)])
    a = MonicPolynomial.from_roots([0.76 * np.exp(1.45j), 0.76 * np.exp(-1.45j)])
    return sigma, a


def herglotz_value(sigma, a, z, num_points=8192):
    """Independent quadrature oracle for the positive-real function value.

    Uses the boundary representation of an analytic function with positive
    real part outside the disk: f(z) is the circle average of the kernel
    (e^it + 1/z) / (e^it - 1/z) against Re f(e^it) = |sigma/a|^2 / 2.
    """
    t = np.linspace(0.0, 2.0 * np.pi, num_points, endpoint=False)
    eit = np.exp(1j * t)
    phi = 0.5 * np.abs(np.polyval(sigma.coeffs, eit) / np.polyval(a.coeffs, eit)) ** 2
    zinv = 0.0 if z == INF else 1.0 / z
    kern = (eit + zinv) / (eit - zinv)
    return np.mean(kern * phi)


class TestDefaultBankPoles:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_valid_spec(self, n):
        poles = default_bank_poles(n)
        spec = FilterBankSpec(poles=tuple(poles), samples=10)
        assert len(spec.poles) == n + 1
        assert poles[0] == 0
        assert np.allclose(np.abs(poles[1:]), 0.7)

    def test_even_avoids_real_axis(self):
        poles = default_bank_poles(4)
        assert np.all(np.abs(poles[1:].imag) > 1e-12)

    def test_odd_has_one_real(self):
        poles = default_bank_poles(5)
        real = [p for p in poles[1:] if abs(p.imag) < 1e-12]
        assert len(real) == 1 and real[0].real == pytest.approx(0.7)

    @pytest.mark.parametrize("n", [-1, 2.5, True])
    def test_rejects_non_integer_or_negative_n(self, n):
        # 2.5 would give poles not closed under conjugation, True one real pole
        with pytest.raises(ValueError, match="nonnegative integer"):
            default_bank_poles(n)

    def test_accepts_numpy_integer(self):
        assert np.array_equal(default_bank_poles(np.int64(4)), default_bank_poles(4))


class TestFilterBankSpec:
    def test_rejects_missing_zero_pole(self):
        with pytest.raises(ValueError):
            FilterBankSpec(poles=(0.5,), samples=10)

    def test_rejects_outside_disk(self):
        with pytest.raises(ValueError):
            FilterBankSpec(poles=(0.0, 1.2), samples=10)

    def test_rejects_unpaired_complex(self):
        with pytest.raises(ValueError):
            FilterBankSpec(poles=(0.0, 0.4j), samples=10)

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            FilterBankSpec(poles=(0.0, 0.5, 0.5), samples=10)

    def test_rejects_poles_within_node_tolerance(self):
        # distinct as floats, but one node to the shared 1e-12 check; such a
        # bank used to pass and leave estimate_values' Pick check to fail
        with pytest.raises(ValueError, match="coincide"):
            FilterBankSpec(poles=(0.0, 0.5, 0.5 + 1e-15), samples=10)


    @pytest.mark.parametrize("field, value", [
        ("samples", 2.5), ("samples", 10.0), ("samples", True), ("samples", 0),
        ("samples", "10"), ("burn_in", 10.5), ("burn_in", False), ("burn_in", -1),
        ("seed", -1), ("seed", 1.5), ("seed", True),
    ])
    def test_rejects_non_integer_counts(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be a"):
            FilterBankSpec(poles=(0.0, 0.5), **{"samples": 10, field: value})

    def test_accepts_numpy_integer_counts(self):
        spec = FilterBankSpec(poles=(0.0, 0.5), samples=np.int64(10), burn_in=np.int32(0))
        assert spec.samples == 10 and spec.burn_in == 0


def arma_system(degree: int, seed: int) -> tuple:
    """A Schur-stable ``(sigma, a)`` of ``degree``: conjugate pairs of roots
    at random angles, plus one real root for an odd degree."""
    rng = np.random.default_rng(seed)
    def roots(radius):
        pairs = radius * np.exp(1j * rng.uniform(0.1, 3.0, degree // 2))
        return [*pairs, *np.conj(pairs), *rng.uniform(-0.9, 0.9, degree % 2)]
    return (MonicPolynomial.from_roots(roots(rng.uniform(0.2, 0.9, degree // 2))),
            MonicPolynomial.from_roots(roots(rng.uniform(0.3, 0.95, degree // 2))))


class TestSimulateArma:
    """The simulation on the compiled path, wherever a C compiler is found:
    the bank's scipy path is made to have filtered enough already."""

    @pytest.fixture(autouse=True)
    def compile_at_once(self, monkeypatch):
        monkeypatch.setattr(ingestion, "_COMPILE_AFTER", 0)

    @pytest.mark.parametrize("samples", [1, 10_000])
    @pytest.mark.parametrize("burn_in", [0, 1000])
    @pytest.mark.parametrize("degree", [*range(9), 20])
    def test_is_lfilter_bytewise(self, degree, burn_in, samples):
        # the series is lfilter's output on the seeded noise after the burn-in
        sigma, a = arma_system(degree, seed=degree)
        y = simulate_arma(sigma, a, samples, burn_in, seed=degree + 40)
        e = np.random.default_rng(degree + 40).standard_normal(samples + burn_in)
        want = lfilter(sigma.coeffs, a.coeffs, e)[burn_in:]
        assert y.dtype == want.dtype and y.shape == want.shape == (samples,)
        assert y.tobytes() == want.tobytes()

    def test_allpass_reproduces_noise_exactly(self):
        sigma = MonicPolynomial([1.0, 0.4, -0.1])
        y = simulate_arma(sigma, sigma, samples=500, burn_in=0, seed=3)
        e = np.random.default_rng(3).standard_normal(500)
        assert np.array_equal(y, e)

    def test_unit_variance_for_allpass(self):
        sigma = MonicPolynomial([1.0, 0.2])
        y = simulate_arma(sigma, sigma, samples=100_000, burn_in=0, seed=4)
        assert np.var(y) == pytest.approx(1.0, abs=0.02)

    def test_deterministic_per_seed(self):
        sigma, a = degree2_system()
        y1 = simulate_arma(sigma, a, 1000, 100, seed=9)
        y2 = simulate_arma(sigma, a, 1000, 100, seed=9)
        y3 = simulate_arma(sigma, a, 1000, 100, seed=10)
        assert np.array_equal(y1, y2)
        assert not np.array_equal(y1, y3)

    def test_spectrum_peaks_at_pole_angle(self):
        sigma, a = degree2_system()
        y = simulate_arma(sigma, a, 200_000, 1000, seed=5)
        freqs, pxx = welch(y, fs=2.0 * np.pi, nperseg=2048)
        assert abs(freqs[np.argmax(pxx)] - 1.45) < 0.1

    def test_rejects_unstable_denominator(self):
        sigma = MonicPolynomial([1.0, 0.0])
        with pytest.raises(ValueError):
            simulate_arma(sigma, MonicPolynomial([1.0, -1.5]), 100, 0, 0)

    def test_rejects_degree_mismatch(self):
        with pytest.raises(ValueError):
            simulate_arma(MonicPolynomial([1.0, 0.0]), MonicPolynomial([1.0]), 100, 0, 0)

    @pytest.mark.parametrize("field, samples, burn_in", [
        ("samples", -5, 10), ("samples", 0, 10), ("burn_in", 5, -3), ("samples", True, 0),
        ("samples", 2.5, 0),
    ])
    def test_rejects_bad_counts_as_the_spec_does(self, field, samples, burn_in):
        # each used to return a series: empty, 2 samples for (5, -3) (y[-3:]),
        # 1 sample for True; 2.5 failed inside numpy
        sigma, a = degree2_system()
        with pytest.raises(ValueError, match=f"{field} must be a"):
            simulate_arma(sigma, a, samples, burn_in, 0)
        with pytest.raises(ValueError, match=f"{field} must be a"):
            FilterBankSpec(poles=(0.0, 0.5), samples=samples, burn_in=burn_in)

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_rejects_a_seed_that_is_not_a_nonnegative_integer(self, seed):
        # -1 failed inside numpy with its own message, 1.5 with a TypeError;
        # True simulated a series
        sigma, a = degree2_system()
        with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
            simulate_arma(sigma, a, 100, 0, seed)

    def test_accepts_numpy_and_large_integer_seeds(self):
        sigma, a = degree2_system()
        assert np.array_equal(simulate_arma(sigma, a, 100, 0, np.int64(9)),
                              simulate_arma(sigma, a, 100, 0, 9))
        assert simulate_arma(sigma, a, 100, 0, 99999999999999999999999).shape == (100,)


class TestSimulateArmaFallback(TestSimulateArma):
    """Every simulation test again on the scipy path, the one a host without
    a C compiler takes: the kernel loader is made to find no kernel."""

    @pytest.fixture(autouse=True)
    def no_kernel(self, monkeypatch):
        monkeypatch.setattr(ingestion, "_kernel", lambda: None)


def filter_bank_per_pole(y, poles) -> np.ndarray:
    """Oracle: every bank row from its own complex ``lfilter`` run."""
    out = np.empty((len(poles), y.size), dtype=complex)
    for k, p in enumerate(poles):
        out[k] = lfilter([1.0], [1.0, -p], y)
    return out


def public_bank(y, spec) -> np.ndarray:
    """Oracle: the bank row by row from the public ``lfilter`` and ``sosfilt``."""
    want = np.empty((len(spec.poles), y.size), dtype=complex)
    for k, j in enumerate(spec.partners):
        p = spec.poles[k]
        if p == 0:
            want[k] = y
        elif j == k:
            want[k] = lfilter([1.0], [1.0, -p.real], y)
        elif k < j:
            want[k] = sosfilt([[1.0, 0.0, 0.0, 1.0, -p, 0.0]], y)
            want[j] = np.conj(want[k])
    return want


def assert_matches_oracle(spec, y, rtol=1e-13):
    u = filter_bank(y, spec)
    oracle = filter_bank_per_pole(y, spec.poles)
    assert np.max(np.abs(u - oracle)) <= rtol * np.max(np.abs(oracle))
    return u


class TestFilterBank:
    """The bank on the compiled path, wherever a C compiler is found: the
    scipy path is made to have filtered enough already."""

    @pytest.fixture(autouse=True)
    def compile_at_once(self, monkeypatch):
        monkeypatch.setattr(ingestion, "_COMPILE_AFTER", 0)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_per_pole_oracle(self, n):
        # odd n has a real pole at +0.7, filtered in real arithmetic
        spec = FilterBankSpec(poles=tuple(default_bank_poles(n)), samples=5000)
        y = np.random.default_rng(n).standard_normal(5000)
        u = assert_matches_oracle(spec, y)
        assert np.array_equal(u[0], y)
        poles = np.asarray(spec.poles)
        for k, p in enumerate(poles):
            j = int(np.argmin(np.abs(poles - np.conj(p))))
            assert np.array_equal(u[j], np.conj(u[k]))

    @pytest.mark.parametrize("radius", [0.3, 0.9, 0.999])
    @pytest.mark.parametrize("length", [1, 2, 3, 5000])
    def test_pair_row_is_lfilter_bitwise(self, radius, length):
        # a conjugate pair's section repeats lfilter's complex recursion
        # exactly, at every length
        p = radius * np.exp(1.1j)
        spec = FilterBankSpec(poles=(0.0, p, np.conj(p)), samples=length)
        y = np.random.default_rng(length).standard_normal(length)
        u = filter_bank(y, spec)
        assert np.array_equal(u[1], lfilter([1.0], [1.0, -p], y))
        assert np.array_equal(u[2], np.conj(u[1]))

    def test_near_conjugate_poles_match_oracle(self):
        # partners off their exact conjugates by less than TOL_NODE; the
        # partner row is the conjugate row, which departs from the partner's
        # own filter by about twice the offset (relative)
        offset = 1e-14
        assert offset < TOL_NODE
        p, q = 0.7 * np.exp(0.7j), 0.3 + 0.2j
        poles = (0.0, p, np.conj(p) + offset * (1 + 1j), q, np.conj(q) + offset, 0.5 + offset * 1j)
        spec = FilterBankSpec(poles=poles, samples=5000)
        y = np.random.default_rng(11).standard_normal(5000)
        u = assert_matches_oracle(spec, y)
        assert np.array_equal(u[2], np.conj(u[1]))
        assert np.array_equal(u[4], np.conj(u[3]))
        assert np.all(u[5].imag == 0.0)

    def test_zero_pole_passthrough(self):
        spec = FilterBankSpec(poles=(0.0, 0.5), samples=100)
        y = np.random.default_rng(0).standard_normal(100)
        u = filter_bank(y, spec)
        assert np.array_equal(u[0].real, y)
        assert np.all(u[0].imag == 0.0)

    def test_impulse_response_geometric(self):
        spec = FilterBankSpec(poles=(0.0, 0.5), samples=6)
        impulse = np.zeros(6)
        impulse[0] = 1.0
        u = filter_bank(impulse, spec)
        assert np.allclose(u[1].real, [1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125])

    def test_conjugate_poles_give_conjugate_series(self):
        spec = FilterBankSpec(poles=(0.0, 0.3 + 0.4j, 0.3 - 0.4j), samples=200)
        y = np.random.default_rng(1).standard_normal(200)
        u = filter_bank(y, spec)
        assert np.array_equal(u[2], np.conj(u[1]))

    @pytest.mark.parametrize("draw", range(50))
    def test_matches_public_filters_bytewise(self, draw):
        # the bank has the bits of the public lfilter and sosfilt, row by row,
        # over random conjugate-closed banks, lengths and scales
        rng = np.random.default_rng(2900 + draw)
        radii = rng.uniform(0.0, 0.999, size=rng.integers(0, 5))
        pairs = radii * np.exp(1j * rng.uniform(0.01, np.pi - 0.01, size=radii.size))
        pairs[:1] = 0.999 * np.exp(1j * rng.uniform(0.01, np.pi - 0.01, size=pairs[:1].size))
        reals = rng.uniform(-0.999, 0.999, size=rng.integers(0 if pairs.size else 1, 3))
        poles = (0.0, *(q for p in pairs for q in (p, np.conj(p))), *reals)
        length = (1, 2, 3, 17, 10_000)[draw % 5]
        y = rng.standard_normal(length) * (1e-300, 1.0, 1e300)[draw % 3]
        spec = FilterBankSpec(poles=poles, samples=length)
        u = filter_bank(y, spec)
        want = public_bank(y, spec)
        assert u.dtype == want.dtype and u.shape == want.shape
        assert u.tobytes() == want.tobytes()

    def test_pairs_listed_conjugate_first_bytewise(self):
        # a pair whose first pole has a negative imaginary part, in each lower
        # quadrant: the first sample's zero imaginary part stays positive
        y = np.random.default_rng(37).standard_normal(1000)
        p, q = 0.8 * np.exp(2.0j), 0.5 * np.exp(0.7j)
        spec = FilterBankSpec(poles=(0.0, np.conj(p), p, np.conj(q), q), samples=y.size)
        assert filter_bank(y, spec).tobytes() == public_bank(y, spec).tobytes()

    @pytest.mark.parametrize("pairs", range(1, 8))
    def test_pairs_in_blocks_of_three_bytewise(self, pairs):
        # the compiled path filters the pairs three to a pass, the last pass
        # taking what is left; the pairs are listed in shuffled order, some
        # with the negative-imaginary pole first, beside two real poles
        rng = np.random.default_rng(4100 + pairs)
        p = rng.uniform(0.1, 0.999, pairs) * np.exp(1j * rng.uniform(0.01, np.pi - 0.01, pairs))
        poles = [*p, *np.conj(p), -0.4, 0.6]
        order = rng.permutation(len(poles))
        y = rng.standard_normal(3000)
        spec = FilterBankSpec(poles=(0.0, *(poles[k] for k in order)), samples=y.size)
        assert filter_bank(y, spec).tobytes() == public_bank(y, spec).tobytes()

    def test_signed_zeros_in_the_series_keep_the_values(self):
        # exact zeros of either sign in y, a pole of each kind and a pair
        # listed with its negative-imaginary pole first: every entry equals
        # the public filters' (a zero entry may differ in sign on the
        # compiled path)
        rng = np.random.default_rng(31)
        y = rng.standard_normal(400)
        y[rng.random(400) < 0.5] = 0.0
        y[:40] = 0.0
        y[rng.random(400) < 0.5] *= -1.0
        p = 0.8 * np.exp(-2.0j)
        spec = FilterBankSpec(poles=(0.0, p, np.conj(p), -0.6, 0.3), samples=y.size)
        assert np.array_equal(filter_bank(y, spec), public_bank(y, spec))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_filters_pairs_without_a_copy(self, n):
        # every row is filtered where it lies; only the scipy path forms a
        # real pole's lfilter row (odd n) apart from the bank
        y = np.random.default_rng(n).standard_normal(100_000)
        spec = FilterBankSpec(poles=tuple(default_bank_poles(n)), samples=y.size)
        filter_bank(y, spec)   # scipy's imports and first-call caches
        tracemalloc.start()
        try:
            out = filter_bank(y, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        extra = peak - out.nbytes
        lfilter_row = y.nbytes if n % 2 and ingestion._kernel() is None else 0
        assert extra < lfilter_row + 64 * 1024

    @pytest.mark.parametrize("y", [np.zeros(0), [], np.zeros((2, 3)), np.ones(4) + 1j,
                                   np.ones(4, dtype=complex)])
    def test_rejects_what_is_not_a_real_series(self, y):
        # an empty y failed inside scipy, a 2-d y in the row assignment, and
        # a complex y lost its imaginary part with a ComplexWarning
        spec = FilterBankSpec(poles=(0.0, 0.3 + 0.4j, 0.3 - 0.4j), samples=4)
        with pytest.raises(ValueError, match="y must be a nonempty 1-d real series"):
            filter_bank(y, spec)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_rejects_a_series_that_is_not_finite(self, bad):
        # with y = [1, inf, 1, 1] the compiled real row read [1, inf, inf, inf]
        # and the scipy one [1, inf, nan, nan] (0 * inf in scipy's sections)
        spec = FilterBankSpec(poles=(0.0, 0.5j, -0.5j, 0.5), samples=4)
        with pytest.raises(ValueError, match="y must be finite"):
            filter_bank(np.array([1.0, bad, 1.0, 1.0]), spec)


class TestFilterBankFallback(TestFilterBank):
    """Every bank test again on the scipy path, the one a host without a C
    compiler takes: the kernel loader is made to find no kernel."""

    @pytest.fixture(autouse=True)
    def no_kernel(self, monkeypatch):
        monkeypatch.setattr(ingestion, "_kernel", lambda: None)


def run_script(script: str, **env) -> subprocess.CompletedProcess:
    """Run ``script`` in a fresh interpreter that imports this checkout's
    ``nevpick`` and the tests' ``conftest``, with ``env`` added to its
    environment."""
    src = str(Path(sys.modules["nevpick"].__file__).resolve().parents[1])
    here = str(Path(__file__).resolve().parent)
    path = os.pathsep.join(filter(None, [src, here, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=path, **env),
                          capture_output=True, text=True, timeout=120)


def doubles(address: int, n: int) -> np.ndarray:
    """The ``n`` doubles at ``address``, as an array that writes through."""
    return np.ctypeslib.as_array((ctypes.c_double * n).from_address(address))


class PythonSections:
    """Oracle: ``ingestion``'s C sections in Python floats, called as they are."""

    @staticmethod
    def arma(e, y, n, skip, b, a, m, z):
        # lfilter's loop as written, every delay in the list z
        e, y = doubles(e, n).tolist(), doubles(y, n - skip)
        b, a = doubles(b, m + 1).tolist(), doubles(a, m + 1).tolist()
        z = [0.0] * (m + 1)
        for t in range(n):
            x = e[t]
            w = z[0] + b[0] * x
            for k in range(m - 1):
                z[k] = (z[k + 1] + x * b[k + 1]) - w * a[k + 1]
            if m:
                z[m - 1] = x * b[m] - w * a[m]
            if t >= skip:
                y[t - skip] = w

    @staticmethod
    def bank_pairs(y, n, w, p, u):
        p, u = doubles(p, 2 * w).tolist(), list((ctypes.c_size_t * (2 * w)).from_address(u))
        for k in range(w):
            PythonSections.bank_pair(y, u[2 * k], u[2 * k + 1], n, p[2 * k], p[2 * k + 1])

    @staticmethod
    def bank_pair(y, u, v, n, pr, pi):
        y, u, v = doubles(y, n).tolist(), doubles(u, 2 * n), doubles(v, 2 * n)
        ur = ui = 0.0
        for t in range(n):
            ur, ui = y[t] + (pr * ur - pi * ui), 0.0 + (pr * ui + pi * ur)
            u[2 * t], u[2 * t + 1], v[2 * t], v[2 * t + 1] = ur, ui, ur, -ui

    @staticmethod
    def bank_real(y, u, n, p):
        y, u = doubles(y, n).tolist(), doubles(u, 2 * n)
        ur = 0.0
        for t in range(n):
            ur = y[t] + p * ur
            u[2 * t], u[2 * t + 1] = ur, 0.0


class TestImportGuard:
    def test_solving_never_loads_scipy_signal(self):
        # importing and solving load no scipy module at all and no numpy.fft,
        # and compile nothing (importing loads no subprocess module either;
        # conftest's pytest does); simulate_arma imports scipy.signal on
        # first use below the compile threshold, and spectral_density
        # numpy.fft
        script = (
            "import sys\n"
            "import nevpick, nevpick.cli\n"
            "assert 'subprocess' not in sys.modules\n"
            "from conftest import REFERENCE_NODES, REFERENCE_SPECTRAL_ZEROS, REFERENCE_VALUES\n"
            "from nevpick import InterpolationProblem, MonicPolynomial, simulate_arma, solve\n"
            "from nevpick import spectral_density\n"
            "sol = solve(InterpolationProblem(REFERENCE_NODES, REFERENCE_VALUES,\n"
            "                                 MonicPolynomial.from_roots(REFERENCE_SPECTRAL_ZEROS)))\n"
            "assert sol.trajectory[-1].nu == 1.0\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "assert not loaded, loaded\n"
            "assert 'numpy.fft' not in sys.modules\n"
            "assert nevpick.ingestion._kernel.cache_info().currsize == 0\n"
            "assert spectral_density(sol).shape == (256,) and 'numpy.fft' in sys.modules\n"
            "y = simulate_arma(MonicPolynomial([1.0, 0.4]), MonicPolynomial([1.0, -0.5]), 100)\n"
            "assert y.shape == (100,) and 'scipy.signal' in sys.modules\n"
        )
        proc = run_script(script)
        assert proc.returncode == 0, proc.stderr

    def test_first_filter_bank_call_leaves_no_file_behind(self, tmp_path):
        # the kernel is compiled in a private directory of the temporary
        # directory, removed once the library is loaded; the compiled bank
        # needs no scipy
        script = (
            "import sys\n"
            "import numpy as np\n"
            "from nevpick import FilterBankSpec, default_bank_poles, filter_bank, ingestion\n"
            "spec = FilterBankSpec(poles=tuple(default_bank_poles(3)), samples=100)\n"
            "ingestion._COMPILE_AFTER = 0\n"
            "assert filter_bank(np.ones(100), spec).shape == (4, 100)\n"
            "assert ingestion._kernel.cache_info().currsize == 1\n"
            "assert ingestion._kernel() is None or 'scipy' not in sys.modules\n"
        )
        proc = run_script(script, TMPDIR=str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        assert list(tmp_path.iterdir()) == []

    def test_the_compiled_path_loads_no_scipy(self):
        # with the kernel loaded, a simulated series and its bank need no
        # scipy module at all
        script = (
            "import sys\n"
            "from nevpick import (FilterBankSpec, MonicPolynomial, default_bank_poles,\n"
            "                     filter_bank, ingestion, simulate_arma)\n"
            "ingestion._COMPILE_AFTER = 0\n"
            "sigma, a = MonicPolynomial([1.0, 0.4, 0.2]), MonicPolynomial([1.0, -0.5, 0.3])\n"
            "y = simulate_arma(sigma, a, 1000, 100, 5)\n"
            "bank = filter_bank(y, FilterBankSpec(poles=tuple(default_bank_poles(5)), samples=1000))\n"
            "assert y.shape == (1000,) and bank.shape == (6, 1000)\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "assert ingestion._kernel() is None or not loaded, loaded\n"
        )
        proc = run_script(script)
        assert proc.returncode == 0, proc.stderr

    def test_compiles_once_the_scipy_path_has_filtered_enough(self, monkeypatch):
        # three calls of 1000 samples through two nonzero poles fill a
        # threshold of 6000 sample-rows; only the fourth asks for the kernel
        asked = []
        monkeypatch.setattr(ingestion, "_kernel", lambda: asked.append(1))
        monkeypatch.setattr(ingestion, "_COMPILE_AFTER", 6000)
        monkeypatch.setattr(ingestion, "_scipy_rows", 0)
        y = np.random.default_rng(5).standard_normal(1000)
        spec = FilterBankSpec(poles=tuple(default_bank_poles(2)), samples=y.size)
        for _ in range(3):
            filter_bank(y, spec)
        assert asked == [] and ingestion._scipy_rows == 6000
        filter_bank(y, spec)
        assert asked == [1]

    def test_a_default_detect_degree_run_compiles_nothing(self, tmp_path):
        # one series of 1e4 samples through four nonzero poles would save
        # about 0.1 ms compiled and cost about 45 ms to compile
        system = tmp_path / "system.json"
        system.write_text('{"sigma_roots": [{"re": 0.17, "im": 0.26}, {"re": 0.17, "im": -0.26}],'
                          ' "a_roots": [{"re": 0.09, "im": 0.75}, {"re": 0.09, "im": -0.75}],'
                          ' "order": 4}')
        script = (
            "from nevpick import cli, ingestion\n"
            "try:\n"
            f"    cli.main(['detect-degree', '--input', {str(system)!r},\n"
            f"              '--output', {str(tmp_path / 'out')!r}], standalone_mode=False)\n"
            "except SystemExit as exc:\n"
            "    assert exc.code == 0, exc.code\n"
            "assert ingestion._scipy_rows == 40_000, ingestion._scipy_rows\n"
            "assert ingestion._kernel.cache_info().currsize == 0\n"
        )
        proc = run_script(script)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "out" / "degree_report.json").exists()

    def test_kernel_digest_is_the_recursion_in_double_arithmetic(self):
        # the constant the loaded sections are checked against is the bits of
        # the same recursion in Python floats, written through the addresses
        # the C sections get
        assert ingestion._kernel_digest(PythonSections) == ingestion._KERNEL_DIGEST

    def test_a_kernel_of_other_bits_is_not_used(self, monkeypatch):
        # a compiler that contracts, reorders or flushes subnormals loads a
        # library whose digest differs: the scipy path runs instead
        monkeypatch.setattr(ingestion, "_KERNEL_DIGEST", "0" * 64)
        ingestion._kernel.cache_clear()
        try:
            assert ingestion._kernel() is None
        finally:
            ingestion._kernel.cache_clear()

    def test_kernel_loads_where_the_compiler_is_found(self):
        # a failed compile falls back silently, so only this test would see a
        # lost kernel
        interpreter_cc()
        assert ingestion._kernel() is not None

    def test_kernel_source_compiles_without_warnings(self, tmp_path):
        # a warning can mark code the compiler reads otherwise than meant,
        # and a failed compile falls back silently
        cc = interpreter_cc()
        proc = subprocess.run([*cc, *ingestion._KERNEL_FLAGS, "-Wall", "-Wextra", "-Werror",
                               "-x", "c", "-", "-o", str(tmp_path / "bank.so")],
                              input=ingestion._KERNEL_SOURCE, text=True, capture_output=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr


def interpreter_cc() -> list:
    """The interpreter's C compiler command, ``sysconfig``'s ``CC`` split;
    the test is skipped where it is not on ``PATH``."""
    cc = sysconfig.get_config_var("CC")
    if not cc or shutil.which(shlex.split(cc)[0]) is None:
        pytest.skip(f"the interpreter's C compiler {cc!r} is not on PATH")
    return shlex.split(cc)


def estimate_values_squared(bank, poles) -> np.ndarray:
    """Oracle: the values from the squared bank, ``mean(u_k**2)`` row by row."""
    poles = np.asarray(poles)
    w = 0.5 * (1.0 - poles**2) * np.mean(bank**2, axis=1)
    partner = [int(np.argmin(np.abs(poles - np.conj(p)))) for p in poles]
    return 0.5 * (w + np.conj(w[partner]))


class TestEstimateValues:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_squared_bank_oracle(self, n):
        # the bank as filter_bank makes it (exactly conjugate partner rows) and
        # the per-pole bank (partner rows conjugate only to rounding)
        sigma, a = degree2_system()
        spec = FilterBankSpec(poles=tuple(default_bank_poles(n)), samples=100_000, seed=n)
        y = simulate_arma(sigma, a, spec.samples, spec.burn_in, spec.seed)
        for bank in (filter_bank(y, spec), filter_bank_per_pole(y, spec.poles)):
            oracle = estimate_values_squared(bank, spec.poles)
            assert np.max(np.abs(estimate_values(bank, spec) - oracle)) <= 1e-14

    def test_makes_no_copy_of_the_bank(self):
        sigma, a = degree2_system()
        spec = FilterBankSpec(poles=tuple(default_bank_poles(6)), samples=100_000, seed=2)
        bank = filter_bank(simulate_arma(sigma, a, spec.samples, spec.burn_in, spec.seed), spec)
        tracemalloc.start()
        try:
            estimate_values(bank, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bank[0].nbytes

    def test_one_moment_per_pair_matches_every_row_bitwise(self):
        # the partner row is the exact conjugate, so is its second moment
        sigma, a = degree2_system()
        spec = FilterBankSpec(poles=tuple(default_bank_poles(5)), samples=5000, seed=9)
        bank = filter_bank(simulate_arma(sigma, a, spec.samples, spec.burn_in, spec.seed), spec)
        poles = np.asarray(spec.poles)
        moment = np.array([row @ row for row in bank]) / bank.shape[1]
        w = 0.5 * (1.0 - poles**2) * moment
        want = 0.5 * (w + np.conj(w[list(spec.partners)]))
        assert np.array_equal(estimate_values(bank, spec), want)

    def test_white_noise_gives_half(self):
        sigma = MonicPolynomial([1.0, 0.0, 0.0])
        spec = FilterBankSpec(poles=tuple(default_bank_poles(2)), samples=100_000, seed=6)
        y = simulate_arma(sigma, sigma, spec.samples, spec.burn_in, spec.seed)
        w = estimate_values(filter_bank(y, spec), spec)
        assert np.max(np.abs(w - 0.5)) < 0.02

    def test_infinity_value_is_half_mean_square(self):
        sigma, a = degree2_system()
        spec = FilterBankSpec(poles=tuple(default_bank_poles(2)), samples=5000, seed=7)
        y = simulate_arma(sigma, a, spec.samples, spec.burn_in, spec.seed)
        w = estimate_values(filter_bank(y, spec), spec)
        assert w[0] == pytest.approx(0.5 * np.mean(y**2))
        assert w[0].imag == 0.0

    def test_conjugate_symmetry_exact(self):
        sigma, a = degree2_system()
        spec = FilterBankSpec(poles=tuple(default_bank_poles(4)), samples=2000, seed=8)
        y = simulate_arma(sigma, a, spec.samples, spec.burn_in, spec.seed)
        w = estimate_values(filter_bank(y, spec), spec)
        poles = np.asarray(spec.poles)
        for k, p in enumerate(poles):
            j = int(np.argmin(np.abs(poles - np.conj(p))))
            assert w[j] == np.conj(w[k])

    @pytest.mark.parametrize("bank", [np.ones(3, dtype=complex), np.ones((3, 0), dtype=complex),
                                      np.ones((3, 2, 1), dtype=complex)])
    def test_rejects_a_bank_that_is_not_2d_with_columns(self, bank):
        # a 1-d bank raised TypeError from @, and a bank of no columns gave
        # all-NaN values with a RuntimeWarning
        spec = FilterBankSpec(poles=tuple(default_bank_poles(2)), samples=500)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="the bank must be 2-d with at least one column"):
                estimate_values(bank, spec)

    @pytest.mark.parametrize("rows", [4, 2])
    def test_rejects_a_bank_of_another_row_count(self, rows):
        # 4 rows against 3 poles dropped the last row silently; 2 rows raised
        # IndexError
        sigma, a = degree2_system()
        spec = FilterBankSpec(poles=tuple(default_bank_poles(2)), samples=500, seed=3)
        bank = filter_bank(simulate_arma(sigma, a, spec.samples, spec.burn_in, spec.seed),
                           FilterBankSpec(poles=tuple(default_bank_poles(3)), samples=500))
        with pytest.raises(ValueError, match="the bank must have 3 rows"):
            estimate_values(bank[:rows], spec)

    def test_short_sample_pick_failure_reported_by_validate(self):
        # estimate_values only estimates; a Pick matrix that is not positive
        # definite is reported once, by validate, when the values are solved
        sigma, a = degree2_system()
        spec = FilterBankSpec(poles=tuple(default_bank_poles(6)), samples=12, burn_in=0, seed=1)
        y = simulate_arma(sigma, a, spec.samples, spec.burn_in, spec.seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = estimate_values(filter_bank(y, spec), spec)
        nodes, sigma_hat = nodes_from_poles(spec.poles), embed_sigma(sigma, 6)
        # zero-state bank estimates of 12 samples still give a valid problem ...
        assert validate(InterpolationProblem(nodes, tuple(w), sigma_hat)) == []
        # ... and an underestimated variance (the value at infinity) breaks the
        # Pick matrix but no other invariant
        w[0] *= 0.01
        problem = InterpolationProblem(nodes, tuple(w), sigma_hat)
        assert [v.code for v in validate(problem)] == ["pick-not-pd"]
        with pytest.raises(ProblemValidationError, match="pick-not-pd"):
            solve(problem)


class TestExactValues:
    def test_matches_quadrature_oracle_degree2(self):
        sigma, a = degree2_system()
        poles = default_bank_poles(3)
        vals = exact_values(sigma, a, poles)
        for p, v in zip(poles, vals):
            z = INF if p == 0 else 1.0 / p
            assert abs(v - herglotz_value(sigma, a, z)) < 1e-12

    def test_matches_quadrature_oracle_degree6(self):
        zeros = [0.92 * np.exp(1.5j), 0.92 * np.exp(-1.5j),
                 0.49 * np.exp(1.4j), 0.49 * np.exp(-1.4j),
                 0.95 * np.exp(2.5j), 0.95 * np.exp(-2.5j)]
        poles6 = [0.8 * np.exp(2.1j), 0.8 * np.exp(-2.1j),
                  0.83 * np.exp(1.34j), 0.83 * np.exp(-1.34j),
                  0.76 * np.exp(0.8j), 0.76 * np.exp(-0.8j)]
        sigma = MonicPolynomial.from_roots(zeros)
        a = MonicPolynomial.from_roots(poles6)
        bank = default_bank_poles(6)
        vals = exact_values(sigma, a, bank)
        for p, v in zip(bank, vals):
            z = INF if p == 0 else 1.0 / p
            assert abs(v - herglotz_value(sigma, a, z, num_points=16384)) < 1e-11

    def test_allpass_is_half_everywhere(self):
        sigma = MonicPolynomial([1.0, 0.3, 0.1])
        vals = exact_values(sigma, sigma, default_bank_poles(4))
        assert np.max(np.abs(vals - 0.5)) < 1e-12

    def test_numerator_symmetrization_residual(self):
        sigma, a = degree2_system()
        q = positive_real_numerator(sigma, a)
        assert np.allclose(
            build_S(a.coeffs) @ q, 0.5 * sym_coeffs(sigma.coeffs, sigma.coeffs), atol=1e-13
        )

    def test_rejects_a_denominator_that_is_not_schur(self):
        # this returned [0.1, -0.3], values of no positive-real function
        sigma, a = MonicPolynomial([1.0, -0.5]), MonicPolynomial([1.0, -1.5])
        with pytest.raises(ValueError, match="filter denominator a is not Schur stable"):
            exact_values(sigma, a, [0.0, 0.5])
        with pytest.raises(ValueError, match="filter denominator a is not Schur stable"):
            positive_real_numerator(sigma, a)

    def test_estimates_converge_to_exact(self):
        # sampling-error decay consistent with 1/sqrt(N)
        sigma, a = degree2_system()
        poles = tuple(default_bank_poles(2))
        truth = exact_values(sigma, a, poles)
        Ns = [1_000, 10_000, 100_000]
        errs = []
        for N in Ns:
            per_seed = []
            for seed in range(24):
                spec = FilterBankSpec(poles=poles, samples=N, seed=seed)
                y = simulate_arma(sigma, a, N, spec.burn_in, seed)
                w = estimate_values(filter_bank(y, spec), spec)
                per_seed.append(np.mean(np.abs(w - truth)))
            errs.append(np.mean(per_seed))
        slope = np.polyfit(np.log(Ns), np.log(errs), 1)[0]
        assert -0.6 < slope < -0.4


class TestEmbedSigma:
    def test_pads_with_origin_zeros(self):
        sigma = MonicPolynomial([1.0, 0.5, 0.25])
        hat = embed_sigma(sigma, 5)
        assert np.array_equal(hat.coeffs, [1.0, 0.5, 0.25, 0.0, 0.0, 0.0])
        roots = np.roots(hat.coeffs)
        assert np.sum(np.abs(roots) < 1e-12) == 3

    def test_rejects_shrinking(self):
        with pytest.raises(ValueError):
            embed_sigma(MonicPolynomial([1.0, 0.5, 0.25]), 1)

    @pytest.mark.parametrize("order", [3.0, True, 2.5, "3"])
    def test_rejects_an_order_that_is_not_an_integer(self, order):
        # 3.0 raised numpy's TypeError and True padded as if order were 1
        with pytest.raises(ValueError, match="order must be an integer of at least 0"):
            embed_sigma(MonicPolynomial([1.0]), order)

    def test_accepts_numpy_integer_order(self):
        hat = embed_sigma(MonicPolynomial([1.0, 0.5]), np.int64(3))
        assert np.array_equal(hat.coeffs, [1.0, 0.5, 0.0, 0.0])


class TestMonteCarlo:
    def test_single_run_bit_exact(self):
        sigma, a = degree2_system()
        cfg = MonteCarloConfig(sigma=sigma, a=a, order=3, samples=2000, runs=1, seed=17)
        r1 = monte_carlo(cfg)
        r2 = monte_carlo(cfg)
        assert np.array_equal(r1.singular_values, r2.singular_values)
        assert np.array_equal(r1.per_run[0].singular_values, r2.per_run[0].singular_values)
        (child,) = np.random.SeedSequence(17).spawn(1)
        assert r1.per_run[0].seed == int(child.generate_state(1)[0])

    def test_exact_variant_rank_two(self):
        sigma, a = degree2_system()
        cfg = MonteCarloConfig(sigma=sigma, a=a, order=3, variant="exact")
        rep = monte_carlo(cfg)
        assert rep.estimated_degree == 2
        assert rep.singular_values[2] < 1e-6 * rep.singular_values[0]

    def test_noisy_variant_rank_two(self):
        sigma, a = degree2_system()
        cfg = MonteCarloConfig(sigma=sigma, a=a, order=3, samples=10_000, runs=10, seed=23)
        rep = monte_carlo(cfg)
        assert rep.runs_failed == 0
        assert rep.runs_attempted == 10
        assert rep.estimated_degree == 2
        assert rep.singular_values[2] < 1e-2 * rep.singular_values[0]

    def test_per_run_seeds_spawned(self):
        sigma, a = degree2_system()
        cfg = MonteCarloConfig(sigma=sigma, a=a, order=2, samples=1000, runs=3, seed=8)
        rep = monte_carlo(cfg)
        children = np.random.SeedSequence(8).spawn(3)
        assert [rec.seed for rec in rep.per_run] == [int(c.generate_state(1)[0]) for c in children]

    def test_adjacent_base_seeds_share_no_run(self):
        # seed ^ run_index gave base seeds 8 and 9 the same runs 0 and 1
        sigma, a = degree2_system()
        seeds = [
            {rec.seed for rec in monte_carlo(
                MonteCarloConfig(sigma=sigma, a=a, order=2, samples=1000, runs=4, seed=base)
            ).per_run}
            for base in (8, 9)
        ]
        assert len(seeds[0]) == len(seeds[1]) == 4
        assert not seeds[0] & seeds[1]

    def test_recorded_seed_reproduces_run(self):
        sigma, a = degree2_system()
        cfg = MonteCarloConfig(sigma=sigma, a=a, order=2, samples=1000, runs=2, seed=8)
        rec = monte_carlo(cfg).per_run[1]
        problem, _ = run_problem(cfg, rec.seed)
        assert np.array_equal(singular_values(solve(problem).P), rec.singular_values)

    def test_one_svd_per_run(self, monkeypatch):
        # each run reads the singular values its solve already computed
        svd, calls = np.linalg.svd, []

        def counting(*args, **kwargs):
            calls.append(1)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        sigma, a = degree2_system()
        monte_carlo(MonteCarloConfig(sigma=sigma, a=a, order=2, samples=1000, runs=3, seed=8))
        assert len(calls) == 3

    def test_resolves_sigma_hat_once(self, monkeypatch):
        # the padded true zeros, bit for bit, or the given polynomial itself;
        # no run embeds again
        sigma, a = degree2_system()
        cfg = MonteCarloConfig(sigma=sigma, a=a, order=4, samples=1000)
        assert np.array_equal(cfg.sigma_hat.coeffs, embed_sigma(sigma, 4).coeffs)
        given = MonicPolynomial.from_roots([0.5, -0.5, 0.2, 0.1])
        assert MonteCarloConfig(sigma=sigma, a=a, order=4, sigma_hat=given).sigma_hat is given

        def no_embed(*args):
            raise AssertionError("embed_sigma called after construction")

        monkeypatch.setattr("nevpick.ingestion.embed_sigma", no_embed)
        problem, _ = run_problem(cfg, 5)
        assert problem.sigma is cfg.sigma_hat

    @pytest.mark.parametrize("hat_roots", [[1.5, 0.5, 0.2], None])
    def test_rejects_a_sigma_hat_that_is_not_schur(self, hat_roots):
        # given, or the padded true zeros; every run failed validation before
        sigma, a = degree2_system()
        if hat_roots is None:
            sigma = MonicPolynomial.from_roots([1.5, 0.31])
        sigma_hat = None if hat_roots is None else MonicPolynomial.from_roots(hat_roots)
        with pytest.raises(ValueError, match="sigma_hat .* is not Schur stable"):
            MonteCarloConfig(sigma=sigma, a=a, order=3, sigma_hat=sigma_hat)

    def test_rejects_bad_variant(self):
        sigma, a = degree2_system()
        with pytest.raises(ValueError):
            MonteCarloConfig(sigma=sigma, a=a, order=2, variant="bogus")

    @pytest.mark.parametrize("order", [3.0, 2.5, True, "3", None])
    def test_rejects_non_integer_order(self, order):
        # 3.0 built and then failed in embed_sigma; 2.5 failed as an odd bank;
        # True passed as order 1 of this degree-1 system
        sigma, a = MonicPolynomial([1.0, -0.31]), MonicPolynomial([1.0, -0.76])
        with pytest.raises(ValueError, match="order must be an integer"):
            MonteCarloConfig(sigma=sigma, a=a, order=order, variant="exact")

    @pytest.mark.parametrize("field, value", [
        ("runs", 2.5), ("runs", True), ("runs", 0), ("runs", 2.0),
        ("samples", 2.5), ("burn_in", 10.5), ("burn_in", True),
        ("seed", -1), ("seed", 1.5), ("seed", True),
    ])
    def test_rejects_non_integer_counts(self, field, value):
        # runs=2.5 and burn_in=10.5 used to fail inside monte_carlo with a
        # TypeError; runs=True ran once; a bad seed was taken and failed
        # or ran inside monte_carlo
        sigma, a = degree2_system()
        with pytest.raises(ValueError, match=f"{field} must be a"):
            MonteCarloConfig(sigma=sigma, a=a, order=2, **{field: value})

    def test_accepts_numpy_integer_counts(self):
        sigma, a = degree2_system()
        cfg = MonteCarloConfig(sigma=sigma, a=a, order=2, samples=np.int64(1000),
                               burn_in=np.int64(10), runs=np.int64(2), seed=8)
        assert monte_carlo(cfg).runs_attempted == 2

    def test_accepts_numpy_integer_order(self):
        sigma, a = degree2_system()
        rep = monte_carlo(MonteCarloConfig(sigma=sigma, a=a, order=np.int64(3), variant="exact"))
        assert rep.estimated_degree == 2

    def test_typed_solver_error_counts_as_failed_run(self, monkeypatch):
        calls = []

        def solve_failing_first(problem):
            calls.append(problem)
            if len(calls) == 1:
                raise SteinConsistencyError("injected")
            return solve(problem)

        monkeypatch.setattr("nevpick.ingestion.solve", solve_failing_first)
        sigma, a = degree2_system()
        rep = monte_carlo(MonteCarloConfig(sigma=sigma, a=a, order=2, variant="exact", runs=2))
        assert rep.runs_failed == 1
        assert rep.per_run[0].error == "SteinConsistencyError: injected"

    def test_programming_error_propagates(self, monkeypatch):
        def broken_solve(problem):
            raise ValueError("shape mismatch")

        monkeypatch.setattr("nevpick.ingestion.solve", broken_solve)
        sigma, a = degree2_system()
        with pytest.raises(ValueError, match="shape mismatch"):
            monte_carlo(MonteCarloConfig(sigma=sigma, a=a, order=2, variant="exact"))


class TestNodesFromPoles:
    def test_zero_maps_to_infinity(self):
        nodes = nodes_from_poles([0.0, 0.5, -0.5])
        assert nodes[0] == INF
        assert nodes[1] == pytest.approx(2.0)
        assert nodes[2] == pytest.approx(-2.0)
