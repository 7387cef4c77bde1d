import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.signal import lfilter, welch

from conftest import sym_coeffs
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
    ])
    def test_rejects_non_integer_counts(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be a"):
            FilterBankSpec(poles=(0.0, 0.5), **{"samples": 10, field: value})

    def test_accepts_numpy_integer_counts(self):
        spec = FilterBankSpec(poles=(0.0, 0.5), samples=np.int64(10), burn_in=np.int32(0))
        assert spec.samples == 10 and spec.burn_in == 0


class TestSimulateArma:
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


def filter_bank_per_pole(y, poles) -> np.ndarray:
    """Oracle: every bank row from its own complex ``lfilter`` run."""
    out = np.empty((len(poles), y.size), dtype=complex)
    for k, p in enumerate(poles):
        out[k] = lfilter([1.0], [1.0, -p], y)
    return out


def assert_matches_oracle(spec, y, rtol=1e-13):
    u = filter_bank(y, spec)
    oracle = filter_bank_per_pole(y, spec.poles)
    assert np.max(np.abs(u - oracle)) <= rtol * np.max(np.abs(oracle))
    return u


class TestFilterBank:
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
        # a conjugate pair runs as one sosfilt section, which repeats
        # lfilter's complex recursion exactly, at every length
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


class TestImportGuard:
    def test_solving_never_loads_scipy_signal(self):
        # importing and solving load no scipy module at all; simulate_arma and
        # filter_bank import scipy.signal on first use
        script = (
            "import sys\n"
            "import nevpick, nevpick.cli\n"
            "from conftest import REFERENCE_NODES, REFERENCE_SPECTRAL_ZEROS, REFERENCE_VALUES\n"
            "from nevpick import InterpolationProblem, MonicPolynomial, simulate_arma, solve\n"
            "sol = solve(InterpolationProblem(REFERENCE_NODES, REFERENCE_VALUES,\n"
            "                                 MonicPolynomial.from_roots(REFERENCE_SPECTRAL_ZEROS)))\n"
            "assert sol.trajectory[-1].nu == 1.0\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "assert not loaded, loaded\n"
            "y = simulate_arma(MonicPolynomial([1.0, 0.4]), MonicPolynomial([1.0, -0.5]), 100)\n"
            "assert y.shape == (100,) and 'scipy.signal' in sys.modules\n"
        )
        src = str(Path(sys.modules["nevpick"].__file__).resolve().parents[1])
        here = str(Path(__file__).resolve().parent)
        path = os.pathsep.join(filter(None, [src, here, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr


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
    ])
    def test_rejects_non_integer_counts(self, field, value):
        # runs=2.5 and burn_in=10.5 used to fail inside monte_carlo with a
        # TypeError; runs=True ran once
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
