import numpy as np
import pytest

from conftest import same_array
from nevpick.analysis import (
    DegreeReport,
    RunRecord,
    dominant_zeros,
    estimate_positive_degree,
    log_spectral_deviation,
    reduce_model,
    singular_values,
    spectral_density,
    spectrum_angles,
)
from nevpick.analysis import _grid_moduli
from nevpick.continuation import solve
from nevpick.ingestion import default_bank_poles, embed_sigma, exact_values, nodes_from_poles
from nevpick.polyalg import SPECTRUM_POINTS, TOL_CEE, MonicPolynomial
from nevpick.problem import InterpolationProblem


def degree6_solution():
    zeros = [0.92 * np.exp(1.5j), 0.92 * np.exp(-1.5j),
             0.49 * np.exp(1.4j), 0.49 * np.exp(-1.4j),
             0.95 * np.exp(2.5j), 0.95 * np.exp(-2.5j)]
    poles = [0.8 * np.exp(2.1j), 0.8 * np.exp(-2.1j),
             0.83 * np.exp(1.34j), 0.83 * np.exp(-1.34j),
             0.76 * np.exp(0.8j), 0.76 * np.exp(-0.8j)]
    sigma = MonicPolynomial.from_roots(zeros)
    a = MonicPolynomial.from_roots(poles)
    bank = default_bank_poles(6)
    values = exact_values(sigma, a, bank)
    problem = InterpolationProblem(nodes_from_poles(bank), tuple(values), sigma)
    return solve(problem)


@pytest.fixture(scope="module")
def degree6(request):
    return degree6_solution()


# The reference instance's spectral zeros are -0.99, +-0.99j, 0.95 e^(+-1.22j)
# and 0.95 e^(+-2.3j).  Its reciprocal nodes are the pairs of modulus 0.8 at
# angles 0.80 (nodes 3, 4) and 1.30 (nodes 1, 2), the real 1/1.1 (node 5) and
# the pair of modulus 1/1.1 at angle 2.2 (nodes 6, 7).  Per target degree m:
# the kept zeros and the kept node indices.
_Z1, _Z2 = [-0.99], [0.99j, -0.99j]
_Z3 = [0.95 * np.exp(1.22j), 0.95 * np.exp(-1.22j)]
_Z4 = [0.95 * np.exp(2.3j), 0.95 * np.exp(-2.3j)]
REFERENCE_REDUCTIONS = {
    1: (_Z1, [0, 5]),
    2: (_Z2, [0, 3, 4]),
    3: (_Z1 + _Z2, [0, 3, 4, 5]),
    4: (_Z2 + _Z3, [0, 1, 2, 3, 4]),
    5: (_Z1 + _Z2 + _Z3, [0, 1, 2, 3, 4, 5]),
    6: (_Z2 + _Z3 + _Z4, [0, 1, 2, 3, 4, 6, 7]),
    7: (_Z1 + _Z2 + _Z3 + _Z4, [0, 1, 2, 3, 4, 5, 6, 7]),
}


def assert_same_points(got, want, atol=1e-9):
    """``got`` and the distinct points ``want`` agree as sets, up to ``atol``."""
    got = np.asarray(got, dtype=complex)
    assert len(got) == len(want)
    assert all(np.min(np.abs(got - w)) < atol for w in want)


class TestSingularValues:
    def test_zero_matrix(self):
        assert np.array_equal(singular_values(np.zeros((3, 3))), np.zeros(3))

    def test_diagonal(self):
        assert np.allclose(singular_values(np.diag([0.3, 0.1])), [0.3, 0.1])

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            singular_values(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_orthogonal_invariance(self):
        rng = np.random.default_rng(71)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            A = rng.standard_normal((n, n))
            P = A + A.T
            Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            assert np.allclose(
                singular_values(P), singular_values(Q @ P @ Q.T), atol=1e-10
            )


class TestEstimatePositiveDegree:
    def test_published_column_n3(self):
        assert estimate_positive_degree([0.2968, 0.2494, 5.0460e-6]) == 2

    def test_published_modified_zeros(self):
        svals = [0.3399, 0.2772, 1.3064e-4, 5.5920e-5]
        assert estimate_positive_degree(svals) == 2

    def test_no_gap(self):
        assert estimate_positive_degree([1.0, 0.5, 0.4]) == 3

    def test_all_zero(self):
        assert estimate_positive_degree([0.0, 0.0]) == 0

    def test_monotone_in_threshold(self):
        svals = [1.0, 0.3, 0.05, 1e-4, 1e-7]
        taus = [1e-8, 1e-5, 1e-3, 1e-1, 0.5]
        degrees = [estimate_positive_degree(svals, t) for t in taus]
        assert degrees == sorted(degrees, reverse=True)

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            estimate_positive_degree([0.1, 0.5])

    @pytest.mark.parametrize("tau_rank", [0.0, 2.0, -0.5, float("nan"), float("inf"), True,
                                          np.bool_(True), "0.5", None, 0.5j])
    def test_rejects_a_tau_rank_outside_the_rule(self, tau_rank):
        # 0.0 counted all three values and 2.0 none, without complaint; "0.5"
        # raised TypeError from the comparison
        with pytest.raises(ValueError, match=r"tau_rank must be a real number in \(0, 1\]"):
            estimate_positive_degree([1, .1, .001], tau_rank)

    @pytest.mark.parametrize("tau_rank, degree", [(1, 1), (np.float64(0.5), 1),
                                                  (np.float32(0.05), 2), (np.int64(1), 1)])
    def test_accepts_real_numbers_in_the_unit_interval(self, tau_rank, degree):
        assert estimate_positive_degree([1, .1, .001], tau_rank) == degree


class TestDegreeReport:
    def test_runs_failed_counts_failed_records(self):
        sv = np.array([0.3, 0.2])
        records = (RunRecord(run=0, seed=0, singular_values=None, error="PathError: x"),
                   RunRecord(run=1, seed=1, singular_values=sv),
                   RunRecord(run=2, seed=2, singular_values=None, error="PathError: y"))
        report = DegreeReport(singular_values=sv, estimated_degree=2, threshold=1e-2,
                              per_run=records)
        assert report.runs_attempted == 3
        assert report.runs_failed == 2


class TestDominantZeros:
    def test_largest_modulus_pairs(self):
        zeros = [0.92 * np.exp(1.5j), 0.92 * np.exp(-1.5j),
                 0.49 * np.exp(1.4j), 0.49 * np.exp(-1.4j),
                 0.95 * np.exp(2.5j), 0.95 * np.exp(-2.5j)]
        kept = dominant_zeros(zeros, 4)
        assert sorted(np.abs(kept)) == pytest.approx([0.92, 0.92, 0.95, 0.95])

    def test_split_pair_rejected(self):
        zeros = [0.9j, -0.9j, 0.8j, -0.8j]
        with pytest.raises(ValueError):
            dominant_zeros(zeros, 3)

    def test_real_roots_and_angle_ties(self):
        kept = dominant_zeros([0.9, -0.9, 0.5], 1)
        assert kept == [0.9]  # tie at modulus 0.9 broken by ascending angle

    def test_rounded_moduli_tie(self, reference_solution):
        # np.roots returns -0.99 and +-0.99j with moduli 0.9900000000000009 and
        # 0.9899999999999992: they tie, so the pair at angle pi/2 comes first
        zeros = reference_solution.diagnostics.spectral_zeros
        assert np.allclose(dominant_zeros(zeros, 2), [-0.99j, 0.99j], atol=1e-12)
        # the pairs at 0.95 tie too: the one at angle 1.22 precedes the one at 2.3
        kept = dominant_zeros(zeros, 5)
        want = [-0.99j, 0.99j, -0.99, 0.95 * np.exp(-1.22j), 0.95 * np.exp(1.22j)]
        assert np.allclose(kept, want, atol=1e-12)

    def test_too_many_requested(self):
        with pytest.raises(ValueError):
            dominant_zeros([0.5, -0.5], 3)

    @pytest.mark.parametrize("m", [2.5, 1.5, True, -1])
    def test_rejects_a_count_that_is_not_a_nonnegative_integer(self, m):
        # 2.5 kept no zero, 1.5 and True kept one, and -1 was reported as a
        # split conjugate pair
        with pytest.raises(ValueError, match="m must be a nonnegative integer"):
            dominant_zeros([0.9, -0.9, 0.5], m)

    def test_accepts_numpy_integer_count(self):
        zeros = [0.9j, -0.9j, 0.8, 0.5]
        assert dominant_zeros(zeros, np.int64(2)) == dominant_zeros(zeros, 2)


class TestReduceModel:
    def test_same_degree_reproduces(self, degree6):
        reduced_problem, reduced_solution = reduce_model(degree6, 6)
        assert reduced_problem.nodes == degree6.problem.nodes
        assert np.allclose(
            reduced_problem.sigma.coeffs, degree6.problem.sigma.coeffs, atol=1e-12
        )
        gap = spectral_density(reduced_solution) - spectral_density(degree6)
        assert np.max(np.abs(gap)) < 1e-10

    def test_reduction_to_four(self, degree6):
        reduced_problem, reduced_solution = reduce_model(degree6, 4)
        assert reduced_problem.n == 4
        kept = np.roots(reduced_problem.sigma.coeffs)
        assert sorted(np.round(np.abs(kept), 4)) == pytest.approx([0.92, 0.92, 0.95, 0.95])
        sv = singular_values(reduced_solution.P)
        # two dominant values and a clearly separated tail
        assert sv[1] > 0.1 * sv[0]
        assert np.max(sv[2:]) < 0.05 * sv[0]
        assert log_spectral_deviation(degree6, reduced_solution) < 0.5

    def test_reference_to_two(self, reference_solution):
        reduced_problem, reduced = reduce_model(reference_solution, 2)
        kept = np.sort_complex(np.roots(reduced_problem.sigma.coeffs))
        assert np.allclose(kept, [-0.99j, 0.99j], atol=1e-12)
        assert reduced.diagnostics.max_interp_residual < 1e-10
        assert reduced.diagnostics.cee_residual <= TOL_CEE

    def test_split_node_pair_rejected(self, degree6):
        # all six default bank poles are complex pairs: odd m cannot work
        with pytest.raises(ValueError):
            reduce_model(degree6, 3)

    @pytest.mark.parametrize("m", [2.5, 2.0, True, "2"])
    def test_rejects_non_integer_degree(self, reference_solution, m):
        # int() read 2.5 as 2 and True as 1
        with pytest.raises(ValueError, match="must be an integer"):
            reduce_model(reference_solution, m)

    def test_accepts_numpy_integer_degree(self, reference_solution):
        assert reduce_model(reference_solution, np.int64(2))[0].n == 2

    @pytest.mark.parametrize("m", range(1, 8))
    def test_reference_every_degree(self, reference_solution, m):
        # a group that would overflow is skipped for a later one that fits
        zeros, nodes = REFERENCE_REDUCTIONS[m]
        reduced_problem, reduced = reduce_model(reference_solution, m)
        assert_same_points(np.roots(reduced_problem.sigma.coeffs), zeros)
        assert reduced_problem.nodes == tuple(reference_solution.problem.nodes[k] for k in nodes)
        assert reduced.trajectory[-1].nu == 1.0
        assert reduced.diagnostics.max_interp_residual < 1e-10
        assert reduced.diagnostics.cee_residual <= TOL_CEE

    @pytest.mark.parametrize("order", [5, 7, 15, 27])
    def test_odd_bank_order_to_four(self, order):
        # the lone real bank pole ties the pairs in modulus; four nodes need two pairs
        sigma = MonicPolynomial.from_roots([0.5 * np.exp(1.1j), 0.5 * np.exp(-1.1j),
                                            0.4 * np.exp(2.4j), 0.4 * np.exp(-2.4j)])
        a = MonicPolynomial.from_roots([0.7 * np.exp(0.6j), 0.7 * np.exp(-0.6j),
                                        0.6 * np.exp(2.0j), 0.6 * np.exp(-2.0j)])
        bank = default_bank_poles(order)
        problem = InterpolationProblem(nodes_from_poles(bank), tuple(exact_values(sigma, a, bank)),
                                       embed_sigma(sigma, order))
        reduced_problem, reduced = reduce_model(solve(problem), 4)
        assert sorted(np.round(np.abs(np.roots(reduced_problem.sigma.coeffs)), 6)) == [
            0.4, 0.4, 0.5, 0.5]
        assert all(z.imag != 0 for z in reduced_problem.nodes[1:])
        assert reduced.diagnostics.max_interp_residual < 1e-10
        assert reduced.diagnostics.cee_residual <= TOL_CEE


def horner_density(sol, thetas):
    """Oracle: ``scale rho^2 |sigma(e^it)|^2 / |a(e^it)|^2`` by ``np.polyval``."""
    z = np.exp(1j * thetas)
    return (sol.scale * sol.rho**2 * np.abs(np.polyval(sol.problem.sigma.coeffs, z)) ** 2
            / np.abs(np.polyval(sol.a.coeffs, z)) ** 2)


class TestSpectralDensity:
    def test_grid_angles(self):
        thetas = spectrum_angles()
        assert thetas.shape == (SPECTRUM_POINTS,) and thetas[0] == 0.0
        assert np.allclose(thetas, 2.0 * np.pi * np.arange(SPECTRUM_POINTS) / SPECTRUM_POINTS,
                           rtol=0.0, atol=1e-15)

    def test_allpass_is_flat(self, reference_problem):
        central = InterpolationProblem(
            reference_problem.nodes,
            tuple([0.5 + 0.0j] * (reference_problem.n + 1)),
            reference_problem.sigma,
        )
        sol = solve(central)
        assert np.allclose(spectral_density(sol), 1.0, atol=1e-12)

    def test_even_in_theta(self, reference_solution):
        # theta_{N-k} = 2 pi - theta_k, which is -theta_k on the circle
        phi = spectral_density(reference_solution)
        assert np.allclose(phi[1:], phi[:0:-1], atol=1e-12)

    def test_equals_twice_real_part(self, reference_solution):
        f = reference_solution.interpolant_from_reciprocal(np.exp(-1j * spectrum_angles()))
        assert np.max(np.abs(spectral_density(reference_solution) - 2 * f.real)) < 1e-8

    def test_is_its_polyval_formula(self, reference_solution):
        # bit for bit scale rho^2 |FFT(sigma)|^2 / |FFT(a)|^2 on the grid, one
        # float per angle; and the Horner formula to rounding (relative gap
        # measured 1.5e-12: a has zeros of modulus 0.99)
        sol = reference_solution
        got = spectral_density(sol)
        sigma, a = (np.abs(np.fft.fft(c, SPECTRUM_POINTS)) for c in (sol.problem.sigma.coeffs,
                                                                      sol.a.coeffs))
        want = sol.scale * sol.rho**2 * sigma**2 / a**2
        assert same_array(got, want) and got.shape == (SPECTRUM_POINTS,)
        assert np.max(np.abs(got / horner_density(sol, spectrum_angles()) - 1.0)) < 1.5e-11

    # (degree, bound): the largest |FFT modulus - Horner modulus| on random
    # coefficients, measured 1.1e-12, 1.2e-12 and 1.7e-12
    @pytest.mark.parametrize("degree, bound", [
        (SPECTRUM_POINTS - 1, 1.1e-11), (SPECTRUM_POINTS, 1.2e-11), (SPECTRUM_POINTS + 5, 1.7e-11),
    ])
    def test_grid_moduli_fold_high_degrees(self, degree, bound):
        # from degree N on, fft(c, N) would drop the leading coefficients
        coeffs = np.random.default_rng(1).standard_normal((2, degree + 1))
        z = np.exp(1j * spectrum_angles())
        want = np.abs([np.polyval(c, z) for c in coeffs])
        got = _grid_moduli(coeffs)
        assert got.shape == (2, SPECTRUM_POINTS)
        assert np.max(np.abs(got - want)) < bound

    def test_positive_with_peaks_near_poles(self, reference_solution):
        thetas = spectrum_angles()
        phi = spectral_density(reference_solution)
        assert np.all(phi > 0)
        # sharpest poles sit near modulus 1; density must peak near their angles
        poles = reference_solution.diagnostics.poles
        sharp = poles[np.abs(poles) > 0.99]
        sharp_angles = np.unique(np.round(np.abs(np.angle(sharp)), 6))
        peak_idx = [i for i in range(1, len(thetas) - 1)
                    if phi[i] > phi[i - 1] and phi[i] > phi[i + 1]]
        peak_angles = thetas[peak_idx]
        for ang in sharp_angles:
            assert np.min(np.abs(peak_angles - ang)) < 0.05
