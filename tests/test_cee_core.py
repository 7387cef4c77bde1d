import numpy as np
import pytest

from conftest import random_problem, random_schur_monic
from nevpick.cee_core import (
    RealnessError,
    SteinConsistencyError,
    build_T,
    build_V,
    build_W,
    build_cee_matrices,
    cee_residual,
    compute_uU,
    compute_uU_dot,
    g_of_p,
    operator_pair,
    recover_P,
    uU_from_covariance,
)
from nevpick.continuation import solve
from nevpick.ingestion import default_bank_poles, exact_values, nodes_from_poles
from nevpick.polyalg import MonicPolynomial, companion
from nevpick.problem import INF, InterpolationProblem, normalize


def normalized_reference(reference_problem):
    return normalize(reference_problem).problem


class TestBuildV:
    def test_two_nodes(self):
        V = build_V((INF, 2.0))
        assert np.allclose(V, [[1.0, 0.0], [1.0, 0.5]])

    def test_reference_invertible(self, reference_problem):
        V = build_V(reference_problem)
        assert np.isfinite(np.linalg.cond(V))
        assert np.linalg.cond(V) < 1e6

    def test_coincident_nodes_rejected(self):
        with pytest.raises(ValueError):
            build_V((INF, 2.0, 2.0))

    def test_row_scaling_leaves_T_unchanged(self, reference_problem):
        norm = normalized_reference(reference_problem)
        V = build_V(norm)
        W = build_W(norm.values_array(), 1.0)
        T = build_T(V, W)
        rng = np.random.default_rng(31)
        for _ in range(10):
            D = np.diag(rng.uniform(0.5, 8.0, size=V.shape[0]))
            T_scaled = build_T(D @ V, W)
            assert np.max(np.abs(T - T_scaled)) < 1e-12


class TestBuildW:
    def test_endpoints_and_midpoint(self):
        w = np.array([0.5, 0.7])
        assert np.allclose(build_W(w, 0.0), [0.5, 0.5])
        assert np.allclose(build_W(w, 1.0), w)
        assert np.allclose(build_W(w, 0.5), [0.5, 0.6])


class TestBuildT:
    def test_half_identity_gives_zero(self, reference_problem):
        norm = normalized_reference(reference_problem)
        V = build_V(norm)
        T = build_T(V, build_W(norm.values_array(), 0.0))
        assert np.max(np.abs(T)) < 1e-12

    def test_constant_values_give_half_identity(self):
        nodes = (INF, 1.5 + 0.5j, 1.5 - 0.5j)
        V = build_V(nodes)
        T = build_T(V, np.ones(3, dtype=complex))
        assert np.allclose(T, 0.5 * np.eye(3), atol=1e-12)

    def test_reference_real(self, reference_problem):
        norm = normalized_reference(reference_problem)
        V = build_V(norm)
        W = build_W(norm.values_array(), 1.0)
        M = np.linalg.solve(V, W[:, None] * V)
        assert np.max(np.abs(M.imag)) < 1e-10
        T = build_T(V, W)
        assert T.dtype == float

    def test_broken_symmetry_raises(self, reference_problem):
        norm = normalized_reference(reference_problem)
        V = build_V(norm)
        w = norm.values_array()
        w[1] += 0.05j  # breaks conjugate symmetry
        with pytest.raises(RealnessError):
            build_T(V, build_W(w, 1.0))


class TestComputeUU:
    def test_zero(self):
        u, U = compute_uU(np.zeros((4, 4)))
        assert np.array_equal(u, np.zeros(3))
        assert np.array_equal(U, np.zeros((3, 3)))

    def test_n1_closed_form(self):
        # nodes (inf, z1), values (1/2, w1): closed-form 2x2 inversion gives
        # u = z1 (w1 - 1/2) / (w1 + 1/2),  U = (w1 - 1/2) / (w1 + 1/2)
        z1, w1 = 2.5, 0.9
        V = build_V((INF, z1))
        T = build_T(V, np.array([0.5, w1], dtype=complex))
        u, U = compute_uU(T)
        want_U = (w1 - 0.5) / (w1 + 0.5)
        want_u = z1 * (w1 - 0.5) / (w1 + 0.5)
        assert u[0] == pytest.approx(want_u, rel=1e-12)
        assert U[0, 0] == pytest.approx(want_U, rel=1e-12)

    def test_defining_system_residual(self, reference_problem):
        norm = normalized_reference(reference_problem)
        cee = build_cee_matrices(norm)
        T = 1.0 * cee.T_dot
        m = T.shape[0]
        X = np.linalg.solve(np.eye(m) + T, T)
        assert np.max(np.abs((np.eye(m) + T) @ X - T)) < 1e-12


class TestComputeUUDot:
    def test_zero_slope(self):
        u_dot, U_dot = compute_uU_dot(np.zeros((3, 3)), np.zeros((3, 3)))
        assert np.array_equal(u_dot, np.zeros(2))
        assert np.array_equal(U_dot, np.zeros((2, 2)))

    def test_at_zero_equals_bottom_rows_of_slope(self, reference_problem):
        norm = normalized_reference(reference_problem)
        cee = build_cee_matrices(norm)
        u_dot, U_dot = compute_uU_dot(np.zeros_like(cee.T_dot), cee.T_dot)
        assert np.allclose(u_dot, cee.T_dot[1:, 0], atol=1e-14)
        assert np.allclose(U_dot, cee.T_dot[1:, 1:], atol=1e-14)

    def test_matches_finite_differences(self, reference_problem):
        norm = normalized_reference(reference_problem)
        cee = build_cee_matrices(norm)
        delta = 1e-6
        for nu in (0.1, 0.3, 0.5, 0.7, 0.9):
            pair = operator_pair(cee, nu)
            up, Up = compute_uU((nu + delta) * cee.T_dot)
            um, Um = compute_uU((nu - delta) * cee.T_dot)
            fd_u = (up - um) / (2 * delta)
            fd_U = (Up - Um) / (2 * delta)
            scale_u = max(1.0, np.max(np.abs(fd_u)))
            scale_U = max(1.0, np.max(np.abs(fd_U)))
            assert np.max(np.abs(pair.u_dot - fd_u)) / scale_u < 1e-6
            assert np.max(np.abs(pair.U_dot - fd_U)) / scale_U < 1e-6


class TestOperatorPair:
    def test_exact_zero_at_start(self, reference_problem):
        norm = normalized_reference(reference_problem)
        cee = build_cee_matrices(norm)
        pair = operator_pair(cee, 0.0)
        assert np.all(pair.u == 0.0)
        assert np.all(pair.U == 0.0)

    def test_realness_on_grid(self, reference_problem):
        norm = normalized_reference(reference_problem)
        cee = build_cee_matrices(norm)
        for nu in np.linspace(0.0, 1.0, 11):
            pair = operator_pair(cee, nu)
            assert pair.u.dtype == float
            assert pair.U.dtype == float


class TestUUFromCovariance:
    def test_white(self):
        u, U = uU_from_covariance([1.0, 0.0, 0.0])
        assert np.array_equal(u, np.zeros(2))
        assert np.array_equal(U, np.zeros((2, 2)))

    def test_n1_series(self):
        u, U = uU_from_covariance([1.0, 0.4])
        assert u[0] == pytest.approx(0.4)
        assert U.shape == (1, 1) and U[0, 0] == 0.0

    def test_series_inverts_covariance_polynomial(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            n = 4
            c = np.concatenate(([1.0], 0.2 * rng.standard_normal(n)))
            from scipy.linalg import toeplitz

            if np.linalg.eigvalsh(toeplitz(c))[0] <= 0:
                continue
            u, U = uU_from_covariance(c)
            # (1 - sum u_j x^j)(1 + sum c_i x^i) == 1 through order n
            conv = np.convolve(np.concatenate(([1.0], -u)), c)[: n + 1]
            want = np.zeros(n + 1)
            want[0] = 1.0
            assert np.allclose(conv, want, atol=1e-12)

    def test_structure_strictly_lower_toeplitz(self):
        u, U = uU_from_covariance([1.0, 0.3, -0.1, 0.05])
        n = 3
        for i in range(n):
            for j in range(n):
                want = u[i - j - 1] if i > j else 0.0
                assert U[i, j] == pytest.approx(want)

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            uU_from_covariance([1.0, 0.99, 0.0])


class TestGOfP:
    def test_zero_pair(self):
        comp = companion(MonicPolynomial([1.0, 0.5, 0.25]))
        pair_zero = operator_pair_stub(np.zeros(2), np.zeros((2, 2)))
        assert np.array_equal(g_of_p(pair_zero, comp, np.zeros(2)), np.zeros(2))

    def test_zero_p(self):
        comp = companion(MonicPolynomial([1.0, 0.5, 0.25]))
        rng = np.random.default_rng(5)
        u = rng.standard_normal(2)
        U = rng.standard_normal((2, 2))
        pair = operator_pair_stub(u, U)
        assert np.allclose(g_of_p(pair, comp, np.zeros(2)), u + U @ comp.sigma_vec)


def operator_pair_stub(u, U):
    from nevpick.cee_core import OperatorPair

    return OperatorPair(nu=1.0, u=u, U=U, u_dot=np.zeros_like(u), U_dot=np.zeros_like(U))


def kronecker_stein_solve(Gamma, rhs):
    """Reference solution of ``X - Gamma X Gamma' = rhs`` by dense vectorization."""
    n = Gamma.shape[0]
    A = np.eye(n * n) - np.kron(Gamma, Gamma)
    return np.linalg.solve(A, rhs.ravel()).reshape(n, n)


class TestSteinSolve:
    def test_recover_P_matches_kronecker_oracle(self):
        # endpoints of real solves, at orders on both sides of the size where
        # scipy switches from its direct to its bilinear Stein method
        rng = np.random.default_rng(42)
        problems = [random_problem(rng, int(rng.integers(1, 7))) for _ in range(8)]
        sigma_true = MonicPolynomial.from_roots([0.5 * np.exp(1.1j), 0.5 * np.exp(-1.1j)])
        a_true = MonicPolynomial.from_roots([0.7 * np.exp(2.0j), 0.7 * np.exp(-2.0j)])
        for n in (12, 16):
            poles = default_bank_poles(n)
            problems.append(InterpolationProblem(
                nodes_from_poles(poles), tuple(exact_values(sigma_true, a_true, poles)),
                random_schur_monic(rng, n, r_max=0.6),
            ))
        for problem in problems:
            sol = solve(problem)
            comp = companion(problem.sigma)
            g = g_of_p(operator_pair(build_cee_matrices(normalize(problem).problem), 1.0),
                       comp, sol.p)
            Gp = comp.Gamma @ sol.p
            oracle = kronecker_stein_solve(comp.Gamma, np.outer(g, g) - np.outer(Gp, Gp))
            P = recover_P(comp, sol.p, g)
            assert np.max(np.abs(P - 0.5 * (oracle + oracle.T))) < 1e-12


class TestRecoverP:
    def test_zero(self):
        comp = companion(MonicPolynomial([1.0, 0.5, 0.25]))
        P = recover_P(comp, np.zeros(2), np.zeros(2))
        assert np.array_equal(P, np.zeros((2, 2)))

    def test_scalar_closed_form(self):
        # pick p, gamma, then g so that the scalar equation is consistent:
        # P (1 - gamma^2) = g^2 - gamma^2 p^2 with P = p
        p, gamma = 0.3, 0.5
        g = np.sqrt(p * (1 - gamma**2) + gamma**2 * p**2)
        comp = companion(MonicPolynomial([1.0, -gamma]))
        P = recover_P(comp, np.array([p]), np.array([g]))
        closed = (g**2 - gamma**2 * p**2) / (1 - gamma**2)
        assert P[0, 0] == pytest.approx(closed, abs=1e-12)
        assert P[0, 0] == pytest.approx(p, abs=1e-12)

    def test_off_trajectory_p_rejected(self):
        comp = companion(MonicPolynomial([1.0, -0.5]))
        with pytest.raises(SteinConsistencyError):
            recover_P(comp, np.array([0.9]), np.array([0.1]))


class TestCeeResidual:
    def test_zero(self):
        comp = companion(MonicPolynomial([1.0, 0.5, 0.25]))
        assert cee_residual(np.zeros((2, 2)), comp, np.zeros(2)) == 0.0

    def test_pure_g(self):
        comp = companion(MonicPolynomial([1.0, 0.5, 0.25]))
        g = np.array([0.3, -0.4])
        want = np.linalg.norm(np.outer(g, g), "fro")
        assert cee_residual(np.zeros((2, 2)), comp, g) == pytest.approx(want)


class TestAffinity:
    def test_T_affine_in_nu(self, reference_problem):
        norm = normalized_reference(reference_problem)
        cee = build_cee_matrices(norm)
        V = cee.V
        for nu in np.linspace(0.0, 1.0, 11):
            direct = build_T(V, build_W(cee.w_target, nu))
            assert np.max(np.abs(direct - nu * cee.T_dot)) < 1e-10
