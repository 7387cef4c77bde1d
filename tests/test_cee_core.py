import numpy as np
import pytest
from scipy.linalg import toeplitz

from conftest import random_problem, random_schur_monic
from nevpick.cee_core import (
    RealnessError,
    SteinConsistencyError,
    build_cee_matrices,
    build_V,
    cee_residual,
    g_of_p,
    operator_pair,
    recover_P,
)
from nevpick.continuation import solve
from nevpick.ingestion import default_bank_poles, exact_values, nodes_from_poles
from nevpick.polyalg import MonicPolynomial, companion
from nevpick.problem import INF, InterpolationProblem, normalize


def normalized_reference(reference_problem):
    return normalize(reference_problem).problem


# ---------------------------------------------------------------------------
# Oracles: the textbook forms that build_cee_matrices and operator_pair
# compute in factored form.
# ---------------------------------------------------------------------------


def reciprocals(nodes):
    return InterpolationProblem(
        nodes, (0.5,) * len(nodes), MonicPolynomial.from_roots([0.0] * (len(nodes) - 1))
    ).node_reciprocals()


def build_W(values, nu):
    """Diagonal of ``W(nu) = 1/2 I + nu (W - 1/2 I)`` as a 1-d array."""
    return 0.5 + nu * (np.asarray(values, dtype=complex) - 0.5)


def build_T(V, W):
    """``T = V^-1 diag(W) V - 1/2 I``, real up to a checked imaginary residue."""
    M = np.linalg.solve(V, np.asarray(W, dtype=complex)[:, None] * V)
    assert np.max(np.abs(M.imag)) <= 1e-9
    return M.real - 0.5 * np.eye(V.shape[0])


def solve_uU(T):
    """``(u, U)`` from the bottom rows of ``(I + T)^-1 T`` by a linear solve."""
    X = np.linalg.solve(np.eye(T.shape[0]) + T, T)
    return X[1:, 0], X[1:, 1:]


def uU_from_covariance(c):
    """Operator pair of the covariance-extension special case.

    ``c = (1, c1, ..., cn)`` must have a positive-definite Toeplitz matrix.
    The series ``z^n / (z^n + c1 z^(n-1) + ... + cn) = 1 - u1/z - u2/z^2 - ...``
    gives ``u``; ``U`` is the strictly lower-triangular Toeplitz matrix of
    ``(u1, ..., u_(n-1))``.
    """
    c = np.asarray(c, dtype=float)
    n = c.size - 1
    if not np.linalg.eigvalsh(toeplitz(c))[0] > 0:
        raise ValueError("Toeplitz matrix of the covariance sequence is not positive definite")
    v = np.zeros(n + 1)
    v[0] = 1.0
    for k in range(1, n + 1):
        v[k] = -(c[1 : k + 1] @ v[k - 1 :: -1])
    u = -v[1:]
    col = np.zeros(n)
    col[1:] = u[:-1]
    return u, toeplitz(col, np.zeros(n))


class TestBuildV:
    def test_two_nodes(self):
        V = build_V(reciprocals((INF, 2.0)))
        assert np.allclose(V, [[1.0, 0.0], [1.0, 0.5]])

    def test_reference_invertible(self, reference_problem):
        V = build_V(reference_problem.node_reciprocals())
        assert np.isfinite(np.linalg.cond(V))
        assert np.linalg.cond(V) < 1e6

    def test_coincident_nodes_rejected(self):
        with pytest.raises(ValueError):
            build_V(reciprocals((INF, 2.0, 2.0)))

    def test_row_scaling_leaves_T_unchanged(self, reference_problem):
        norm = normalized_reference(reference_problem)
        V = build_V(norm.node_reciprocals())
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
        V = build_V(norm.node_reciprocals())
        T = build_T(V, build_W(norm.values_array(), 0.0))
        assert np.max(np.abs(T)) < 1e-12

    def test_constant_values_give_half_identity(self):
        V = build_V(reciprocals((INF, 1.5 + 0.5j, 1.5 - 0.5j)))
        T = build_T(V, np.ones(3, dtype=complex))
        assert np.allclose(T, 0.5 * np.eye(3), atol=1e-12)

    def test_reference_real(self, reference_problem):
        norm = normalized_reference(reference_problem)
        V = build_V(norm.node_reciprocals())
        W = build_W(norm.values_array(), 1.0)
        M = np.linalg.solve(V, W[:, None] * V)
        assert np.max(np.abs(M.imag)) < 1e-10
        T = build_T(V, W)
        assert T.dtype == float

    def test_broken_symmetry_raises(self, reference_problem):
        norm = normalized_reference(reference_problem)
        w = norm.values_array()
        w[1] += 0.05j  # breaks conjugate symmetry
        broken = InterpolationProblem(norm.nodes, tuple(w), norm.sigma)
        with pytest.raises(RealnessError):
            build_cee_matrices(broken)


def central_cee(n):
    """CEE matrices of a problem whose values are all 1/2 (zero slope)."""
    nodes = (INF,) + tuple(2.0 + k for k in range(n))
    return build_cee_matrices(InterpolationProblem(
        nodes, (0.5,) * (n + 1), MonicPolynomial.from_roots([0.0] * n)))


class TestComputeUU:
    """``(u, U)`` of :func:`operator_pair`, from its one inverse."""

    def test_zero(self):
        pair = operator_pair(central_cee(3), 1.0)
        assert np.array_equal(pair.u, np.zeros(3))
        assert np.array_equal(pair.U, np.zeros((3, 3)))

    def test_n1_closed_form(self):
        # nodes (inf, z1), values (1/2, w1): closed-form 2x2 inversion gives
        # u = z1 (w1 - 1/2) / (w1 + 1/2),  U = (w1 - 1/2) / (w1 + 1/2)
        z1, w1 = 2.5, 0.9
        problem = InterpolationProblem((INF, z1), (0.5, w1), MonicPolynomial([1.0, 0.0]))
        pair = operator_pair(build_cee_matrices(problem), 1.0)
        want_U = (w1 - 0.5) / (w1 + 0.5)
        want_u = z1 * (w1 - 0.5) / (w1 + 0.5)
        assert pair.u[0] == pytest.approx(want_u, rel=1e-12)
        assert pair.U[0, 0] == pytest.approx(want_U, rel=1e-12)

    def test_defining_system_residual(self, reference_problem):
        # against the bottom rows of (I + T)^-1 T by a linear solve
        norm = normalized_reference(reference_problem)
        cee = build_cee_matrices(norm)
        for nu in (0.1, 0.5, 1.0):
            pair = operator_pair(cee, nu)
            u, U = solve_uU(nu * cee.T_dot)
            assert np.max(np.abs(pair.u - u)) < 1e-12
            assert np.max(np.abs(pair.U - U)) < 1e-12


class TestComputeUUDot:
    """``(u_dot, U_dot)`` of :func:`operator_pair`."""

    def test_zero_slope(self):
        pair = operator_pair(central_cee(2), 0.5)
        assert np.array_equal(pair.u_dot, np.zeros(2))
        assert np.array_equal(pair.U_dot, np.zeros((2, 2)))

    def test_at_zero_equals_bottom_rows_of_slope(self, reference_problem):
        norm = normalized_reference(reference_problem)
        cee = build_cee_matrices(norm)
        pair = operator_pair(cee, 0.0)
        assert np.allclose(pair.u_dot, cee.T_dot[1:, 0], atol=1e-14)
        assert np.allclose(pair.U_dot, cee.T_dot[1:, 1:], atol=1e-14)

    def test_matches_finite_differences(self, reference_problem):
        norm = normalized_reference(reference_problem)
        cee = build_cee_matrices(norm)
        delta = 1e-6
        for nu in (0.1, 0.3, 0.5, 0.7, 0.9):
            pair = operator_pair(cee, nu)
            plus = operator_pair(cee, nu + delta)
            minus = operator_pair(cee, nu - delta)
            fd_u = (plus.u - minus.u) / (2 * delta)
            fd_U = (plus.U - minus.U) / (2 * delta)
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
