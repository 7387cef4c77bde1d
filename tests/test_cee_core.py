import numpy as np
import pytest
from scipy.linalg import solve_discrete_lyapunov, toeplitz

from conftest import PATH_ERRSTATE, random_problem, random_schur_monic
from nevpick import cee_core
from nevpick.cee_core import (
    OperatorPair,
    SteinConsistencyError,
    build_cee_matrices,
    build_V,
    cee_residual,
    operator_pair,
    recover_P,
    v_and_g,
)
from nevpick.continuation import solve
from nevpick.ingestion import default_bank_poles, exact_values, nodes_from_poles
from nevpick.polyalg import MonicPolynomial, companion
from nevpick.problem import INF, InterpolationProblem, normalize


def normalized_reference(reference_problem):
    """The reciprocal nodes and the normalized values of ``reference_problem``."""
    return reference_problem.node_reciprocals(), normalize(reference_problem)[0]


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

    def test_row_scaling_leaves_T_unchanged(self, reference_problem):
        zeta, w = normalized_reference(reference_problem)
        V = build_V(zeta)
        W = build_W(w, 1.0)
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
        zeta, w = normalized_reference(reference_problem)
        V = build_V(zeta)
        T = build_T(V, build_W(w, 0.0))
        assert np.max(np.abs(T)) < 1e-12

    def test_constant_values_give_half_identity(self):
        V = build_V(reciprocals((INF, 1.5 + 0.5j, 1.5 - 0.5j)))
        T = build_T(V, np.ones(3, dtype=complex))
        assert np.allclose(T, 0.5 * np.eye(3), atol=1e-12)

    def test_reference_real(self, reference_problem):
        zeta, w = normalized_reference(reference_problem)
        V = build_V(zeta)
        W = build_W(w, 1.0)
        M = np.linalg.solve(V, W[:, None] * V)
        assert np.max(np.abs(M.imag)) < 1e-10
        T = build_T(V, W)
        assert T.dtype == float

    def test_broken_symmetry_gives_real_slope(self, reference_problem):
        # validate is the one symmetry rule: the slope is the real part, which
        # is the slope of the broken pair's average (nodes 1 and 2 are conjugate)
        zeta, w = normalized_reference(reference_problem)
        broken, average = w.copy(), w.copy()
        broken[1] += 0.05j
        average[1] += 0.025j
        average[2] -= 0.025j
        T_dot = build_cee_matrices(zeta, broken)
        assert T_dot.dtype == float and not T_dot.flags.writeable
        assert np.abs(T_dot - build_cee_matrices(zeta, average)).max() < 1e-14


def pair_at(T_dot, nu):
    """:func:`operator_pair` with the identity formed here."""
    return operator_pair(T_dot, np.eye(T_dot.shape[0]), nu)


def central_slope(n):
    """``T_dot`` of a problem whose values are all 1/2 (zero slope)."""
    nodes = (INF,) + tuple(2.0 + k for k in range(n))
    return build_cee_matrices(reciprocals(nodes), np.full(n + 1, 0.5 + 0.0j))


class TestComputeUU:
    """``(u, U)`` of :func:`operator_pair`, from its one inverse."""

    def test_zero(self):
        pair = pair_at(central_slope(3), 1.0)
        assert np.array_equal(pair.u, np.zeros(3))
        assert np.array_equal(pair.U, np.zeros((3, 3)))

    def test_n1_closed_form(self):
        # nodes (inf, z1), values (1/2, w1): closed-form 2x2 inversion gives
        # u = z1 (w1 - 1/2) / (w1 + 1/2),  U = (w1 - 1/2) / (w1 + 1/2)
        z1, w1 = 2.5, 0.9
        T_dot = build_cee_matrices(reciprocals((INF, z1)), np.array([0.5, w1], dtype=complex))
        pair = pair_at(T_dot, 1.0)
        want_U = (w1 - 0.5) / (w1 + 0.5)
        want_u = z1 * (w1 - 0.5) / (w1 + 0.5)
        assert pair.u[0] == pytest.approx(want_u, rel=1e-12)
        assert pair.U[0, 0] == pytest.approx(want_U, rel=1e-12)

    def test_defining_system_residual(self, reference_problem):
        # against the bottom rows of (I + T)^-1 T by a linear solve
        T_dot = build_cee_matrices(*normalized_reference(reference_problem))
        for nu in (0.1, 0.5, 1.0):
            pair = pair_at(T_dot, nu)
            u, U = solve_uU(nu * T_dot)
            assert np.max(np.abs(pair.u - u)) < 1e-12
            assert np.max(np.abs(pair.U - U)) < 1e-12


class TestComputeUUDot:
    """``(u_dot, U_dot)`` of :func:`operator_pair`."""

    def test_zero_slope(self):
        pair = pair_at(central_slope(2), 0.5)
        assert np.array_equal(pair.u_dot, np.zeros(2))
        assert np.array_equal(pair.U_dot, np.zeros((2, 2)))

    def test_at_zero_equals_bottom_rows_of_slope(self, reference_problem):
        T_dot = build_cee_matrices(*normalized_reference(reference_problem))
        pair = pair_at(T_dot, 0.0)
        assert np.allclose(pair.u_dot, T_dot[1:, 0], atol=1e-14)
        assert np.allclose(pair.U_dot, T_dot[1:, 1:], atol=1e-14)

    def test_matches_finite_differences(self, reference_problem):
        T_dot = build_cee_matrices(*normalized_reference(reference_problem))
        delta = 1e-6
        for nu in (0.1, 0.3, 0.5, 0.7, 0.9):
            pair = pair_at(T_dot, nu)
            plus = pair_at(T_dot, nu + delta)
            minus = pair_at(T_dot, nu - delta)
            fd_u = (plus.u - minus.u) / (2 * delta)
            fd_U = (plus.U - minus.U) / (2 * delta)
            scale_u = max(1.0, np.max(np.abs(fd_u)))
            scale_U = max(1.0, np.max(np.abs(fd_U)))
            assert np.max(np.abs(pair.u_dot - fd_u)) / scale_u < 1e-6
            assert np.max(np.abs(pair.U_dot - fd_U)) / scale_U < 1e-6


class TestOperatorPair:
    def test_exact_zero_at_start(self, reference_problem):
        T_dot = build_cee_matrices(*normalized_reference(reference_problem))
        pair = pair_at(T_dot, 0.0)
        assert np.all(pair.u == 0.0)
        assert np.all(pair.U == 0.0)

    def test_fields_are_read_only_copies_of_the_formula(self, reference_problem):
        T_dot = build_cee_matrices(*normalized_reference(reference_problem))
        for nu in (0.0, 0.3, 1.0):
            pair = pair_at(T_dot, nu)
            M_inv = np.linalg.inv(np.eye(T_dot.shape[0]) + nu * T_dot)
            bottom = M_inv[1:] @ T_dot
            uU, slope = nu * bottom, bottom @ M_inv
            want = {"u": uU[:, 0], "U": uU[:, 1:], "u_dot": slope[:, 0], "U_dot": slope[:, 1:]}
            for name, formula in want.items():
                value = getattr(pair, name)
                assert np.array_equal(value, np.ascontiguousarray(formula))
                with pytest.raises(ValueError):
                    value[...] = 0.0

    def test_singular_matrix_is_corrupted_input(self):
        # I + nu T_dot = 0: the inverse fails, and the path follower halves its step
        eye = np.eye(3)
        with np.errstate(**PATH_ERRSTATE), pytest.raises(np.linalg.LinAlgError):
            operator_pair(-eye, eye, 1.0)

    def test_realness_on_grid(self, reference_problem):
        T_dot = build_cee_matrices(*normalized_reference(reference_problem))
        for nu in np.linspace(0.0, 1.0, 11):
            pair = pair_at(T_dot, nu)
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
    """``g = u + U (s + Gamma p)``, the second output of ``v_and_g``."""

    def test_zero_pair(self):
        sigma = MonicPolynomial([1.0, 0.5, 0.25])
        pair_zero = operator_pair_stub(np.zeros(2), np.zeros((2, 2)))
        g = v_and_g(pair_zero, companion(sigma), sigma.tail, np.zeros(2))[1]
        assert np.array_equal(g, np.zeros(2))

    def test_zero_p(self):
        sigma = MonicPolynomial([1.0, 0.5, 0.25])
        rng = np.random.default_rng(5)
        u = rng.standard_normal(2)
        U = rng.standard_normal((2, 2))
        pair = operator_pair_stub(u, U)
        g = v_and_g(pair, companion(sigma), sigma.tail, np.zeros(2))[1]
        assert np.allclose(g, u + U @ sigma.tail)


def operator_pair_stub(u, U):
    return OperatorPair(u=u, U=U, u_dot=np.zeros_like(u), U_dot=np.zeros_like(U))


def kronecker_stein_solve(Gamma, rhs):
    """Reference solution of ``X - Gamma X Gamma' = rhs`` by dense vectorization."""
    n = Gamma.shape[0]
    A = np.eye(n * n) - np.kron(Gamma, Gamma)
    return np.linalg.solve(A, rhs.ravel()).reshape(n, n)


def stein_endpoints():
    """``(Gamma, s, p, g)`` at the endpoints of real solves of orders 1..6, 12 and 16."""
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
    out = []
    for problem in problems:
        sol = solve(problem)
        Gamma, s = companion(problem.sigma), problem.sigma.tail
        T_dot = build_cee_matrices(problem.node_reciprocals(), normalize(problem)[0])
        g = v_and_g(pair_at(T_dot, 1.0), Gamma, s, sol.p)[1]
        out.append((Gamma, s, sol.p, g))
    return out


def stein_rhs(Gamma, p, g):
    Gp = Gamma @ p
    return np.outer(g, g) - np.outer(Gp, Gp)


class TestSteinSolve:
    """The shift recursion of ``recover_P`` against general Stein solvers."""

    @pytest.fixture(scope="class")
    def endpoints(self):
        return stein_endpoints()

    def test_recover_P_matches_kronecker_oracle(self, endpoints):
        for Gamma, s, p, g in endpoints:
            oracle = kronecker_stein_solve(Gamma, stein_rhs(Gamma, p, g))
            P, _ = recover_P(Gamma, s, p, g)
            assert np.max(np.abs(P - 0.5 * (oracle + oracle.T))) < 1e-12

    def test_recover_P_matches_scipy_oracle(self, endpoints):
        for Gamma, s, p, g in endpoints:
            oracle = solve_discrete_lyapunov(Gamma, stein_rhs(Gamma, p, g))
            P, _ = recover_P(Gamma, s, p, g)
            assert np.max(np.abs(P - oracle)) <= 1e-11 * np.max(np.abs(oracle))

    def test_recover_P_exactly_symmetric(self, endpoints):
        for Gamma, s, p, g in endpoints:
            P, _ = recover_P(Gamma, s, p, g)
            assert np.array_equal(P, P.T)

    def test_returns_locked_P_and_its_cee_residual(self, endpoints):
        for Gamma, s, p, g in endpoints:
            P, residual = recover_P(Gamma, s, p, g)
            assert not P.flags.writeable
            assert residual == cee_residual(P, Gamma, g)


class TestRecoverP:
    def test_zero(self):
        sigma = MonicPolynomial([1.0, 0.5, 0.25])
        P, _ = recover_P(companion(sigma), sigma.tail, np.zeros(2), np.zeros(2))
        assert np.array_equal(P, np.zeros((2, 2)))

    def test_scalar_closed_form(self):
        # pick p, gamma, then g so that the scalar equation is consistent:
        # P (1 - gamma^2) = g^2 - gamma^2 p^2 with P = p
        p, gamma = 0.3, 0.5
        g = np.sqrt(p * (1 - gamma**2) + gamma**2 * p**2)
        sigma = MonicPolynomial([1.0, -gamma])
        P, _ = recover_P(companion(sigma), sigma.tail, np.array([p]), np.array([g]))
        closed = (g**2 - gamma**2 * p**2) / (1 - gamma**2)
        assert P[0, 0] == pytest.approx(closed, abs=1e-12)
        assert P[0, 0] == pytest.approx(p, abs=1e-12)

    def test_order_zero(self):
        P, residual = recover_P(np.zeros((0, 0)), np.zeros(0), np.zeros(0), np.zeros(0))
        assert P.shape == (0, 0) and not P.flags.writeable
        assert residual == 0.0

    def test_cee_bound_enforced(self, monkeypatch):
        # the scalar closed form of test_scalar_closed_form, with the residual
        # read as above TOL_CEE = 1e-8
        p, gamma = 0.3, 0.5
        g = np.sqrt(p * (1 - gamma**2) + gamma**2 * p**2)
        sigma = MonicPolynomial([1.0, -gamma])
        monkeypatch.setattr(cee_core, "cee_residual", lambda P, Gamma, g: 2e-8)
        with pytest.raises(SteinConsistencyError, match="CEE residual 2.000e-08 .* exceeds 1e-08"):
            recover_P(companion(sigma), sigma.tail, np.array([p]), np.array([g]))

    def test_off_trajectory_p_rejected(self):
        sigma = MonicPolynomial([1.0, -0.5])
        with pytest.raises(SteinConsistencyError):
            recover_P(companion(sigma), sigma.tail, np.array([0.9]), np.array([0.1]))


class TestCeeResidual:
    def test_zero(self):
        Gamma = companion(MonicPolynomial([1.0, 0.5, 0.25]))
        assert cee_residual(np.zeros((2, 2)), Gamma, np.zeros(2)) == 0.0

    def test_pure_g(self):
        Gamma = companion(MonicPolynomial([1.0, 0.5, 0.25]))
        g = np.array([0.3, -0.4])
        want = np.linalg.norm(np.outer(g, g), "fro")
        assert cee_residual(np.zeros((2, 2)), Gamma, g) == pytest.approx(want)


class TestAffinity:
    def test_T_affine_in_nu(self, reference_problem):
        zeta, w = normalized_reference(reference_problem)
        T_dot = build_cee_matrices(zeta, w)
        V = build_V(zeta)
        for nu in np.linspace(0.0, 1.0, 11):
            direct = build_T(V, build_W(w, nu))
            assert np.max(np.abs(direct - nu * T_dot)) < 1e-10
