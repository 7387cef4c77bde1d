import numpy as np
import pytest

from conftest import random_problem, sym_coeffs
from nevpick.cee_core import g_of_p
from nevpick.continuation import (
    CorrectorError,
    HomotopyContext,
    PathError,
    SolveOptions,
    ab_of_p,
    corrector,
    dG_dnu,
    eval_G,
    jac_G,
    predictor,
    solve,
)
from nevpick.polyalg import MonicPolynomial, build_S, companion
from nevpick.problem import (
    INF,
    InterpolationProblem,
    ProblemValidationError,
    normalize,
)


def make_ctx(problem):
    return HomotopyContext(normalize(problem).problem)


def n1_problem(z1=2.0, w1=0.8, s1=-0.3):
    return InterpolationProblem(
        (INF, complex(z1)), (0.5 + 0.0j, complex(w1)), MonicPolynomial([1.0, s1])
    )


class TestHomotopyMap:
    def test_central_residual_zero(self, reference_problem):
        ctx = make_ctx(reference_problem)
        G = eval_G(np.zeros(ctx.n), 0.0, ctx)
        assert np.max(np.abs(G)) < 1e-14

    def test_matches_convolution_oracle(self, reference_problem):
        ctx = make_ctx(reference_problem)
        rng = np.random.default_rng(55)
        for _ in range(50):
            p = 0.3 * rng.standard_normal(ctx.n)
            nu = rng.uniform(0.0, 1.0)
            pair = ctx.operators(nu)
            a, b = ab_of_p(pair, ctx.comp, p)
            direct = sym_coeffs(a.coeffs, b.coeffs)[: ctx.n] - 2.0 * (1 - p[0]) * ctx.d
            assert np.max(np.abs(eval_G(p, nu, ctx) - direct)) < 1e-12

    def test_b_minus_a_is_twice_g(self, reference_problem):
        ctx = make_ctx(reference_problem)
        rng = np.random.default_rng(56)
        for _ in range(25):
            p = 0.4 * rng.standard_normal(ctx.n)
            nu = rng.uniform(0.0, 1.0)
            pair = ctx.operators(nu)
            a, b = ab_of_p(pair, ctx.comp, p)
            g = g_of_p(pair, ctx.comp, p)
            assert np.max(np.abs((b.tail - a.tail) - 2.0 * g)) < 1e-12

    def test_ab_central_equals_sigma(self, reference_problem):
        ctx = make_ctx(reference_problem)
        a, b = ab_of_p(ctx.operators(0.0), ctx.comp, np.zeros(ctx.n))
        assert np.array_equal(a.coeffs, ctx.problem.sigma.coeffs)
        assert np.array_equal(b.coeffs, ctx.problem.sigma.coeffs)


class TestDerivatives:
    @staticmethod
    def fd_jacobian(ctx, p, nu):
        n = p.size
        J = np.zeros((n, n))
        for j in range(n):
            h = 1e-6 * (1.0 + abs(p[j]))
            e = np.zeros(n)
            e[j] = h
            J[:, j] = (eval_G(p + e, nu, ctx) - eval_G(p - e, nu, ctx)) / (2 * h)
        return J

    def test_jacobian_matches_fd_random_problems(self):
        rng = np.random.default_rng(60)
        checked = 0
        for _ in range(20):
            n = int(rng.integers(1, 7))
            ctx = make_ctx(random_problem(rng, n))
            for _ in range(5):
                p = 0.3 * rng.standard_normal(n)
                nu = rng.uniform(0.0, 1.0)
                J = jac_G(p, nu, ctx)
                J_fd = self.fd_jacobian(ctx, p, nu)
                err = np.max(np.abs(J - J_fd)) / max(1.0, np.max(np.abs(J_fd)))
                assert err < 1e-6
                checked += 1
        assert checked == 100

    def test_dnu_matches_fd(self, reference_problem):
        ctx = make_ctx(reference_problem)
        rng = np.random.default_rng(61)
        delta = 1e-6
        for _ in range(20):
            p = 0.3 * rng.standard_normal(ctx.n)
            nu = rng.uniform(0.1, 0.9)
            fd = (eval_G(p, nu + delta, ctx) - eval_G(p, nu - delta, ctx)) / (2 * delta)
            got = dG_dnu(p, nu, ctx)
            assert np.max(np.abs(got - fd)) / max(1.0, np.max(np.abs(fd))) < 1e-6

    def test_jacobian_closed_form_at_start(self, reference_problem):
        # at nu=0 and p=0 the pair vanishes, so
        # dG/dp = 2 E S([1; sigma]) [0; Gamma] + 2 d h'
        ctx = make_ctx(reference_problem)
        n = ctx.n
        J = jac_G(np.zeros(n), 0.0, ctx)
        S = build_S(ctx.problem.sigma.coeffs)
        want = 2.0 * S[:n] @ np.vstack([np.zeros((1, n)), ctx.comp.Gamma])
        want[:, 0] += 2.0 * ctx.d
        assert np.max(np.abs(J - want)) < 1e-12

    def test_dnu_zero_at_start(self, reference_problem):
        ctx = make_ctx(reference_problem)
        assert np.max(np.abs(dG_dnu(np.zeros(ctx.n), 0.0, ctx))) == 0.0


class TestCorrector:
    def test_on_trajectory_zero_iterations(self, reference_problem):
        ctx = make_ctx(reference_problem)
        p, iters = corrector(np.zeros(ctx.n), 0.0, ctx)
        assert iters == 0
        assert np.array_equal(p, np.zeros(ctx.n))

    def test_quadratic_convergence(self, reference_problem, reference_solution):
        ctx = make_ctx(reference_problem)
        sol = reference_solution
        mid = min(sol.trajectory, key=lambda s: abs(s.nu - 0.5))
        rng = np.random.default_rng(62)
        p_hat = mid.p + 5e-3 * rng.standard_normal(ctx.n)
        log = []
        corrector(p_hat, mid.nu, ctx, residual_log=log)
        quad_pairs = [
            (r0, r1) for r0, r1 in zip(log, log[1:]) if r0 < 1e-3 and r1 > 1e-14
        ]
        assert quad_pairs, "expected at least one quadratic-regime pair"
        for r0, r1 in quad_pairs:
            assert r1 < 100.0 * r0**2

    def test_infeasible_start_raises(self, reference_problem):
        ctx = make_ctx(reference_problem)
        poison = np.zeros(ctx.n)
        poison[0] = 2.0
        with pytest.raises(CorrectorError):
            corrector(poison, 1.0, ctx)

    def test_far_start_no_silent_answer(self, reference_problem):
        ctx = make_ctx(reference_problem)
        poison = np.full(ctx.n, 50.0)
        with pytest.raises(CorrectorError):
            corrector(poison, 1.0, ctx)


class TestPredictor:
    def test_zero_slope_returns_same_point(self, reference_problem):
        # all target values equal: the homotopy is constant in nu
        nodes = reference_problem.nodes
        values = tuple([0.5 + 0.0j] * len(nodes))
        central = InterpolationProblem(nodes, values, reference_problem.sigma)
        ctx = make_ctx(central)
        sol = solve(central)
        state = sol.trajectory[0]
        assert np.array_equal(predictor(state.p, state.nu, state.nu + state.step, ctx), state.p)

    def test_first_step_correctable(self, reference_problem, reference_solution):
        ctx = make_ctx(reference_problem)
        sol = reference_solution
        start = sol.trajectory[0]
        p_hat = predictor(start.p, start.nu, 0.1, ctx)
        p, iters = corrector(p_hat, 0.1, ctx)
        assert iters <= 10
        assert np.max(np.abs(eval_G(p, 0.1, ctx))) <= 1e-12

    def test_fourth_order(self, reference_problem, reference_solution):
        # RK4 has local error O(dnu^5): halving the step cuts it about 32-fold
        ctx = make_ctx(reference_problem)
        nu = 0.65
        start = max((s for s in reference_solution.trajectory if s.nu <= nu), key=lambda s: s.nu)
        p, _ = corrector(predictor(start.p, start.nu, nu, ctx), nu, ctx)
        errors = []
        for dnu in (0.02, 0.01):
            p_hat = predictor(p, nu, nu + dnu, ctx)
            p_next, _ = corrector(p_hat, nu + dnu, ctx)
            errors.append(np.max(np.abs(p_hat - p_next)))
        assert errors[1] > 1e-10
        assert errors[0] >= 16.0 * errors[1]


class TestSolve:
    def test_reference_interpolation(self, reference_solution):
        sol = reference_solution
        assert sol.diagnostics.max_interp_residual < 1e-10
        assert np.all(np.abs(sol.diagnostics.poles) < 1.0)
        assert sol.rho > 0.0
        assert len(sol.trajectory) > 1

    def test_reference_interpolant_values(self, reference_problem, reference_solution):
        sol = reference_solution
        for z, w in zip(reference_problem.nodes, reference_problem.values):
            assert abs(sol.interpolant(z) - w) < 1e-10

    def test_central_problem_is_single_state(self, reference_problem):
        nodes = reference_problem.nodes
        values = tuple([0.5 + 0.0j] * len(nodes))
        central = InterpolationProblem(nodes, values, reference_problem.sigma)
        sol = solve(central)
        assert len(sol.trajectory) == 1
        assert np.array_equal(sol.p, np.zeros(central.n))
        assert np.array_equal(sol.P, np.zeros((central.n, central.n)))
        assert np.array_equal(sol.a.coeffs, central.sigma.coeffs)
        assert np.array_equal(sol.b.coeffs, central.sigma.coeffs)
        assert sol.rho == 1.0
        for theta in np.linspace(0, np.pi, 9):
            z = 1.7 * np.exp(1j * theta)
            assert abs(sol.interpolant(z) - 0.5) < 1e-14

    def test_degree_zero_constant_interpolant(self):
        p0 = InterpolationProblem((INF,), (0.75,), MonicPolynomial([1.0]))
        sol = solve(p0)
        assert len(sol.trajectory) == 1
        assert sol.rho == 1.0
        assert sol.P.shape == (0, 0)
        assert abs(sol.interpolant(3.0 + 1.0j) - 0.75) < 1e-15
        assert abs(sol.interpolant(INF) - 0.75) < 1e-15

    def test_validation_failure_raises(self):
        bad = InterpolationProblem(
            (INF, 0.5 + 0.0j), (0.5, 0.7), MonicPolynomial([1.0, 0.0])
        )
        with pytest.raises(ProblemValidationError) as ei:
            solve(bad)
        assert any(v.code == "node-domain" for v in ei.value.violations)

    def test_trajectory_invariants(self, reference_problem, reference_solution):
        sol = reference_solution
        ctx = make_ctx(reference_problem)
        opts = SolveOptions()
        assert sol.trajectory[0].nu == 0.0
        assert np.array_equal(sol.trajectory[0].p, np.zeros(ctx.n))
        assert sol.trajectory[-1].nu == 1.0
        for state in sol.trajectory:
            assert state.residual <= opts.tol_corrector
            assert np.max(np.abs(state.a_roots)) < 1.0
        nus = [s.nu for s in sol.trajectory]
        assert nus == sorted(nus)

    def test_endpoint_certificates(self, reference_problem, reference_solution):
        sol = reference_solution
        comp = companion(reference_problem.sigma)
        assert np.max(np.abs(sol.P @ comp.h - sol.p)) < 1e-8
        hPh = comp.h @ sol.P @ comp.h
        assert hPh < 1.0
        assert np.linalg.eigvalsh(sol.P)[0] >= -1e-8
        assert sol.diagnostics.cee_residual < 1e-8
        assert sol.rho == pytest.approx(np.sqrt(1.0 - sol.p[0]), abs=1e-14)
        # strict positive realness puts the zeros of f inside the disk too
        assert np.max(np.abs(sol.diagnostics.zeros)) < 1.0
        assert np.isfinite(sol.diagnostics.cond_V) and sol.diagnostics.cond_V >= 1.0

    def test_spectral_identity_and_positivity(self, reference_solution):
        sol = reference_solution
        thetas = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
        z = np.exp(1j * thetas)
        f = np.polyval(sol.b.coeffs, z) / (2.0 * np.polyval(sol.a.coeffs, z))
        lhs = 2.0 * f.real
        rhs = (
            sol.rho**2
            * np.abs(np.polyval(sol.problem.sigma.coeffs, z)) ** 2
            / np.abs(np.polyval(sol.a.coeffs, z)) ** 2
        )
        assert np.max(np.abs(lhs - rhs)) < 1e-8
        assert np.all(f.real > 0.0)

    def test_solution_scale_round_trip(self):
        # same shape as the n=1 instance but scaled values; interpolant must
        # hit the unscaled targets
        lam = 3.5
        base = n1_problem(w1=0.8)
        scaled = InterpolationProblem(
            base.nodes, tuple(lam * w for w in base.values), base.sigma
        )
        sol = solve(scaled)
        assert sol.scale == pytest.approx(2 * lam * 0.5)
        assert abs(sol.interpolant(INF) - lam * 0.5) < 1e-14
        assert abs(sol.interpolant(2.0) - lam * 0.8) < 1e-9

    def test_deterministic(self, reference_problem, reference_solution):
        s1 = reference_solution
        s2 = solve(reference_problem)
        assert np.array_equal(s1.p, s2.p)
        assert np.array_equal(s1.a.coeffs, s2.a.coeffs)
        assert len(s1.trajectory) == len(s2.trajectory)
        for t1, t2 in zip(s1.trajectory, s2.trajectory):
            assert t1.nu == t2.nu
            assert np.array_equal(t1.p, t2.p)

    def test_reference_endpoint_pinned(self, reference_solution):
        # the endpoint as solved before the duplicated product, operator-pair
        # and pairing code was merged; refactors must keep it to 1e-12
        p = [0.9995852166564015, -1.5674901190320658, 1.462088192721613,
             -0.7943800889519833, 0.41492481741823595, -0.3487660619347834,
             0.1797453468434481]
        a = [1.0, -1.7704432212741497, 1.8144018165177593, -1.2051167611898141,
             1.2800469229552174, -1.8139750464575863, 1.7726759296746895,
             -0.8773266726837906]
        b = [1.0, -1.3632072234457133, 1.1119027487650923, -0.38107757727556407,
             -0.44777829827278004, 1.1183492380201496, -1.412077684533669,
             0.877982291348247]
        assert np.max(np.abs(reference_solution.p - p)) <= 1e-12
        assert np.max(np.abs(reference_solution.a.coeffs - a)) <= 1e-12
        assert np.max(np.abs(reference_solution.b.coeffs - b)) <= 1e-12

    def test_reference_path_length(self, reference_solution):
        assert reference_solution.trajectory[-1].nu == 1.0
        assert len(reference_solution.trajectory) - 1 <= 60

    def test_identity_suite_path_length(self):
        # the 100 problems of acceptance criterion 6, drawn the same way
        rng = np.random.default_rng(601)
        total = 0
        for _ in range(100):
            n = int(rng.integers(1, 7))
            total += len(solve(random_problem(rng, n)).trajectory)
        assert total < 1500

    def test_path_error_on_impossible_step_floor(self, reference_problem):
        opts = SolveOptions(step_init=1e-9, step_min=1e-8)
        with pytest.raises(PathError):
            solve(reference_problem, opts)


class TestScalarOracle:
    @pytest.mark.parametrize("w1,s1", [(0.8, -0.3), (1.4, 0.5), (0.52, 0.0)])
    def test_endpoint_matches_bisection(self, w1, s1):
        problem = n1_problem(w1=w1, s1=s1)
        sol = solve(problem)
        ctx = make_ctx(problem)

        def G1(p):
            return eval_G(np.array([p]), 1.0, ctx)[0]

        grid = np.linspace(0.0, 0.999, 400)
        vals = np.array([G1(p) for p in grid])
        sign_changes = np.where(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
        assert len(sign_changes) >= 1
        # bracket the change nearest the continuation endpoint
        i = sign_changes[np.argmin(np.abs(grid[sign_changes] - sol.p[0]))]
        lo, hi = grid[i], grid[i + 1]
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if np.sign(G1(mid)) == np.sign(G1(lo)):
                lo = mid
            else:
                hi = mid
        assert abs(0.5 * (lo + hi) - sol.p[0]) < 1e-10

    def test_recovered_matrix_matches_scalar_stein(self):
        problem = n1_problem(w1=1.1, s1=-0.4)
        sol = solve(problem)
        ctx = make_ctx(problem)
        pair = ctx.operators(1.0)
        g = g_of_p(pair, ctx.comp, sol.p)
        gamma = -ctx.problem.sigma.tail[0]
        closed = (g[0] ** 2 - gamma**2 * sol.p[0] ** 2) / (1.0 - gamma**2)
        assert sol.P[0, 0] == pytest.approx(closed, abs=1e-12)
