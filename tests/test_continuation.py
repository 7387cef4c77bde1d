import inspect

import numpy as np
import pytest

from conftest import random_problem, sym_coeffs
from nevpick import cee_core, continuation
from nevpick import problem as problem_module
from nevpick.cee_core import SteinConsistencyError
from nevpick.continuation import (
    CorrectorError,
    HomotopyContext,
    PathError,
    _tangent,
    corrector,
    dG_dnu,
    eval_G,
    jac_G,
    predictor,
    solve,
)
from nevpick.polyalg import TOL_NEWTON, MonicPolynomial, build_S
from nevpick.problem import (
    INF,
    InterpolationProblem,
    ProblemValidationError,
    normalize,
)


def n1_problem(z1=2.0, w1=0.8, s1=-0.3):
    return InterpolationProblem(
        (INF, complex(z1)), (0.5 + 0.0j, complex(w1)), MonicPolynomial([1.0, s1])
    )


def assert_step_growth_bounded(trajectory):
    # an accepted step at most doubles the next one; the slack covers the
    # rounding of nu + step and the snap of the last target onto nu = 1
    steps = [state.step for state in trajectory[1:]]
    for prev, step in zip(steps, steps[1:]):
        assert step <= 2.0 * prev + 1e-12


class TestHomotopyMap:
    def test_central_residual_zero(self, reference_problem):
        ctx = HomotopyContext(reference_problem)
        G = eval_G(np.zeros(ctx.n), 0.0, ctx)
        assert np.max(np.abs(G)) < 1e-14

    def test_matches_convolution_oracle(self, reference_problem):
        ctx = HomotopyContext(reference_problem)
        rng = np.random.default_rng(55)
        for _ in range(50):
            p = 0.3 * rng.standard_normal(ctx.n)
            nu = rng.uniform(0.0, 1.0)
            _, v, g, _, _ = ctx.linearization(p, nu)
            a, b = np.append(1.0, v - g), np.append(1.0, v + g)
            direct = sym_coeffs(a, b)[: ctx.n] - 2.0 * (1 - p[0]) * ctx.d
            assert np.max(np.abs(eval_G(p, nu, ctx) - direct)) < 1e-12

    def test_b_minus_a_is_twice_g(self, reference_problem):
        ctx = HomotopyContext(reference_problem)
        rng = np.random.default_rng(56)
        for _ in range(25):
            p = 0.4 * rng.standard_normal(ctx.n)
            nu = rng.uniform(0.0, 1.0)
            pair, v, g, _, _ = ctx.linearization(p, nu)
            # a = (I - U)(Gamma p + sigma) - u and b = (I + U)(Gamma p + sigma) + u
            w = ctx.Gamma @ p + ctx.s
            a = w - pair.U @ w - pair.u
            b = w + pair.U @ w + pair.u
            assert np.max(np.abs(a - (v - g))) < 1e-12
            assert np.max(np.abs(b - (v + g))) < 1e-12
            assert np.max(np.abs((b - a) - 2.0 * g)) < 1e-12

    def test_ab_central_equals_sigma(self, reference_problem):
        ctx = HomotopyContext(reference_problem)
        _, v, g, _, _ = ctx.linearization(np.zeros(ctx.n), 0.0)
        assert np.array_equal(v - g, reference_problem.sigma.tail)
        assert np.array_equal(v + g, reference_problem.sigma.tail)


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
            ctx = HomotopyContext(random_problem(rng, n))
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
        ctx = HomotopyContext(reference_problem)
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
        ctx = HomotopyContext(reference_problem)
        n = ctx.n
        J = jac_G(np.zeros(n), 0.0, ctx)
        S = build_S(reference_problem.sigma.coeffs)
        want = 2.0 * S[:n] @ np.vstack([np.zeros((1, n)), ctx.Gamma])
        want[:, 0] += 2.0 * ctx.d
        assert np.max(np.abs(J - want)) < 1e-12

    def test_dnu_zero_at_start(self, reference_problem):
        ctx = HomotopyContext(reference_problem)
        assert np.max(np.abs(dG_dnu(np.zeros(ctx.n), 0.0, ctx))) == 0.0


class TestLinearizationMemo:
    def test_products_per_tangent_and_newton_iterate(self, reference_problem,
                                                     reference_solution, monkeypatch):
        # G, dG/dp and dG/dnu at one point share S([1; v]) and S([0; g]),
        # the slices of one stacked build_S call
        ctx = HomotopyContext(reference_problem)
        mid = min(reference_solution.trajectory, key=lambda s: abs(s.nu - 0.5))
        nu = mid.nu + 0.05
        calls = []

        def counting(x):
            calls.append(1)
            return build_S(x)

        monkeypatch.setattr(continuation, "build_S", counting)
        tangent = _tangent(mid.p, mid.nu, ctx)
        assert len(calls) == 1
        p_hat = predictor(mid.p, mid.nu, nu, ctx, tangent)
        calls.clear()
        eval_G(p_hat, nu, ctx)                # the band test
        assert len(calls) == 1
        calls.clear()
        p, iters, _ = corrector(p_hat, nu, ctx)
        # the first residual and Jacobian reuse the band test's products;
        # every later iterate forms them once, the last one for its residual only
        assert iters >= 1
        assert len(calls) == iters
        calls.clear()
        _tangent(p, nu, ctx)                  # at the accepted point
        assert len(calls) == 0

    def test_one_derivation_per_point(self, reference_problem, monkeypatch):
        # every v, g of a solve comes from the linearization, which forms
        # both products with them in one stacked call; the one other
        # product is the context's d, and
        # validate is the one distinct-node check
        counts = {"build_S": 0, "v_and_g": 0, "coincident_pairs": 0}

        def counting(module, name):
            fn = getattr(module, name)

            def wrapper(*args):
                counts[name] += 1
                return fn(*args)
            monkeypatch.setattr(module, name, wrapper)

        counting(continuation, "build_S")
        counting(continuation, "v_and_g")
        counting(problem_module, "coincident_pairs")
        solve(reference_problem)
        assert counts["v_and_g"] > 0
        assert counts["build_S"] == counts["v_and_g"] + 1
        assert counts["coincident_pairs"] == 1

    def test_one_root_finding_per_polynomial(self, reference_problem, monkeypatch):
        # solve finds roots once, in validate's Schur test of sigma; the
        # poles and spectral zeros are the last and first states' a_roots
        # (a = sigma at nu = 0), found on first read and kept
        roots, calls = np.roots, []

        def counting(coeffs):
            calls.append(1)
            return roots(coeffs)
        monkeypatch.setattr(np, "roots", counting)
        sol = solve(reference_problem)
        assert len(calls) == 1
        first, last = sol.trajectory[0], sol.trajectory[-1]
        diag = sol.diagnostics
        assert diag.poles is last.a_roots
        assert len(calls) == 2
        assert diag.spectral_zeros is first.a_roots
        assert len(calls) == 3
        assert diag.poles is last.a_roots and diag.spectral_zeros is first.a_roots
        assert len(calls) == 3
        assert not first.a_roots.flags.writeable and not last.a_roots.flags.writeable

    def test_matches_fresh_context_bitwise(self, reference_problem):
        ctx = HomotopyContext(reference_problem)
        rng = np.random.default_rng(63)
        fns = (eval_G, jac_G, dG_dnu)
        p = 0.3 * rng.standard_normal(ctx.n)
        nu = 0.5
        for _ in range(50):
            change = rng.integers(3)
            if change == 0:
                nu = rng.uniform(0.0, 1.0)
            elif change == 1:
                p[rng.integers(ctx.n)] += 0.01    # in place: same array, new point
            else:
                p[:] = 0.3 * rng.standard_normal(ctx.n)
            for k in rng.permutation(len(fns)):
                got = fns[k](p, nu, ctx)
                want = fns[k](p.copy(), nu, HomotopyContext(reference_problem))
                assert np.array_equal(got, want)


class TestResidualMemo:
    """The context keeps the residual of its cached point: one per point."""

    def test_same_point_returns_same_array(self, reference_problem):
        ctx = HomotopyContext(reference_problem)
        p = 0.1 * np.random.default_rng(65).standard_normal(ctx.n)
        G = eval_G(p, 0.4, ctx)
        assert eval_G(p.copy(), 0.4, ctx) is G
        assert not G.flags.writeable
        assert np.array_equal(G, eval_G(p, 0.4, HomotopyContext(reference_problem)))

    def test_new_p_or_nu_recomputes(self, reference_problem):
        ctx = HomotopyContext(reference_problem)
        p = 0.1 * np.random.default_rng(66).standard_normal(ctx.n)
        G = eval_G(p, 0.4, ctx)
        q = p.copy()
        q[2] += 1e-3
        for point in ((q, 0.4), (p, 0.6), (p, 0.4)):
            G_new = eval_G(*point, ctx)
            assert G_new is not G
            assert np.array_equal(G_new, eval_G(*point, HomotopyContext(reference_problem)))
            G = G_new

    def test_held_products_survive_the_next_point(self, reference_problem):
        # the context reuses its build_S stack; the products it handed out stay
        ctx = HomotopyContext(reference_problem)
        p = np.full(ctx.n, 0.05)
        _, _, _, S_v, S_g = ctx.linearization(p, 0.3)
        S_v_copy, S_g_copy = S_v.copy(), S_g.copy()
        ctx.linearization(-p, 0.3)
        assert np.array_equal(S_v, S_v_copy) and np.array_equal(S_g, S_g_copy)

    def test_band_test_residual_is_first_newton_residual(self, reference_problem,
                                                         reference_solution, monkeypatch):
        ctx = HomotopyContext(reference_problem)
        mid = min(reference_solution.trajectory, key=lambda s: abs(s.nu - 0.5))
        nu = mid.nu + 0.05
        p_hat = predictor(mid.p, mid.nu, nu, ctx, _tangent(mid.p, mid.nu, ctx))
        band = eval_G(p_hat, nu, ctx)
        residuals = []

        def logging_eval_G(p, nu, ctx):
            residuals.append(eval_G(p, nu, ctx))
            return residuals[-1]

        monkeypatch.setattr(continuation, "eval_G", logging_eval_G)
        _, iters, _ = corrector(p_hat, nu, ctx)
        assert iters >= 1 and len(residuals) == iters + 1
        assert residuals[0] is band
        assert len({id(G) for G in residuals}) == len(residuals)


class TestLazyDiagnostics:
    """Locations, singular values and cond(V) are computed on first read and
    kept; each equals its eager formula bit for bit."""

    @staticmethod
    def count_svd(monkeypatch):
        # np.linalg.cond calls the svd of its own module, so both are counted
        svd, calls = np.linalg.svd, []

        def counting(*args, **kwargs):
            calls.append(1)
            return svd(*args, **kwargs)
        monkeypatch.setattr(np.linalg, "svd", counting)
        monkeypatch.setitem(inspect.unwrap(np.linalg.cond).__globals__, "svd", counting)
        return calls

    def test_no_svd_inside_solve(self, reference_problem, monkeypatch):
        calls = self.count_svd(monkeypatch)
        sol = solve(reference_problem)
        assert len(calls) == 0
        cond_V = sol.diagnostics.cond_V
        assert len(calls) == 1
        svals = sol.diagnostics.singular_values
        assert len(calls) == 2
        assert sol.diagnostics.cond_V == cond_V
        assert sol.diagnostics.singular_values is svals
        assert len(calls) == 2

    def test_fields_match_eager_formulas(self, reference_problem):
        sol = solve(reference_problem)
        diag = sol.diagnostics
        for state in sol.trajectory:
            assert np.array_equal(state.a_roots, np.sort_complex(np.roots(state.a)))
            assert not state.a.flags.writeable
        assert np.array_equal(sol.trajectory[-1].a, sol.a.coeffs)
        assert np.array_equal(diag.zeros, np.sort_complex(np.roots(sol.b.coeffs)))
        assert np.array_equal(diag.singular_values, np.linalg.svd(sol.P, compute_uv=False))
        V = cee_core.build_V(reference_problem.node_reciprocals())
        assert diag.cond_V == float(np.linalg.cond(V))
        for arr in (diag.poles, diag.zeros, diag.spectral_zeros, diag.singular_values, sol.P):
            assert not arr.flags.writeable

    def test_central_solution(self):
        # n = 0: empty singular values, still read-only
        sol = solve(InterpolationProblem((INF,), (0.5 + 0.0j,), MonicPolynomial([1.0])))
        diag = sol.diagnostics
        assert diag.singular_values.shape == (0,) and not diag.singular_values.flags.writeable
        assert diag.poles.shape == diag.zeros.shape == (0,)
        assert diag.cond_V == 1.0

    def test_lazy_fields_stay_out_of_repr(self, reference_solution):
        text = repr(reference_solution.diagnostics)
        assert "cee_residual" in text
        assert "_trajectory" not in text and "_P" not in text


class TestHomotopyContext:
    def test_normalizes_its_problem(self, reference_problem):
        lam = 3.7
        scaled = InterpolationProblem(
            reference_problem.nodes,
            tuple(lam * w for w in reference_problem.values),
            reference_problem.sigma,
        )
        ctx = HomotopyContext(scaled)
        normalized = normalize(scaled)[0]
        want = HomotopyContext(normalized)
        assert ctx.scale == 2.0 * lam * reference_problem.values[0].real
        assert normalized.values[0] == 0.5
        assert np.array_equal(ctx.T_dot, want.T_dot)
        rng = np.random.default_rng(64)
        for _ in range(10):
            p = 0.3 * rng.standard_normal(ctx.n)
            nu = rng.uniform(0.0, 1.0)
            for fn in (eval_G, jac_G, dG_dnu):
                assert np.array_equal(fn(p, nu, ctx), fn(p, nu, want))

    def test_shared_arrays_are_read_only(self, reference_problem):
        # every evaluation reads these arrays, so none may be written: the
        # context's four and the fields of the operator pair it caches
        ctx = HomotopyContext(reference_problem)
        pair = ctx.linearization(np.zeros(ctx.n), 0.3)[0]
        arrays = {"Gamma": ctx.Gamma, "s": ctx.s, "T_dot": ctx.T_dot, "eye": ctx.eye,
                  **pair._asdict()}
        for name, value in arrays.items():
            assert not value.flags.writeable, name


class TestCorrector:
    def test_on_trajectory_zero_iterations(self, reference_problem):
        ctx = HomotopyContext(reference_problem)
        p, iters, _ = corrector(np.zeros(ctx.n), 0.0, ctx)
        assert iters == 0
        assert np.array_equal(p, np.zeros(ctx.n))

    def test_quadratic_convergence(self, reference_problem, reference_solution, monkeypatch):
        ctx = HomotopyContext(reference_problem)
        sol = reference_solution
        mid = min(sol.trajectory, key=lambda s: abs(s.nu - 0.5))
        rng = np.random.default_rng(62)
        p_hat = mid.p + 5e-3 * rng.standard_normal(ctx.n)
        log = []

        def logging_eval_G(p, nu, ctx):
            G = eval_G(p, nu, ctx)
            log.append(float(np.abs(G).max()))
            return G

        monkeypatch.setattr(continuation, "eval_G", logging_eval_G)
        _, iters, residual = corrector(p_hat, mid.nu, ctx)
        assert len(log) == iters + 1 and log[-1] == residual
        quad_pairs = [
            (r0, r1) for r0, r1 in zip(log, log[1:]) if r0 < 1e-3 and r1 > 1e-14
        ]
        assert quad_pairs, "expected at least one quadratic-regime pair"
        for r0, r1 in quad_pairs:
            assert r1 < 100.0 * r0**2

    def test_infeasible_start_raises(self, reference_problem):
        ctx = HomotopyContext(reference_problem)
        poison = np.zeros(ctx.n)
        poison[0] = 2.0
        with pytest.raises(CorrectorError):
            corrector(poison, 1.0, ctx)

    def test_far_start_no_silent_answer(self, reference_problem):
        ctx = HomotopyContext(reference_problem)
        poison = np.full(ctx.n, 50.0)
        with pytest.raises(CorrectorError):
            corrector(poison, 1.0, ctx)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("index", [0, 3])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_start_raises(self, reference_problem, value, index):
        ctx = HomotopyContext(reference_problem)
        poison = np.zeros(ctx.n)
        poison[index] = value
        with pytest.raises(CorrectorError):
            corrector(poison, 0.5, ctx)

    def test_non_finite_iterate_raises(self, reference_problem, monkeypatch):
        # a Newton step that yields NaN makes the next residual non-finite
        ctx = HomotopyContext(reference_problem)
        monkeypatch.setattr(np.linalg, "solve", lambda A, b: np.full_like(b, np.nan))
        with pytest.raises(CorrectorError, match="non-finite residual"):
            corrector(np.full(ctx.n, 0.01), 0.5, ctx)


class TestPredictor:
    def test_zero_slope_returns_same_point(self, reference_problem):
        # all target values equal: the homotopy is constant in nu
        nodes = reference_problem.nodes
        values = tuple([0.5 + 0.0j] * len(nodes))
        central = InterpolationProblem(nodes, values, reference_problem.sigma)
        ctx = HomotopyContext(central)
        sol = solve(central)
        state = sol.trajectory[0]
        tangent = _tangent(state.p, state.nu, ctx)
        assert np.array_equal(predictor(state.p, state.nu, state.nu + state.step, ctx, tangent),
                              state.p)

    def test_first_step_correctable(self, reference_problem, reference_solution):
        ctx = HomotopyContext(reference_problem)
        sol = reference_solution
        start = sol.trajectory[0]
        p_hat = predictor(start.p, start.nu, 0.1, ctx, _tangent(start.p, start.nu, ctx))
        p, iters, _ = corrector(p_hat, 0.1, ctx)
        assert iters <= 10
        assert np.max(np.abs(eval_G(p, 0.1, ctx))) <= 1e-12

    def test_fourth_order(self, reference_problem, reference_solution):
        # RK4 has local error O(dnu^5): halving the step cuts it about 32-fold
        ctx = HomotopyContext(reference_problem)
        nu = 0.65
        start = max((s for s in reference_solution.trajectory if s.nu <= nu), key=lambda s: s.nu)
        p_hat = predictor(start.p, start.nu, nu, ctx, _tangent(start.p, start.nu, ctx))
        p, _, _ = corrector(p_hat, nu, ctx)
        tangent = _tangent(p, nu, ctx)
        errors = []
        for dnu in (0.02, 0.01):
            p_hat = predictor(p, nu, nu + dnu, ctx, tangent)
            p_next, _, _ = corrector(p_hat, nu + dnu, ctx)
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
        ctx = HomotopyContext(reference_problem)
        assert sol.trajectory[0].nu == 0.0
        assert np.array_equal(sol.trajectory[0].p, np.zeros(ctx.n))
        assert sol.trajectory[-1].nu == 1.0
        for state in sol.trajectory:
            assert state.residual <= TOL_NEWTON
            assert np.max(np.abs(state.a_roots)) < 1.0
        nus = [s.nu for s in sol.trajectory]
        assert nus == sorted(nus)

    def test_endpoint_certificates(self, reference_problem, reference_solution):
        sol = reference_solution
        # h = e1: P h is the first column of P and h' P h its corner
        assert np.max(np.abs(sol.P[:, 0] - sol.p)) < 1e-8
        assert sol.P[0, 0] < 1.0
        assert np.linalg.eigvalsh(sol.P)[0] >= -1e-8
        assert sol.diagnostics.cee_residual < 1e-8
        assert sol.rho == pytest.approx(np.sqrt(1.0 - sol.p[0]), abs=1e-14)
        # strict positive realness puts the zeros of f inside the disk too
        assert np.max(np.abs(sol.diagnostics.zeros)) < 1.0
        assert np.isfinite(sol.diagnostics.cond_V) and sol.diagnostics.cond_V >= 1.0

    @pytest.mark.parametrize("offset,fails", [(1e-6, True), (1e-12, False)])
    def test_cee_certificate_enforced(self, reference_problem, monkeypatch, offset, fails):
        # a P whose CEE residual exceeds TOL_CEE = 1e-8 fails the solve with
        # the typed error; one well inside the bound is returned
        recover = continuation.recover_P

        def perturbed(Gamma, s, p, g):
            return recover(Gamma, s, p, g) + offset * np.eye(s.size)

        monkeypatch.setattr(continuation, "recover_P", perturbed)
        if fails:
            with pytest.raises(SteinConsistencyError, match="CEE residual"):
                solve(reference_problem)
        else:
            assert solve(reference_problem).diagnostics.cee_residual <= 1e-8

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
        assert_step_growth_bounded(reference_solution.trajectory)

    def test_one_operator_pair_per_nu(self, reference_problem, monkeypatch):
        # the context keeps one point: a new point at its nu reuses its
        # operator pair, and a point at a new nu forms one more
        ctx = HomotopyContext(reference_problem)
        calls = []

        def counting(T_dot, eye, nu):
            calls.append(nu)
            return cee_core.operator_pair(T_dot, eye, nu)

        monkeypatch.setattr(continuation, "operator_pair", counting)
        p = np.zeros(ctx.n)
        eval_G(p, 0.3, ctx)
        eval_G(p + 1e-3, 0.3, ctx)
        jac_G(p + 2e-3, 0.3, ctx)
        assert calls == [0.3]
        eval_G(p, 0.4, ctx)
        assert calls == [0.3, 0.4]

    def test_identity_suite_path_length(self):
        # the 100 problems of acceptance criterion 6, drawn the same way
        rng = np.random.default_rng(601)
        total = 0
        for _ in range(100):
            n = int(rng.integers(1, 7))
            trajectory = solve(random_problem(rng, n)).trajectory
            assert_step_growth_bounded(trajectory)
            total += len(trajectory)
        assert total < 1500

    def test_path_error_on_impossible_step_floor(self, reference_problem, monkeypatch):
        # a first step below STEP_MIN = 1e-8 underflows at once
        monkeypatch.setattr(continuation, "STEP_INIT", 1e-9)
        with pytest.raises(PathError):
            solve(reference_problem)


class TestScalarOracle:
    @pytest.mark.parametrize("w1,s1", [(0.8, -0.3), (1.4, 0.5), (0.52, 0.0)])
    def test_endpoint_matches_bisection(self, w1, s1):
        problem = n1_problem(w1=w1, s1=s1)
        sol = solve(problem)
        ctx = HomotopyContext(problem)

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
        ctx = HomotopyContext(problem)
        g = ctx.linearization(sol.p, 1.0)[2]
        gamma = -problem.sigma.tail[0]
        closed = (g[0] ** 2 - gamma**2 * sol.p[0] ** 2) / (1.0 - gamma**2)
        assert sol.P[0, 0] == pytest.approx(closed, abs=1e-12)
