import inspect
import itertools
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from check_outputs import counting
from conftest import PATH_ERRSTATE, clustered_corpus, random_problem, same_array, sym_coeffs
from nevpick import cee_core, continuation, polyalg
from nevpick import problem as problem_module
from nevpick.cee_core import SteinConsistencyError
from nevpick.continuation import (
    CorrectorError,
    HomotopyContext,
    PathError,
    _certified_path,
    _follow_path,
    _make_state,
    _tangent,
    corrector,
    dG_dnu,
    eval_G,
    jac_G,
    predictor,
    solve,
)
from nevpick.ingestion import (
    MonteCarloConfig,
    default_bank_poles,
    embed_sigma,
    exact_values,
    nodes_from_poles,
    run_problem,
)
from nevpick.polyalg import (
    ATTEMPTS,
    FALLBACK_ATTEMPT,
    FAST_ATTEMPT,
    LOOSE_ATTEMPT,
    STEP_SAFETY,
    TOL_CEE,
    TOL_NEWTON,
    MonicPolynomial,
    PathAttempt,
    SymStack,
    build_S,
)
from nevpick.problem import (
    INF,
    InterpolationProblem,
    ProblemValidationError,
    normalize,
)


def short_path_problem():
    """A detect_mc-style problem, Monte Carlo values of an order-2 system at
    order 4, whose whole path the first rung accepts in one step."""
    sigma = MonicPolynomial.from_roots([0.17 + 0.26j, 0.17 - 0.26j])
    a = MonicPolynomial.from_roots([0.09 + 0.75j, 0.09 - 0.75j])
    return run_problem(MonteCarloConfig(sigma=sigma, a=a, order=4), 0)[0]


def n1_problem(z1=2.0, w1=0.8, s1=-0.3):
    return InterpolationProblem(
        (INF, complex(z1)), (0.5 + 0.0j, complex(w1)), MonicPolynomial([1.0, s1])
    )


def identity_suite():
    """The 100 problems of acceptance criterion 6, drawn the same way."""
    rng = np.random.default_rng(601)
    for _ in range(100):
        yield random_problem(rng, int(rng.integers(1, 7)))


def assert_step_growth_bounded(trajectory, attempt):
    # an accepted step at most multiplies the next one by the attempt's
    # growth cap; the slack covers the rounding of nu + step and the snap of
    # the last target onto nu = 1
    steps = [state.step for state in trajectory[1:]]
    for prev, step in zip(steps, steps[1:]):
        assert step <= attempt.growth * prev + 1e-12


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

    def test_matmul_formulas_bitwise_on_the_path(self, reference_problem,
                                                 reference_solution):
        # jac_G multiplies by the stored 2 Gamma: doubling is exact, so the
        # Jacobian equals the doubled product with Gamma bit for bit; and
        # every product of a path point, made by ndarray.dot, equals @
        ctx = HomotopyContext(reference_problem)
        n = ctx.n
        assert np.array_equal(ctx.twice_Gamma, 2.0 * ctx.Gamma)
        for state in reference_solution.trajectory:
            p, nu = state.p, state.nu
            pair, v, g, S_v, S_g = ctx.linearization(p, nu)
            want_pair = cee_core.operator_pair(ctx.T_dot, ctx.eye, nu)
            M_inv = np.linalg.inv(ctx.eye + nu * ctx.T_dot)
            bottom = M_inv[1:] @ ctx.T_dot
            assert np.array_equal(np.column_stack((want_pair.u, want_pair.U)), nu * bottom)
            assert np.array_equal(np.column_stack((want_pair.u_dot, want_pair.U_dot)),
                                  bottom @ M_inv)
            assert np.array_equal(v, ctx.s + ctx.Gamma @ p)
            assert np.array_equal(g, pair.U @ v + pair.u)
            want_G = (S_v - S_g) @ np.concatenate(([1.0], v + g))
            want_G = want_G[:n] - 2.0 * (1.0 - p[0]) * ctx.d
            assert np.array_equal(eval_G(p, nu, ctx), want_G)
            want_J = 2.0 * ((S_v[:n, 1:] - S_g[:n, 1:] @ pair.U) @ ctx.Gamma)
            want_J[:, 0] += 2.0 * ctx.d
            assert np.array_equal(jac_G(p, nu, ctx), want_J)
            want_dnu = -2.0 * (S_g[:n, 1:] @ (pair.U_dot @ v + pair.u_dot))
            assert np.array_equal(dG_dnu(p, nu, ctx), want_dnu)


class TestDotIsMatmul:
    """The path point's products use ndarray.dot for @; pin the two equal
    bit for bit on the layouts it passes, at every size a solve reaches."""

    @pytest.mark.parametrize("n", range(1, 30))
    def test_layouts_of_a_path_point(self, n):
        rng = np.random.default_rng(400 + n)
        m = n + 1
        square, wide = rng.standard_normal((n, n)), rng.standard_normal((n, m))
        S = rng.standard_normal((2, m, m))
        view, block = wide[:, 1:], S[1][:n, 1:]      # U of [u U]; E S([0; g])[:, 1:]
        pairs = [
            (square, rng.standard_normal(n)),          # Gamma p
            (view, rng.standard_normal(n)),            # U v, U_dot v
            (block, rng.standard_normal(n)),           # the dG_dnu product
            (S[0] - S[1], rng.standard_normal(m)),     # the eval_G product
            (block, view),                             # E S([0; g])[:, 1:] U
            (S[0][:n, 1:] - block @ view, square),     # ... then times 2 Gamma
            (rng.standard_normal((m, m))[1:], rng.standard_normal((m, m))),  # M^-1 rows
            (wide, rng.standard_normal((m, m))),       # ... then times M^-1
        ]
        for a, b in pairs:
            assert np.array_equal(a.dot(b), a @ b)


class TestLinearizationMemo:
    def test_products_per_tangent_and_newton_iterate(self, reference_problem,
                                                     reference_solution, monkeypatch):
        # G, dG/dp and dG/dnu at one point share S([1; v]) and S([0; g]),
        # the slices of one stack of products
        ctx = HomotopyContext(reference_problem)
        mid = min(reference_solution.trajectory, key=lambda s: abs(s.nu - 0.5))
        nu = mid.nu + 0.05
        calls = []
        products = SymStack.products

        def counting(stack):
            calls.append(1)
            return products(stack)

        monkeypatch.setattr(SymStack, "products", counting)
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
        # both products with them in one stack of products; the one other
        # stack is build_S's for the context's d, and
        # validate is the one distinct-node check
        counts = {"products": 0, "v_and_g": 0, "coincident_pairs": 0}

        def counting(module, name):
            fn = getattr(module, name)

            def wrapper(*args):
                counts[name] += 1
                return fn(*args)
            monkeypatch.setattr(module, name, wrapper)

        counting(SymStack, "products")
        counting(continuation, "v_and_g")
        counting(problem_module, "coincident_pairs")
        solve(reference_problem)
        assert counts["v_and_g"] > 0
        assert counts["products"] == counts["v_and_g"] + 1
        assert counts["coincident_pairs"] == 1

    def test_one_root_finding_per_polynomial(self, reference_problem, monkeypatch):
        # solve finds roots once, in validate's Schur test of sigma; the
        # poles and spectral zeros are the last and first states' a_roots
        # (a = sigma at nu = 0), found on first read and kept
        roots, calls = polyalg.roots, []

        def counting(coeffs):
            calls.append(1)
            return roots(coeffs)
        # is_schur looks roots up in polyalg, the states in continuation
        monkeypatch.setattr(polyalg, "roots", counting)
        monkeypatch.setattr(continuation, "roots", counting)
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
        # the context reuses its stack; the products it handed out stay
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
        for arr in (diag.interp_residuals, diag.poles, diag.zeros, diag.spectral_zeros,
                    diag.singular_values, sol.P):
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


def bank_problem(order):
    """Degree-4 data at a bank of ``order`` poles, with ``sigma`` embedded (trailing zeros)."""
    sigma = MonicPolynomial.from_roots([0.4 * np.exp(0.9j), 0.4 * np.exp(-0.9j),
                                        0.5 * np.exp(2.1j), 0.5 * np.exp(-2.1j)])
    a = MonicPolynomial.from_roots([0.6 * np.exp(1.3j), 0.6 * np.exp(-1.3j),
                                    0.7 * np.exp(2.5j), 0.7 * np.exp(-2.5j)])
    poles = default_bank_poles(order)
    return InterpolationProblem(nodes_from_poles(poles), tuple(exact_values(sigma, a, poles)),
                                embed_sigma(sigma, order))


def test_recovered_P_exactly_symmetric():
    # recover_P builds P symmetric entry by entry (R is, and P_ij and P_ji
    # add the same terms in the same order) and does not check it
    clustered = (problem for _, problem in itertools.islice(clustered_corpus(1, 240), 8))
    for problem in itertools.chain(identity_suite(), map(bank_problem, range(16, 29, 2)),
                                   clustered):
        P = solve(problem).P
        assert np.array_equal(P, P.T)


class TestClosedFormStart:
    """At ``nu = 0``, ``T = 0``, so ``u``, ``U`` and ``g`` vanish, ``a = b = sigma``,
    ``G = E S(sigma) [1; s] - 2 d = 0`` and ``dG/dnu = 0``: the path follower
    takes its start state and first tangent from that closed form."""

    @staticmethod
    def problems(reference_problem):
        yield reference_problem
        yield from identity_suite()
        for order in (6, 16, 28):
            yield bank_problem(order)
        for _, problem in itertools.islice(clustered_corpus(1, 240), 8):
            yield problem

    def test_residual_and_its_slope_vanish(self, reference_problem):
        for problem in self.problems(reference_problem):
            ctx = HomotopyContext(problem)
            p = np.zeros(ctx.n)
            assert not np.any(eval_G(p, 0.0, ctx))
            assert not np.any(dG_dnu(p, 0.0, ctx))

    def test_start_state_is_the_evaluated_one(self, reference_problem):
        for problem in self.problems(reference_problem):
            start = solve(problem).trajectory[0]
            ctx = HomotopyContext(problem)
            p = np.zeros(ctx.n)
            residual = np.abs(eval_G(p, 0.0, ctx)).max(initial=0.0)
            want = _make_state(ctx, 0.0, p, 0.0, 0, residual)
            for name in ("p", "a", "residual"):
                got, expected = getattr(start, name), getattr(want, name)
                assert np.asarray(got).tobytes() == np.asarray(expected).tobytes(), name
                assert same_array(got, expected), name
            assert (start.nu, start.step, start.corrector_iters) == (0.0, 0.0, 0)
            assert not start.p.flags.writeable and not start.a.flags.writeable

    def test_no_work_at_the_start(self, reference_problem, monkeypatch):
        # the first operator pair and tangent are the first RK4 stage's
        calls = []

        def recording(T_dot, eye, nu):
            calls.append(nu)
            return cee_core.operator_pair(T_dot, eye, nu)

        monkeypatch.setattr(continuation, "operator_pair", recording)
        _follow_path(HomotopyContext(reference_problem), FAST_ATTEMPT)
        assert calls[0] == 0.5 * FAST_ATTEMPT.first_step and 0.0 not in calls


class TestHomotopyContext:
    def test_normalizes_its_problem(self, reference_problem):
        lam = 3.7
        scaled = InterpolationProblem(
            reference_problem.nodes,
            tuple(lam * w for w in reference_problem.values),
            reference_problem.sigma,
        )
        ctx = HomotopyContext(scaled)
        w = normalize(scaled)[0]
        want = HomotopyContext(InterpolationProblem(scaled.nodes, tuple(w), scaled.sigma))
        assert ctx.scale == 2.0 * lam * reference_problem.values[0].real
        assert w[0] == 0.5
        assert np.array_equal(ctx.T_dot, want.T_dot)
        rng = np.random.default_rng(64)
        for _ in range(10):
            p = 0.3 * rng.standard_normal(ctx.n)
            nu = rng.uniform(0.0, 1.0)
            for fn in (eval_G, jac_G, dG_dnu):
                assert np.array_equal(fn(p, nu, ctx), fn(p, nu, want))

    def test_shared_arrays_are_read_only(self, reference_problem):
        # every evaluation reads these arrays, so none may be written: the
        # context's eight and the fields of the operator pair it caches
        ctx = HomotopyContext(reference_problem)
        pair = ctx.linearization(np.zeros(ctx.n), 0.3)[0]
        arrays = {"sigma": ctx.sigma, "Gamma": ctx.Gamma, "twice_Gamma": ctx.twice_Gamma,
                  "s": ctx.s, "d": ctx.d, "twice_d": ctx.twice_d, "T_dot": ctx.T_dot,
                  "eye": ctx.eye, **pair._asdict()}
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
        monkeypatch.setattr(continuation, "solve_vector", lambda A, b: np.full_like(b, np.nan))
        with pytest.raises(CorrectorError, match="non-finite residual"):
            corrector(np.full(ctx.n, 0.01), 0.5, ctx)

    def test_singular_jacobian_raises(self, reference_problem, monkeypatch):
        ctx = HomotopyContext(reference_problem)
        monkeypatch.setattr(continuation, "jac_G", lambda p, nu, ctx: np.zeros((ctx.n, ctx.n)))
        with np.errstate(**PATH_ERRSTATE), pytest.raises(CorrectorError,
                                                         match="singular Jacobian"):
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

    def test_interpolant_is_its_polyval_formula(self, reference_solution):
        # bit for bit scale * b(z) / (2 a(z)) at z = 1/zeta from one power
        # table of zeta, in the shape of zeta; and the Horner formula to
        # rounding (gap measured 6.5e-16)
        sol = reference_solution
        b, a = sol.b.coeffs, sol.a.coeffs

        def power_table(x):
            x = np.asarray(x)
            powers = np.vander(x.ravel(), len(b), increasing=True)
            return (sol.scale * powers.dot(b) / (2.0 * powers.dot(a))).reshape(x.shape)[()]

        def horner(x):
            return sol.scale * np.polyval(b[::-1], x) / (2.0 * np.polyval(a[::-1], x))

        zeta = np.exp(-1j * np.linspace(0.0, 2.0 * np.pi, 12, endpoint=False)) / 1.5
        for x in (zeta.reshape(3, 4), zeta, np.array(0.4 + 0.1j), 0.0, 0.3 - 0.2j):
            got = sol.interpolant_from_reciprocal(x)
            assert same_array(got, power_table(x))
            assert np.shape(got) == np.shape(x) and np.max(np.abs(got - horner(x))) < 6.5e-15
        # a scalar node gives a numpy scalar, not a 0-d array
        for z, x in ((2.0 + 1.0j, 1.0 / (2.0 + 1.0j)), (INF, 0.0)):
            got = sol.interpolant(z)
            assert isinstance(got, np.generic)
            assert same_array(got, power_table(x))

    def test_interpolant_inside_the_disk(self, reference_solution):
        # evaluated in z, not 1/z: f(0) = scale * b_n / (2 a_n) is finite, and
        # so is f at a z whose reciprocal overflows
        sol = reference_solution
        f0 = sol.interpolant(0)
        assert f0 == sol.scale * sol.b.coeffs[-1] / (2.0 * sol.a.coeffs[-1])
        assert abs(f0 + 0.5004) < 1e-4
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tiny = sol.interpolant(1e-200)
        assert np.isfinite(tiny) and abs(tiny - f0) <= 1e-15 * abs(f0)
        # the two forms agree where both are finite, at and off the circle
        for z in (0.5 + 0.2j, -0.9j, np.exp(0.7j)):
            assert abs(sol.interpolant(z) - sol.interpolant_from_reciprocal(1.0 / z)) < 1e-12
        # the nodes lie outside the disk: their values are the reciprocal form's
        for z in sol.problem.nodes:
            x = 0.0 if z == INF else 1.0 / z
            assert same_array(sol.interpolant(z), sol.interpolant_from_reciprocal(x))

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
        # a CEE residual above TOL_CEE = 1e-8 fails the solve with the typed
        # error; one well inside the bound is returned.  The residual is read
        # at P + offset I, in place of the recovered P
        residual = cee_core.cee_residual

        def perturbed(P, Gamma, g):
            return residual(P + offset * np.eye(P.shape[0]), Gamma, g)

        monkeypatch.setattr(cee_core, "cee_residual", perturbed)
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
        # the reference solve does not fall back (test_check_outputs pins its counts)
        assert_step_growth_bounded(reference_solution.trajectory, LOOSE_ATTEMPT)

    def test_short_path_is_one_step(self):
        # the first rung's first step is the whole path
        sol = solve(short_path_problem())
        assert [state.nu for state in sol.trajectory] == [0.0, 1.0]
        assert sol.trajectory[1].step == LOOSE_ATTEMPT.first_step == 1.0
        assert sol.diagnostics.cee_residual <= TOL_CEE
        assert sol.diagnostics.max_interp_residual <= 1e-10

    def test_fallback_attempt_keeps_the_paper_schedule(self, reference_problem):
        # the paper's band on steps from 0.1 growing by up to 2 takes 27
        # accepted steps on the reference instance, as every path did before
        # the attempts had schedules of their own (the second rung alone
        # takes 14, and the first 11)
        states = _follow_path(HomotopyContext(reference_problem), FALLBACK_ATTEMPT)
        assert len(states) - 1 == 27
        assert FALLBACK_ATTEMPT.first_step == 0.1 and FALLBACK_ATTEMPT.growth == 2.0
        assert_step_growth_bounded(states, FALLBACK_ATTEMPT)

    def test_endpoint_does_not_depend_on_the_steps(self, reference_problem):
        # the end step puts the endpoint at the float root of G(., 1),
        # whichever band chose the steps that led there
        fast = _follow_path(HomotopyContext(reference_problem), FAST_ATTEMPT)
        paper = _follow_path(HomotopyContext(reference_problem), FALLBACK_ATTEMPT)
        assert len(fast) < len(paper)
        assert fast[-1].nu == paper[-1].nu == 1.0
        assert np.max(np.abs(fast[-1].p - paper[-1].p)) <= 1e-13

    def test_end_step_keeps_the_lower_residual(self, reference_problem, reference_solution):
        ctx = HomotopyContext(reference_problem)
        p = reference_solution.p
        r = float(np.abs(eval_G(p, 1.0, ctx)).max())
        p_kept, r_kept = continuation._end_step(ctx, p, r)
        assert p_kept is p and r_kept == r
        # a point off the root is moved, and its residual falls
        q = p + 1e-9
        r_q = float(np.abs(eval_G(q, 1.0, ctx)).max())
        p_new, r_new = continuation._end_step(ctx, q, r_q)
        assert r_new < r_q
        assert np.max(np.abs(p_new - p)) < 1e-12

    def test_one_corrector_return_per_accepted_state(self, reference_problem, monkeypatch):
        # the end step adds no state and calls no corrector, so on a solve
        # that does not fall back the accepted states are the corrections
        returns = []

        def counting(p_hat, nu, ctx):
            result = corrector(p_hat, nu, ctx)
            returns.append(nu)
            return result

        monkeypatch.setattr(continuation, "corrector", counting)
        sol = solve(reference_problem)
        assert len(returns) == len(sol.trajectory) - 1
        assert returns == [state.nu for state in sol.trajectory[1:]]

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
        total, fallbacks = 0, {}
        for k, problem in enumerate(identity_suite()):
            with counting() as work:
                trajectory = solve(problem).trajectory
            assert work["solves"] == 1
            if work["fallbacks"]:
                fallbacks[k] = work["fallbacks"]
            # each trajectory is that of the rung the solve ended on
            assert_step_growth_bounded(trajectory, ATTEMPTS[work["fallbacks"]])
            total += len(trajectory)
        # one solve falls back, once: draw 19 certifies on the second rung
        assert fallbacks == {19: 1}
        assert total < 1500

    def test_wrong_branch_of_the_loose_band_falls_back(self):
        # draw 19 of the identity suite (n = 5): the first rung accepts the
        # whole path in one step, onto a root of G(., 1) with p[0] = 0.011,
        # whose P has the eigenvalue -0.216; the second rung ends on the
        # certified root, p[0] = 0.479, which solve returns
        problem = next(itertools.islice(identity_suite(), 19, None))
        assert problem.n == 5
        loose = _follow_path(HomotopyContext(problem), LOOSE_ATTEMPT)
        assert [state.nu for state in loose] == [0.0, 1.0]
        with pytest.raises(SteinConsistencyError, match=r"eigenvalue -2\.16"):
            _certified_path(HomotopyContext(problem), LOOSE_ATTEMPT)
        sol = solve(problem)
        states = _follow_path(HomotopyContext(problem), FAST_ATTEMPT)
        assert len(sol.trajectory) == len(states)
        assert np.array_equal(sol.p, states[-1].p)
        assert abs(loose[-1].p[0] - 0.011) < 1e-3 and abs(sol.p[0] - 0.479) < 1e-3

    def test_later_rungs_are_the_two_fixed_attempts(self):
        # the first rung only turns failures of the two rungs after it into
        # certificates, so a solve that fails on the ladder fails on them alone
        assert ATTEMPTS[1:] == (PathAttempt(1e-2, 1.0, 4.0), PathAttempt(1e-4, 0.1, 2.0))
        assert ATTEMPTS == (LOOSE_ATTEMPT, FAST_ATTEMPT, FALLBACK_ATTEMPT)

    def test_path_error_on_impossible_step_floor(self, reference_problem, monkeypatch):
        # a first step below STEP_MIN = 1e-8 underflows at once, in every attempt
        monkeypatch.setattr(continuation, "ATTEMPTS",
                            tuple(a._replace(first_step=1e-9) for a in ATTEMPTS))
        with pytest.raises(PathError):
            solve(reference_problem)

    def test_non_finite_prediction_warns_nothing(self, reference_problem, monkeypatch):
        # every prediction lands at inf: its band residual is NaN, the
        # corrector rejects it and the halved steps underflow, with no
        # floating-point warning on the way
        monkeypatch.setattr(continuation, "predictor",
                            lambda p, nu, nu_next, ctx, tangent: np.full_like(p, np.inf))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PathError):
                _follow_path(HomotopyContext(reference_problem), FAST_ATTEMPT)

    def test_singular_first_tangent_halves_the_step(self, reference_problem,
                                                    reference_solution, monkeypatch):
        calls = []

        def singular_once(p, nu, ctx):
            calls.append(nu)
            return np.zeros((ctx.n, ctx.n)) if len(calls) == 1 else jac_G(p, nu, ctx)

        monkeypatch.setattr(continuation, "jac_G", singular_once)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            states = _follow_path(HomotopyContext(reference_problem), FAST_ATTEMPT)
        # the tangent at the start is 0 and not solved, so the first one
        # solved is the first RK4 stage's, at the middle of the first step;
        # after its singular Jacobian the next two are at the middle of the
        # halved step
        first = FAST_ATTEMPT.first_step
        assert calls[:3] == [0.5 * first, 0.25 * first, 0.25 * first]
        assert states[-1].nu == 1.0
        assert np.allclose(states[-1].p, reference_solution.p, rtol=0.0, atol=1e-10)

    def test_singular_operator_matrix_inside_the_path_halves_the_step(
            self, reference_problem, reference_solution, monkeypatch):
        # the first I + nu T_dot inverted after the first accepted state is
        # singular: the LinAlgError of inverse reaches the step driver as it
        # is, and the next pair is formed at the middle of the halved step
        accepted, nus, failed = [], [], []

        def recording_state(ctx, nu, *args):
            accepted.append(nu)
            return _make_state(ctx, nu, *args)

        def recording_pair(T_dot, eye, nu):
            nus.append(nu)
            return cee_core.operator_pair(T_dot, eye, nu)

        def singular_once(matrix):
            if accepted and not failed:
                failed.append(len(nus) - 1)     # the index of this pair's nu
                raise np.linalg.LinAlgError("Singular matrix")
            return polyalg.inverse(matrix)

        monkeypatch.setattr(continuation, "_make_state", recording_state)
        monkeypatch.setattr(continuation, "operator_pair", recording_pair)
        monkeypatch.setattr(cee_core, "inverse", singular_once)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            states = _follow_path(HomotopyContext(reference_problem), FAST_ATTEMPT)
        (k,), nu0 = failed, accepted[0]
        assert 0.0 < nu0 < nus[k] < 1.0
        assert nus[k + 1] - nu0 == pytest.approx(0.5 * (nus[k] - nu0), rel=1e-12)
        assert states[1].nu == nu0 and states[-1].nu == 1.0
        assert np.allclose(states[-1].p, reference_solution.p, rtol=0.0, atol=1e-12)

    def test_sliver_below_one_takes_one_more_step(self):
        # an accepted step that lands within 1e-12 below nu = 1 is followed
        # by one more step, of the sliver's length, onto nu = 1 exactly
        problem = short_path_problem()
        sliver = LOOSE_ATTEMPT._replace(first_step=1.0 - 2.0**-44)
        states = _follow_path(HomotopyContext(problem), sliver)
        assert [state.nu for state in states] == [0.0, 1.0 - 2.0**-44, 1.0]
        assert states[-1].step == 2.0**-44
        assert np.allclose(states[-1].p, solve(problem).p, rtol=0.0, atol=1e-12)

    def test_accepted_step_needs_no_floor(self):
        # an accepted prediction has |e1' G| <= band, so its step factor
        # (STEP_SAFETY band / |e1' G|)^(1/5) is at least STEP_SAFETY^(1/5):
        # an accepted step never cuts the next by more than half
        assert STEP_SAFETY ** 0.2 >= 0.5


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


class TestBlasThreads:
    # one order-28 filter-bank solve, the largest order of the benchmark
    SCRIPT = (
        "import numpy as np\n"
        "import nevpick as nv\n"
        "from nevpick.ingestion import embed_sigma\n"
        "sigma = nv.MonicPolynomial.from_roots(\n"
        "    [0.4 * np.exp(0.9j), 0.4 * np.exp(-0.9j), 0.5 * np.exp(2.1j), 0.5 * np.exp(-2.1j)])\n"
        "a = nv.MonicPolynomial.from_roots(\n"
        "    [0.6 * np.exp(1.3j), 0.6 * np.exp(-1.3j), 0.7 * np.exp(2.5j), 0.7 * np.exp(-2.5j)])\n"
        "poles = nv.default_bank_poles(28)\n"
        "problem = nv.InterpolationProblem(nv.nodes_from_poles(poles),\n"
        "                                  tuple(nv.exact_values(sigma, a, poles)),\n"
        "                                  embed_sigma(sigma, 28))\n"
        "sol = nv.solve(problem)\n"
        "assert sol.trajectory[-1].nu == 1.0 and sol.P.shape == (28, 28)\n"
        "print(sol.p.tobytes().hex())\n"
        "print(sol.P.tobytes().hex())\n"
    )

    def test_solve_at_n28_does_not_depend_on_thread_count(self):
        src = str(Path(sys.modules["nevpick"].__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads)
            proc = subprocess.run([sys.executable, "-c", self.SCRIPT], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
