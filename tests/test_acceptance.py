"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.
"""

import time

import numpy as np
from conftest import (
    REFERENCE_A,
    REFERENCE_A_UNSIGNED_INDEX,
    REFERENCE_B,
    random_problem,
)
from nevpick.analysis import singular_values
from nevpick.cee_core import recover_P
from nevpick.continuation import (
    HomotopyContext,
    dG_dnu,
    eval_G,
    jac_G,
    solve,
)
from nevpick.continuation import _follow_path, _tangent
from nevpick.ingestion import (
    MonteCarloConfig,
    default_bank_poles,
    exact_values,
    monte_carlo,
    nodes_from_poles,
)
from nevpick.polyalg import FALLBACK_ATTEMPT, STEP_MIN, MonicPolynomial
from nevpick.problem import InterpolationProblem


def report(criterion: int, ok: bool, detail: str):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def degree2_truth():
    sigma = MonicPolynomial.from_roots([0.31 * np.exp(0.98j), 0.31 * np.exp(-0.98j)])
    a = MonicPolynomial.from_roots([0.76 * np.exp(1.45j), 0.76 * np.exp(-1.45j)])
    return sigma, a


def test_criterion_1_reference_reproduction(reference_problem):
    t0 = time.perf_counter()
    sol = solve(reference_problem)
    elapsed = time.perf_counter() - t0

    max_residual = sol.diagnostics.max_interp_residual
    b_err = np.max(np.abs(sol.b.coeffs - np.asarray(REFERENCE_B)))
    a_ref = np.asarray(REFERENCE_A)
    a_got = sol.a.coeffs.copy()
    k = REFERENCE_A_UNSIGNED_INDEX
    a_errs = np.abs(a_got - a_ref)
    a_errs[k] = abs(abs(a_got[k]) - abs(a_ref[k]))
    a_err = np.max(a_errs)

    ok = max_residual < 1e-10 and b_err < 2e-3 and a_err < 2e-3 and elapsed < 2.0
    report(
        1,
        ok,
        f"max|f(z_k)-w_k|={max_residual:.2e} (<1e-10), "
        f"max|b-printed|={b_err:.2e} (<2e-3), "
        f"max|a-printed|={a_err:.2e} (<2e-3, z^3 term by magnitude), "
        f"runtime={elapsed:.2f}s (<2s)",
    )


def test_criterion_2_robustness_near_circle(reference_solution):
    moduli = np.abs(reference_solution.diagnostics.poles)
    steps = [s.step for s in reference_solution.trajectory[1:]]
    ok = (
        np.all(moduli < 1.0)
        and np.max(moduli) > 0.95
        and reference_solution.trajectory[-1].nu == 1.0
        and min(steps) >= STEP_MIN
    )
    report(
        2,
        ok,
        f"pole moduli in [{moduli.min():.4f}, {moduli.max():.8f}] (all <1, max >0.95), "
        f"path reached nu=1 with min step {min(steps):.2e} (>= {STEP_MIN:.0e})",
    )


def test_criterion_3_table_exact_and_monte_carlo():
    sigma, a = degree2_truth()
    exact_ok, details = True, []
    for n in range(2, 7):
        rep = monte_carlo(MonteCarloConfig(sigma=sigma, a=a, order=n, variant="exact"))
        s = rep.singular_values
        dominant = int(np.count_nonzero(s > 1e-2 * s[0]))
        tail_ok = n == 2 or np.max(s[2:]) < 1e-6 * s[0]
        exact_ok &= dominant == 2 and tail_ok
        details.append(f"n={n}: dominant={dominant}, tail_max={0 if n == 2 else np.max(s[2:]) / s[0]:.1e}")

    mc_ok = True
    for n in range(2, 7):
        rep = monte_carlo(
            MonteCarloConfig(
                sigma=sigma, a=a, order=n, variant="monte-carlo",
                samples=10_000, runs=10, seed=1234,
            )
        )
        s = rep.singular_values
        if n > 2:
            mc_ok &= bool(np.max(s[2:]) < 1e-2 * s[0])
        mc_ok &= rep.runs_failed == 0

    ok = exact_ok and mc_ok
    report(
        3,
        ok,
        "exact variant: exactly two singular values above 1e-2*s1 and tail below "
        f"1e-6*s1 for n=2..6 ({'; '.join(details)}); Monte Carlo (N=1e4, R=10): "
        f"trailing below 1e-2*s1: {mc_ok}",
    )


def test_criterion_4_modified_zeros_cancellation():
    sigma, a = degree2_truth()
    extra = [0.6 * np.exp(1.5j), 0.6 * np.exp(-1.5j)]
    sigma_hat = MonicPolynomial.from_roots(
        extra + [0.31 * np.exp(0.98j), 0.31 * np.exp(-0.98j)]
    )
    rep = monte_carlo(
        MonteCarloConfig(sigma=sigma, a=a, order=4, sigma_hat=sigma_hat, variant="exact")
    )
    poles = default_bank_poles(4)
    problem = InterpolationProblem(
        nodes_from_poles(poles), tuple(exact_values(sigma, a, poles)), sigma_hat
    )
    sol = solve(problem)
    d_plus = np.min(np.abs(sol.diagnostics.poles - 0.6 * np.exp(1.5j)))
    d_minus = np.min(np.abs(sol.diagnostics.poles - 0.6 * np.exp(-1.5j)))
    ok = rep.estimated_degree == 2 and d_plus < 0.05 and d_minus < 0.05
    report(
        4,
        ok,
        f"estimated degree {rep.estimated_degree} (==2); nearest a-roots to "
        f"0.6e^(+-1.5i) at distance {d_plus:.2e}/{d_minus:.2e} (<0.05)",
    )


def test_criterion_5_derivative_gates():
    rng = np.random.default_rng(501)
    worst_jac, worst_dnu, checked = 0.0, 0.0, 0
    for _ in range(20):
        n = int(rng.integers(1, 7))
        problem = random_problem(rng, n)
        ctx = HomotopyContext(problem)
        for _ in range(5):
            p = 0.3 * rng.standard_normal(n)
            nu = rng.uniform(0.0, 1.0)
            J = jac_G(p, nu, ctx)
            J_fd = np.zeros((n, n))
            for j in range(n):
                h = 1e-6 * (1.0 + abs(p[j]))
                e = np.zeros(n)
                e[j] = h
                J_fd[:, j] = (eval_G(p + e, nu, ctx) - eval_G(p - e, nu, ctx)) / (2 * h)
            worst_jac = max(
                worst_jac, np.max(np.abs(J - J_fd)) / max(1.0, np.max(np.abs(J_fd)))
            )
            delta = 1e-6
            fd = (eval_G(p, nu + delta, ctx) - eval_G(p, nu - delta, ctx)) / (2 * delta)
            got = dG_dnu(p, nu, ctx)
            worst_dnu = max(
                worst_dnu, np.max(np.abs(got - fd)) / max(1.0, np.max(np.abs(fd)))
            )
            checked += 1

    # tangent-sign gate: an Euler step with the implemented sign stays inside
    # the acceptance band; the flipped sign leaves it.  The point is an
    # accepted state near the middle of the path, on the fallback's short
    # steps (the first attempt's few steps may not come near nu = 0.5)
    ref = random_problem(np.random.default_rng(502), 5)
    ctx = HomotopyContext(ref)
    states = _follow_path(ctx, FALLBACK_ATTEMPT)
    mid = min(states, key=lambda s: abs(s.nu - 0.5))
    dnu = 1e-2
    t = _tangent(mid.p, mid.nu, ctx)
    band_plus = abs(eval_G(mid.p + dnu * t, mid.nu + dnu, ctx)[0])
    band_minus = abs(eval_G(mid.p - dnu * t, mid.nu + dnu, ctx)[0])
    sign_ok = band_plus < band_minus

    ok = checked == 100 and worst_jac < 1e-6 and worst_dnu < 1e-6 and sign_ok
    report(
        5,
        ok,
        f"100 random (p, nu) across 20 problems: max rel. Jacobian error "
        f"{worst_jac:.2e} (<1e-6), max rel. d/dnu error {worst_dnu:.2e} (<1e-6); "
        f"Euler step with implemented sign stays in band ({band_plus:.2e} vs "
        f"flipped {band_minus:.2e})",
    )


def test_criterion_6_identity_suite():
    rng = np.random.default_rng(601)
    thetas = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    z = np.exp(1j * thetas)
    solved = 0
    for _ in range(100):
        n = int(rng.integers(1, 7))
        problem = random_problem(rng, n)
        sol = solve(problem)

        assert all(s.residual <= 1e-12 for s in sol.trajectory)
        assert sol.diagnostics.cee_residual < 1e-8
        assert np.max(np.abs(sol.P - sol.P.T)) < 1e-10
        assert np.linalg.eigvalsh(sol.P)[0] >= -1e-8
        assert sol.P[0, 0] < 1.0      # h' P h, with h = e1

        g = HomotopyContext(problem).linearization(sol.p, 1.0)[2]
        assert np.max(np.abs((sol.b.tail - sol.a.tail) - 2.0 * g)) < 1e-10

        f = np.polyval(sol.b.coeffs, z) / (2.0 * np.polyval(sol.a.coeffs, z))
        rhs = (
            sol.rho**2
            * np.abs(np.polyval(problem.sigma.coeffs, z)) ** 2
            / np.abs(np.polyval(sol.a.coeffs, z)) ** 2
        )
        assert np.max(np.abs(2.0 * f.real - rhs)) < 1e-8
        solved += 1
    report(
        6,
        solved == 100,
        f"{solved}/100 random solves satisfied all residual, definiteness, "
        "b-a=2g, and spectral-factorization identities at stated tolerances",
    )


def test_criterion_7_central_closed_forms(reference_problem):
    ctx = HomotopyContext(reference_problem)
    n = ctx.n
    G0 = eval_G(np.zeros(n), 0.0, ctx)
    pair0, v0, g0, _, _ = ctx.linearization(np.zeros(n), 0.0)
    start_ok = (
        np.max(np.abs(G0)) < 1e-13
        and np.all(pair0.u == 0.0)
        and np.all(pair0.U == 0.0)
        and np.array_equal(v0 - g0, reference_problem.sigma.tail)
        and np.array_equal(v0 + g0, reference_problem.sigma.tail)
    )

    central = InterpolationProblem(
        reference_problem.nodes,
        tuple([0.5 + 0.0j] * (n + 1)),
        reference_problem.sigma,
    )
    sol = solve(central)
    f_vals = [sol.interpolant(zk) for zk in central.nodes]
    central_ok = (
        len(sol.trajectory) == 1
        and np.array_equal(sol.P, np.zeros((n, n)))
        and np.array_equal(sol.a.coeffs, central.sigma.coeffs)
        and max(abs(fv - 0.5) for fv in f_vals) < 1e-14
    )
    ok = start_ok and central_ok
    report(
        7,
        ok,
        f"G(0,0)={np.max(np.abs(G0)):.2e}, u=U=0, a=b=sigma at the start; "
        f"all-half problem: trajectory length {len(sol.trajectory)} (==1), "
        "P=0, f identically 1/2",
    )


def test_criterion_8_small_instance_oracles():
    # (z1, w1, s1) with w1 inside the feasibility window of the 2x2 Pick test
    instances = [
        (2.0, 0.8, -0.3),
        (-3.0, 0.9, 0.45),
        (1.6, 0.55, 0.0),
    ]
    worst_bisect, worst_stein = 0.0, 0.0
    for z1, w1, s1 in instances:
        problem = InterpolationProblem(
            (complex("inf"), complex(z1)),
            (0.5 + 0.0j, complex(w1)),
            MonicPolynomial([1.0, s1]),
        )
        sol = solve(problem)
        ctx = HomotopyContext(problem)

        def G1(x):
            return eval_G(np.array([x]), 1.0, ctx)[0]

        grid = np.linspace(0.0, 0.999, 500)
        vals = np.array([G1(x) for x in grid])
        flips = np.where(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
        i = flips[np.argmin(np.abs(grid[flips] - sol.p[0]))]
        lo, hi = grid[i], grid[i + 1]
        for _ in range(64):
            mid = 0.5 * (lo + hi)
            if np.sign(G1(mid)) == np.sign(G1(lo)):
                lo = mid
            else:
                hi = mid
        worst_bisect = max(worst_bisect, abs(0.5 * (lo + hi) - sol.p[0]))

        g = ctx.linearization(sol.p, 1.0)[2]
        gamma = ctx.Gamma[0, 0]
        closed = (g[0] ** 2 - gamma**2 * sol.p[0] ** 2) / (1.0 - gamma**2)
        P, _ = recover_P(ctx.Gamma, ctx.s, sol.p, g)
        worst_stein = max(worst_stein, abs(P[0, 0] - closed))

    ok = worst_bisect < 1e-10 and worst_stein < 1e-12
    report(
        8,
        ok,
        f"endpoint vs 1-d bisection: max |dp|={worst_bisect:.2e} (<1e-10); "
        f"recovered P vs scalar closed form: max diff {worst_stein:.2e} (<1e-12)",
    )
