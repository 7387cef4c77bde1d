import cmath
import warnings

import numpy as np
import pytest

from conftest import (
    PATH_ERRSTATE,
    near_circle_problem,
    positive_real_values,
    random_nodes,
    random_schur_monic,
)
from nevpick.continuation import solve
from nevpick.ingestion import FilterBankSpec
from nevpick.polyalg import TOL_NODE, TOL_VALUE, MonicPolynomial, conjugate_pairs, is_schur
from nevpick.problem import (
    INF,
    InterpolationProblem,
    Violation,
    coincident_pairs,
    is_positive_definite,
    normalize,
    pick_matrix,
    problem_from_json_dict,
    problem_to_json_dict,
    validate,
)


def tiny_problem(values=(2.0, 2.0 + 1.0j, 2.0 - 1.0j)):
    nodes = (INF, 1.5 + 0.5j, 1.5 - 0.5j)
    sigma = MonicPolynomial([1.0, 0.0, 0.0])
    return InterpolationProblem(nodes, values, sigma)


def validate_loops_oracle(problem):
    """``validate`` as one Python loop per check over every index: the form
    the vectorized flags of ``validate`` must reproduce violation for violation."""
    out = []
    nodes = problem.nodes
    values = problem.values

    if not cmath.isinf(nodes[0]):
        out.append(Violation("node-inf-sentinel", "nodes[0] must be the point at infinity", 0))

    structurally_sound = True
    for k, z in enumerate(nodes):
        if cmath.isnan(z):
            out.append(Violation("not-finite", f"node {k} is {z}", k))
            structurally_sound = False
        elif k and cmath.isinf(z):
            out.append(Violation("node-domain", "only nodes[0] may be infinite", k))
            structurally_sound = False
        elif k and modulus(z) <= 1.0:
            out.append(Violation("node-domain", f"|z_{k}| = {abs(z):.6g} must exceed 1", k))
            structurally_sound = False

    zeta = problem.node_reciprocals()
    paired = not np.isnan(zeta).any()
    for k, j in coincident_pairs(zeta) if paired else ():
        out.append(Violation("node-distinct", f"nodes {k} and {j} coincide", j))
        structurally_sound = False

    for k, j in enumerate(conjugate_pairs(zeta, TOL_NODE) if paired else ()):
        if j is None:
            out.append(Violation("conjugate-closure", f"node {k} has no conjugate partner", k))
            structurally_sound = False
        elif (modulus(values[j] - values[k].conjugate())
              > TOL_VALUE * (1.0 + min(modulus(values[k]), modulus(values[j])))):
            out.append(Violation(
                "conjugate-closure",
                f"value {k} must be real: node {k} is its own conjugate" if j == k
                else f"value at conjugate node {j} is not the conjugate of value {k}", k))

    for k, w in enumerate(values):
        if not cmath.isfinite(w):
            out.append(Violation("not-finite", f"value {k} is {w}", k))
            structurally_sound = False
        elif not w.real > 0:
            out.append(Violation("value-rhp", f"Re(w_{k}) = {w.real:.6g} must be positive", k))

    if not is_schur(problem.sigma):
        out.append(Violation("sigma-not-schur", "sigma has a root with modulus >= 1"))

    if structurally_sound:
        if not is_positive_definite(pick_matrix(problem)):
            out.append(Violation("pick-not-pd", "Pick matrix is not positive definite"))
    return out


def modulus(z):
    """``|z|`` by numpy's ``hypot``: ``inf`` beyond the float range, where
    Python's ``abs`` of a complex raises ``OverflowError``."""
    with np.errstate(over="ignore"):
        return float(np.abs(np.complex128(z)))


def outcome(check, problem):
    """``(code, index, message)`` of each violation."""
    return [(v.code, v.index, v.message) for v in check(problem)]


def corrupt(rng, nodes, values, sigma):
    """One random defect of the kinds ``validate`` reports, applied in place
    to the lists ``nodes`` and ``values``; returns the (maybe new) sigma."""
    n = len(nodes) - 1
    k = int(rng.integers(1, n + 1)) if n else 0
    kind = rng.integers(14)
    if kind == 0:
        nodes[k] = complex(rng.choice([complex(np.nan, 0.0), complex(1.5, np.nan), complex(np.nan, np.inf)]))
    elif kind == 1:
        nodes[k] = rng.choice([INF, complex(-np.inf, 0.0), complex(1.5, np.inf)])
    elif kind == 2:
        nodes[k] = rng.choice([0j, complex(-0.0, 0.0), complex(0.0, -0.0)])
    elif kind == 3:
        # inside the disk, on the circle, or just outside with a part of modulus 1
        nodes[k] = complex(rng.choice([cmath.rect(0.5, rng.uniform(-3.0, 3.0)), 0.6 + 0.8j, 1j,
                                       -1.0 + 0j, 1.0 + 0.5j, -0.25 - 1.0j, complex(1.0, 1e-300)]))
    elif kind == 4 and n:
        nodes[k] = nodes[int(rng.integers(0, n + 1))]     # coincident (maybe with infinity)
    elif kind == 5:
        nodes[k] = nodes[k] + rng.choice([1e-3j, 1e-13j, 1e-3])   # breaks or keeps a pair
    elif kind == 6:
        values[k] = values[k] + rng.choice([0.3j, 1e-9j, 3e-9j, 1e-9, 0.0j])
    elif kind == 7:
        values[k] = rng.choice([complex(np.nan, 0.0), complex(np.inf, 1.0), complex(0.5, -np.inf)])
    elif kind == 8:
        values[k] = complex(rng.choice([-1.0, 0.0, -0.0]), values[k].imag)
    elif kind == 9:
        sigma = MonicPolynomial(np.concatenate(([1.0, -1.2], np.zeros(n - 1)))) if n else sigma
    elif kind == 10:
        nodes[0] = complex(rng.uniform(1.5, 3.0))
    elif kind == 11:
        values[0] = values[0] + rng.choice([1e-3j, 1e-15j])
    elif kind == 12:
        values[k] = complex(values[k]) * 1e308
    else:
        values[k] = -values[k]
    return sigma


class TestValidate:
    def test_reference_instance_is_valid(self, reference_problem):
        assert validate(reference_problem) == []

    @pytest.mark.parametrize("seed", range(60))
    def test_equals_loop_oracle(self, seed):
        # a valid draw with up to three defects, and its conjugate-symmetric
        # values shuffled onto other nodes half the time
        rng = np.random.default_rng(500 + seed)
        for _ in range(20):
            n = int(rng.integers(0, 9))
            nodes = list(random_nodes(rng, n))
            values = [complex(w) for w in positive_real_values(rng, n, nodes)] if n else [0.5 + 0j]
            sigma = random_schur_monic(rng, n) if n else MonicPolynomial([1.0])
            for _ in range(int(rng.integers(0, 4))):
                sigma = corrupt(rng, nodes, values, sigma)
            problem = InterpolationProblem(tuple(nodes), tuple(values), sigma)
            with warnings.catch_warnings(), np.errstate(**PATH_ERRSTATE):
                warnings.simplefilter("error")
                assert outcome(validate, problem) == outcome(validate_loops_oracle, problem)

    @pytest.mark.parametrize("nodes, values, expected", [
        # a value beyond the float range: the modulus of the pair's difference
        # is inf, above the tolerance of the smaller value, so both sides report
        ((INF, 2 + 1j, 2 - 1j), (0.5, 1.5e308 + 1.5e308j, 0.6 + 0.1j), [
            ("conjugate-closure", 1, "value at conjugate node 2 is not the conjugate of value 1"),
            ("conjugate-closure", 2, "value at conjugate node 1 is not the conjugate of value 2"),
            ("pick-not-pd", None, "Pick matrix is not positive definite"),
        ]),
        # nodes beyond the float range: their reciprocals are subnormal, within
        # TOL_NODE of 0, of each other and of their own conjugates
        ((INF, 1.5e308 + 1.5e308j, 1.5e308 - 1.5e308j), (0.5, 0.6 + 0.1j, 0.6 - 0.1j), [
            ("node-distinct", 1, "nodes 0 and 1 coincide"),
            ("node-distinct", 2, "nodes 0 and 2 coincide"),
            ("node-distinct", 2, "nodes 1 and 2 coincide"),
            ("conjugate-closure", 1, "value 1 must be real: node 1 is its own conjugate"),
            ("conjugate-closure", 2, "value 2 must be real: node 2 is its own conjugate"),
        ]),
    ])
    def test_modulus_beyond_float_range_is_reported(self, nodes, values, expected):
        problem = InterpolationProblem(nodes, values, MonicPolynomial([1.0, 0.0, 0.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert outcome(validate, problem) == expected
        with np.errstate(**PATH_ERRSTATE):
            assert outcome(validate_loops_oracle, problem) == expected

    def test_zero_node_is_a_domain_violation(self):
        # 1/0 is infinite, not an error, and no other check trips over it
        problem = InterpolationProblem((INF, 0j), (0.5, 0.6), MonicPolynomial([1.0, 0.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            violations = validate(problem)
        assert [(v.code, v.index) for v in violations] == [("node-domain", 1)]

    def test_overflowing_pick_matrix_without_warnings(self):
        problem = InterpolationProblem((INF, 2.0 + 0j), (0.5, 1e308), MonicPolynomial([1.0, 0.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            violations = validate(problem)
        assert [(v.code, v.index) for v in violations] == [("pick-not-pd", None)]

    def test_node_reciprocals_formed_once(self, reference_problem):
        zeta = reference_problem.node_reciprocals()
        assert reference_problem.node_reciprocals() is zeta
        assert not zeta.flags.writeable
        assert zeta[0] == 0 and np.array_equal(zeta[1:], [1.0 / z for z in reference_problem.nodes[1:]])

    def test_conjugate_break_detected(self, reference_problem):
        values = list(reference_problem.values)
        values[1] = values[1] + 0.3j  # breaks the pair (1, 2)
        bad = InterpolationProblem(reference_problem.nodes, tuple(values), reference_problem.sigma)
        codes = [v.code for v in validate(bad)]
        assert "conjugate-closure" in codes

    def test_nonreal_value_at_real_node(self):
        # a real node is its own conjugate partner, so its value must be real
        bad = InterpolationProblem((INF, 2.0 + 0j, 3.0 + 0j), (0.5, 0.6 + 0.1j, 0.7),
                                   MonicPolynomial([1.0, 0.0, 0.0]))
        closure = [(v.index, v.message) for v in validate(bad) if v.code == "conjugate-closure"]
        assert closure == [(1, "value 1 must be real: node 1 is its own conjugate")]

    def test_node_inside_disk_detected(self):
        nodes = (INF, 0.9 + 0.0j)
        bad = InterpolationProblem(nodes, (0.5, 0.6), MonicPolynomial([1.0, 0.0]))
        codes = [v.code for v in validate(bad)]
        assert "node-domain" in codes

    def test_missing_inf_sentinel(self):
        bad = InterpolationProblem((2.0, 3.0), (0.5, 0.5), MonicPolynomial([1.0, 0.0]))
        codes = [v.code for v in validate(bad)]
        assert "node-inf-sentinel" in codes

    def test_left_halfplane_value(self):
        bad = tiny_problem(values=(2.0, -1.0 + 1.0j, -1.0 - 1.0j))
        codes = [v.code for v in validate(bad)]
        assert "value-rhp" in codes

    def test_non_schur_sigma(self):
        nodes = (INF, 2.0 + 0.0j)
        bad = InterpolationProblem(nodes, (0.5, 0.6), MonicPolynomial([1.0, -1.5]))
        codes = [v.code for v in validate(bad)]
        assert "sigma-not-schur" in codes

    def test_nan_node(self, reference_problem):
        nodes = list(reference_problem.nodes)
        nodes[3] = complex(np.nan, 0.0)
        bad = InterpolationProblem(tuple(nodes), reference_problem.values, reference_problem.sigma)
        violations = validate(bad)
        assert [(v.code, v.index) for v in violations] == [("not-finite", 3)]

    @pytest.mark.parametrize("bad_value", [complex(np.nan, 0.0), complex(np.inf, 0.0),
                                           complex(0.5, np.inf)])
    def test_non_finite_value(self, reference_problem, bad_value):
        values = list(reference_problem.values)
        values[5] = bad_value
        bad = InterpolationProblem(reference_problem.nodes, tuple(values), reference_problem.sigma)
        codes = [v.code for v in validate(bad)]
        assert "not-finite" in codes
        assert "pick-not-pd" not in codes

    def test_coincident_nodes(self):
        nodes = (INF, 2.0 + 0.0j, 2.0 + 0.0j)
        bad = InterpolationProblem(nodes, (0.5, 0.6, 0.6), MonicPolynomial([1.0, 0.0, 0.0]))
        codes = [v.code for v in validate(bad)]
        assert "node-distinct" in codes


class TestDistinctNodes:
    """One distinct-node check at 1e-12 on reciprocal nodes: ``validate`` for
    interpolation nodes and ``FilterBankSpec`` for bank poles from outside."""

    @staticmethod
    def pair_problem(gap):
        # reciprocal nodes 0.5 and 0.5 + gap, each real
        zeta = (0.5, 0.5 + gap)
        nodes = (INF,) + tuple(1.0 / z for z in zeta)
        return InterpolationProblem(nodes, (0.5, 0.6, 0.6), MonicPolynomial([1.0, 0.0, 0.0]))

    @pytest.mark.parametrize("gap, distinct", [(5e-13, False), (1e-15, False), (5e-12, True)])
    def test_all_callers_agree(self, gap, distinct):
        problem = self.pair_problem(gap)
        codes = [v.code for v in validate(problem)]
        assert ("node-distinct" not in codes) == distinct
        poles = (0.0, 0.5, 0.5 + gap)
        if distinct:
            FilterBankSpec(poles=poles, samples=10)
        else:
            with pytest.raises(ValueError, match="coincide"):
                FilterBankSpec(poles=poles, samples=10)


class TestPickMatrix:
    def test_scalar_instance(self):
        p = InterpolationProblem((INF,), (0.5,), MonicPolynomial([1.0]))
        P = pick_matrix(p)
        assert P.shape == (1, 1)
        assert P[0, 0] == pytest.approx(1.0)

    def test_hermitian(self, reference_problem):
        P = pick_matrix(reference_problem)
        assert np.max(np.abs(P - P.conj().T)) < 1e-14

    def test_reference_positive_definite(self, reference_problem):
        P = pick_matrix(reference_problem)
        eigs = np.linalg.eigvalsh(P)
        assert eigs[0] > 0

    def test_entry_formula(self):
        p = tiny_problem()
        P = pick_matrix(p)
        w = p.values_array()
        # entry (1, 2) by hand
        z1, z2 = p.nodes[1], p.nodes[2]
        want = (w[1] + np.conj(w[2])) / (1.0 - (1.0 / z1) * np.conj(1.0 / z2))
        assert P[1, 2] == pytest.approx(want)
        # infinity row
        assert P[0, 1] == pytest.approx(w[0] + np.conj(w[1]))
        assert P[0, 0] == pytest.approx(2.0 * w[0].real)

    def test_unit_values_positive_definite_random_nodes(self):
        # constant value 1 gives a positive-definite Pick matrix for any
        # admissible self-conjugate node set
        rng = np.random.default_rng(21)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            nodes = random_nodes(rng, n)
            values = tuple([1.0 + 0.0j] * (n + 1))
            p = InterpolationProblem(nodes, values, MonicPolynomial.from_roots([0.0] * n))
            eigs = np.linalg.eigvalsh(pick_matrix(p))
            assert eigs[0] > 0

    def test_conjugating_all_data_conjugates_matrix(self, reference_problem):
        conj = InterpolationProblem(
            tuple(np.conj(z) if np.isfinite(z) else z for z in reference_problem.nodes),
            tuple(np.conj(w) for w in reference_problem.values),
            reference_problem.sigma,
        )
        P = pick_matrix(reference_problem)
        assert np.allclose(pick_matrix(conj), np.conj(P), atol=1e-15)

    def test_scaling_preserves_definiteness(self, reference_problem):
        P = pick_matrix(reference_problem)
        scaled = InterpolationProblem(
            reference_problem.nodes,
            tuple(7.0 * w for w in reference_problem.values),
            reference_problem.sigma,
        )
        P7 = pick_matrix(scaled)
        assert np.allclose(P7, 7.0 * P, atol=1e-12)
        assert is_positive_definite(P) == is_positive_definite(P7) == True  # noqa: E712


class TestIsPositiveDefinite:
    def test_identity(self):
        assert is_positive_definite(np.eye(3))

    def test_indefinite(self):
        assert not is_positive_definite(np.diag([1.0, -1.0]))

    def test_judges_the_hermitian_part(self):
        # no matrix is rejected for its asymmetry: [[1, 1/2], [1/2, 1]] is
        # positive definite, [[1, 1], [1, 1]] is singular
        assert is_positive_definite(np.array([[1.0, 1.0], [0.0, 1.0]]))
        assert not is_positive_definite(np.array([[1.0, 3.0], [-1.0, 1.0]]))

    def test_reference(self, reference_problem):
        assert is_positive_definite(pick_matrix(reference_problem))


class TestOneSymmetryRule:
    """Data that validate accepts solve: no later check rejects it for asymmetry."""

    @pytest.mark.parametrize("share", [0.5, 0.9, 0.99])
    def test_broken_value_pair_is_solved_as_its_average(self, reference_problem, share):
        values = list(reference_problem.values)
        brk = share * TOL_VALUE * (1.0 + abs(values[1]))
        values[1] += brk * 1j
        problem = InterpolationProblem(reference_problem.nodes, values, reference_problem.sigma)
        assert validate(problem) == []
        residuals = solve(problem).diagnostics.interp_residuals
        # no real interpolant comes closer than half the break at both nodes
        assert residuals[1:3] == pytest.approx([brk / 2, brk / 2], rel=1e-2)
        assert residuals.max() == pytest.approx(brk / 2, rel=1e-2)

    @pytest.mark.parametrize("d, valid", [(1e-11, True), (1e-10, True), (5e-10, True),
                                          (7e-10, True), (8e-10, False), (1e-8, False)])
    def test_value_at_infinity_is_judged_as_a_self_conjugate_value(self, reference_problem,
                                                                   d, valid):
        # node 0 is its own conjugate partner: w_0 = 0.5 + d i passes while
        # 2 d <= TOL_VALUE (1 + |w_0|), about d <= 7.5e-10, and is solved as
        # its real part, with residual d at infinity
        values = (0.5 + d * 1j,) + reference_problem.values[1:]
        problem = InterpolationProblem(reference_problem.nodes, values, reference_problem.sigma)
        if not valid:
            assert outcome(validate, problem) == [
                ("conjugate-closure", 0, "value 0 must be real: node 0 is its own conjugate")]
            return
        assert validate(problem) == []
        residuals = solve(problem).diagnostics.interp_residuals
        assert residuals[0] == pytest.approx(d, rel=1e-12)

    @pytest.mark.parametrize("r", [1 + 1e-8, 1 + 1e-10, 1 + 1e-12])
    def test_nodes_next_to_the_circle_solve(self, r):
        problem = near_circle_problem(r)
        assert validate(problem) == []
        assert solve(problem).diagnostics.max_interp_residual < 1e-12


class TestNormalize:
    def test_already_normalized(self, reference_problem):
        w, scale = normalize(reference_problem)
        assert scale == 1.0
        assert tuple(w) == reference_problem.values

    def test_scaling(self):
        p = tiny_problem(values=(2.0, 2.0 + 1.0j, 2.0 - 1.0j))
        w, scale = normalize(p)
        assert scale == pytest.approx(4.0)
        assert w[0] == 0.5
        assert w[1] == pytest.approx(0.5 + 0.25j)

    def test_round_trip(self):
        p = tiny_problem(values=(3.7, 1.1 + 0.9j, 1.1 - 0.9j))
        norm, scale = normalize(p)
        for w, w0 in zip(norm, p.values):
            assert abs(w * scale - w0) <= 1e-15 * max(1.0, abs(w0))

    def test_rejects_nonpositive_w0(self):
        with pytest.raises(ValueError):
            normalize(tiny_problem(values=(-1.0, 2.0 + 1.0j, 2.0 - 1.0j)))

    def test_values_over_scale_read_only(self, reference_problem):
        # one read-only complex array: exactly 1/2 at infinity, and each
        # value over scale by Python's complex division, bit for bit
        scaled = InterpolationProblem(reference_problem.nodes,
                                      tuple(3.7 * w for w in reference_problem.values),
                                      reference_problem.sigma)
        w, scale = normalize(scaled)
        assert w.dtype == complex and not w.flags.writeable
        assert w[0] == 0.5
        for k in range(1, len(w)):
            assert w[k].tobytes() == np.complex128(scaled.values[k] / scale).tobytes(), k


class TestJson:
    def test_round_trip(self, reference_problem):
        data = problem_to_json_dict(reference_problem)
        back = problem_from_json_dict(data)
        assert back.nodes == reference_problem.nodes
        assert back.values == reference_problem.values
        assert np.array_equal(back.sigma.coeffs, reference_problem.sigma.coeffs)

    def test_sigma_roots_variant(self):
        data = {
            "nodes": ["inf", {"re": 2.0, "im": 0.0}],
            "values": [{"re": 0.5, "im": 0.0}, {"re": 0.7, "im": 0.0}],
            "sigma_roots": [{"re": 0.4, "im": 0.0}],
        }
        p = problem_from_json_dict(data)
        assert np.allclose(p.sigma.coeffs, [1.0, -0.4])

    def test_missing_sigma(self):
        with pytest.raises(ValueError):
            problem_from_json_dict({"nodes": ["inf"], "values": [{"re": 0.5, "im": 0.0}]})
