import numpy as np
import pytest

from conftest import random_nodes
from nevpick.cee_core import build_V
from nevpick.ingestion import FilterBankSpec
from nevpick.polyalg import MonicPolynomial
from nevpick.problem import (
    INF,
    InterpolationProblem,
    NormalizedProblem,
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


class TestValidate:
    def test_reference_instance_is_valid(self, reference_problem):
        assert validate(reference_problem) == []

    def test_conjugate_break_detected(self, reference_problem):
        values = list(reference_problem.values)
        values[1] = values[1] + 0.3j  # breaks the pair (1, 2)
        bad = InterpolationProblem(reference_problem.nodes, tuple(values), reference_problem.sigma)
        codes = [v.code for v in validate(bad)]
        assert "conjugate-closure" in codes

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

    def test_coincident_nodes(self):
        nodes = (INF, 2.0 + 0.0j, 2.0 + 0.0j)
        bad = InterpolationProblem(nodes, (0.5, 0.6, 0.6), MonicPolynomial([1.0, 0.0, 0.0]))
        codes = [v.code for v in validate(bad)]
        assert "node-distinct" in codes


class TestDistinctNodes:
    """One distinct-node check at 1e-12 on reciprocal nodes, for every caller."""

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
        callers = [
            lambda: build_V(problem.node_reciprocals()),
            lambda: pick_matrix(problem),
            lambda: FilterBankSpec(poles=(0.0, 0.5, 0.5 + gap), samples=10),
        ]
        for call in callers:
            if distinct:
                call()
            else:
                with pytest.raises(ValueError, match="coincide"):
                    call()


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

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            is_positive_definite(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_reference(self, reference_problem):
        assert is_positive_definite(pick_matrix(reference_problem))


class TestNormalize:
    def test_already_normalized(self, reference_problem):
        norm = normalize(reference_problem)
        assert norm.scale == pytest.approx(1.0)
        assert norm.problem.values == reference_problem.values

    def test_scaling(self):
        p = tiny_problem(values=(2.0, 2.0 + 1.0j, 2.0 - 1.0j))
        norm = normalize(p)
        assert norm.scale == pytest.approx(4.0)
        assert norm.problem.values[0] == 0.5
        assert norm.problem.values[1] == pytest.approx(0.5 + 0.25j)

    def test_round_trip(self):
        p = tiny_problem(values=(3.7, 1.1 + 0.9j, 1.1 - 0.9j))
        norm = normalize(p)
        for w, w0 in zip(norm.problem.values, p.values):
            assert abs(w * norm.scale - w0) <= 1e-15 * max(1.0, abs(w0))

    def test_rejects_nonpositive_w0(self):
        with pytest.raises(ValueError):
            normalize(tiny_problem(values=(-1.0, 2.0 + 1.0j, 2.0 - 1.0j)))

    def test_normalized_invariant_enforced(self, reference_problem):
        with pytest.raises(ValueError):
            NormalizedProblem(problem=tiny_problem(), scale=1.0)


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
