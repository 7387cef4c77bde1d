import numpy as np
import pytest

from conftest import sym_coeffs
from nevpick.continuation import HomotopyContext
from nevpick.polyalg import (
    TOL_NODE,
    TOL_ROOT_PAIR,
    MonicPolynomial,
    build_S,
    companion,
    conjugate_pairs,
    eval_poly,
    roots_and_schur,
)
from nevpick.problem import INF, InterpolationProblem


def autocorr_oracle(full_coeffs):
    """z^k coefficients of p(z)p(1/z), k = 0..n, via plain convolution."""
    s = np.asarray(full_coeffs, dtype=float)
    n = s.size - 1
    conv = np.convolve(s, s[::-1])
    # conv[n - k] = sum_i s_i s_(i+k)
    return conv[n::-1][: n + 1]


class TestMonicPolynomial:
    def test_leading_one_enforced(self):
        with pytest.raises(ValueError):
            MonicPolynomial([2.0, 1.0])

    def test_degree_and_tail(self):
        p = MonicPolynomial([1.0, -0.5, 0.25])
        assert p.degree == 2
        assert np.array_equal(p.tail, [-0.5, 0.25])

    def test_from_roots_real_pairs(self):
        roots = [0.5 * np.exp(1.2j), 0.5 * np.exp(-1.2j), -0.3]
        p = MonicPolynomial.from_roots(roots)
        assert p.degree == 3
        assert np.allclose(sorted(np.roots(p.coeffs)), sorted(roots), atol=1e-12)

    def test_from_roots_rejects_unpaired(self):
        with pytest.raises(ValueError):
            MonicPolynomial.from_roots([0.5j])

    def test_immutable(self):
        p = MonicPolynomial([1.0, 0.5])
        with pytest.raises(ValueError):
            p.coeffs[0] = 2.0


class TestEvalPoly:
    def test_monomial(self):
        assert eval_poly([1.0, 0.0, 0.0], 2.0) == pytest.approx(4.0)

    def test_root_evaluation(self):
        sigma = MonicPolynomial.from_roots([0.5, -0.5])
        assert eval_poly(sigma, 0.5) == pytest.approx(0.0, abs=1e-15)

    def test_vectorized(self):
        z = np.array([1.0, 2.0, 1j])
        got = eval_poly([1.0, -1.0], z)
        assert np.allclose(got, z - 1.0)


class TestRootsAndSchur:
    def test_inside(self):
        r, ok = roots_and_schur(MonicPolynomial([1.0, -0.5]))
        assert np.allclose(r, [0.5])
        assert ok

    def test_boundary_excluded(self):
        r, ok = roots_and_schur(MonicPolynomial([1.0, -1.0]))
        assert np.allclose(r, [1.0])
        assert not ok

    def test_reference_zero_set(self):
        # degree-7 set: two pairs at modulus 0.95, a pair at 0.99, one real -0.99
        roots = [
            0.95 * np.exp(2.3j),
            0.95 * np.exp(-2.3j),
            0.95 * np.exp(1.22j),
            0.95 * np.exp(-1.22j),
            0.99j,
            -0.99j,
            -0.99,
        ]
        sigma = MonicPolynomial.from_roots(roots)
        r, ok = roots_and_schur(sigma)
        assert ok
        moduli = np.sort(np.abs(r))
        assert np.allclose(moduli, np.sort(np.abs(roots)), atol=1e-8)

    def test_no_margin(self):
        # strict unit-disk membership: a root just inside counts
        _, ok = roots_and_schur(MonicPolynomial([1.0, -(1.0 - 1e-9)]))
        assert ok


class TestCompanion:
    def test_n1_zero(self):
        comp = companion(MonicPolynomial([1.0, 0.0]))
        assert comp.Gamma.shape == (1, 1)
        assert comp.Gamma[0, 0] == 0.0
        assert np.array_equal(comp.h, [1.0])

    def test_degree_zero_degenerate(self):
        comp = companion(MonicPolynomial([1.0]))
        assert comp.Gamma.shape == (0, 0)
        assert comp.n == 0

    def test_layout_n2(self):
        comp = companion(MonicPolynomial([1.0, 0.5, 0.25]))
        assert np.array_equal(comp.Gamma, [[-0.5, 1.0], [-0.25, 0.0]])

    def test_eigenvalues_match_roots(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = rng.integers(1, 9)
            tail = rng.uniform(-0.5, 0.5, size=n)
            sigma = MonicPolynomial(np.concatenate(([1.0], tail)))
            comp = companion(sigma)
            eigs = np.linalg.eigvals(comp.Gamma)
            roots, _ = roots_and_schur(sigma)
            assert np.allclose(
                np.sort_complex(eigs), np.sort_complex(roots), atol=1e-8
            )


def build_d(sigma):
    """The autocorrelation vector ``d`` the homotopy context builds for ``sigma``."""
    n = sigma.degree
    nodes = (INF,) + tuple(2.0 + k for k in range(n))
    return HomotopyContext(InterpolationProblem(nodes, (0.5,) * (n + 1), sigma)).d


class TestBuildD:
    def test_pure_monomial(self):
        sigma = MonicPolynomial([1.0, 0.0, 0.0, 0.0])
        assert np.array_equal(build_d(sigma), [1.0, 0.0, 0.0])

    def test_n1(self):
        sigma = MonicPolynomial([1.0, 0.3])
        assert np.allclose(build_d(sigma), [1 + 0.3**2])

    def test_matches_convolution_oracle(self):
        rng = np.random.default_rng(11)
        tail = rng.uniform(-0.8, 0.8, size=5)
        sigma = MonicPolynomial(np.concatenate(([1.0], tail)))
        want = autocorr_oracle(sigma.coeffs)[:5]
        assert np.allclose(build_d(sigma), want, atol=1e-13)

    def test_half_sym_coeffs(self):
        rng = np.random.default_rng(12)
        tail = rng.uniform(-0.8, 0.8, size=6)
        sigma = MonicPolynomial(np.concatenate(([1.0], tail)))
        full = 0.5 * sym_coeffs(sigma.coeffs, sigma.coeffs)
        assert np.allclose(build_d(sigma), full[:6], atol=1e-13)


class TestBuildS:
    def test_unit_vector(self):
        S = build_S([1.0, 0.0, 0.0])
        want = np.diag([2.0, 1.0, 1.0])
        assert np.array_equal(S, want)

    def test_explicit_n2(self):
        S = build_S([1.0, 2.0, 3.0])
        H = np.array([[1.0, 2.0, 3.0], [2.0, 3.0, 0.0], [3.0, 0.0, 0.0]])
        Tu = np.array([[1.0, 2.0, 3.0], [0.0, 1.0, 2.0], [0.0, 0.0, 1.0]])
        assert np.array_equal(S, H + Tu)

    def test_leading_zero_allowed(self):
        S = build_S([0.0, 1.0])
        assert np.array_equal(S, [[0.0, 2.0], [1.0, 0.0]])

    def test_bilinear_symmetry_random(self):
        rng = np.random.default_rng(13)
        for _ in range(1000):
            m = int(rng.integers(2, 9))
            x = rng.standard_normal(m)
            y = rng.standard_normal(m)
            sx = build_S(x) @ y
            sy = build_S(y) @ x
            direct = sym_coeffs(x, y)
            assert np.max(np.abs(sx - sy)) < 1e-12
            assert np.max(np.abs(sx - direct)) < 1e-12

    def test_self_product_gives_twice_autocorr(self):
        rng = np.random.default_rng(14)
        tail = rng.uniform(-0.7, 0.7, size=5)
        sigma = MonicPolynomial(np.concatenate(([1.0], tail)))
        s = sigma.coeffs
        out = build_S(s) @ s
        assert np.allclose(out[:5], 2.0 * build_d(sigma), atol=1e-13)
        assert np.allclose(out, 2.0 * autocorr_oracle(s), atol=1e-13)


class TestSymCoeffs:
    def test_unit_vectors(self):
        assert np.array_equal(sym_coeffs([1.0, 0.0, 0.0], [1.0, 0.0, 0.0]), [2.0, 0.0, 0.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            sym_coeffs([1.0, 0.0], [1.0])

    def test_matches_laurent_convolution(self):
        # z^k coefficient of x(z)y(1/z) + y(z)x(1/z) from the full Laurent product
        rng = np.random.default_rng(15)
        x = rng.standard_normal(6)
        y = rng.standard_normal(6)
        n = 5
        lau = np.convolve(x, y[::-1]) + np.convolve(y, x[::-1])
        want = lau[n::-1][: n + 1]
        assert np.allclose(sym_coeffs(x, y), want, atol=1e-13)


class TestConjugatePairs:
    def test_repeated_pair_uses_each_index_once(self):
        z = 0.5 + 0.3j
        points = [z, z, np.conj(z), np.conj(z)]
        partner = conjugate_pairs(points, TOL_NODE)
        assert partner == [2, 3, 0, 1]

    def test_point_without_partner(self):
        partner = conjugate_pairs([0.0, 0.4j, 0.5 + 0.1j, 0.5 - 0.1j], TOL_NODE)
        assert partner == [0, None, 3, 2]

    def test_real_point_pairs_with_itself(self):
        partner = conjugate_pairs([0.7, -0.2 + 1e-13j, 0.1 + 0.2j, 0.1 - 0.2j], TOL_NODE)
        assert partner == [0, 1, 3, 2]

    def test_relative_tolerance_per_point(self):
        # computed roots: 1e-8 (1 + |z|), so a pair 1e-9 off matches and a
        # point 1e-6 off does not
        points = np.array([0.6 + 0.5j, 0.6 - 0.5j + 1e-9, 0.2 + 0.1j, 0.2 - 0.1j + 1e-6])
        partner = conjugate_pairs(points, TOL_ROOT_PAIR * (1.0 + np.abs(points)))
        assert partner == [1, 0, None, None]
