import ast
import warnings
from pathlib import Path

import numpy as np
import pytest

import nevpick
from conftest import PATH_ERRSTATE, same_array, sym_coeffs
from nevpick.continuation import HomotopyContext
from nevpick.polyalg import (
    TOL_NODE,
    TOL_ROOT_PAIR,
    MonicPolynomial,
    SymStack,
    build_S,
    companion,
    conjugate_pairs,
    eigvalsh,
    inverse,
    is_schur,
    readonly,
    roots,
    solve_complex,
    solve_vector,
)
from nevpick.problem import INF, InterpolationProblem


def autocorr_oracle(full_coeffs):
    """z^k coefficients of p(z)p(1/z), k = 0..n, via plain convolution."""
    s = np.asarray(full_coeffs, dtype=float)
    n = s.size - 1
    conv = np.convolve(s, s[::-1])
    # conv[n - k] = sum_i s_i s_(i+k)
    return conv[n::-1][: n + 1]


def gather_build_S(x):
    """``build_S`` by index gathers into a flattened, zero-padded stack.

    Entry ``[r, i, j]`` gathers ``x[r, i + j]`` (Hankel part) plus
    ``x[r, j - i]`` (upper Toeplitz part); a position outside either part
    gathers a padding zero.  Takes a 1-d vector, like ``build_S``, or a
    2-d stack, like :func:`stack_products`.
    """
    x = np.asarray(x, dtype=float)
    rows = np.atleast_2d(x)
    count, m = rows.shape
    i, j = np.indices((m, m))
    offsets = m * np.arange(count)[:, None, None]
    pad = count * m
    hank = np.where(i + j < m, i + j + offsets, pad)
    toep = np.where(j >= i, j - i + offsets, pad)
    flat = np.concatenate((rows.ravel(), np.zeros(1)))
    S = flat[hank] + flat[toep]
    return S if x.ndim == 2 else S[0]


def stack_products(x):
    """``SymStack(rows, m).products()`` of the rows of a 2-d array ``x``."""
    stack = SymStack(*x.shape)
    stack.rows[...] = x
    return stack.products()


def greedy_pairs_oracle(points, tol):
    """Conjugate matching with one ``np.argmin`` over the unused points per point."""
    points = np.asarray(points, dtype=complex)
    tol = np.broadcast_to(tol, points.shape)
    partner = [None] * points.size
    used = np.zeros(points.size, dtype=bool)
    for k, z in enumerate(points):
        if used[k]:
            continue
        used[k] = True
        if abs(z.imag) <= tol[k]:
            partner[k] = k
            continue
        dist = np.abs(points - np.conj(z))
        dist[used] = np.inf
        j = int(np.argmin(dist))
        if dist[j] <= tol[k]:
            used[j] = True
            partner[k], partner[j] = j, k
    return partner


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            MonicPolynomial([1.0, bad, 0.25])

    @pytest.mark.parametrize("as_array", [False, True], ids=["list", "array"])
    def test_rejects_complex_coefficients(self, as_array):
        coeffs = [1, 0.5j, 0.25]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TypeError):
                MonicPolynomial(np.array(coeffs) if as_array else coeffs)

    @pytest.mark.parametrize("function, oracle", [
        (is_schur, lambda c: bool(np.abs(np.roots(c)).max() < 1.0)),
        (build_S, gather_build_S),
        (roots, np.roots),
    ], ids=["is_schur", "build_S", "roots"])
    def test_every_coefficient_vector_follows_the_same_rule(self, function, oracle):
        # complex coefficients raise TypeError in an array as in a list, and
        # a real list and a real array give numpy's bits
        coeffs = [1.0, -0.5, 0.25]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for bad in ([1, 0.5j, 0.25], np.array([1, 0.5j, 0.25])):
                with pytest.raises(TypeError):
                    function(bad)
            assert same_array(function(coeffs), oracle(coeffs))
            assert same_array(function(np.array(coeffs)), oracle(coeffs))

    def test_immutable(self):
        p = MonicPolynomial([1.0, 0.5])
        with pytest.raises(ValueError):
            p.coeffs[0] = 2.0


class TestRootsAndSchur:
    """``is_schur``: every root strictly inside the unit disk."""

    def test_inside(self):
        assert is_schur(MonicPolynomial([1.0, -0.5]))

    def test_boundary_excluded(self):
        assert not is_schur(MonicPolynomial([1.0, -1.0]))

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
        assert is_schur(MonicPolynomial.from_roots(roots))
        assert not is_schur(MonicPolynomial.from_roots(roots[:6] + [-1.0]))

    def test_no_margin(self):
        # strict unit-disk membership: a root just inside counts
        assert is_schur(MonicPolynomial([1.0, -(1.0 - 1e-9)]))


class TestCompanion:
    def test_n1_zero(self):
        Gamma = companion(MonicPolynomial([1.0, 0.0]))
        assert Gamma.shape == (1, 1)
        assert Gamma[0, 0] == 0.0

    def test_degree_zero_degenerate(self):
        assert companion(MonicPolynomial([1.0])).shape == (0, 0)

    def test_layout_n2(self):
        Gamma = companion(MonicPolynomial([1.0, 0.5, 0.25]))
        assert np.array_equal(Gamma, [[-0.5, 1.0], [-0.25, 0.0]])

    def test_eigenvalues_match_roots(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = rng.integers(1, 9)
            tail = rng.uniform(-0.5, 0.5, size=n)
            sigma = MonicPolynomial(np.concatenate(([1.0], tail)))
            eigs = np.linalg.eigvals(companion(sigma))
            roots = np.roots(sigma.coeffs)
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

    def test_rejects_a_stack(self):
        with pytest.raises(ValueError):
            build_S(np.ones((2, 3)))

    def test_stack_slices_equal_rows_bitwise(self):
        rng = np.random.default_rng(16)
        for m in range(1, 31):
            for rows in (1, 2, 3):
                x = rng.standard_normal((rows, m))
                S = stack_products(x)
                assert S.shape == (rows, m, m)
                assert S.flags.c_contiguous
                for r in range(rows):
                    assert np.array_equal(S[r], build_S(x[r]))
                assert np.array_equal(S, gather_build_S(x))

    @pytest.mark.parametrize("m", range(1, 31))
    def test_equals_gather_oracle_bitwise(self, m):
        rng = np.random.default_rng(100 + m)
        x = rng.standard_normal(m)
        stack = rng.standard_normal((2, m))
        stack[1, 0] = 0.0                      # the [0; g] row of the path follower
        for arg, S in ((x, build_S(x)), (stack, stack_products(stack))):
            assert S.flags.c_contiguous
            assert np.array_equal(S, gather_build_S(arg))

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


class TestSymStack:
    @pytest.mark.parametrize("m", range(1, 31))
    def test_products_equal_gather_oracle_bitwise(self, m):
        # the [[1, v], [0, g]] stack of the path follower at three points;
        # the products handed out at a point survive the next one
        rng = np.random.default_rng(200 + m)
        stack = SymStack(2, m)
        stack.rows[0, 0] = 1.0
        held = []
        for _ in range(3):
            stack.rows[:, 1:] = rng.standard_normal((2, m - 1))
            S = stack.products()
            assert S.shape == (2, m, m) and S.flags.c_contiguous
            assert np.array_equal(S, gather_build_S(stack.rows))
            held.append((S, S.copy()))
        for S, kept in held:
            assert np.array_equal(S, kept)

    def test_views_are_read_only(self):
        stack = SymStack(1, 4)
        for view in (stack._hank, stack._toep):
            with pytest.raises(ValueError):
                view[0, 0, 0] = 1.0


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

    @pytest.mark.parametrize("seed", range(40))
    def test_equals_argmin_oracle_with_ties(self, seed):
        # points on a grid of eighths, so many distances tie exactly, with
        # repeats, lone points and a tolerance wide enough to admit several
        rng = np.random.default_rng(300 + seed)
        half = rng.integers(-6, 7, size=(int(rng.integers(1, 11)), 2)) / 8.0
        upper = half[:, 0] + 1j * half[:, 1]
        points = np.concatenate((upper, np.conj(upper), upper[: rng.integers(0, 4)],
                                 rng.integers(-6, 7, size=rng.integers(0, 4)) / 8.0))
        points = rng.permutation(points)[:30]
        if seed % 5 == 0:
            points[rng.integers(points.size)] = complex(np.nan, 0.5)
        for tol in (TOL_NODE, 0.3, rng.uniform(0.0, 0.4, points.size)):
            assert conjugate_pairs(points, tol) == greedy_pairs_oracle(points, tol)

    def test_relative_tolerance_per_point(self):
        # computed roots: 1e-8 (1 + |z|), so a pair 1e-9 off matches and a
        # point 1e-6 off does not
        points = np.array([0.6 + 0.5j, 0.6 - 0.5j + 1e-9, 0.2 + 0.1j, 0.2 - 0.1j + 1e-6])
        partner = conjugate_pairs(points, TOL_ROOT_PAIR * (1.0 + np.abs(points)))
        assert partner == [1, 0, None, None]


class TestLapackPrimitives:
    """``solve_vector``, ``inverse``, ``solve_complex``, ``eigvalsh`` and
    ``roots`` call numpy's private LAPACK gufuncs; a numpy release that
    moves or changes them fails here."""

    @pytest.mark.parametrize("n", range(1, 30))
    def test_equal_to_numpy_linalg(self, n):
        rng = np.random.default_rng(n)
        A, b = rng.standard_normal((n, n)), rng.standard_normal(n)
        assert np.array_equal(solve_vector(A, b), np.linalg.solve(A, b))
        assert np.array_equal(inverse(A), np.linalg.inv(A))

    def test_sliced_inputs(self):
        rng = np.random.default_rng(7)
        big, vec = rng.standard_normal((20, 30)), rng.standard_normal(40)
        A, b = big[1::2, ::3], vec[::4]   # 10 x 10 and 10, neither contiguous
        assert not (A.flags.c_contiguous or A.flags.f_contiguous or b.flags.c_contiguous)
        for matrix in (A, A.T, readonly(np.asfortranarray(A))):
            assert np.array_equal(solve_vector(matrix, b), np.linalg.solve(matrix, b))
            assert np.array_equal(inverse(matrix), np.linalg.inv(matrix))

    @pytest.mark.parametrize("A", [np.zeros((3, 3)), np.ones((4, 4)),
                                   np.array([[1.0, 2.0], [2.0, 4.0]])])
    def test_singular_raises_without_warning(self, A):
        with warnings.catch_warnings(), np.errstate(**PATH_ERRSTATE):
            warnings.simplefilter("error")
            with pytest.raises(np.linalg.LinAlgError):
                solve_vector(A, np.ones(A.shape[0]))
            with pytest.raises(np.linalg.LinAlgError):
                inverse(A)
            with pytest.raises(np.linalg.LinAlgError):
                solve_complex(A.astype(complex), np.ones((A.shape[0], 2), dtype=complex))

    @pytest.mark.parametrize("n", range(1, 30))
    def test_complex_solve_equal_to_numpy_linalg(self, n):
        # the node system: a complex Vandermonde matrix and a scaled copy of it
        rng = np.random.default_rng(100 + n)
        zeta = 0.9 * rng.uniform(0.0, 1.0, n) * np.exp(1j * rng.uniform(-np.pi, np.pi, n))
        V = np.vander(zeta, increasing=True)
        B = (rng.standard_normal(n) + 1j * rng.standard_normal(n))[:, None] * V
        assert same_array(solve_complex(V, B), np.linalg.solve(V, B))
        C = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        assert same_array(solve_complex(C, B), np.linalg.solve(C, B))

    @pytest.mark.parametrize("n", range(1, 30))
    def test_eigvalsh_equal_to_numpy_linalg(self, n):
        rng = np.random.default_rng(200 + n)
        A = rng.standard_normal((n, n))
        B = A + 1j * rng.standard_normal((n, n))
        for M in (A + A.T, B + B.conj().T, A):   # A: only its lower triangle is read
            assert same_array(eigvalsh(M), np.linalg.eigvalsh(M))

    def test_eigvalsh_nan_raises(self):
        M = np.array([[1.0, 0.0], [np.nan, 1.0]], dtype=complex)
        with warnings.catch_warnings(), np.errstate(**PATH_ERRSTATE):
            warnings.simplefilter("error")
            with pytest.raises(np.linalg.LinAlgError):
                eigvalsh(M)

    @pytest.mark.parametrize("degree", range(30))
    def test_roots_equal_to_numpy(self, degree):
        rng = np.random.default_rng(300 + degree)
        c = rng.standard_normal(degree + 1)
        real = np.atleast_1d(np.poly(rng.uniform(-0.9, 0.9, degree)))   # all roots real
        padded = np.concatenate((np.zeros(2), c, np.zeros(3)))
        for coeffs in (c, real, padded, padded[2:], padded[:-3], np.zeros(degree + 1)):
            assert same_array(roots(coeffs), np.roots(coeffs))
        if 0 < degree < 8:
            # real roots come back real (higher degrees split some into pairs)
            assert roots(real).dtype == float

    def test_roots_of_a_monic_polynomial(self):
        sigma = MonicPolynomial.from_roots([0.5, 0.2 + 0.3j, 0.2 - 0.3j])
        assert same_array(roots(sigma), np.roots(sigma.coeffs))

    @pytest.mark.parametrize("coeffs", [[1.0, np.nan, 2.0], [np.nan, 1.0], [1.0, np.inf],
                                        [1e-320, 1e300, 1.0]], ids=["nan", "nan-lead", "inf",
                                                                    "overflow"])
    def test_roots_non_finite_raises_like_numpy(self, coeffs):
        with np.errstate(**PATH_ERRSTATE), pytest.raises(np.linalg.LinAlgError):
            np.roots(coeffs)
        with warnings.catch_warnings(), np.errstate(**PATH_ERRSTATE):
            warnings.simplefilter("error")
            with pytest.raises(np.linalg.LinAlgError):
                roots(coeffs)


def is_float_literal(node) -> bool:
    """A float literal, signed or not, or a tuple or list holding one."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        node = node.operand
    if isinstance(node, (ast.Tuple, ast.List)):
        return any(map(is_float_literal, node.elts))
    return isinstance(node, ast.Constant) and isinstance(node.value, float)


def float_constants(path):
    """``(name, line)`` of each module-level or class-body assignment of a
    float literal, of each float literal default of a function parameter,
    and of each float literal ``x`` with ``0 < |x| < 1e-3`` anywhere (a
    tolerance written inline), in the Python file ``path``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bodies = [tree.body] + [node.body for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    found = []
    for body in bodies:
        for stmt in body:
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)) and is_float_literal(stmt.value):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                found.append((", ".join(ast.unparse(t) for t in targets), stmt.lineno))
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if any(map(is_float_literal, node.args.defaults + node.args.kw_defaults)):
                found.append((node.name, node.lineno))
        elif isinstance(node, ast.Constant) and isinstance(node.value, float):
            if 0 < abs(node.value) < 1e-3:
                found.append((repr(node.value), node.lineno))
    return found


def test_polyalg_holds_the_only_table_of_constants():
    package = Path(nevpick.__file__).parent
    assert float_constants(package / "polyalg.py")
    stray = [f"{path.name}:{line} {name}" for path in sorted(package.glob("*.py"))
             if path.name != "polyalg.py" for name, line in float_constants(path)]
    assert stray == []


def table_names(path):
    """Names of the module-level upper-case assignments in the Python file ``path``."""
    names = []
    for stmt in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names += [t.id for t in targets if isinstance(t, ast.Name) and t.id.isupper()]
    return names


def unread_table_names(package):
    """Names of the table in ``package/polyalg.py`` that no module of ``package``
    reads, as a name or as an attribute; an import or the assignment that
    defines a name is not a read."""
    read = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return [name for name in table_names(package / "polyalg.py") if name not in read]


def test_table_scan_finds_an_unread_name(tmp_path):
    (tmp_path / "polyalg.py").write_text("TOL_A = 1e-9\nTOL_B = 1e-9\nPAIR = (TOL_A, 2)\n")
    (tmp_path / "user.py").write_text("from .polyalg import PAIR, TOL_B\nx = polyalg.PAIR\n")
    assert unread_table_names(tmp_path) == ["TOL_B"]


def test_every_name_of_the_table_is_read():
    package = Path(nevpick.__file__).parent
    assert len(table_names(package / "polyalg.py")) > 20
    assert unread_table_names(package) == []


# numpy functions that wrap one compiled call in Python-level argument
# handling; each is replaced by the call it makes (see tests/test_numpy_forms.py)
NUMPY_WRAPPERS = {"np.triu", "np.tri", "np.broadcast_to", "np.outer", "np.append",
                  "np.flatnonzero", "np.angle", "np.linalg.norm",
                  "np.max", "np.min", "np.all", "np.any"}


def numpy_wrapper_uses(path):
    """``(name, line)`` of each use of a name of ``NUMPY_WRAPPERS`` in the Python file ``path``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [(ast.unparse(node), node.lineno) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and ast.unparse(node) in NUMPY_WRAPPERS]


def test_numpy_wrapper_scan_finds_each_name(tmp_path):
    path = tmp_path / "uses.py"
    path.write_text("".join(f"y = {name}(x)\n" for name in sorted(NUMPY_WRAPPERS))
                    + "z = x.max() + np.abs(x).all() + np.linalg.solve(x, y)\n")
    assert sorted(name for name, _ in numpy_wrapper_uses(path)) == sorted(NUMPY_WRAPPERS)


def test_no_module_calls_a_numpy_wrapper():
    package = Path(nevpick.__file__).parent
    found = [f"{path.name}:{line} {name}" for path in sorted(package.glob("*.py"))
             for name, line in numpy_wrapper_uses(path)]
    assert found == []


def scipy_imports(path):
    """Lines of the Python file ``path`` that import scipy or one of its modules."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            and any(alias.name.split(".")[0] == "scipy" for alias in node.names)
            or isinstance(node, ast.ImportFrom) and node.level == 0
            and node.module.split(".")[0] == "scipy"]


def test_scipy_import_scan_finds_each_form(tmp_path):
    path = tmp_path / "uses.py"
    path.write_text("import scipy\nimport numpy, scipy.signal as s\nfrom scipy import linalg\n"
                    "def f():\n    from scipy.signal._sosfilt import _sosfilt\n"
                    "import numpy\nimport scipyx\nfrom .scipy import x\nfrom . import scipy\n")
    assert scipy_imports(path) == [1, 2, 3, 5]


def test_no_module_imports_scipy():
    # numpy and click are the runtime dependencies; scipy is a test oracle
    package = Path(nevpick.__file__).parent
    found = [f"{path.name}:{line}" for path in sorted(package.glob("*.py"))
             for line in scipy_imports(path)]
    assert found == []


def test_no_record_is_built_past_its_constructor():
    # object.__new__ makes an instance that skips __init__ and its checks
    package = Path(nevpick.__file__).parent
    found = [f"{path.name}:{node.lineno}" for path in sorted(package.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Attribute) and node.attr == "__new__"
             and isinstance(node.value, ast.Name) and node.value.id == "object"]
    assert found == []
