"""The solver's inline numpy forms against the numpy wrappers they replace.

Each oracle below is the earlier formulation of a function of
``src/nevpick``, written with a numpy convenience wrapper (``np.triu``,
``np.tri``, ``np.broadcast_to``, ``np.outer``, ``np.angle``,
``np.linalg.norm``).  Each wrapper runs Python code around one compiled
call, and the package makes that call itself; the results must agree bit
for bit, on random points, ties, NaN and infinite entries, and 0 to 29
points.
"""

import math

import numpy as np
import pytest

from nevpick import analysis
from nevpick.analysis import _conjugate_groups, log_spectral_deviation, reduce_model
from nevpick.cee_core import cee_residual
from nevpick.polyalg import DEVIATION_FLOOR, TOL_NODE, TOL_ROOT_PAIR, conjugate_pairs
from nevpick.problem import coincident_pairs

SIZES = range(30)
SEEDS = range(4)


def coincident_pairs_oracle(zeta):
    zeta = np.asarray(zeta)
    close = np.abs(zeta[:, None] - zeta[None, :]) <= TOL_NODE
    k, j = np.nonzero(np.triu(close, 1))
    return list(zip(k.tolist(), j.tolist()))


def conjugate_pairs_oracle(points, tol):
    points = np.asarray(points, dtype=complex)
    size = points.size
    if not size:
        return []
    tol = np.broadcast_to(tol, points.shape).tolist()
    dist = np.abs(points - np.conj(points)[:, None])
    dist[np.tri(size, dtype=bool)] = math.inf
    nearest = dist.argmin(axis=1)
    least = dist[np.arange(size), nearest].tolist()
    nearest = nearest.tolist()
    partner = [None] * size
    used = [False] * size
    for k, z in enumerate(points.tolist()):
        if used[k]:
            continue
        if abs(z.imag) <= tol[k]:
            partner[k] = k
            continue
        j, best = nearest[k], least[k]
        if used[j]:
            row = np.where(used, math.inf, dist[k])
            j = int(row.argmin())
            best = row[j]
        if best <= tol[k]:
            used[j] = True
            partner[k], partner[j] = j, k
    return partner


def cee_residual_oracle(P, Gamma, g):
    res = P - Gamma @ (P - P[:, :1] @ P[:1]) @ Gamma.T - np.outer(g, g)
    return float(np.linalg.norm(res, "fro"))


def conjugate_groups_oracle(points):
    points = np.asarray(points, dtype=complex)
    angles = np.abs(np.angle(points))
    groups = []
    for k, j in enumerate(conjugate_pairs(points, TOL_ROOT_PAIR * (1.0 + np.abs(points)))):
        if j is None:
            raise ValueError(f"point {points[k]} has no conjugate partner")
        if j >= k:
            groups.append((abs(points[k]), angles[k], [k] if j == k else [k, j]))
    return groups


def log_spectral_deviation_oracle(lf, lr):
    denom = float(np.linalg.norm(lf))
    return float(np.linalg.norm(lr - lf)) / max(denom, DEVIATION_FLOOR)


def same_float(got, want) -> bool:
    """Equal bit for bit, both Python floats (any two NaNs count as equal)."""
    return (type(got) is float and type(want) is float
            and (got == want and math.copysign(1, got) == math.copysign(1, want)
                 or math.isnan(got) and math.isnan(want)))


def conjugate_closed(rng, size):
    """``size`` points closed under conjugation to within rounding, with
    real points, repeats (ties), near repeats and a shuffled order."""
    points = []
    while len(points) < size:
        kind = rng.integers(5)
        z = complex(*rng.uniform(-1.5, 1.5, 2))
        if kind == 0 or len(points) == size - 1:
            points.append(complex(z.real, rng.choice([0.0, -0.0])))
        elif kind == 1 and points:
            points.append(points[rng.integers(len(points))])   # a tie
        elif kind == 2:
            points += [z, complex(z.real, -z.imag + rng.choice([0.0, 1e-14, 1e-9]))]
        else:
            points += [z, z.conjugate()]
    points = np.array(points[:size])
    rng.shuffle(points)
    return points


def with_bad_entries(rng, points):
    """A copy of ``points`` with up to three entries made NaN or infinite."""
    points = points.copy()
    if points.size:
        bad = [complex(math.nan, 0.0), complex(0.0, math.nan), complex(math.inf, 0.0),
               complex(-math.inf, 1.0), complex(math.inf, math.inf), complex(0.5, -math.inf)]
        for k in rng.integers(points.size, size=rng.integers(1, 4)):
            points[k] = bad[rng.integers(len(bad))]
    return points


def point_sets(seed):
    """``(label, points)`` for every size: clean and with bad entries."""
    for size in SIZES:
        rng = np.random.default_rng(1000 * size + seed)
        points = conjugate_closed(rng, size)
        yield f"size {size}", points
        yield f"size {size}, bad entries", with_bad_entries(rng, points)


@pytest.mark.parametrize("seed", SEEDS)
def test_coincident_pairs_match_the_triu_form(seed):
    with np.errstate(all="ignore"):
        for label, points in point_sets(seed):
            # repeats within and beyond the tolerance, and all points equal
            near = np.concatenate((points, points + 0.9 * TOL_NODE, points + 1.1 * TOL_NODE))
            for zeta in (points, near, np.zeros(points.size)):
                assert coincident_pairs(zeta) == coincident_pairs_oracle(zeta), label


@pytest.mark.parametrize("seed", SEEDS)
def test_conjugate_pairs_match_the_broadcast_form(seed):
    rng = np.random.default_rng(seed)
    with np.errstate(all="ignore"):
        for label, points in point_sets(seed):
            per_point = TOL_ROOT_PAIR * (1.0 + np.abs(points))
            random_tol = rng.choice([0.0, 1e-12, 1e-8, 1.0, math.inf, math.nan], points.size)
            for tol in (TOL_NODE, 0.0, 1, math.inf, math.nan, per_point, random_tol,
                        random_tol.tolist()):
                assert conjugate_pairs(points, tol) == conjugate_pairs_oracle(points, tol), label


@pytest.mark.parametrize("seed", SEEDS)
def test_conjugate_groups_angles_match_np_angle(seed):
    def outcome(groups_of, points):
        try:
            return [tuple(map(repr, group)) for group in groups_of(points)]
        except ValueError as exc:
            return str(exc)

    with np.errstate(all="ignore"):
        for label, points in point_sets(seed):
            assert (outcome(_conjugate_groups, points)
                    == outcome(conjugate_groups_oracle, points)), label


@pytest.mark.parametrize("seed", SEEDS)
def test_cee_residual_matches_the_frobenius_norm(seed):
    rng = np.random.default_rng(seed)
    for n in SIZES:
        P, Gamma = rng.normal(size=(2, n, n))
        g = rng.normal(size=n)
        cases = [(P, Gamma, g), (P.T, Gamma.T, g), (P * 1e200, Gamma, g),
                 (np.zeros((n, n)), Gamma, np.zeros(n))]
        for bad in (math.nan, math.inf, -math.inf) if n else ():
            Q = P.copy()
            Q[rng.integers(n), rng.integers(n)] = bad
            cases += [(Q, Gamma, g), (P, Gamma, np.where(np.arange(n) == rng.integers(n), bad, g))]
        with np.errstate(all="ignore"):
            for args in cases:
                assert same_float(cee_residual(*args), cee_residual_oracle(*args)), n


@pytest.mark.parametrize("seed", SEEDS)
def test_log_spectral_deviation_matches_the_l2_norm(monkeypatch, seed):
    # each "solution" is its own density, so the deviation sees any array
    monkeypatch.setattr(analysis, "spectral_density", lambda density: density)
    rng = np.random.default_rng(seed)
    for n in [*SIZES, 256]:
        full, reduced = rng.lognormal(size=(2, n))
        cases = [(full, reduced), (full, full), (np.ones(n), reduced), (full, full * (1 + 1e-15))]
        for bad in (0.0, math.nan, math.inf) if n else ():
            spoiled = reduced.copy()
            spoiled[rng.integers(n)] = bad
            cases += [(full, spoiled), (spoiled, full)]
        with np.errstate(all="ignore"):
            for full_d, reduced_d in cases:
                want = log_spectral_deviation_oracle(np.log(full_d), np.log(reduced_d))
                assert same_float(log_spectral_deviation(full_d, reduced_d), want), n


@pytest.mark.parametrize("m", [2, 5, 7])
def test_log_spectral_deviation_of_solutions_matches(reference_solution, m):
    # through spectral_density itself, on the reference and its reductions
    _, reduced = reduce_model(reference_solution, m)
    for full, reduced in ((reference_solution, reduced), (reduced, reference_solution)):
        want = log_spectral_deviation_oracle(np.log(analysis.spectral_density(full)),
                                             np.log(analysis.spectral_density(reduced)))
        assert same_float(log_spectral_deviation(full, reduced), want)
