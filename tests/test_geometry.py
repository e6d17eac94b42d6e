
import itertools

import numpy as np
import pytest

from ppmlearn import geometry
from ppmlearn.geometry import (
    AffineSubspace,
    DimensionMismatch,
    Halfspace,
    affine_span,
    canonicalize,
    dedup_rows,
    helly_witness,
    hull_facet_halfspaces,
    point_tolerance,
    region_feasible,
    supporting_hyperplanes,
)

from oracles import (
    _complement_basis,
    _orthonormalize,
    convex_hull_2d,
    dedup_oracle,
    feasible_2d,
    hull_facets_oracle,
    matrix_rank_elimination,
    point_in_hull_2d,
    supporting_pair_oracle,
)

RT2 = np.sqrt(2.0)


# --- canonical form -------------------------------------------------------


def test_canonicalize_idempotent_bit_exact():
    rng = np.random.default_rng(1)
    for _ in range(200):
        d = int(rng.integers(1, 5))
        w = rng.standard_normal(d) * 10.0 ** rng.integers(-3, 4)
        w0 = float(rng.standard_normal())
        w1, b1 = canonicalize(w, w0)
        w2, b2 = canonicalize(w1, b1)
        assert np.array_equal(w1, w2)
        assert b1 == b2


def test_halfspace_constructor_normalizes():
    h = Halfspace([3.0, 4.0], 10.0)
    assert np.allclose(h.normal, [0.6, 0.8], atol=1e-15)
    assert h.offset == pytest.approx(2.0, abs=1e-15)
    with pytest.raises(ValueError):
        Halfspace([0.0, 0.0], 1.0)
    with pytest.raises(ValueError):
        Halfspace([np.nan, 1.0], 0.0)


def test_opposite_involution_bit_exact():
    rng = np.random.default_rng(2)
    for _ in range(100):
        h = Halfspace(rng.standard_normal(3), float(rng.standard_normal()))
        back = h.opposite().opposite()
        assert np.array_equal(back.normal, h.normal)
        assert back.offset == h.offset


def on_boundary(h, x):
    """x lies on h's bounding hyperplane, within its membership tolerance."""
    return abs(h.signed_value(x)) <= point_tolerance(x)


# --- supporting pairs ------------------------------------------------------


def supporting_pair(points):
    """The halfspace of ``supporting_hyperplanes``' row for all the points,
    and its opposite."""
    P = np.asarray(points, dtype=float)
    W, w0 = supporting_hyperplanes(P, [range(len(P))])
    h = Halfspace(W[0], w0[0])
    return h, h.opposite()


def test_supporting_pair_two_points_d2():
    h, hop = supporting_pair([(1.0, 0.0), (0.0, 1.0)])
    assert np.allclose(h.normal, [1 / RT2, 1 / RT2], atol=1e-12)
    assert h.offset == pytest.approx(1 / RT2, abs=1e-12)
    assert np.allclose(hop.normal, -h.normal, atol=0)
    assert hop.offset == pytest.approx(-h.offset, abs=0)


def test_supporting_pair_single_point():
    h, hop = supporting_pair([(3.0, 0.0)])
    assert on_boundary(h, [3.0, 0.0])
    assert on_boundary(hop, [3.0, 0.0])
    assert h.contains([3.0, 0.0]) and hop.contains([3.0, 0.0])


def test_supporting_pair_underdetermined_d3_residuals():
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    h, hop = supporting_pair(pts)
    for p in pts:
        # independent residual check
        assert abs(float(h.normal @ p) - h.offset) <= 1e-9 * (1 + np.linalg.norm(p))
        assert abs(float(hop.normal @ p) - hop.offset) <= 1e-9 * (1 + np.linalg.norm(p))


def test_supporting_pair_boundary_property_random():
    rng = np.random.default_rng(3)
    for _ in range(100):
        d = int(rng.integers(1, 5))
        m = int(rng.integers(1, d + 1))
        pts = rng.standard_normal((m, d)) * 3
        h, hop = supporting_pair(pts)
        for p in pts:
            assert on_boundary(h, p)
            assert on_boundary(hop, p)


def test_supporting_pair_deterministic():
    pts = [(0.5, -1.0, 2.0), (1.0, 1.0, 1.0)]
    a1 = supporting_pair(pts)
    a2 = supporting_pair(pts)
    assert np.array_equal(a1[0].normal, a2[0].normal)
    assert a1[0].offset == a2[0].offset


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_supporting_hyperplanes_match_the_per_subset_oracle(dim):
    # the ERM oracle takes its rows from this kernel, so every subset of
    # size <= d is checked bit for bit against one Gram-Schmidt per subset,
    # on random, integer-grid, near-collinear, near-coincident and far-off
    # samples
    rng = np.random.default_rng(60 + dim)
    n = 12 if dim < 3 else 9
    for trial in range(20):
        X = rng.standard_normal((n, dim)) * 10.0 ** rng.uniform(-2, 2)
        if trial % 5 == 1:
            X = rng.integers(-3, 4, (n, dim)) * (0.25, 1.0, 1000.0)[trial % 3]
        if trial % 5 == 2:  # points 1e-11 to 1e-7 off lines through two others
            for k in range(2, n):
                i, j = rng.choice(k, 2, replace=False)
                X[k] = (X[i] + rng.uniform(-1.0, 2.0) * (X[j] - X[i])
                        + 10.0 ** rng.uniform(-11, -7) * rng.standard_normal(dim))
        if trial % 5 == 3:  # points 1e-13 to 1e-8 from others
            half = n // 2
            gap = 10.0 ** rng.uniform(-13, -8, (half, 1))
            X[:half] = X[n - half:] + gap * rng.standard_normal((half, dim))
        if trial % 5 == 4:  # a cloud so far off that centring rounds above RANK_TOL
            X = rng.standard_normal((n, dim)) + 1e7 * rng.standard_normal(dim)
        for size in range(1, dim + 1):
            combos = np.array(list(itertools.combinations(range(n), size)))
            W, w0 = supporting_hyperplanes(X, combos)
            for b, combo in enumerate(combos):
                ref = supporting_pair_oracle(X[combo], dim)[0]
                assert W[b].tobytes() == ref.normal.tobytes()
                assert w0[b].hex() == ref.offset.hex()


# --- affine span -----------------------------------------------------------


def test_affine_span_examples():
    aff = affine_span([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0)], 3)
    assert np.array_equal(aff.base, [0, 0, 0])
    assert aff.k == 1
    assert np.allclose(aff.basis, [[1.0, 0.0, 0.0]], atol=1e-12)

    single = affine_span([(2.0, 5.0)], 2)
    assert single.k == 0
    assert np.array_equal(single.base, [2.0, 5.0])


def test_affine_span_rank_matches_elimination_oracle():
    rng = np.random.default_rng(4)
    for _ in range(50):
        d = int(rng.integers(2, 5))
        pts = rng.standard_normal((d, d))
        interior = pts.mean(axis=0)  # affine combination keeps the rank
        allpts = np.vstack([pts, interior])
        aff = affine_span(allpts, d)
        oracle = matrix_rank_elimination(allpts[1:] - allpts[0])
        assert aff.k == oracle
        for p in allpts:
            assert aff.contains(p)


def _point_sets(rng, d):
    """Point sets in R^d that stress the Gram-Schmidt: Gaussian at scales
    1e-3..1e3, an integer grid, low rank, far from the origin and nearly
    coincident."""
    n = int(rng.integers(1, 9))
    r = int(rng.integers(0, d))
    return [rng.standard_normal((n, d)) * 10.0 ** int(rng.integers(-3, 4)),
            rng.integers(-2, 3, (n, d)).astype(float),
            rng.standard_normal(d) + rng.integers(-3, 4, (n, r)) @ rng.standard_normal((r, d)),
            1e6 + rng.standard_normal((n, d)),
            rng.standard_normal(d) + rng.standard_normal((n, d)) * 1e-11]


def test_affine_span_matches_per_vector_gram_schmidt():
    rng = np.random.default_rng(42)
    for _ in range(40):
        d = int(rng.integers(1, 5))
        for pts in _point_sets(rng, d):
            aff = affine_span(pts, d)
            ref = _orthonormalize(pts[1:] - pts[0], d)
            assert aff.base.tobytes() == pts[0].tobytes()
            assert aff.basis.shape == ref.shape
            assert aff.basis.tobytes() == ref.tobytes()
    # many points of a line or a plane: most differences add no row
    for d, r in [(2, 1), (3, 1), (3, 2)]:
        pts = rng.standard_normal(d) + rng.standard_normal((300, r)) @ rng.standard_normal((r, d))
        ref = _orthonormalize(pts[1:] - pts[0], d)
        assert affine_span(pts, d).basis.tobytes() == ref.tobytes()


def test_gram_schmidt_matches_per_subset_oracle():
    # subsets read one vector a round, a few, or all of theirs at once
    rng = np.random.default_rng(46)
    for B, T, d in [(1, 9, 3), (2, 7, 3), (3, 8, 2), (4, 9, 4), (7, 3, 4)]:
        V = np.stack([rng.standard_normal((T, r)) @ rng.standard_normal((r, d))
                      * 10.0 ** int(rng.integers(-3, 4)) for r in rng.integers(0, d + 1, B)])
        scale = 1.0 + np.max(np.abs(V), axis=(1, 2))
        span, rank = geometry._gram_schmidt(V, geometry.RANK_TOL * scale, d)
        for b in range(B):
            ref = _orthonormalize(V[b], d)
            assert span[b, :rank[b]].shape == ref.shape
            assert span[b, :rank[b]].tobytes() == ref.tobytes()


def test_lp_complement_matches_per_vector_gram_schmidt():
    rng = np.random.default_rng(43)
    for k in range(2, 6):
        normals = [rng.standard_normal(k) * 10.0 ** int(rng.integers(-3, 4)) for _ in range(40)]
        normals += list(np.eye(k) * 3.0) + [np.eye(k)[0] + 1e-13 * rng.standard_normal(k)]
        for a in normals:
            Q = geometry._complement(a)
            ref = _complement_basis((a / np.linalg.norm(a))[None], k)
            assert Q.shape == (k - 1, k)
            assert Q.tobytes() == ref.tobytes()


# six points of R^2; read as four points of R^3 they span a tetrahedron
SIX = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 1.0], [1.0, 3.0], [2.0, 2.0], [3.0, 1.0]])


@pytest.mark.parametrize("call", [
    lambda: AffineSubspace(np.zeros(2), [[1.0, 0.0, 0.0, 1.0]]),
    lambda: hull_facet_halfspaces(SIX, AffineSubspace.full_space(3)),
    lambda: affine_span(SIX[:4], 3),
], ids=["affine_subspace_basis", "hull_facets", "affine_span"])
def test_misshaped_points_are_refused(call):
    with pytest.raises(DimensionMismatch):
        call()


def test_single_point_vector_and_empty_basis_are_accepted():
    assert affine_span([2.0, 5.0], 2).k == 0
    assert AffineSubspace(np.zeros(2), []).k == 0
    assert AffineSubspace(np.zeros(2), np.zeros((0, 2))).k == 0


# --- membership ------------------------------------------------------------


def test_contains_examples():
    h = Halfspace([1.0, 1.0], 1.0)
    assert h.contains([1.0, 1.0])
    hop = h.opposite()
    boundary = [0.5, 0.5]
    assert h.contains(boundary) and hop.contains(boundary)
    assert on_boundary(h, boundary) and on_boundary(hop, boundary)

    aff = AffineSubspace(np.zeros(3), np.array([[1.0, 0.0, 0.0]]))
    assert aff.contains([5.0, 0.0, 1e-12])
    assert not aff.contains([5.0, 0.1, 0.0])


def test_dimension_mismatch():
    h = Halfspace([1.0, 0.0], 0.0)
    with pytest.raises(DimensionMismatch):
        h.contains([1.0, 2.0, 3.0])
    aff = AffineSubspace.full_space(2)
    with pytest.raises(DimensionMismatch):
        aff.distance([1.0])


# --- hull facets ------------------------------------------------------------


def test_hull_facets_triangle():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    facets = hull_facet_halfspaces(pts, affine_span(pts, 2))
    assert len(facets) == 3
    for h in facets:
        assert all(h.contains(p) for p in pts)
        assert any(on_boundary(h, p) for p in pts)


def test_hull_facets_collinear_segment():
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [0.5, 0.5]])
    aff = affine_span(pts, 2)
    assert aff.k == 1
    facets = hull_facet_halfspaces(pts, aff)
    assert len(facets) == 2
    for h in facets:
        assert all(h.contains(p) for p in pts)
    # the two cuts pin exactly the extreme points
    boundary_pts = {tuple(p) for p in pts for h in facets if on_boundary(h, p)}
    assert boundary_pts == {(0.0, 0.0), (2.0, 2.0)}


def test_hull_facets_single_point():
    pts = np.array([[2.0, -1.0]])
    facets = hull_facet_halfspaces(pts, affine_span(pts, 2))
    assert len(facets) == 2
    for h in facets:
        assert on_boundary(h, pts[0])


def test_hull_facets_random_vs_orientation_oracle():
    rng = np.random.default_rng(5)
    for trial in range(25):
        pts = rng.standard_normal((8, 2)) * 2
        aff = affine_span(pts, 2)
        facets = hull_facet_halfspaces(pts, aff)
        hull_idx = convex_hull_2d(pts)
        assert len(facets) == len(hull_idx)
        for h in facets:
            assert np.all(h.contains_many(pts))
            assert any(on_boundary(h, p) for p in pts)
        # membership through the facets agrees with the oracle polygon
        hull_pts = [pts[i] for i in hull_idx]
        probes = rng.uniform(-3, 3, size=(40, 2))
        for q in probes:
            in_facets = all(h.signed_value(q) >= -1e-7 for h in facets)
            assert in_facets == point_in_hull_2d(q, hull_pts, tol=1e-7)


def test_hull_facets_requires_spanning_points():
    pts = np.array([[0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(ValueError, match="span"):
        hull_facet_halfspaces(pts, AffineSubspace.full_space(2))


def _facet_rows(halfspaces):
    return [(h.normal.tobytes(), h.offset, h.source) for h in halfspaces]


def test_hull_facets_match_per_subset_oracle():
    rng = np.random.default_rng(44)
    # a repeated vertex: that pair spans no hyperplane, yet its complement
    # would hold all points on one side
    cases = [np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
             np.vstack([np.zeros((2, 3)), np.eye(3)])]
    for d in (2, 3, 4):
        for _ in range(12):
            n = int(rng.integers(d + 1, 9))
            cases.append(rng.standard_normal((n, d)) * 10.0 ** int(rng.integers(-3, 4)))
        cases.append(rng.integers(-2, 3, (12, d)).astype(float))  # integer grid
        cases.append(1e6 + rng.standard_normal((7, d)))           # far from the origin
    for k in (1, 2):  # charts of k = 1 and k = 2 inside R^3
        for scale in (1.0, 1e3):
            for _ in range(5):
                basis = np.linalg.qr(rng.standard_normal((3, 3)))[0][:k]
                cases.append(rng.standard_normal(3) * scale
                             + rng.standard_normal((int(rng.integers(k + 1, 8)), k)) @ basis)
    cases += [rng.standard_normal((40, 2)), rng.standard_normal((16, 3))]
    for pts in cases:
        aff = affine_span(pts, pts.shape[1])
        got = hull_facet_halfspaces(pts, aff)
        assert len(got) >= 2
        assert _facet_rows(got) == _facet_rows(hull_facets_oracle(pts, aff))


@pytest.mark.parametrize("entries", [1, 50])
def test_hull_facets_agree_across_blocks(monkeypatch, entries):
    # one subset a block, and blocks that split the subsets unevenly
    monkeypatch.setattr(geometry, "_CHUNK_ENTRIES", entries)
    rng = np.random.default_rng(45)
    cases = [rng.standard_normal((9, 2)), rng.integers(-2, 3, (10, 2)).astype(float),
             rng.standard_normal((8, 3)), 1e6 + rng.standard_normal((7, 3))]
    basis = np.linalg.qr(rng.standard_normal((3, 3)))[0][:2]
    cases.append(rng.standard_normal(3) + rng.standard_normal((8, 2)) @ basis)
    for pts in cases:
        aff = affine_span(pts, pts.shape[1])
        got = hull_facet_halfspaces(pts, aff)
        assert _facet_rows(got) == _facet_rows(hull_facets_oracle(pts, aff))


# --- dedup -------------------------------------------------------------------


def _dedup(halfspaces):
    """The halfspaces ``dedup_rows`` keeps of their canonical rows."""
    return [halfspaces[i] for i in dedup_rows(np.array([h.canonical_row() for h in halfspaces]))]


def test_dedup_keeps_first_and_drops_near_equal():
    h1 = Halfspace([1.0, 0.0], 0.5, source=(0,))
    h2 = Halfspace([1.0, 1e-13], 0.5 + 1e-13, source=(1,))  # within 1e-9
    h3 = Halfspace([0.0, 1.0], 0.5)
    out = _dedup([h1, h2, h3])
    assert len(out) == 2
    assert out[0] is h1 and out[1] is h3
    assert _dedup(out) == out


def test_dedup_rows_chain_keeps_first_occurrences():
    # a ~ b, b ~ c, a !~ c: b goes with a, and c is compared to kept rows only
    R = np.array([[1.0, 0.0], [1.0, 0.8e-9], [1.0, 1.6e-9], [1.0, 0.5e-9]])
    assert dedup_rows(R).tolist() == [0, 2]
    assert dedup_rows(R[::-1]).tolist() == [0, 1]
    assert dedup_rows(np.zeros((0, 3))).tolist() == []


def test_dedup_rows_matches_grid_buckets():
    rng = np.random.default_rng(31)
    for trial in range(20):
        base = rng.standard_normal((6, 3))
        pick = rng.integers(0, 6, 60)
        R = base[pick] + rng.integers(-2, 3, (60, 3)) * 0.6e-9
        hs = [Halfspace(r[:2], r[2]) for r in R]
        ref = dedup_oracle(hs)
        got = _dedup(hs)
        assert [id(h) for h in got] == [id(h) for h in ref]


# --- region feasibility -------------------------------------------------------


def test_region_feasible_1d_examples():
    full = AffineSubspace.full_space(1)
    box = [Halfspace([1.0], 0.0), Halfspace([-1.0], -1.0)]
    feas, wit = region_feasible(box, full)
    assert feas and 0.0 - 1e-9 <= wit[0] <= 1.0 + 1e-9

    feas, wit = region_feasible([Halfspace([1.0], 1.0), Halfspace([-1.0], 0.0)], full)
    assert not feas and wit is None

    feas, wit = region_feasible([], full)
    assert feas and np.array_equal(wit, full.base)


def test_region_feasible_witness_satisfies_constraints():
    rng = np.random.default_rng(6)
    full = AffineSubspace.full_space(2)
    for _ in range(300):
        m = int(rng.integers(1, 9))
        hs = []
        for _ in range(m):
            w = rng.standard_normal(2)
            point = rng.uniform(-1, 1, 2)
            hs.append(Halfspace(w, float(w @ point) / np.linalg.norm(w)))
        feas, wit = region_feasible(hs, full)
        oracle = feasible_2d([(h.normal, h.offset) for h in hs])
        assert feas == oracle
        if feas:
            assert all(h.signed_value(wit) >= -1e-6 for h in hs)


def test_region_feasible_in_lower_chart():
    # constraints restricted to the x-axis of R^2
    aff = AffineSubspace(np.zeros(2), np.array([[1.0, 0.0]]))
    hs = [Halfspace([1.0, 0.0], 2.0), Halfspace([-1.0, -1.0], -10.0)]
    feas, wit = region_feasible(hs, aff)
    assert feas
    assert abs(wit[1]) <= 1e-9 and wit[0] >= 2.0 - 1e-9
    # halfspace parallel to the chart and excluding it
    feas, _ = region_feasible([Halfspace([0.0, 1.0], 1.0)], aff)
    assert not feas


def test_region_feasible_dim3():
    full = AffineSubspace.full_space(3)
    rng = np.random.default_rng(7)
    for _ in range(60):
        m = int(rng.integers(1, 8))
        hs = []
        for _ in range(m):
            w = rng.standard_normal(3)
            point = rng.uniform(-1, 1, 3)
            hs.append(Halfspace(w, float(w @ point) / np.linalg.norm(w)))
        feas, wit = region_feasible(hs, full)
        if feas:
            assert all(h.signed_value(wit) >= -1e-6 for h in hs)
        else:
            # spot-check emptiness on a coarse grid
            grid = rng.uniform(-4, 4, size=(500, 3))
            vals = np.stack([g.contains_many(grid) for g in hs])
            assert not np.any(vals.all(axis=0))


# --- Helly witness -------------------------------------------------------------


def test_helly_witness_1d():
    full = AffineSubspace.full_space(1)
    family = [Halfspace([-1.0], 0.0)]  # x <= 0
    target = Halfspace([1.0], 1.0)     # x >= 1
    wit = helly_witness(family, full, target, 1)
    assert wit.indices == (0,)
    assert not wit.includes_aff
    feas, _ = region_feasible(list(wit.members) + [target], full)
    assert not feas


def test_helly_witness_triangle():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    aff = affine_span(pts, 2)
    facets = hull_facet_halfspaces(pts, aff)
    target = Halfspace([1.0, 0.0], 5.0)  # x >= 5, far from the triangle
    wit = helly_witness(facets, aff, target, 2)
    assert len(wit.indices) <= 2
    hs = [m for m in wit.members if isinstance(m, Halfspace)]
    feas, _ = region_feasible(hs + [target], aff if wit.includes_aff
                              else AffineSubspace.full_space(2))
    assert not feas
    assert not feasible_2d([(h.normal, h.offset) for h in hs + [target]])


def test_helly_witness_preconditions():
    full = AffineSubspace.full_space(2)
    family = [Halfspace([1.0, 0.0], 0.0)]
    overlapping = Halfspace([0.0, 1.0], 0.0)
    with pytest.raises(ValueError, match="target intersects region"):
        helly_witness(family, full, overlapping, 2)
    empty_family = [Halfspace([1.0, 0.0], 1.0), Halfspace([-1.0, 0.0], 0.0)]
    with pytest.raises(ValueError, match="region already empty"):
        helly_witness(empty_family, full, overlapping, 2)


def test_helly_witness_d3_instance():
    rng = np.random.default_rng(88)
    pts = rng.standard_normal((10, 3))
    aff = affine_span(pts, 3)
    assert aff.k == 3
    facets = hull_facet_halfspaces(pts, aff)
    w = rng.standard_normal(3)
    w /= np.linalg.norm(w)
    target = Halfspace(w, float(np.max(pts @ w)) + 0.5)
    wit = helly_witness(facets, aff, target, 3)
    assert len(wit.indices) <= 3
    hs = [m for m in wit.members if isinstance(m, Halfspace)]
    sub_aff = aff if wit.includes_aff else AffineSubspace.full_space(3)
    feas, _ = region_feasible(hs + [target], sub_aff)
    assert not feas


def test_helly_witness_random_instances():
    rng = np.random.default_rng(8)
    done = 0
    attempts = 0
    while done < 40 and attempts < 400:
        attempts += 1
        pts = rng.standard_normal((int(rng.integers(3, 9)), 2))
        aff = affine_span(pts, 2)
        if aff.k != 2:
            continue
        facets = hull_facet_halfspaces(pts, aff)
        w = rng.standard_normal(2)
        w /= np.linalg.norm(w)
        offset = float(np.max(pts @ w)) + float(rng.uniform(0.2, 2.0))
        target = Halfspace(w, offset)
        wit = helly_witness(facets, aff, target, 2)
        assert len(wit.indices) <= 2
        hs = [m for m in wit.members if isinstance(m, Halfspace)]
        sub_aff = aff if wit.includes_aff else AffineSubspace.full_space(2)
        feas, _ = region_feasible(hs + [target], sub_aff)
        assert not feas
        done += 1
    assert done == 40
