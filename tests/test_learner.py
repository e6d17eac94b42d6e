import itertools
import math
import sys
import threading
import tracemalloc
from concurrent import futures

import numpy as np
import pytest

from ppmlearn.geometry import AffineSubspace, DimensionMismatch, Halfspace
import ppmlearn.erm as erm
import ppmlearn.learner as learner
import ppmlearn.mechanism as mechanism
import ppmlearn.privacy as privacy
from ppmlearn.erm import erm_halfspace
from ppmlearn.learner import (
    DEFAULT_HYPOTHESIS_BUDGET,
    EMPTY_REGION,
    BudgetExceededError,
    HalfspaceFamily,
    IntersectionHypothesis,
    all_mistake_counts,
    best_in_class,
    class_cardinality,
    construct_halfspace_family,
    default_pool_cap,
    hypothesis_error,
    learn_half,
    predict_many,
    unrank_hypothesis,
)
from ppmlearn.mechanism import mechanism_distribution
from ppmlearn.model import EmptySampleError, LabeledSample, PPMDataset, empirical_error, partition
from ppmlearn.data import GeneratorSpec, generate

from oracles import (
    class_oracle,
    erm_1d_mistakes,
    erm_brute_force,
    family_oracle,
    predict_oracle,
    unrank_walk,
)


def labeled(X, y):
    X = np.asarray(X, dtype=float)
    return LabeledSample(X, np.asarray(y), np.arange(X.shape[0]))


def label_determined_dataset(dim, n, seed, eta=0.0):
    rng = np.random.default_rng(seed)
    target = Halfspace(rng.standard_normal(dim), float(rng.standard_normal() * 0.3))
    spec = GeneratorSpec(dim=dim, target=target, label_noise=eta, seed=seed)
    return generate(spec, n)


# --- family construction ------------------------------------------------------


def test_family_empty_public_pool():
    s_pub = labeled(np.zeros((0, 2)), [])
    fam = construct_halfspace_family(s_pub, 2)
    assert fam.size == 0
    assert fam.aff.k == 2
    assert class_cardinality(fam.size, 2) == 1
    assert list(class_oracle(fam, 2)) == [EMPTY_REGION]


def test_family_d1_two_points():
    fam = construct_halfspace_family(labeled([[0.0], [2.0]], [0, 0]), 1)
    got = {(float(w[0]), float(b)) for w, b in zip(fam.W, fam.w0)}
    assert got == {(1.0, 0.0), (-1.0, 0.0), (1.0, 2.0), (-1.0, -2.0)}
    assert fam.size == 4  # 2|W| with no duplicates


def test_family_d2_dedup_matches_independent_scan():
    rng = np.random.default_rng(10)
    X = rng.standard_normal((4, 2))
    fam = construct_halfspace_family(labeled(X, [0] * 4), 2)
    # raw enumeration: 2 * (C(4,1) + C(4,2)) = 20 halfspaces before dedup
    raw = []
    from ppmlearn.geometry import supporting_hyperplanes
    for size in (1, 2):
        for combo in itertools.combinations(range(4), size):
            W, w0 = supporting_hyperplanes(X, [combo])
            h = Halfspace(W[0], w0[0])
            raw.extend([h, h.opposite()])
    assert len(raw) == 20
    # independent pairwise canonical-equality recount
    unique = []
    for h in raw:
        if not any(np.max(np.abs(h.canonical_row() - u.canonical_row())) <= 1e-9
                   for u in unique):
            unique.append(h)
    assert fam.size == len(unique)


def test_family_pool_cap_uses_first_points():
    X = np.arange(6, dtype=float).reshape(-1, 1)
    fam = construct_halfspace_family(labeled(X, [0] * 6), 1, pool_cap=2)
    assert fam.pool_indices == (0, 1)
    assert fam.size == 4


def test_family_sources_cite_dataset_indices():
    ds = label_determined_dataset(2, 12, seed=3)
    s_pub, _, _ = partition(ds)
    fam = construct_halfspace_family(s_pub, 2)
    for src in fam.sources:
        src = src[src >= 0]
        assert 1 <= src.size <= 2
        for i in src:
            assert not ds.p[i]  # sources are public entries


def test_public_only_construction_invariance():
    rng = np.random.default_rng(11)
    n, dim = 14, 2
    X = rng.standard_normal((n, dim))
    y = rng.integers(0, 2, n)
    p = y.copy()
    ds_a = PPMDataset(dim=dim, X=X, y=y, p=p)
    X2 = X.copy()
    y2 = y.copy()
    X2[p == 1] = rng.standard_normal((int(p.sum()), dim))
    y2[p == 1] = rng.integers(0, 2, int(p.sum()))
    ds_b = PPMDataset(dim=dim, X=X2, y=y2, p=p)
    fam_a = construct_halfspace_family(partition(ds_a)[0], dim)
    fam_b = construct_halfspace_family(partition(ds_b)[0], dim)
    assert fam_a.size == fam_b.size
    assert np.array_equal(fam_a.W, fam_b.W)
    assert np.array_equal(fam_a.w0, fam_b.w0)
    assert np.array_equal(fam_a.sources, fam_b.sources)
    assert np.array_equal(fam_a.aff.base, fam_b.aff.base)
    assert np.array_equal(fam_a.aff.basis, fam_b.aff.basis)


def assert_family_matches_oracle(S_pub, dim, pool_cap=None):
    """Bit-identical to building the family subset by subset: normals,
    offsets, sources, order and size."""
    fam = construct_halfspace_family(S_pub, dim, pool_cap)
    ref = family_oracle(S_pub, dim, pool_cap)
    assert fam.size == len(ref)
    assert fam.W.tobytes() == np.array([h.normal for h in ref]).reshape(-1, dim).tobytes()
    assert fam.w0.tobytes() == np.array([h.offset for h in ref], dtype=float).tobytes()
    assert [tuple(int(i) for i in src if i >= 0) or None for src in fam.sources] == \
        [h.source for h in ref]
    # dedup keeps or drops both orientations of a line: member 2k is its
    # plus and member 2k+1 its exact negation
    assert np.array_equal(fam.W[1::2], -fam.W[::2])
    assert np.array_equal(fam.w0[1::2], -fam.w0[::2])
    return fam


@pytest.mark.parametrize("dim, n, cap", [(1, 300, 40), (2, 60, 12), (3, 30, 9), (4, 20, 7)])
def test_family_matches_oracle_on_generator_samples(dim, n, cap):
    for seed in range(3):
        s_pub = partition(label_determined_dataset(dim, n, seed=seed, eta=0.1))[0]
        assert_family_matches_oracle(s_pub, dim)
        assert_family_matches_oracle(s_pub, dim, pool_cap=cap)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_family_matches_oracle_on_degenerate_points(dim):
    rng = np.random.default_rng(20 + dim)
    m = {1: 12, 2: 9, 3: 7, 4: 6}[dim]
    X = rng.standard_normal((m, dim))
    grid = np.array(list(itertools.product(range(3), repeat=dim)), dtype=float)[:m + 2]
    samples = {
        "duplicates": np.vstack([X[:m - 3], X[:2], X[:1]]),
        "near-coincident": np.vstack([X[:m - 2], X[:2] + rng.uniform(-1, 1, (2, dim)) * 1e-11]),
        "large norm": X * 1e6 + 3e6,
        "integer grid": grid,
        "one point": X[:1],
        # nearly parallel to the first axis: the first basis vector is
        # rejected and the normal's leading coordinate can come out negative
        "nearly axis-parallel": np.column_stack(
            [X[:, 0], rng.uniform(-1, 1, (m, dim - 1)) * 5e-11]),
    }
    if dim == 3:
        t = rng.standard_normal((m, 1))
        samples["collinear"] = t * np.array([1.0, -2.0, 0.5]) + np.array([0.3, 1.0, -1.0])
        samples["coplanar"] = np.column_stack([X[:, :2], X[:, 0] - X[:, 1]])
    for name, P in samples.items():
        assert_family_matches_oracle(labeled(P, [0] * len(P)), dim)


def test_family_dedup_chain_keeps_first_and_last():
    # a ~ b and b ~ c within DEDUP_TOL, but a and c apart: a and c stay
    fam = assert_family_matches_oracle(labeled([[0.0], [0.8e-9], [1.6e-9]], [0] * 3), 1)
    assert fam.size == 4
    assert fam.sources[:, 0].tolist() == [0, 0, 2, 2]


def test_family_refuses_non_unit_normals():
    for w in (1.0 + 1e-9, 0.5, 0.0, np.nan):
        with pytest.raises(ValueError, match="unit vectors"):
            learner.HalfspaceFamily(np.array([[w]]), np.zeros(1), -np.ones((1, 1)),
                                    AffineSubspace.full_space(1), (), 1)


def test_family_refuses_unpaired_members():
    a, b = [1.0, 0.0], [0.0, 1.0]
    neg = lambda v: [-x for x in v]  # noqa: E731
    full = AffineSubspace.full_space(2)
    fam = learner.HalfspaceFamily([a, neg(a), b, neg(b)], [0.5, -0.5, 2.0, -2.0],
                                  -np.ones((4, 2)), full, (), 2)
    assert fam.size == 4
    for W, w0 in [
        ([a], [0.5]),                                   # one orientation
        ([a, neg(a), b], [0.5, -0.5, 2.0]),             # an odd count
        ([a, b, neg(a), neg(b)], [0.5, 2.0, -0.5, -2.0]),  # negations apart
        ([b, neg(b)], [2.0, -2.0 - 1e-15]),            # not exact
        ([a, a], [0.5, 0.5]),                           # a repeat, not a negation
    ]:
        with pytest.raises(ValueError, match="pairs 2l, 2l \\+ 1 of exact negations"):
            learner.HalfspaceFamily(W, w0, -np.ones((len(w0), 2)), full, (), 2)


def test_negative_pool_cap_is_refused():
    X = np.arange(14, dtype=float).reshape(-1, 1)
    ds = PPMDataset(dim=1, X=X, y=np.zeros(14, dtype=int), p=np.zeros(14, dtype=int))
    with pytest.raises(ValueError, match="pool_cap must be >= 1"):
        construct_halfspace_family(labeled(X, [0] * 14), 1, pool_cap=-5)
    with pytest.raises(ValueError, match="pool_cap must be >= 1"):
        learn_half(ds, 1.0, pool_cap=-5)
    # a cap of 0 would build an empty family, a class of one hypothesis
    with pytest.raises(ValueError):
        construct_halfspace_family(labeled(X, [0] * 14), 1, pool_cap=0)


def test_zero_pool_cap_is_refused_before_any_work(monkeypatch):
    # the library spells uncapped None; SweepConfig and the CLI map their 0 to it
    X = np.arange(14, dtype=float).reshape(-1, 1)
    ds = PPMDataset(dim=1, X=X, y=np.zeros(14, dtype=int), p=np.zeros(14, dtype=int))
    with pytest.raises(ValueError, match="None means uncapped"):
        learner.check_pool_budget(14, 1, 0, DEFAULT_HYPOTHESIS_BUDGET)
    monkeypatch.setattr(learner, "construct_halfspace_family", None)  # never reached
    with pytest.raises(ValueError, match="None means uncapped"):
        learn_half(ds, 1.0, pool_cap=0)


# --- class enumeration -----------------------------------------------------------


def test_class_cardinalities():
    assert class_cardinality(4, 2) == 11
    assert class_cardinality(0, 3) == 1
    assert class_cardinality(10, 3) == 176


def test_class_iterator_matches_cardinality_and_is_restartable():
    fam = construct_halfspace_family(
        labeled(np.arange(5, dtype=float).reshape(-1, 1), [0] * 5), 1)
    first = list(class_oracle(fam, 1))
    second = list(class_oracle(fam, 1))
    assert len(first) == class_cardinality(fam.size, 1)
    assert first == second
    assert first[0] is EMPTY_REGION
    assert first == [unrank_hypothesis(r, fam.size, 1) for r in range(len(first))]


def test_class_cardinality_within_paper_style_bound():
    for dim, m, seed in [(1, 6, 0), (2, 5, 1), (3, 4, 2)]:
        rng = np.random.default_rng(seed)
        fam = construct_halfspace_family(
            labeled(rng.standard_normal((m, dim)), [0] * m), dim)
        card = class_cardinality(fam.size, dim)
        assert card <= 2 * (2 ** dim) * max(m, 2) ** (dim * dim)


def test_unrank_matches_enumeration():
    for F, dim in [(0, 2), (3, 1), (4, 2), (5, 3)]:
        fam_size = F
        hyps = [EMPTY_REGION] + [
            IntersectionHypothesis(c)
            for size in range(1, dim + 1)
            for c in itertools.combinations(range(fam_size), size)]
        for r, g in enumerate(hyps):
            assert unrank_hypothesis(r, fam_size, dim) == g
        with pytest.raises(IndexError):
            unrank_hypothesis(len(hyps), fam_size, dim)


def test_unrank_matches_the_walk_on_a_large_family():
    # F ~ 7,000 members, as on a d = 1 sample of n = 8000: random ranks and
    # both edges of every size block
    rng = np.random.default_rng(8)
    F = 7001
    for dim in (1, 2, 3):
        card = class_cardinality(F, dim)
        ranks = [0, card - 1] + [int(r) for r in rng.integers(1, card, 25)]
        first = 1
        for size in range(1, dim + 1):
            block = math.comb(F, size)
            ranks += [first, first + 1, first + block - 2, first + block - 1]
            first += block
        for rank in ranks:
            members = unrank_walk(rank, F, dim)
            g = EMPTY_REGION if members is None else IntersectionHypothesis(members)
            assert unrank_hypothesis(rank, F, dim) == g
        for rank in (card, card + 1, -1):
            with pytest.raises(IndexError, match="rank outside the class"):
                unrank_hypothesis(rank, F, dim)
            with pytest.raises(IndexError, match="rank outside the class"):
                unrank_walk(rank, F, dim)


def test_unrank_refuses_negative_ranks():
    for rank in (-1, -7):
        with pytest.raises(IndexError, match="rank outside the class"):
            unrank_hypothesis(rank, 5, 2)


def test_negative_members_are_refused():
    for members in [(-1,), (-2, 0)]:
        with pytest.raises(ValueError, match="non-negative"):
            IntersectionHypothesis(members)


# --- prediction -------------------------------------------------------------------


def quadrant_family():
    # members 0 and 2 are x[0] >= 0 and x[1] >= 0, 1 and 3 their negations
    return HalfspaceFamily([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]], np.zeros(4),
                           -np.ones((4, 2)), AffineSubspace.full_space(2), (0, 1), 2)


def test_predict_examples():
    fam = quadrant_family()
    g = IntersectionHypothesis((0, 2))
    assert predict_many(g, fam, [[1.0, 1.0], [-1.0, 1.0]]).tolist() == [0, 1]
    assert predict_many(EMPTY_REGION, fam, [[0.0, 0.0]]).tolist() == [1]


def test_predict_many_refuses_points_of_another_shape_for_every_hypothesis():
    # the empty region labels every point 1, but only points of the family's
    # dimension, as a member hypothesis does
    fam = quadrant_family()
    for X in (np.ones((4, 3)), np.ones(2), np.ones((2, 1))):
        for g in (EMPTY_REGION, IntersectionHypothesis((0,))):
            with pytest.raises(DimensionMismatch):
                predict_many(g, fam, X)
    assert predict_many(EMPTY_REGION, fam, np.ones((4, 2))).tolist() == [1] * 4


def test_predict_outside_affine_subspace():
    aff = AffineSubspace(np.zeros(2), np.array([[1.0, 0.0]]))  # x-axis
    fam = HalfspaceFamily([[1.0, 0.0], [-1.0, 0.0]], [0.0, 0.0], [[-1, -1]] * 2, aff, (0,), 2)
    g = IntersectionHypothesis((0,))
    # off the axis, on it inside the member, on it outside
    assert predict_many(g, fam, [[1.0, 0.5], [1.0, 0.0], [-1.0, 0.0]]).tolist() == [1, 0, 1]


def test_predict_many_matches_predict():
    rng = np.random.default_rng(12)
    ds = label_determined_dataset(2, 16, seed=5)
    fam = construct_halfspace_family(partition(ds)[0], 2)
    X = rng.standard_normal((30, 2))
    for g in itertools.islice(class_oracle(fam, 2), 12):
        batch = predict_many(g, fam, X)
        assert [predict_oracle(g, fam, x) for x in X] == list(batch)


def test_predict_many_matches_scalar_oracle():
    # probes on the member hyperplanes and the public points, where the
    # tolerances decide, and random ones; full-rank and low-rank public sets
    rng = np.random.default_rng(13)
    for dim, rank, scale in [(1, 1, 1.0), (2, 2, 1.0), (2, 1, 1.0), (2, 2, 1e4),
                             (3, 3, 1.0), (3, 2, 1.0), (3, 1, 1e-3)]:
        pub = (rng.standard_normal(dim) * scale
               + rng.integers(-2, 3, (6, rank)) @ rng.standard_normal((rank, dim)))
        fam = construct_halfspace_family(
            LabeledSample(pub, np.zeros(6, dtype=np.uint8), np.arange(6)), dim)
        Y = rng.standard_normal((fam.size, dim)) + pub.mean(axis=0)
        on_planes = Y - (np.einsum("ij,ij->i", Y, fam.W) - fam.w0)[:, None] * fam.W
        X = np.vstack([pub, on_planes, fam.aff.from_chart(fam.aff.to_chart(Y)),
                       pub.mean(axis=0) + 3.0 * rng.standard_normal((20, dim))])
        for r in rng.integers(0, class_cardinality(fam.size, dim), 60):
            g = unrank_hypothesis(int(r), fam.size, dim)
            batch = predict_many(g, fam, X)
            assert [predict_oracle(g, fam, x) for x in X] == list(batch)


def test_hypothesis_error_matches_empirical_error():
    ds = label_determined_dataset(2, 20, seed=6, eta=0.2)
    s_prime = partition(ds)[2]
    fam = construct_halfspace_family(partition(ds)[0], 2)
    for g in itertools.islice(class_oracle(fam, 2), 8):
        fast = hypothesis_error(g, fam, s_prime)
        ref = empirical_error(lambda x: predict_oracle(g, fam, x), s_prime)
        assert fast.mistakes == ref.mistakes


# --- scoring stream -----------------------------------------------------------------


def test_all_mistake_counts_match_naive_enumeration():
    for dim, n, seed in [(1, 10, 0), (1, 400, 12), (2, 12, 1), (3, 9, 2), (4, 7, 3)]:
        ds = label_determined_dataset(dim, n, seed=seed, eta=0.2)
        s_prime = partition(ds)[2]
        fam = construct_halfspace_family(partition(ds)[0], dim)
        counts = all_mistake_counts(fam, s_prime, dim)
        naive = [hypothesis_error(g, fam, s_prime).mistakes for g in class_oracle(fam, dim)]
        assert counts.tolist() == naive


def test_counts_switch_to_float64_past_the_float32_limit(monkeypatch):
    # chunks of three points: the sums run over several chunks
    monkeypatch.setattr(learner, "_chunk_points", lambda lines: 3)
    memberships, sums = [], []
    real_membership, real_blocks = learner._membership, learner._tuple_blocks

    def membership(family, X, Z):
        memberships.append(Z.dtype)
        return real_membership(family, X, Z)

    def blocks(*sums_and_args):
        sums.append({a.dtype for a in sums_and_args[:4]})
        return real_blocks(*sums_and_args)

    monkeypatch.setattr(learner, "_membership", membership)
    monkeypatch.setattr(learner, "_tuple_blocks", blocks)
    for dim, n, seed in [(2, 12, 1), (3, 9, 2)]:
        ds = label_determined_dataset(dim, n, seed=seed, eta=0.2)
        s_prime = partition(ds)[2]
        assert max(np.sum(s_prime.y == 0), np.sum(s_prime.y == 1)) > 3
        fam = construct_halfspace_family(partition(ds)[0], dim)
        naive = [hypothesis_error(g, fam, s_prime).mistakes
                 for g in class_oracle(fam, dim)]
        for limit, dtype in [(1 << 24, np.float32), (3, np.float64)]:
            monkeypatch.setattr(learner, "_FLOAT32_EXACT", limit)
            memberships.clear()
            sums.clear()
            assert all_mistake_counts(fam, s_prime, dim).tolist() == naive
            # the accumulated sums widen past the limit; the membership of
            # each chunk, and so every per-chunk product, stays float32
            assert sums and all(kinds == {np.dtype(dtype)} for kinds in sums)
            assert memberships and set(memberships) == {np.dtype(np.float32)}


def assert_counts_match_naive(fam, sample, dim):
    """Class scores and the first minimizer equal scoring every hypothesis
    on its own (``hypothesis_error``)."""
    naive = [hypothesis_error(g, fam, sample).mistakes for g in class_oracle(fam, dim)]
    assert all_mistake_counts(fam, sample, dim).tolist() == naive
    g, err = best_in_class(fam, sample, dim)
    assert err.mistakes == min(naive)
    assert g == unrank_hypothesis(naive.index(min(naive)), fam.size, dim)


def _lines_grid(rng, dim):
    # many points on each line, duplicates, and points exactly on the
    # public lines and planes
    X = rng.integers(-2, 3, (int(rng.integers(12, 40)), dim)) * rng.choice([0.5, 1.0, 1000.0])
    return X, rng.integers(0, 2, X.shape[0]), np.arange(X.shape[0]) < (6 if dim == 2 else 4)


def _lines_one_public_point(rng, dim):
    # a 0-dim span: only copies of the public point are in any member
    p0 = rng.standard_normal(dim)
    X = np.vstack([p0, rng.standard_normal((10, dim)), np.tile(p0, (4, 1)),
                   p0 * (1.0 + 1e-11)])
    return X, rng.integers(0, 2, X.shape[0]), np.arange(X.shape[0]) == 0


def _lines_collinear_public(rng, dim):
    # public points on one line: a 1-dim span, with sample points on it,
    # near it and off it
    t = rng.integers(-3, 4, 20).astype(float)
    u = rng.standard_normal(dim)
    X = np.vstack([np.outer(t, u) + 1.0, rng.standard_normal((8, dim)),
                   np.outer(t[:5], u) + 1.0 + 1e-12])
    return X, rng.integers(0, 2, X.shape[0]), np.arange(X.shape[0]) < 5


def _lines_generator(rng, dim):
    X = rng.standard_normal((40, dim))
    return X, (X[:, 0] > 0.1).astype(int) ^ (rng.random(40) < 0.2), rng.random(40) < 0.3


LINE_INPUTS = [_lines_grid, _lines_one_public_point, _lines_collinear_public, _lines_generator]


def _line_family(points, dim, seed):
    X, y, pub = points(np.random.default_rng(seed), dim)
    X = np.asarray(X, dtype=float)
    cap = 6 if dim == 2 else 4
    fam = construct_halfspace_family(labeled(X[pub], y[pub]), dim, pool_cap=cap)
    return fam, labeled(X, y)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("points", LINE_INPUTS)
def test_line_scorer_matches_naive_enumeration(points, dim):
    for seed in range(3):
        assert_counts_match_naive(*_line_family(points, dim, seed), dim)


@pytest.mark.parametrize("dim", [2, 3])
def test_line_scorer_agrees_across_chunks(dim, monkeypatch):
    # one point per chunk, one line per strip and per membership product
    monkeypatch.setattr(learner, "_CHUNK_ENTRIES", 7)
    for points in LINE_INPUTS:
        assert_counts_match_naive(*_line_family(points, dim, 5), dim)
    # row strips of three lines, each a 3 x 3 syrk block on the diagonal
    # and a GEMM block to its right, written out one line at a time
    strips = []
    for points in LINE_INPUTS:
        fam, sample = _line_family(points, dim, 5)
        lines = fam.size // 2
        monkeypatch.setattr(learner, "_CHUNK_ENTRIES", 6 * lines)
        assert_counts_match_naive(fam, sample, dim)
        strips.append(-(-lines // 3))
    assert max(strips) >= 4


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("chunk", [1, 2, 3, 7])
def test_counts_do_not_depend_on_the_point_chunk(dim, chunk, monkeypatch):
    # chunks of one label and of both, chunks of on-line points only, and
    # samples of one label, whose other label block is empty
    monkeypatch.setattr(learner, "_chunk_points", lambda lines: chunk)
    chunks = []  # (points, on-line points) of every chunk streamed
    real = learner._gram

    def gram(source, *args):
        def watched(lo, hi, out):
            Z, on, E = source(lo, hi, out)
            chunks.append((hi - lo, on.size))
            return Z, on, E

        return real(watched, *args)

    monkeypatch.setattr(learner, "_gram", gram)
    for points in LINE_INPUTS:
        fam, sample = _line_family(points, dim, 5)
        assert_counts_match_naive(fam, sample, dim)
        for label in (0, 1):
            assert_counts_match_naive(fam, labeled(sample.X, np.full(sample.n, label)), dim)
    assert max(size for size, _ in chunks) == chunk
    assert any(size == on > 0 for size, on in chunks)


def test_d2_scoring_memory_does_not_grow_with_the_sample():
    # the pair sums are streamed over chunks of points: from n to 8n points
    # the tracemalloc peak grows by the scorer's copy of the sample and its
    # masks, about 26 bytes a point, where a membership matrix of every
    # point would add 4 bytes per line per point, 544 here
    rng = np.random.default_rng(3)
    fam = construct_halfspace_family(labeled(rng.standard_normal((16, 2)), np.zeros(16)), 2)
    lines = fam.size // 2
    n = 8000
    assert lines == 136 and n >= learner._chunk_points(lines)  # full chunks at n
    assert not learner._threaded(lines, 8 * n)  # no per-CPU sums
    peaks = []
    for size in (n, 8 * n):
        X = rng.standard_normal((size, 2))
        sample = labeled(X, (X[:, 0] > 0).astype(int))
        tracemalloc.start()
        try:
            all_mistake_counts(fam, sample, 2)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 64 * 7 * n


def _swap_publics(rng, dim, flat):
    """Public points in general position, or on a lower-dimensional span
    when ``flat``: one point at d = 1, a line at d = 2, a plane at d = 3."""
    if not flat:
        return rng.standard_normal((5, dim))
    basis = rng.standard_normal((dim - 1, dim))
    return rng.standard_normal(dim) + rng.standard_normal((5, dim - 1)) @ basis


def _swap_candidates(rng, pub, dim):
    """Points on a public point, on the hyperplane through a public pair
    (and triple at d = 3), off a flat public span, and at random."""
    on_line = (pub[0] + pub[1]) / 2
    on_plane = pub[2:5].mean(axis=0)
    return np.vstack([pub[:2], on_line, on_plane, rng.standard_normal((3, dim))])


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("flat", [False, True])
def test_swap_counts_match_the_scorer_on_each_pair(dim, flat, monkeypatch):
    # every sample's counts equal all_mistake_counts on its two points,
    # over samples split across slices and rows across strips of a few rows
    rng = np.random.default_rng(10 * dim + flat)
    pub = _swap_publics(rng, dim, flat)
    fam = construct_halfspace_family(labeled(pub, np.zeros(5, dtype=int)), dim)
    cand = _swap_candidates(rng, pub, dim)
    T = 2 * cand.shape[0]  # each candidate first in a pair with either label
    X = np.stack([cand[np.arange(T) // 2], cand[rng.integers(0, cand.shape[0], T)]], axis=1)
    y = np.column_stack([np.arange(T) % 2, rng.integers(0, 2, T)])
    swaps = LabeledSample(X.reshape(-1, dim), y.ravel(), np.zeros(2 * T, dtype=int))
    G = class_cardinality(fam.size, dim)
    monkeypatch.setattr(learner, "_CHUNK_ENTRIES", 32 * 3 * fam.size)
    got = np.full((T, G), -1.0)
    slices = set()
    for samples, rank, counts in learner.swap_mistake_counts(fam, swaps, dim):
        assert counts.dtype == np.float32
        assert (got[samples, rank:rank + counts.shape[1]] == -1).all()
        got[samples, rank:rank + counts.shape[1]] = counts
        slices.add((samples.start, samples.stop))
    assert len(slices) == -(-T // 3) >= 2
    for t in range(T):
        pair = LabeledSample(X[t], y[t], [0, 0])
        assert np.array_equal(got[t], all_mistake_counts(fam, pair, dim)), t


def _counting_executor(monkeypatch, opened):
    """Record the worker count of every pool the scorer opens."""
    real = futures.ThreadPoolExecutor

    def executor(workers, **kwargs):
        opened.append(workers)
        return real(workers, **kwargs)

    monkeypatch.setattr(futures, "ThreadPoolExecutor", executor)


@pytest.mark.parametrize("dim", [2, 3])
def test_threaded_scoring_matches_the_sequential_path(dim, monkeypatch):
    # every d >= 2 call on a pool with more workers than cores, one line
    # per strip, a few points per chunk, and a thread switch every 10 us:
    # the counts equal the sequential path's and scoring each hypothesis
    monkeypatch.setattr(learner, "_CHUNK_ENTRIES", 64)
    cases = [_line_family(points, dim, seed)
             for points in (_lines_grid, _lines_generator) for seed in range(2)]
    expected = []
    for fam, sample in cases:
        expected.append(all_mistake_counts(fam, sample, dim).tolist())
        assert expected[-1] == [hypothesis_error(g, fam, sample).mistakes
                                for g in class_oracle(fam, dim)]
    opened, grams = [], []
    _counting_executor(monkeypatch, opened)
    real_gram = learner._gram

    def gram(*args):
        grams.append(args)
        return real_gram(*args)

    monkeypatch.setattr(learner, "_gram", gram)
    monkeypatch.setattr(learner, "_THREAD_MIN_MADDS", 0)
    monkeypatch.setattr(learner, "_cpus", lambda: 64)
    got = []

    def score():
        for _ in range(3):
            got.append([all_mistake_counts(fam, sample, dim).tolist() for fam, sample in cases])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        worker = threading.Thread(target=score, daemon=True)
        worker.start()
        worker.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not worker.is_alive()
    assert got == [expected] * 3
    # one pool per Gram, a thread per CPU but the calling one, 63 threads,
    # more than the cores of a CI runner: one Gram a pass at d = 2, one a
    # prefix at d = 3
    assert opened == [63] * len(grams)
    assert len(grams) == 3 * len(cases) if dim == 2 else len(grams) > 3 * len(cases)


def test_scoring_opens_a_pool_from_the_gate_on(monkeypatch):
    monkeypatch.setattr(learner, "_CHUNK_ENTRIES", 64)  # a few points per chunk
    monkeypatch.setattr(learner, "_cpus", lambda: 2)
    fam, sample = _line_family(_lines_generator, 2, 0)
    lines, points = fam.size // 2, sample.n  # every point is in the span
    counts = []
    for gate, pools in [(lines * lines * points / 2, 1), (lines * lines * points / 2 + 1, 0)]:
        monkeypatch.setattr(learner, "_THREAD_MIN_MADDS", gate)
        opened = []
        _counting_executor(monkeypatch, opened)
        counts.append(all_mistake_counts(fam, sample, 2).tolist())
        assert opened == [1] * pools  # one pool thread next to the calling one
    # the Gram summed from two halves of the points, each streamed chunk by
    # chunk, and from all of them on the calling thread
    assert counts[0] == counts[1]


def test_audit_size_scoring_opens_no_pool(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("opened a pool below the gate")

    # tasks to share and cores to share them on: only the gate keeps the
    # pool closed
    monkeypatch.setattr(learner, "_CHUNK_ENTRIES", 64)
    monkeypatch.setattr(learner, "_cpus", lambda: 2)
    monkeypatch.setattr(futures, "ThreadPoolExecutor", refuse)
    for dim, n in [(2, 24), (3, 14)]:
        ds = label_determined_dataset(dim, n, seed=7, eta=0.2)
        assert privacy.verify_dp(ds, [0.1, 1.0], trials=5, seed=0).passed
        learn_half(ds, 1.0, seed=0)


def _scoring_threads():
    return [t for t in threading.enumerate() if t.name.startswith("ppmlearn-score")]


@pytest.mark.parametrize("dim", [2, 3])
def test_no_scoring_thread_is_alive_between_blocks(dim, monkeypatch):
    # every Gram runs on a pool of its own, shut before its counts are
    # formed: none is alive while the scorer is suspended at a block, nor
    # after it is closed early
    monkeypatch.setattr(learner, "_CHUNK_ENTRIES", 64)
    monkeypatch.setattr(learner, "_THREAD_MIN_MADDS", 0)
    monkeypatch.setattr(learner, "_cpus", lambda: 3)
    opened = []
    _counting_executor(monkeypatch, opened)
    fam, sample = _line_family(_lines_generator, dim, 0)
    for block in learner._score_blocks(fam, sample, dim):
        assert not _scoring_threads(), block[0]
    assert opened and set(opened) == {2}
    blocks = learner._score_blocks(fam, sample, dim)
    for _ in range(4):  # the empty region, the singles, two pair blocks
        next(blocks)
    blocks.close()
    assert not _scoring_threads()


@pytest.mark.parametrize("step, fail_at, caller_fails", [
    pytest.param(step, fail_at, False, id=str(fail_at))
    for step, fail_at in [("_membership", 0), ("_label_operand", 1), ("_membership", 2),
                          ("_label_operand", 5)]] + [
    pytest.param("_membership", 0, True, id="calling-thread-and-0")])
def test_a_pool_task_error_leaves_the_scorer_and_stops_its_pool(step, fail_at, caller_fails,
                                                                monkeypatch):
    # with three CPUs, two pool tasks stream their shares of the points
    # chunk by chunk next to the calling thread: the pool tasks' calls of a
    # chunk's membership, or of a label block's Gram accumulation, are
    # counted, and one of them fails. When the calling thread's share fails
    # too, its error is the one raised, after the pool tasks have ended.
    monkeypatch.setattr(learner, "_CHUNK_ENTRIES", 64)
    monkeypatch.setattr(learner, "_THREAD_MIN_MADDS", 0)
    monkeypatch.setattr(learner, "_cpus", lambda: 3)
    real = getattr(learner, step)
    calls = itertools.count()

    def failing(*args):
        if threading.current_thread().name.startswith("ppmlearn-score"):
            if next(calls) == fail_at:
                raise KeyError("pool task")
        elif caller_fails:
            raise KeyError("calling thread")
        return real(*args)

    monkeypatch.setattr(learner, step, failing)
    fam, sample = _line_family(_lines_generator, 2, 0)
    with pytest.raises(KeyError, match="calling thread" if caller_fails else "pool task"):
        all_mistake_counts(fam, sample, 2)
    assert next(calls) > fail_at  # the failing call was made
    assert not _scoring_threads()


def _few_per_label(rng, dim, n1, n0):
    # public points, on the family's lines, and points off them
    pub = rng.standard_normal((6, dim))
    X = np.vstack([pub[rng.permutation(6)[:2]], rng.standard_normal((2, dim))])
    X = X[rng.permutation(4)[:n1 + n0]]
    y = rng.permutation([1] * n1 + [0] * n0)
    return pub, labeled(X, y)


@pytest.mark.parametrize("dim", [2, 3])
def test_line_scorer_with_zero_one_or_two_points_per_label(dim):
    # the shapes of verify_dp's two-point swaps, where a label block of
    # fewer than two points is padded with zero columns
    rng = np.random.default_rng(20 + dim)
    cap = 6 if dim == 2 else 4
    for n1, n0 in itertools.product(range(3), repeat=2):
        if n1 + n0 == 0:
            continue
        for _ in range(3):
            pub, sample = _few_per_label(rng, dim, n1, n0)
            fam = construct_halfspace_family(labeled(pub, np.zeros(6)), dim, pool_cap=cap)
            assert_counts_match_naive(fam, sample, dim)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("label", [0, 1])
def test_line_scorer_on_single_label_samples(dim, label):
    for seed in range(3):
        fam, sample = _line_family(_lines_generator, dim, seed)
        assert_counts_match_naive(fam, labeled(sample.X, np.full(sample.n, label)), dim)


def test_counts_are_compact_integers():
    rng = np.random.default_rng(9)
    for n, dtype in [((1 << 16) - 1, np.uint16), (1 << 16, np.uint32)]:
        X = rng.standard_normal((n, 2))
        y = (X[:, 0] > 0).astype(int)
        fam = construct_halfspace_family(labeled(X[:2], y[:2]), 2)
        counts = all_mistake_counts(fam, labeled(X, y), 2)
        assert counts.dtype == dtype
        assert counts.tolist() == [hypothesis_error(g, fam, labeled(X, y)).mistakes
                                   for g in class_oracle(fam, 2)]
        dist = mechanism_distribution(counts, 1.0, n)
        assert dist.histogram.shape == (n + 1,)  # the law holds no counts vector
        assert np.array_equal(dist.histogram, np.bincount(counts.astype(np.int64), minlength=n + 1))


def test_histogram_is_taken_in_chunks(monkeypatch):
    monkeypatch.setattr(mechanism, "_CHUNK_ENTRIES", 7)
    chunks = []
    bincount = np.bincount

    def spy(x, weights=None, minlength=0):
        chunks.append((x.size, minlength))
        return bincount(x, weights, minlength)

    monkeypatch.setattr(np, "bincount", spy)
    rng = np.random.default_rng(4)
    counts = rng.integers(0, 31, 50).astype(np.uint16)
    counts[45] = 30  # the largest count, n, in a later chunk
    dist = mechanism_distribution(counts, 1.0, 30)
    monkeypatch.undo()
    assert chunks == [(7, 31)] * 7 + [(1, 31)]  # every chunk binned into 0..n
    assert np.array_equal(dist.histogram, np.bincount(counts, minlength=31))
    assert dist.histogram.size == 31 and dist.min_mistakes == int(counts.min())


@pytest.mark.parametrize("at", [3, 45])
def test_counts_above_n_are_refused(monkeypatch, at):
    # no hypothesis makes more than n mistakes on n points: a count above n,
    # in the first chunk or a later one, is refused, not binned
    monkeypatch.setattr(mechanism, "_CHUNK_ENTRIES", 7)
    counts = np.random.default_rng(4).integers(0, 31, 50).astype(np.uint16)
    counts[at] = 41
    with pytest.raises(ValueError, match="mistake count 41 above n = 30"):
        mechanism_distribution(counts, 1.0, 30)
    with pytest.raises(ValueError, match="mistake count 3 above n = 2"):
        mechanism_distribution([0, 3, 1], 1.0, 2)


def _d1_grid_with_duplicates(rng):
    x = rng.integers(-4, 5, 40).astype(float)
    return x, rng.integers(0, 2, x.size), rng.random(x.size) < 0.5


def _d1_points_near_thresholds(rng):
    # 1e-11 to 1e-9 (relative) off a public point is inside its tolerance,
    # 1e-9 to 1e-8 is across it
    pub = np.array([-3.0, -0.5, 0.0, 0.25, 2.0, 7.0, 120.0])
    base = pub[rng.integers(0, pub.size, 60)]
    rel = 10.0 ** rng.uniform(-11, -8, base.size) * rng.choice([-1.0, 1.0], base.size)
    x = np.concatenate([pub, base + rel * (1.0 + np.abs(base))])
    return x, rng.integers(0, 2, x.size), np.arange(x.size) < pub.size


def _d1_cluster_at_1e8(rng):
    x = np.concatenate([1e8 + rng.integers(-8, 9, 30) * 0.05,
                        -1e8 - rng.integers(0, 4, 10) * 0.5])
    return x, rng.integers(0, 2, x.size), rng.random(x.size) < 0.5


def _d1_one_public_point(rng):
    # a 0-dim span: points off it are in no member, points on it in all
    p0 = 0.7
    x = np.concatenate([[p0], rng.normal(size=10), p0 * (1.0 + 10.0 ** -rng.uniform(8, 11, 5))])
    return x, rng.integers(0, 2, x.size), np.arange(x.size) == 0


def _d1_no_public_points(rng):
    x = rng.normal(size=12)
    return x, rng.integers(0, 2, x.size), np.zeros(x.size, dtype=bool)


def _d1_all_zeros(rng):
    x = np.round(rng.normal(size=25) * 3, 1)
    return x, np.zeros(x.size, dtype=int), rng.random(x.size) < 0.5


def _d1_all_ones(rng):
    x = np.round(rng.normal(size=25) * 3, 1)
    return x, np.ones(x.size, dtype=int), rng.random(x.size) < 0.5


def _d1_past_the_norm_overflow(rng):
    # |x| > 1.3e154 overflows the norm, so the tolerance is inf
    x = np.concatenate([rng.normal(size=12), [1e200, -1e200, -3e160]])
    return x, rng.integers(0, 2, x.size), np.arange(x.size) < 6


@pytest.fixture
def no_membership(monkeypatch):
    """d = 1 scoring must not build a membership matrix."""
    def forbidden(*a, **k):
        raise AssertionError("d = 1 scoring called _membership")

    monkeypatch.setattr(learner, "_membership", forbidden)


@pytest.mark.parametrize("points", [
    _d1_grid_with_duplicates, _d1_points_near_thresholds, _d1_cluster_at_1e8,
    _d1_one_public_point, _d1_no_public_points, _d1_all_zeros, _d1_all_ones,
    _d1_past_the_norm_overflow,
])
def test_d1_counts_match_naive_enumeration(points, no_membership):
    for seed in range(4):
        x, y, pub = points(np.random.default_rng(seed))
        sample = labeled(x[:, None], y)
        fam = construct_halfspace_family(labeled(x[pub, None], y[pub]), 1)
        with np.errstate(over="ignore"):  # the norm of |x| > 1.3e154
            naive = [hypothesis_error(g, fam, sample).mistakes
                     for g in class_oracle(fam, 1)]
            assert all_mistake_counts(fam, sample, 1).tolist() == naive
            g, err = best_in_class(fam, sample, 1)
        assert err.mistakes == min(naive)
        assert g == list(class_oracle(fam, 1))[naive.index(min(naive))]


def test_d1_band_tests_agree_across_chunks(no_membership, monkeypatch):
    # the 1e8 cluster puts many points in each member's band
    monkeypatch.setattr(learner, "_CHUNK_ENTRIES", 7)
    x, y, pub = _d1_cluster_at_1e8(np.random.default_rng(3))
    sample = labeled(x[:, None], y)
    fam = construct_halfspace_family(labeled(x[pub, None], y[pub]), 1)
    naive = [hypothesis_error(g, fam, sample).mistakes for g in class_oracle(fam, 1)]
    assert all_mistake_counts(fam, sample, 1).tolist() == naive


def test_d1_counts_with_normals_off_unit_by_1e13(no_membership):
    rng = np.random.default_rng(5)
    x = np.concatenate([rng.integers(-3, 4, 20).astype(float),
                        [1.0 + 1e-13, 1.0 - 2e-13, -2.0 * (1.0 + 1e-13)]])
    sample = labeled(x[:, None], rng.integers(0, 2, x.size))
    W, w0 = np.array([[s * (1.0 + e), s * t * (1.0 + e)]
                      for t in (-2.0, 0.0, 1.0, 3.0) for e in (1e-13, -1e-13)
                      for s in (1.0, -1.0)]).T
    assert np.all(np.abs(np.abs(W) - 1.0) > 0)  # off unit
    fam = HalfspaceFamily(W[:, None], w0, -np.ones((W.size, 1)), AffineSubspace.full_space(1),
                          (), 1)
    naive = [hypothesis_error(g, fam, sample).mistakes for g in class_oracle(fam, 1)]
    assert all_mistake_counts(fam, sample, 1).tolist() == naive


# --- ERM ---------------------------------------------------------------------------


def test_erm_d1_threshold_example():
    s = labeled([[0.0], [1.0], [2.0]], [0, 1, 1])
    h, err = erm_halfspace(s, 1)
    assert err.mistakes == 0
    assert empirical_error(h.contains, s).mistakes == 0


def test_erm_all_ones_constant():
    s = labeled([[0.0, 1.0], [2.0, -1.0], [0.5, 0.5]], [1, 1, 1])
    h, err = erm_halfspace(s, 2)
    assert err.mistakes == 0


def test_erm_error_is_reproducible_from_halfspace():
    rng = np.random.default_rng(13)
    for _ in range(25):
        n = int(rng.integers(2, 15))
        dim = int(rng.integers(1, 4))
        s = labeled(rng.standard_normal((n, dim)), rng.integers(0, 2, n))
        h, err = erm_halfspace(s, dim)
        assert empirical_error(h.contains, s).mistakes == err.mistakes


def test_erm_d1_matches_sort_and_scan_oracle():
    rng = np.random.default_rng(14)
    for _ in range(120):
        n = int(rng.integers(1, 21))
        X = rng.standard_normal((n, 1)) * 2
        y = rng.integers(0, 2, n)
        _, err = erm_halfspace(labeled(X, y), 1)
        assert err.mistakes == erm_1d_mistakes(X[:, 0], y)


def test_erm_empty_sample():
    with pytest.raises(EmptySampleError):
        erm_halfspace(labeled(np.zeros((0, 1)), []), 1)


@pytest.mark.parametrize("dim", [0, -1, 1, 3])
def test_erm_refuses_a_dim_other_than_the_samples(dim):
    s = labeled([[0.0, 1.0], [2.0, -1.0], [0.5, 0.5]], [1, 0, 1])
    with pytest.raises(DimensionMismatch):
        erm_halfspace(s, dim)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_labeled_sample_refuses_non_finite_coordinates(bad):
    with pytest.raises(ValueError, match="coordinates must be finite"):
        labeled([[0.0, 1.0], [bad, 0.0]], [1, 0])


def assert_erm_matches_brute_force(X, y, dim):
    """Same mistakes and a bit-identical halfspace as scoring every
    candidate against every point."""
    X = np.asarray(X, dtype=float)
    h, err = erm_halfspace(labeled(X, y), dim)
    W, w0, mistakes = erm_brute_force(X, y, dim)
    ref = Halfspace(W, w0)
    assert err.mistakes == mistakes
    assert h.normal.tobytes() == ref.normal.tobytes()  # signed zeros too
    assert h.offset.hex() == ref.offset.hex()
    return mistakes


def test_erm_d3_matches_per_subset_candidates():
    rng = np.random.default_rng(43)
    for n in range(1, 13):
        X = rng.standard_normal((n, 3)) * rng.uniform(0.5, 3.0)
        assert_erm_matches_brute_force(X, rng.integers(0, 2, n), 3)


@pytest.mark.parametrize("dim", [2, 3])
def test_erm_settled_rows_stay_near_the_sweep_plane(dim):
    # the bound that lets the sweep count a plane's sides in its own frame:
    # where the pivot's spread times X[l]'s distance from its hull (the
    # pair's length at d = 2, twice the triangle's area at d = 3) is at
    # least 2 _ROW_ERROR / _ROW_STRAY scale^(d - 1), the Gram-Schmidt row
    # lies within _ROW_STRAY of the sweep's normal, whatever the axis it is
    # built on
    rng = np.random.default_rng(147 + dim)
    worst = 0.0
    for trial in range(40):
        n = 12
        X = rng.standard_normal((n, dim)) * 10.0 ** rng.uniform(-2, 2)
        if trial % 4 == 1 and dim == 2:  # near-coincident pairs
            for _ in range(4):
                i, k = rng.choice(n, 2, replace=False)
                X[k] = X[i] + 10.0 ** rng.uniform(-9, -3) * rng.standard_normal(2)
        if trial % 4 == 1 and dim == 3:  # near-collinear triples
            for _ in range(4):
                i, j, k = rng.choice(n, 3, replace=False)
                X[k] = (X[i] + rng.uniform(-1.0, 2.0) * (X[j] - X[i])
                        + 10.0 ** rng.uniform(-9, -3) * rng.standard_normal(3))
        if trial % 4 == 2:  # first coordinates near RANK_TOL
            X[:, 0] = 10.0 ** rng.uniform(-9.9, -4) * rng.standard_normal(n)
        if trial % 4 == 3:  # a small cloud far from the origin
            X = rng.standard_normal((n, dim)) * 1e-2 + 100.0 * rng.standard_normal(dim)
        scale = 1.0 + np.linalg.norm(X, axis=1).max()
        piv = erm._combinations(n - 1, dim - 1)
        p, q, frame, spread, _ = erm._rotation_plane(X, piv, scale)
        i, l = np.nonzero(np.arange(n) > piv[:, -1:])
        p, q = p[i, l], q[i, l]
        r = np.sqrt(p * p + q * q)
        settled = (spread[i] * r
                   >= 2 * erm._ROW_ERROR / erm._ROW_STRAY * scale ** (dim - 1))
        i, l, p, q = i[settled], l[settled], p[settled], q[settled]
        theta = np.arctan2(q, p)
        phi = np.where(theta < 0, theta + np.pi, theta)[:, None]
        n_l = np.cos(phi) * frame[i, 1] - np.sin(phi) * frame[i, 0]
        W, _ = erm.supporting_hyperplanes(X, np.column_stack([piv[i], l]))
        stray = np.minimum(np.linalg.norm(W - n_l, axis=1), np.linalg.norm(W + n_l, axis=1))
        worst = max(worst, float(stray.max(initial=0.0)))
    assert worst <= erm._ROW_STRAY


def test_erm_d3_scores_thin_triangles_row_by_row(monkeypatch):
    # X[2] lies 1e-6 off the line through X[0] and X[1]: outside its margin
    # of the pivot axis, but the plane's row may stray from the sweep's
    # plane by more than the margins absorb, so it is scored point by point
    rng = np.random.default_rng(151)
    X = rng.standard_normal((9, 3)) * 2.0
    off_line = np.cross(X[1] - X[0], [0.0, 0.0, 1.0])
    X[2] = X[0] + 0.4 * (X[1] - X[0]) + 1e-6 * off_line / np.linalg.norm(off_line)
    scored = []
    score = erm._Minimizers.score
    monkeypatch.setattr(erm._Minimizers, "score", lambda self, W, w0: (
        scored.append(np.column_stack([W, w0])), score(self, W, w0))[1])
    y = rng.integers(0, 2, 9)
    assert_erm_matches_brute_force(X, y, 3)
    W, w0 = erm.supporting_hyperplanes(X, [(0, 1, 2)])
    row = np.append(W[0], w0[0] - 4.0 * erm.MEM_TOL * (1.0 + np.linalg.norm(X, axis=1).max()))
    assert any(np.any(np.all(rows == row, axis=1)) for rows in scored)


def near_line(rng, a, b, offset):
    """A point on the line through a and b, moved ``offset`` off it."""
    normal = np.array([a[1] - b[1], b[0] - a[0]]) / np.linalg.norm(b - a)
    return a + rng.uniform(-1.0, 2.0) * (b - a) + offset * normal


# the largest sample size per dimension that the brute force scores quickly
ERM_ORACLE_N = {1: 80, 2: 80, 3: 30, 4: 12, 5: 9}


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_erm_matches_brute_force_on_random_samples(dim):
    rng = np.random.default_rng(40 + dim)
    for n in range(1, ERM_ORACLE_N[dim] + 1):
        X = rng.standard_normal((n, dim)) * rng.uniform(0.5, 3.0)
        y = rng.integers(0, 2, n)
        mistakes = assert_erm_matches_brute_force(X, y, dim)
        if dim == 1:
            assert mistakes == erm_1d_mistakes(X[:, 0], y)


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_erm_matches_brute_force_on_integer_grids(dim):
    # duplicates, collinear triples, coplanar quadruples and axis-parallel
    # lines and planes
    rng = np.random.default_rng(43 + dim)
    for trial in range(60):
        n = int(rng.integers(2, min(50 if dim < 3 else 25, ERM_ORACLE_N[dim] + 1)))
        X = rng.integers(-3, 4, (n, dim)) * (0.25, 1.0, 1000.0)[trial % 3]
        y = rng.integers(0, 2, n)
        mistakes = assert_erm_matches_brute_force(X, y, dim)
        if dim == 1:
            assert mistakes == erm_1d_mistakes(X[:, 0], y)


def test_erm_tie_break_sees_signed_zeros():
    # labels split two grid rows, so the best candidates are horizontal
    # lines whose normals differ only in the sign of a zero component
    rng = np.random.default_rng(49)
    for trial in range(10):
        X = np.array([(a, b) for a in range(-2, 3) for b in (0, 1)], dtype=float)
        X = X[rng.permutation(len(X))]
        h, err = erm_halfspace(labeled(X, X[:, 1]), 2)
        assert err.mistakes == 0 and h.normal[0] == 0.0
        # and the result holds no -0.0
        assert not any(v == 0.0 and math.copysign(1.0, v) < 0 for v in (*h.normal, h.offset))
        assert_erm_matches_brute_force(X, X[:, 1], 2)


def test_erm_matches_brute_force_near_collinear():
    # third points 1e-11 to 1e-7 off a line through two others (d = 1:
    # points that far apart), around 1e-9 mostly: inside the +-delta band,
    # where a point's side does not settle its membership, and across the
    # band's edges
    rng = np.random.default_rng(46)
    for trial in range(60):
        n = int(rng.integers(3, 40))
        X = rng.standard_normal((n, 2)) * 2.0
        for _ in range(n // 2):
            i, j, k = rng.choice(n, 3, replace=False)
            offset = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-11, -7)
            X[k] = near_line(rng, X[i], X[j], offset)
        y = rng.integers(0, 2, n)
        assert_erm_matches_brute_force(X, y, 2)
        x = X[:, :1].copy()
        m = n - n // 2
        apart = rng.choice([-1.0, 1.0], (m, 1)) * 10.0 ** rng.uniform(-11, -7, (m, 1))
        x[n // 2:] = x[:m] + apart
        assert_erm_matches_brute_force(x, y, 1)
    # d = 3: fourth points that far off the plane of three others, and
    # third points that far off the line through two others
    rng = np.random.default_rng(146)
    for trial in range(30):
        n = int(rng.integers(4, 26))
        X = rng.standard_normal((n, 3)) * 2.0
        for _ in range(n // 2):
            i, j, l, k = rng.choice(n, 4, replace=False)
            normal = np.cross(X[j] - X[i], X[l] - X[i])
            offset = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-11, -7)
            s, t = rng.uniform(-1.0, 2.0, 2)
            X[k] = (X[i] + s * (X[j] - X[i]) + t * (X[l] - X[i])
                    + offset * normal / np.linalg.norm(normal))
        if trial % 3 == 0:
            i, j, k = rng.choice(n, 3, replace=False)
            off_line = rng.standard_normal(3)
            X[k] = (X[i] + rng.uniform(-1.0, 2.0) * (X[j] - X[i])
                    + 10.0 ** rng.uniform(-11, -7) * off_line / np.linalg.norm(off_line))
        assert_erm_matches_brute_force(X, rng.integers(0, 2, n), 3)


def test_erm_matches_brute_force_near_coincident_pairs():
    # pairs closer than RANK_TOL * scale are no line and fall back to the
    # singleton rule; slightly wider pairs are lines with a shaky normal
    # (d = 2) or pivots with a shaky rotation plane (d = 3)
    rng = np.random.default_rng(47)
    for trial in range(60):
        n = int(rng.integers(2, 40))
        X = rng.standard_normal((n, 2))
        k = max(1, n // 3)
        gap = 10.0 ** rng.uniform(-13, -8, (k, 1))
        X[:k] = X[n - k:] + gap * rng.standard_normal((k, 2))
        assert_erm_matches_brute_force(X, rng.integers(0, 2, n), 2)
    # d >= 3: pivot points closer than RANK_TOL * scale, and slightly wider
    for dim in (3, 4, 5):
        rng = np.random.default_rng(144 + dim)
        for trial in range(30):
            n = int(rng.integers(dim, min(26, ERM_ORACLE_N[dim] + 1)))
            X = rng.standard_normal((n, dim))
            k = max(1, n // 3)
            gap = 10.0 ** rng.uniform(-13, -8, (k, 1))
            X[:k] = X[n - k:] + gap * rng.standard_normal((k, dim))
            assert_erm_matches_brute_force(X, rng.integers(0, 2, n), dim)


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_erm_matches_brute_force_on_single_label_samples(dim):
    rng = np.random.default_rng(48 + dim)
    for n in (1, 2, 3, 7, min(30, ERM_ORACLE_N[dim])):
        X = rng.standard_normal((n, dim))
        for label in (0, 1):
            assert assert_erm_matches_brute_force(X, np.full(n, label), dim) == 0


@pytest.mark.parametrize("dim", [2, 3])
def test_erm_on_a_cloud_far_from_the_origin(dim):
    # centring points 1e6 from the origin rounds by more than RANK_TOL; a
    # subset's row must still come from at most one direction fewer than
    # its points, or a pair would span the plane
    rng = np.random.default_rng(52 + dim)
    for trial in range(10):
        X = rng.standard_normal((12, dim)) + 1e6 * rng.standard_normal(dim)
        assert_erm_matches_brute_force(X, rng.integers(0, 2, 12), dim)


# --- best_in_class -------------------------------------------------------------------


def naive_best(fam, s_prime, dim):
    """Duplicate exhaustive scan straight off the enumeration."""
    best = None
    for g in class_oracle(fam, dim):
        m = hypothesis_error(g, fam, s_prime).mistakes
        if best is None or m < best[1]:
            best = (g, m)
    return best


def test_best_in_class_empty_family():
    s = labeled([[0.0], [1.0]], [1, 0])
    fam = construct_halfspace_family(labeled(np.zeros((0, 1)), []), 1)
    g, err = best_in_class(fam, s, 1)
    assert g is EMPTY_REGION
    assert err.mistakes == 1  # the single 0-label costs one mistake


def test_best_in_class_matches_naive_scan():
    for dim, n, seed, eta in [(1, 12, 21, 0.0), (2, 10, 22, 0.0),
                              (2, 12, 23, 0.2), (3, 9, 24, 0.2)]:
        ds = label_determined_dataset(dim, n, seed=seed, eta=eta)
        s_prime = partition(ds)[2]
        fam = construct_halfspace_family(partition(ds)[0], dim)
        g, err = best_in_class(fam, s_prime, dim)
        g_naive, m_naive = naive_best(fam, s_prime, dim)
        assert err.mistakes == m_naive
        assert g == g_naive  # identical first minimizer in enumeration order


def test_best_in_class_dominates_erm():
    violations = 0
    for seed in range(40):
        dim = 1 + seed % 3
        n = int(np.random.default_rng(seed).integers(6, 14 if dim == 3 else 20))
        ds = label_determined_dataset(dim, n, seed=100 + seed, eta=0.2 * (seed % 2))
        s_prime = partition(ds)[2]
        fam = construct_halfspace_family(partition(ds)[0], dim)
        _, e_best = best_in_class(fam, s_prime, dim)
        _, e_erm = erm_halfspace(s_prime, dim)
        if e_best.mistakes > e_erm.mistakes:
            violations += 1
    assert violations == 0


def test_correct_points_preservation():
    # some hypothesis's mistake set is contained in the ERM halfspace's
    for seed in range(12):
        dim = 1 + seed % 2
        ds = label_determined_dataset(dim, 12, seed=200 + seed, eta=0.2 * (seed % 2))
        s_prime = partition(ds)[2]
        fam = construct_halfspace_family(partition(ds)[0], dim)
        h_erm, _ = erm_halfspace(s_prime, dim)
        erm_mistakes = {i for i, (x, y) in enumerate(s_prime)
                        if h_erm.contains(x) != y}
        found = False
        for g in class_oracle(fam, dim):
            pred = predict_many(g, fam, s_prime.X)
            g_mistakes = {int(i) for i in np.flatnonzero(pred != s_prime.y)}
            if g_mistakes <= erm_mistakes:
                found = True
                break
        assert found


# --- learn_half ------------------------------------------------------------------------


def test_learn_half_all_private_returns_empty_region():
    for seed in range(3):
        rng = np.random.default_rng(seed)
        n = 10
        ds = PPMDataset(dim=2, X=rng.standard_normal((n, 2)),
                        y=np.ones(n, dtype=int), p=np.ones(n, dtype=int))
        res = learn_half(ds, 1.0, seed=seed)
        assert res.hypothesis is EMPTY_REGION
        assert res.diagnostics.class_size == 1
        assert res.diagnostics.family_size == 0
        assert predict_many(res.hypothesis, res.family, rng.standard_normal((1, 2)))[0] == 1


def test_learn_half_large_epsilon_hits_minimizer():
    ds = label_determined_dataset(1, 30, seed=31)
    s_prime = partition(ds)[2]
    fam = construct_halfspace_family(partition(ds)[0], 1)
    _, e_best = best_in_class(fam, s_prime, 1)
    hits = 0
    for seed in range(40):
        with pytest.warns(RuntimeWarning):
            res = learn_half(ds, 100.0, seed=seed)
        hits += res.diagnostics.selected_mistakes == e_best.mistakes
    # exact probabilities: non-minimizers carry mass <= |G| * exp(-50)
    assert hits == 40


def test_learn_half_epsilon_validation():
    ds = label_determined_dataset(1, 10, seed=32)
    for eps in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="epsilon must be positive and finite"):
            learn_half(ds, eps)


def test_learn_half_budget_guard():
    ds = label_determined_dataset(2, 20, seed=33)
    with pytest.raises(BudgetExceededError, match="reduce pool_cap"):
        learn_half(ds, 1.0, budget=5)


def test_budget_is_checked_before_the_family_is_built(monkeypatch):
    def no_family(*a, **k):
        raise AssertionError("built the family before refusing")

    monkeypatch.setattr(learner, "construct_halfspace_family", no_family)
    monkeypatch.setattr(privacy, "construct_halfspace_family", no_family)
    rng = np.random.default_rng(5)
    n = 1200
    X = rng.standard_normal((n, 2))
    p = np.arange(n) % 2  # 600 public points
    ds = PPMDataset(dim=2, X=X, y=(X[:, 0] > 0).astype(int), p=p)
    with pytest.raises(BudgetExceededError, match="reduce pool_cap"):
        learn_half(ds, 1.0)
    with pytest.raises(BudgetExceededError, match="counting duplicate halfspaces"):
        privacy.verify_dp(ds, 1.0, trials=1)
    # the bound counts duplicates: 30 copies of two points build 6
    # halfspaces, a class of 22, but 60 pool points are refused on the raw
    # count of 3660 rows
    twin = PPMDataset(dim=2, X=np.tile([[0.0, 0.0], [1.0, 1.0]], (40, 1)),
                      y=np.zeros(80, dtype=int), p=np.arange(80) >= 60)
    with pytest.raises(BudgetExceededError, match="may have fit"):
        learn_half(twin, 1.0, budget=10_000)


def test_learn_half_histogram_matches_full_counts():
    ds = label_determined_dataset(2, 14, seed=34, eta=0.2)
    res = learn_half(ds, 1.0, seed=0)
    counts = all_mistake_counts(res.family, partition(ds)[2], 2)
    expect = np.bincount(counts, minlength=ds.n + 1)
    assert np.array_equal(res.diagnostics.mistake_histogram, expect)
    assert res.diagnostics.class_size == counts.size
    assert res.diagnostics.min_mistakes == counts.min()
    # the selected hypothesis's recorded error is reproducible
    g = res.hypothesis
    assert hypothesis_error(g, res.family, partition(ds)[2]).mistakes == \
        res.diagnostics.selected_mistakes


def test_learn_half_deterministic_per_seed():
    ds = label_determined_dataset(2, 16, seed=35)
    r1 = learn_half(ds, 0.5, seed=77)
    r2 = learn_half(ds, 0.5, seed=77)
    assert r1.hypothesis == r2.hypothesis
    assert r1.diagnostics.uniform_draw == r2.diagnostics.uniform_draw


def test_learn_half_selection_frequencies_match_exact_distribution():
    for dim in (1, 2):
        ds = label_determined_dataset(dim, 8, seed=36)
        s_prime = partition(ds)[2]
        fam = construct_halfspace_family(partition(ds)[0], dim)
        counts = all_mistake_counts(fam, s_prime, dim)
        dist = mechanism_distribution(counts, 1.0, ds.n)
        draws = 4000
        freq = np.zeros(counts.size)
        for seed in range(draws):
            res = learn_half(ds, 1.0, seed=seed)
            freq[res.diagnostics.selected_rank] += 1
        freq /= draws
        tv = 0.5 * np.abs(freq - np.exp(dist.log_prob(counts))).sum()
        assert tv < 0.05


def test_learn_half_draws_from_the_audited_distribution(monkeypatch):
    assert privacy.MechanismDistribution is mechanism.MechanismDistribution
    assert learner.mechanism_distribution is mechanism.mechanism_distribution
    ds = label_determined_dataset(2, 14, seed=34, eta=0.2)
    res = learn_half(ds, 0.5, seed=3)
    counts = all_mistake_counts(res.family, partition(ds)[2], 2)
    dist = mechanism_distribution(counts, 0.5, ds.n)
    d = res.diagnostics
    assert np.array_equal(d.mistake_histogram, dist.histogram)
    assert d.min_mistakes == dist.min_mistakes
    assert d.log_normalizer == dist.log_normalizer
    assert d.selected_mistakes == counts[d.selected_rank]
    assert dist.sample(np.random.default_rng(3), counts) == (d.selected_rank, d.uniform_draw)
    # the learner's draw goes through the audited class's sampler
    drawn = []
    real = mechanism.MechanismDistribution.sample

    def spy(self, rng, counts):
        drawn.append(self)
        return real(self, rng, counts)

    monkeypatch.setattr(mechanism.MechanismDistribution, "sample", spy)
    again = learn_half(ds, 0.5, seed=3)
    assert len(drawn) == 1 and isinstance(drawn[0], privacy.MechanismDistribution)
    assert again.diagnostics.selected_rank == d.selected_rank


def test_default_pool_caps():
    assert default_pool_cap(1) is None
    assert default_pool_cap(2) == 40
    assert default_pool_cap(3) == 12
    assert default_pool_cap(4) == 6
    for dim in range(2, 7):
        m = default_pool_cap(dim)
        worst_family = 2 * sum(math.comb(m, j) for j in range(1, dim + 1))
        assert class_cardinality(worst_family, dim) <= DEFAULT_HYPOTHESIS_BUDGET
