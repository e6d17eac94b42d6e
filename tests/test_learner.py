import itertools
import math

import numpy as np
import pytest

from ppmlearn.geometry import DimensionMismatch, Halfspace
import ppmlearn.learner as learner
import ppmlearn.privacy as privacy
from ppmlearn.learner import (
    DEFAULT_HYPOTHESIS_BUDGET,
    EMPTY_REGION,
    BudgetExceededError,
    IntersectionHypothesis,
    all_mistake_counts,
    best_in_class,
    class_cardinality,
    construct_halfspace_family,
    default_pool_cap,
    enumerate_class,
    erm_halfspace,
    hypothesis_error,
    learn_half,
    predict,
    predict_many,
    unrank_hypothesis,
)
from ppmlearn.model import EmptySampleError, LabeledSample, PPMDataset, empirical_error, partition
from ppmlearn.data import GeneratorSpec, generate
from ppmlearn.privacy import mechanism_distribution

from oracles import erm_1d_mistakes, erm_brute_force, family_oracle, unrank_walk


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
    assert fam.aff.is_full
    G = enumerate_class(fam, 2)
    assert G.cardinality == 1
    assert list(G) == [EMPTY_REGION]


def test_family_d1_two_points():
    fam = construct_halfspace_family(labeled([[0.0], [2.0]], [0, 0]), 1)
    got = {(float(h.normal[0]), h.offset) for h in fam.halfspaces}
    assert got == {(1.0, 0.0), (-1.0, 0.0), (1.0, 2.0), (-1.0, -2.0)}
    assert fam.size == 4  # 2|W| with no duplicates


def test_family_d2_dedup_matches_independent_scan():
    rng = np.random.default_rng(10)
    X = rng.standard_normal((4, 2))
    fam = construct_halfspace_family(labeled(X, [0] * 4), 2)
    # raw enumeration: 2 * (C(4,1) + C(4,2)) = 20 halfspaces before dedup
    raw = []
    from ppmlearn.geometry import supporting_halfspace_pair
    for size in (1, 2):
        for combo in itertools.combinations(range(4), size):
            h, hop = supporting_halfspace_pair(X[list(combo)], 2)
            raw.extend([h, hop])
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
    for h in fam.halfspaces:
        assert h.source is not None and 1 <= len(h.source) <= 2
        for i in h.source:
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
    for ha, hb in zip(fam_a.halfspaces, fam_b.halfspaces):
        assert np.array_equal(ha.normal, hb.normal)
        assert ha.offset == hb.offset
        assert ha.source == hb.source
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
    assert [h.source for h in fam.halfspaces] == [h.source for h in ref]
    for h, r in zip(fam.halfspaces, ref):
        assert h.normal.tobytes() == r.normal.tobytes() and h.offset == r.offset
    # dedup keeps or drops both orientations of a line: member 2k is its
    # plus and member 2k+1 its exact negation
    assert fam.line.tolist() == [i // 2 for i in range(fam.size)]
    assert fam.sign.tolist() == [i % 2 for i in range(fam.size)]
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
    from ppmlearn.geometry import AffineSubspace
    for w in (1.0 + 1e-9, 0.5, 0.0, np.nan):
        with pytest.raises(ValueError, match="unit vectors"):
            learner.HalfspaceFamily(np.array([[w]]), np.zeros(1), -np.ones((1, 1)),
                                    AffineSubspace.full_space(1), (), 1)


def test_family_pairs_adjacent_exact_negations():
    from ppmlearn.geometry import AffineSubspace
    a, b = [1.0, 0.0], [0.0, 1.0]
    neg = lambda v: [-x for x in v]  # noqa: E731
    # a -a | b | a -a | a (a run of three) | -b | b+1e-15 (not exact) | -b b | b
    W = [a, neg(a), b, a, neg(a), a, neg(b), b, neg(b), b, b]
    w0 = [0.5, -0.5, 2.0, 0.5, -0.5, 0.5, -2.0, 2.0 + 1e-15, -2.0, 2.0, 2.0]
    fam = learner.HalfspaceFamily(W, w0, -np.ones((11, 2)), AffineSubspace.full_space(2), (), 2)
    assert fam.line.tolist() == [0, 0, 1, 2, 2, 3, 4, 5, 6, 6, 7]
    assert fam.sign.tolist() == [0, 1, 0, 0, 1, 0, 0, 0, 0, 1, 0]
    assert fam.slots.tolist() == [0, 1, 2, -1, 3, 4, 5, -1, 6, -1, 7, -1, 8, 9, 10, -1]
    W0, w00 = fam.line_planes
    assert np.array_equal(W0, np.array(W)[fam.sign == 0]) and w00.size == 8


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
    G = enumerate_class(fam, 1)
    first = list(G)
    second = list(G)
    assert len(first) == G.cardinality
    assert first == second
    assert first[0] is EMPTY_REGION


def test_class_cardinality_within_paper_style_bound():
    for dim, m, seed in [(1, 6, 0), (2, 5, 1), (3, 4, 2)]:
        rng = np.random.default_rng(seed)
        fam = construct_halfspace_family(
            labeled(rng.standard_normal((m, dim)), [0] * m), dim)
        card = enumerate_class(fam, dim).cardinality
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
    hs = (Halfspace([1.0, 0.0], 0.0), Halfspace([0.0, 1.0], 0.0))
    from ppmlearn.learner import HalfspaceFamily
    from ppmlearn.geometry import AffineSubspace
    return HalfspaceFamily.from_halfspaces(hs, AffineSubspace.full_space(2), (0, 1), 2)


def test_predict_examples():
    fam = quadrant_family()
    g = IntersectionHypothesis((0, 1))
    assert predict(g, fam, [1.0, 1.0]) == 0
    assert predict(g, fam, [-1.0, 1.0]) == 1
    assert predict(EMPTY_REGION, fam, [0.0, 0.0]) == 1


def test_predict_outside_affine_subspace():
    from ppmlearn.learner import HalfspaceFamily
    from ppmlearn.geometry import AffineSubspace
    aff = AffineSubspace(np.zeros(2), np.array([[1.0, 0.0]]))  # x-axis
    fam = HalfspaceFamily.from_halfspaces((Halfspace([1.0, 0.0], 0.0),), aff, (0,), 2)
    g = IntersectionHypothesis((0,))
    assert predict(g, fam, [1.0, 0.5]) == 1   # off the axis
    assert predict(g, fam, [1.0, 0.0]) == 0
    assert predict(g, fam, [-1.0, 0.0]) == 1


def test_predict_many_matches_predict():
    rng = np.random.default_rng(12)
    ds = label_determined_dataset(2, 16, seed=5)
    fam = construct_halfspace_family(partition(ds)[0], 2)
    X = rng.standard_normal((30, 2))
    G = enumerate_class(fam, 2)
    for g in itertools.islice(G, 12):
        batch = predict_many(g, fam, X)
        assert [predict(g, fam, x) for x in X] == list(batch)


def test_hypothesis_error_matches_empirical_error():
    ds = label_determined_dataset(2, 20, seed=6, eta=0.2)
    s_prime = partition(ds)[2]
    fam = construct_halfspace_family(partition(ds)[0], 2)
    for g in itertools.islice(enumerate_class(fam, 2), 8):
        fast = hypothesis_error(g, fam, s_prime)
        ref = empirical_error(lambda x: predict(g, fam, x), s_prime)
        assert fast.mistakes == ref.mistakes


# --- scoring stream -----------------------------------------------------------------


def test_all_mistake_counts_match_naive_enumeration():
    for dim, n, seed in [(1, 10, 0), (1, 400, 12), (2, 12, 1), (3, 9, 2), (4, 7, 3)]:
        ds = label_determined_dataset(dim, n, seed=seed, eta=0.2)
        s_prime = partition(ds)[2]
        fam = construct_halfspace_family(partition(ds)[0], dim)
        counts = all_mistake_counts(fam, s_prime, dim)
        G = enumerate_class(fam, dim)
        naive = [hypothesis_error(g, fam, s_prime).mistakes for g in G]
        assert counts.tolist() == naive


def test_counts_switch_to_float64_past_the_float32_limit(monkeypatch):
    dtypes = []
    real = learner._membership

    def spy(family, X, dtype):
        dtypes.append(dtype)
        return real(family, X, dtype)

    monkeypatch.setattr(learner, "_membership", spy)
    for dim, n, seed in [(2, 12, 1), (3, 9, 2)]:
        ds = label_determined_dataset(dim, n, seed=seed, eta=0.2)
        s_prime = partition(ds)[2]
        assert max(np.sum(s_prime.y == 0), np.sum(s_prime.y == 1)) > 3
        fam = construct_halfspace_family(partition(ds)[0], dim)
        naive = [hypothesis_error(g, fam, s_prime).mistakes
                 for g in enumerate_class(fam, dim)]
        for limit, dtype in [(1 << 24, np.float32), (3, np.float64)]:
            monkeypatch.setattr(learner, "_FLOAT32_EXACT", limit)
            dtypes.clear()
            assert all_mistake_counts(fam, s_prime, dim).tolist() == naive
            # one membership matrix for both labels, one row per line
            assert dtypes == [dtype]


def assert_counts_match_naive(fam, sample, dim):
    """Class scores and the first minimizer equal scoring every hypothesis
    on its own (``hypothesis_error``)."""
    G = enumerate_class(fam, dim)
    naive = [hypothesis_error(g, fam, sample).mistakes for g in G]
    assert all_mistake_counts(fam, sample, dim).tolist() == naive
    g, err = best_in_class(G, sample)
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
    # one line per pair chunk and a handful of points per membership chunk
    monkeypatch.setattr(learner, "_CHUNK_ENTRIES", 7)
    for points in LINE_INPUTS:
        assert_counts_match_naive(*_line_family(points, dim, 5), dim)
    # row strips of three lines, each a 3 x 3 syrk block on the diagonal
    # and a GEMM block to its right, written out one line at a time
    strips = []
    for points in LINE_INPUTS:
        fam, sample = _line_family(points, dim, 5)
        lines = fam.slots.size // 2
        monkeypatch.setattr(learner, "_CHUNK_ENTRIES", 6 * lines)
        assert_counts_match_naive(fam, sample, dim)
        strips.append(-(-lines // 3))
    assert max(strips) >= 4


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


@pytest.mark.parametrize("dim", [2, 3])
def test_line_scorer_with_one_orientation_of_some_lines(dim):
    from ppmlearn.learner import HalfspaceFamily
    for seed in range(3):
        full, sample = _line_family(_lines_grid, dim, seed)
        rng = np.random.default_rng(seed)
        # drop the plus of some lines and the minus of others
        keep = np.flatnonzero(rng.random(full.size) < 0.7)
        fam = HalfspaceFamily(full.W[keep], full.w0[keep], full.sources[keep], full.aff,
                              full.pool_indices, dim)
        assert np.array_equal(fam.line, np.unique(full.line[keep], return_inverse=True)[1])
        assert 0 < fam.sign.sum() < np.count_nonzero(fam.sign == 0)  # some pairs left
        assert_counts_match_naive(fam, sample, dim)
        # the same members, reordered so that no two negations are adjacent:
        # every member is a line of its own
        order = np.argsort(fam.sign, kind="stable")
        alone = HalfspaceFamily.from_halfspaces([fam.halfspaces[i] for i in order],
                                                fam.aff, fam.pool_indices, dim)
        assert alone.line.tolist() == list(range(fam.size)) and not alone.sign.any()
        assert_counts_match_naive(alone, sample, dim)


def test_counts_are_compact_integers():
    rng = np.random.default_rng(9)
    for n, dtype in [((1 << 16) - 1, np.uint16), (1 << 16, np.uint32)]:
        X = rng.standard_normal((n, 2))
        y = (X[:, 0] > 0).astype(int)
        fam = construct_halfspace_family(labeled(X[:2], y[:2]), 2)
        counts = all_mistake_counts(fam, labeled(X, y), 2)
        assert counts.dtype == dtype
        G = enumerate_class(fam, 2)
        assert counts.tolist() == [hypothesis_error(g, fam, labeled(X, y)).mistakes for g in G]
        dist = mechanism_distribution(counts, 1.0, n)
        assert dist.mistake_counts.dtype == dtype  # no int64 copy
        assert np.array_equal(dist.histogram, np.bincount(counts.astype(np.int64), minlength=n + 1))


def test_histogram_is_taken_in_chunks(monkeypatch):
    monkeypatch.setattr(learner, "_CHUNK_ENTRIES", 7)
    rng = np.random.default_rng(4)
    counts = rng.integers(0, 30, 50).astype(np.uint16)
    counts[45] = 41  # past n: the histogram grows in a later chunk
    dist = mechanism_distribution(counts, 1.0, 30)
    assert np.array_equal(dist.histogram, np.bincount(counts, minlength=31))
    assert dist.histogram.size == 42 and dist.min_mistakes == int(counts.min())


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
                     for g in enumerate_class(fam, 1)]
            assert all_mistake_counts(fam, sample, 1).tolist() == naive
            g, err = best_in_class(enumerate_class(fam, 1), sample)
        assert err.mistakes == min(naive)
        assert g == list(enumerate_class(fam, 1))[naive.index(min(naive))]


def test_d1_band_tests_agree_across_chunks(no_membership, monkeypatch):
    # the 1e8 cluster puts many points in each member's band
    monkeypatch.setattr(learner, "_CHUNK_ENTRIES", 7)
    x, y, pub = _d1_cluster_at_1e8(np.random.default_rng(3))
    sample = labeled(x[:, None], y)
    fam = construct_halfspace_family(labeled(x[pub, None], y[pub]), 1)
    naive = [hypothesis_error(g, fam, sample).mistakes for g in enumerate_class(fam, 1)]
    assert all_mistake_counts(fam, sample, 1).tolist() == naive


def test_d1_counts_with_normals_off_unit_by_1e13(no_membership):
    from ppmlearn.geometry import AffineSubspace
    rng = np.random.default_rng(5)
    x = np.concatenate([rng.integers(-3, 4, 20).astype(float),
                        [1.0 + 1e-13, 1.0 - 2e-13, -2.0 * (1.0 + 1e-13)]])
    sample = labeled(x[:, None], rng.integers(0, 2, x.size))
    hs = [Halfspace([s * (1.0 + e)], s * t * (1.0 + e))
          for t in (-2.0, 0.0, 1.0, 3.0) for s in (1.0, -1.0) for e in (1e-13, -1e-13)]
    assert all(abs(abs(h.normal[0]) - 1.0) > 0 for h in hs)  # kept off unit
    fam = learner.HalfspaceFamily.from_halfspaces(hs, AffineSubspace.full_space(1), (), 1)
    naive = [hypothesis_error(g, fam, sample).mistakes for g in enumerate_class(fam, 1)]
    assert all_mistake_counts(fam, sample, 1).tolist() == naive


# --- ERM ---------------------------------------------------------------------------


def test_erm_d1_threshold_example():
    s = labeled([[0.0], [1.0], [2.0]], [0, 1, 1])
    h, err = erm_halfspace(s, 1)
    assert err.mistakes == 0
    assert empirical_error(h.label, s).mistakes == 0


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
        assert empirical_error(h.label, s).mistakes == err.mistakes


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


def test_erm_d3_settled_rows_stay_near_the_sweep_plane():
    # the bound that lets the d = 3 sweep count a plane's sides in its own
    # frame: where twice the triangle's area h is at least
    # 2 _ROW_ERROR / _ROW_STRAY scale^2, the Gram-Schmidt row lies within
    # _ROW_STRAY of the sweep's normal, whatever the axis it is built on
    rng = np.random.default_rng(150)
    worst = 0.0
    for trial in range(40):
        n = 12
        X = rng.standard_normal((n, 3)) * 10.0 ** rng.uniform(-2, 2)
        if trial % 4 == 1:  # near-collinear triples
            for _ in range(4):
                i, j, k = rng.choice(n, 3, replace=False)
                X[k] = (X[i] + rng.uniform(-1.0, 2.0) * (X[j] - X[i])
                        + 10.0 ** rng.uniform(-9, -3) * rng.standard_normal(3))
        if trial % 4 == 2:  # normals with a first component near RANK_TOL
            X[:, 0] = 10.0 ** rng.uniform(-9.9, -4) * rng.standard_normal(n)
        if trial % 4 == 3:  # a small cloud far from the origin
            X = rng.standard_normal((n, 3)) * 1e-2 + 100.0 * rng.standard_normal(3)
        scale = 1.0 + np.linalg.norm(X, axis=1).max()
        piv = learner._combinations(n - 1, 2)
        p, q, frame, rho = learner._rotation_plane(X, piv)
        i, l = np.nonzero(np.arange(n) > piv[:, 1:])
        p, q = p[i, l], q[i, l]
        r = np.sqrt(p * p + q * q)
        settled = rho[i] * r >= 2 * learner._ROW_ERROR / learner._ROW_STRAY * scale ** 2
        i, l, p, q = i[settled], l[settled], p[settled], q[settled]
        theta = np.arctan2(q, p)
        phi = np.where(theta < 0, theta + np.pi, theta)[:, None]
        n_l = np.cos(phi) * frame[i, 1] - np.sin(phi) * frame[i, 0]
        W, _ = learner.supporting_hyperplanes(X, np.column_stack([piv[i], l]))
        stray = np.minimum(np.linalg.norm(W - n_l, axis=1), np.linalg.norm(W + n_l, axis=1))
        worst = max(worst, float(stray.max(initial=0.0)))
    assert worst <= learner._ROW_STRAY


def test_erm_d3_scores_thin_triangles_row_by_row(monkeypatch):
    # X[2] lies 1e-6 off the line through X[0] and X[1]: outside its margin
    # of the pivot axis, but the plane's row may stray from the sweep's
    # plane by more than the margins absorb, so it is scored point by point
    rng = np.random.default_rng(151)
    X = rng.standard_normal((9, 3)) * 2.0
    off_line = np.cross(X[1] - X[0], [0.0, 0.0, 1.0])
    X[2] = X[0] + 0.4 * (X[1] - X[0]) + 1e-6 * off_line / np.linalg.norm(off_line)
    scored = []
    score = learner._Minimizers.score
    monkeypatch.setattr(learner._Minimizers, "score", lambda self, W, w0, keys: (
        scored.append(keys), score(self, W, w0, keys))[1])
    y = rng.integers(0, 2, 9)
    assert_erm_matches_brute_force(X, y, 3)
    triple = 9 + math.comb(9, 2)  # the subset index of (0, 1, 2)
    assert any(np.any(keys[:, 1] == triple) for keys in scored)


def near_line(rng, a, b, offset):
    """A point on the line through a and b, moved ``offset`` off it."""
    normal = np.array([a[1] - b[1], b[0] - a[0]]) / np.linalg.norm(b - a)
    return a + rng.uniform(-1.0, 2.0) * (b - a) + offset * normal


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_erm_matches_brute_force_on_random_samples(dim):
    rng = np.random.default_rng(40 + dim)
    for n in range(1, 81 if dim < 3 else 31):
        X = rng.standard_normal((n, dim)) * rng.uniform(0.5, 3.0)
        y = rng.integers(0, 2, n)
        mistakes = assert_erm_matches_brute_force(X, y, dim)
        if dim == 1:
            assert mistakes == erm_1d_mistakes(X[:, 0], y)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_erm_matches_brute_force_on_integer_grids(dim):
    # duplicates, collinear triples, coplanar quadruples and axis-parallel
    # lines and planes
    rng = np.random.default_rng(43 + dim)
    for trial in range(60):
        n = int(rng.integers(2, 50 if dim < 3 else 25))
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
    # d = 3: pivot pairs closer than RANK_TOL * scale, and slightly wider
    rng = np.random.default_rng(147)
    for trial in range(30):
        n = int(rng.integers(3, 26))
        X = rng.standard_normal((n, 3))
        k = max(1, n // 3)
        gap = 10.0 ** rng.uniform(-13, -8, (k, 1))
        X[:k] = X[n - k:] + gap * rng.standard_normal((k, 3))
        assert_erm_matches_brute_force(X, rng.integers(0, 2, n), 3)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_erm_matches_brute_force_on_single_label_samples(dim):
    rng = np.random.default_rng(48 + dim)
    for n in (1, 2, 3, 7, 30):
        X = rng.standard_normal((n, dim))
        for label in (0, 1):
            assert assert_erm_matches_brute_force(X, np.full(n, label), dim) == 0


# --- best_in_class -------------------------------------------------------------------


def naive_best(classG, s_prime):
    """Duplicate exhaustive scan straight off the iterator."""
    best = None
    for g in classG:
        m = hypothesis_error(g, classG.family, s_prime).mistakes
        if best is None or m < best[1]:
            best = (g, m)
    return best


def test_best_in_class_empty_family():
    s = labeled([[0.0], [1.0]], [1, 0])
    fam = construct_halfspace_family(labeled(np.zeros((0, 1)), []), 1)
    g, err = best_in_class(enumerate_class(fam, 1), s)
    assert g is EMPTY_REGION
    assert err.mistakes == 1  # the single 0-label costs one mistake


def test_best_in_class_matches_naive_scan():
    for dim, n, seed, eta in [(1, 12, 21, 0.0), (2, 10, 22, 0.0),
                              (2, 12, 23, 0.2), (3, 9, 24, 0.2)]:
        ds = label_determined_dataset(dim, n, seed=seed, eta=eta)
        s_prime = partition(ds)[2]
        G = enumerate_class(construct_halfspace_family(partition(ds)[0], dim), dim)
        g, err = best_in_class(G, s_prime)
        g_naive, m_naive = naive_best(G, s_prime)
        assert err.mistakes == m_naive
        assert g == g_naive  # identical first minimizer in enumeration order


def test_best_in_class_dominates_erm():
    violations = 0
    for seed in range(40):
        dim = 1 + seed % 3
        n = int(np.random.default_rng(seed).integers(6, 14 if dim == 3 else 20))
        ds = label_determined_dataset(dim, n, seed=100 + seed, eta=0.2 * (seed % 2))
        s_prime = partition(ds)[2]
        G = enumerate_class(construct_halfspace_family(partition(ds)[0], dim), dim)
        _, e_best = best_in_class(G, s_prime)
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
                        if h_erm.label(x) != y}
        found = False
        for g in enumerate_class(fam, dim):
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
        assert predict(res.hypothesis, res.family, rng.standard_normal(2)) == 1


def test_learn_half_large_epsilon_hits_minimizer():
    ds = label_determined_dataset(1, 30, seed=31)
    s_prime = partition(ds)[2]
    G = enumerate_class(construct_halfspace_family(partition(ds)[0], 1), 1)
    _, e_best = best_in_class(G, s_prime)
    hits = 0
    for seed in range(40):
        with pytest.warns(RuntimeWarning):
            res = learn_half(ds, 100.0, seed=seed)
        hits += res.diagnostics.selected_mistakes == e_best.mistakes
    # exact probabilities: non-minimizers carry mass <= |G| * exp(-50)
    assert hits == 40


def test_learn_half_epsilon_validation():
    ds = label_determined_dataset(1, 10, seed=32)
    with pytest.raises(ValueError):
        learn_half(ds, 0.0)


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
        tv = 0.5 * np.abs(freq - dist.probs).sum()
        assert tv < 0.05


def test_learn_half_draws_from_the_audited_distribution(monkeypatch):
    assert privacy.MechanismDistribution is learner.MechanismDistribution
    assert privacy.mechanism_distribution is learner.mechanism_distribution
    ds = label_determined_dataset(2, 14, seed=34, eta=0.2)
    res = learn_half(ds, 0.5, seed=3)
    counts = all_mistake_counts(res.family, partition(ds)[2], 2)
    dist = mechanism_distribution(counts, 0.5, ds.n)
    d = res.diagnostics
    assert np.array_equal(d.mistake_histogram, dist.histogram)
    assert d.min_mistakes == dist.min_mistakes
    assert d.log_normalizer == dist.log_normalizer
    assert d.selected_mistakes == dist.mistake_counts[d.selected_rank]
    assert dist.sample(np.random.default_rng(3)) == (d.selected_rank, d.uniform_draw)
    # the learner's draw goes through the audited class's sampler
    drawn = []
    real = learner.MechanismDistribution.sample

    def spy(self, rng):
        drawn.append(self)
        return real(self, rng)

    monkeypatch.setattr(learner.MechanismDistribution, "sample", spy)
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
