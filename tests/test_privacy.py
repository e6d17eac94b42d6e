import math
import tracemalloc

import numpy as np
import pytest

import ppmlearn.privacy as privacy
from ppmlearn.data import GeneratorSpec, generate
from ppmlearn.geometry import Halfspace
from ppmlearn.learner import (
    BudgetExceededError,
    all_mistake_counts,
    construct_halfspace_family,
    learn_half,
)
from ppmlearn.mechanism import MechanismDistribution, mechanism_distribution
from ppmlearn.model import PPMDataset, partition
from ppmlearn.privacy import (
    IllegalNeighborError,
    replace_entry,
    verify_dp,
)

from oracles import audit_ratio_oracle, mechanism_probs_direct


def probs(dist, counts):
    return np.exp(dist.log_prob(counts))


def label_determined(dim, n, seed):
    rng = np.random.default_rng(seed)
    target = Halfspace(rng.standard_normal(dim), float(rng.standard_normal() * 0.2))
    return generate(GeneratorSpec(dim=dim, target=target, seed=seed), n)


# --- mechanism distribution ---------------------------------------------------


def test_mechanism_two_scores_closed_form():
    dist = mechanism_distribution([0, 5], 1.0, 10)
    p = probs(dist, [0, 5])
    expect0 = 1.0 / (1.0 + math.exp(-2.5))
    assert p[0] == pytest.approx(expect0, abs=1e-12)
    assert p[1] == pytest.approx(1 - expect0, abs=1e-12)
    assert p[0] == pytest.approx(0.9241, abs=5e-5)
    assert np.allclose(p, mechanism_probs_direct([0, 5], 1.0), atol=1e-12)


def test_mechanism_uniform_when_scores_equal():
    dist = mechanism_distribution([3, 3, 3, 3], 0.7, 12)
    assert np.allclose(probs(dist, [3, 3, 3, 3]), 0.25, atol=1e-12)


def test_mechanism_epsilon_to_zero_limit():
    dist = mechanism_distribution([0, 2, 7, 9], 1e-9, 10)
    tv = 0.5 * np.abs(probs(dist, [0, 2, 7, 9]) - 0.25).sum()
    assert tv < 1e-6


def test_mechanism_invariants():
    rng = np.random.default_rng(0)
    for _ in range(30):
        k = int(rng.integers(2, 40))
        n = int(rng.integers(1, 50))
        counts = rng.integers(0, n + 1, size=k)
        eps = float(rng.uniform(0.05, 2.0))
        dist = mechanism_distribution(counts, eps, n)
        log_probs = dist.log_prob(counts)
        assert abs(float(np.exp(log_probs).sum()) - 1.0) <= 1e-12
        i, j = rng.integers(0, k, 2)
        expected = -(eps / 2.0) * (counts[i] - counts[j])
        assert log_probs[i] - log_probs[j] == pytest.approx(expected, abs=1e-12)


def test_mechanism_monotone_in_mistakes():
    dist = mechanism_distribution([1, 4, 2, 4], 0.5, 10)
    p = probs(dist, [1, 4, 2, 4])
    assert p[0] > p[2] > p[1]
    assert p[1] == pytest.approx(p[3], abs=1e-15)


def test_mechanism_validation():
    with pytest.raises(ValueError):
        mechanism_distribution([], 1.0, 5)
    for eps in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="epsilon must be positive and finite"):
            mechanism_distribution([1], eps, 5)
        with pytest.raises(ValueError, match="epsilon must be positive and finite"):
            MechanismDistribution([0, 1, 0, 0, 0, 0], eps, 5)
    with pytest.raises(ValueError):
        mechanism_distribution([1], 1.0, 0)
    # a count that is no integer is refused, not floored; integral floats pass
    for counts in ([0.5, 1.7], [1.0, math.nan], [math.inf]):
        with pytest.raises(ValueError, match="mistake counts must be integers"):
            mechanism_distribution(counts, 1.0, 3)
    assert mechanism_distribution([1.0, 2.0], 1.0, 3).histogram.tolist() == [0, 1, 1, 0]


def test_law_needs_one_bin_per_count():
    # a law over n points has one bin for each count 0..n, no more, no fewer
    for bins in (50, 10):
        with pytest.raises(ValueError, match=rf"histogram has {bins} bins, not n \+ 1 = 11"):
            MechanismDistribution(np.ones(bins, dtype=int), 1.0, 10)
    assert MechanismDistribution(np.ones(11, dtype=int), 1.0, 10).histogram.size == 11


# --- neighbors ------------------------------------------------------------------


def test_replace_entry_guards_public():
    ds = label_determined(1, 12, seed=1)
    pub = int(np.flatnonzero(~ds.p)[0])
    priv = int(np.flatnonzero(ds.p)[0])
    with pytest.raises(IllegalNeighborError, match="public entry"):
        replace_entry(ds, pub, [0.0], 1)
    for bad in (-1, ds.n):  # -1 would otherwise wrap to the last entry
        with pytest.raises(IndexError, match=f"index {bad} outside dataset of size 12"):
            replace_entry(ds, bad, [0.0], 1)
    nb = replace_entry(ds, priv, [0.33], 0)
    assert nb.n == ds.n
    assert nb.X[priv, 0] == 0.33 and nb.y[priv] == 0
    # untouched rows identical
    mask = np.arange(ds.n) != priv
    assert np.array_equal(nb.X[mask], ds.X[mask])


def test_neutral_replacement_gives_zero_ratio():
    ds = label_determined(1, 10, seed=2)
    priv = int(np.flatnonzero(ds.p)[0])
    nb = replace_entry(ds, priv, ds.X[priv], int(ds.y[priv]))  # same values
    fam = construct_halfspace_family(partition(ds)[0], 1)
    c0 = all_mistake_counts(fam, partition(ds)[2], 1)
    c1 = all_mistake_counts(fam, partition(nb)[2], 1)
    assert np.array_equal(c0, c1)
    d0 = mechanism_distribution(c0, 1.0, ds.n)
    d1 = mechanism_distribution(c1, 1.0, ds.n)
    assert float(np.max(np.abs(d0.log_prob(c0) - d1.log_prob(c1)))) == 0.0


def test_verify_dp_passes_and_matches_direct_recomputation():
    for dim, n, seed in [(1, 8, 3), (2, 10, 4)]:
        ds = label_determined(dim, n, seed=seed)
        report = verify_dp(ds, [0.5], trials=12, seed=7)
        assert report.passed
        assert report.max_log_ratio <= 0.5 + 1e-9
        # independent recomputation: rebuild each neighbor dataset from
        # scratch and evaluate both distributions with the plain direct formula
        fam = construct_halfspace_family(partition(ds)[0], dim)
        base = all_mistake_counts(fam, partition(ds)[2], dim)
        rng = np.random.default_rng(7)
        priv_idx = np.flatnonzero(ds.p)
        for t, trial in enumerate(report.trials):
            idx = int(rng.choice(priv_idx))
            x_new = rng.standard_normal(dim)
            y_new = int(rng.integers(0, 2))
            assert trial.index == idx
            nb = replace_entry(ds, idx, x_new, y_new)
            nb_counts = all_mistake_counts(fam, partition(nb)[2], dim)
            p0 = mechanism_probs_direct(base, 0.5)
            p1 = mechanism_probs_direct(nb_counts, 0.5)
            direct = float(np.max(np.abs(np.log(p0) - np.log(p1))))
            assert trial.max_log_ratio == pytest.approx(direct, abs=1e-10)


def test_neighbor_counts_do_not_wrap_below_zero(monkeypatch):
    # a realizable sample: some hypothesis makes 0 mistakes, and its
    # neighbour count is 0 - 1 + its swap count
    ds = label_determined(2, 10, seed=4)
    base = all_mistake_counts(construct_halfspace_family(partition(ds)[0], 2),
                              partition(ds)[2], 2)
    assert base.dtype == np.uint16 and base.min() == 0
    seen = []
    real = privacy.MechanismDistribution

    def spy(histogram, eps, n):
        seen.append(np.asarray(histogram))
        return real(histogram, eps, n)

    monkeypatch.setattr(privacy, "MechanismDistribution", spy)
    assert verify_dp(ds, [0.5], trials=6, seed=1).passed
    assert len(seen) == 1 + 6  # the base law, then one neighbour law per trial
    for hist in seen:
        assert hist.dtype.kind == "i" and hist.shape == (ds.n + 1,)
        assert hist.min() >= 0 and hist.sum() == base.size


def test_verify_dp_refuses_a_neighbor_count_below_zero(monkeypatch):
    # planted: every swap count 0, so a hypothesis with 0 mistakes would
    # have -1 on the neighbour, which must raise rather than wrap to bin n
    ds = label_determined(2, 10, seed=4)
    real = privacy.swap_mistake_counts

    def planted(family, swaps, dim):
        for samples, rank, counts in real(family, swaps, dim):
            yield samples, rank, np.zeros_like(counts)

    monkeypatch.setattr(privacy, "swap_mistake_counts", planted)
    with pytest.raises(AssertionError, match="outside 0..n"):
        verify_dp(ds, [0.5], trials=2, seed=1)


def test_verify_dp_scores_the_class_once_for_any_number_of_trials(monkeypatch):
    # the base class is the one scorer call; the trials' swap pairs are one
    # batched pass over one sample, with no sample built per trial
    scored, samples = [], []
    real_counts, real_sample = privacy.all_mistake_counts, privacy.LabeledSample

    def counts_spy(family, sample, dim):
        scored.append(sample.n)
        return real_counts(family, sample, dim)

    def sample_spy(*args):
        samples.append(args)
        return real_sample(*args)

    monkeypatch.setattr(privacy, "all_mistake_counts", counts_spy)
    monkeypatch.setattr(privacy, "LabeledSample", sample_spy)
    for dim, trials in [(1, 1), (2, 7), (2, 50), (3, 4)]:
        ds = label_determined(dim, 12, seed=trials)
        scored.clear()
        samples.clear()
        report = verify_dp(ds, [0.1, 1.0], pool_cap=4, trials=trials, seed=trials)
        assert report.passed and len(report.trials) == 2 * trials
        assert scored == [ds.n]
        assert len(samples) == 1


def test_verify_dp_matches_per_hypothesis_oracle_bit_for_bit():
    # every trial's ratio equals the log-ratio taken at every hypothesis of
    # the base and of a neighbour rebuilt from scratch, to the last bit
    eps = [0.1, 1.0, 3.0]
    for dim, n, seed, cap in [(1, 12, 3, None), (2, 14, 4, None), (3, 14, 5, 5)]:
        spec = GeneratorSpec(dim=dim, target=Halfspace(np.ones(dim), 0.1),
                             label_noise=0.2, seed=seed)
        ds = generate(spec, n)
        report = verify_dp(ds, eps, pool_cap=cap, trials=8, seed=seed)
        fam = construct_halfspace_family(partition(ds)[0], dim, cap)
        base = all_mistake_counts(fam, partition(ds)[2], dim)
        rng = np.random.default_rng(seed)
        priv_idx = np.flatnonzero(ds.p)
        for t in range(8):
            idx = int(rng.choice(priv_idx))
            nb = replace_entry(ds, idx, rng.standard_normal(dim), int(rng.integers(0, 2)))
            nb_counts = all_mistake_counts(fam, partition(nb)[2], dim)
            for trial, e in zip(report.trials[3 * t:3 * t + 3], eps):
                assert (trial.index, trial.epsilon) == (idx, e)
                assert trial.max_log_ratio == audit_ratio_oracle(base, nb_counts, e, n)


def test_verify_dp_pointwise_bound_full_outcome_space():
    # every pointwise ratio over the whole class stays within eps
    for seed in (4, 5):
        ds = label_determined(2, 10, seed=seed)
        report = verify_dp(ds, [0.1, 1.0], trials=10, seed=seed)
        assert report.passed


def test_verify_dp_requires_private_entries():
    rng = np.random.default_rng(8)
    ds = PPMDataset(dim=1, X=rng.standard_normal((6, 1)),
                    y=np.zeros(6, dtype=int), p=np.zeros(6, dtype=int))
    with pytest.raises(IllegalNeighborError, match="no private"):
        verify_dp(ds, 1.0)


def test_verify_dp_class_guard(monkeypatch):
    # the audit refuses what learn_half refuses at its default budget, 5e7,
    # and before it scores anything
    def no_scoring(*a, **k):
        raise AssertionError("scored before refusing")

    monkeypatch.setattr(privacy, "all_mistake_counts", no_scoring)
    ds = label_determined(2, 300, seed=9)
    assert ds.n_pub >= 100
    with pytest.raises(BudgetExceededError, match=r"\|G\| up to 51010051 > 50000000 from 100 "):
        verify_dp(ds, 1.0, pool_cap=100)
    with pytest.raises(BudgetExceededError, match="reduce pool_cap"):
        verify_dp(ds, 1.0)  # uncapped


def test_verify_dp_at_the_learners_size():
    # a class of 7.1M members, the size learn_half runs at: the audit
    # passes and holds at most twice the memory learn_half does
    spec = GeneratorSpec(dim=3, target=Halfspace(np.ones(3), 0.1), label_noise=0.05, seed=3)
    ds = generate(spec, 300)
    tracemalloc.start()
    try:
        learn_half(ds, 1.0, pool_cap=10, seed=1)
        learn_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        report = verify_dp(ds, 1.0, pool_cap=10, trials=3, seed=1)
        audit_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.class_size == 7_146_126
    assert report.passed
    assert audit_peak <= 2 * learn_peak, (audit_peak, learn_peak)


def test_verify_dp_keys_past_uint16_match_the_oracle():
    # at n = 22,000 a key 3c + s passes 2^16 - 1: the audit widens the keys
    # rather than wrap them, and every ratio stays bit-identical
    n = 22_000
    ds = generate(GeneratorSpec(dim=1, target=Halfspace([1.0], 0.1), seed=2), n)
    report = verify_dp(ds, [1.0], trials=3, seed=5)
    fam = construct_halfspace_family(partition(ds)[0], 1)
    base = all_mistake_counts(fam, partition(ds)[2], 1)
    assert base.dtype == np.uint16 and 3 * int(base.max()) >= 1 << 16
    rng = np.random.default_rng(5)
    priv_idx = np.flatnonzero(ds.p)
    for trial in report.trials:
        idx = int(rng.choice(priv_idx))
        nb = replace_entry(ds, idx, rng.standard_normal(1), int(rng.integers(0, 2)))
        nb_counts = all_mistake_counts(fam, partition(nb)[2], 1)
        assert trial.index == idx
        assert trial.max_log_ratio == audit_ratio_oracle(base, nb_counts, 1.0, n)


def test_verify_dp_refuses_an_audit_that_checks_nothing(monkeypatch):
    def no_scoring(*a, **k):
        raise AssertionError("scored before refusing")

    monkeypatch.setattr(privacy, "all_mistake_counts", no_scoring)
    ds = label_determined(1, 12, seed=10)
    for trials in (0, -2):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            verify_dp(ds, 1.0, trials=trials)
    for eps in (math.nan, math.inf, [0.5, math.nan]):
        with pytest.raises(ValueError, match="epsilon must be positive and finite"):
            verify_dp(ds, eps)
    with pytest.raises(ValueError, match="epsilon list must not be empty"):
        verify_dp(ds, [])
