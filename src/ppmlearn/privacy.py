"""A pure-DP auditor of the learner's exponential mechanism.

The auditor is exact rather than sampling-based: it compares, at every
hypothesis of the class, the learner's output law on a dataset with its
law on single-private-entry replacements of it. Both laws are
``mechanism.MechanismDistribution``, the object ``learn_half`` draws
from, built from the histogram of mistake counts; the class and its
counts come from the learner's own scorer, under its default budget. A
hypothesis's log-ratio depends only on its mistake count on the dataset
and on the two swapped entries, so each trial evaluates it once per such
pair rather than once per hypothesis. The scorer runs once, on the
dataset; the swapped entries of all trials are counted in one batched
pass (``learner.swap_mistake_counts``). Because the class is built from
public entries only, neighbor runs share the same hypothesis space and the
log-ratio is well defined at every outcome.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import _CHUNK_ENTRIES
from .learner import (DEFAULT_HYPOTHESIS_BUDGET, all_mistake_counts, check_pool_budget,
                      construct_halfspace_family, swap_mistake_counts)
from .mechanism import MechanismDistribution, bin_counts, check_epsilon
from .model import LabeledSample, PPMDataset, curator_only, partition, release_safe

RATIO_SLACK = 1e-9


class IllegalNeighborError(ValueError):
    pass


def _check_private(dataset: PPMDataset, index: int) -> None:
    """Refuse an index outside the dataset or naming a public entry."""
    if not 0 <= index < dataset.n:
        raise IndexError(f"index {index} outside dataset of size {dataset.n}")
    if not dataset.p[index]:
        raise IllegalNeighborError("illegal neighbor: public entry")


def replace_entry(dataset: PPMDataset, index: int, x, y: int) -> PPMDataset:
    """Neighboring dataset: entry ``index`` replaced by (x, y), same size.

    Only private entries may be replaced; the guarantee under audit is
    differential privacy with respect to the private portion only.
    """
    _check_private(dataset, index)
    X = dataset.X.copy()
    ylab = dataset.y.copy()
    X[index] = np.asarray(x, dtype=float)
    ylab[index] = int(y)
    return PPMDataset(dim=dataset.dim, X=X, y=ylab, p=dataset.p.copy())


@dataclass(frozen=True)
class NeighborTrial:
    index: int
    max_log_ratio: float
    epsilon: float


@dataclass(frozen=True, eq=False)
class DPAuditReport:
    """Audit outcome. The trials name private entries and measure the
    mechanism on the private data, so they are curator-only."""

    epsilons: tuple[float, ...] = release_safe()
    trials: tuple[NeighborTrial, ...] = curator_only()
    class_size: int = release_safe()
    family_size: int = release_safe()
    n: int = release_safe()
    slack: float = release_safe()

    @property
    def max_log_ratio(self) -> float:
        return max(t.max_log_ratio for t in self.trials)

    @property
    def passed(self) -> bool:
        return all(t.max_log_ratio <= t.epsilon + self.slack for t in self.trials)


def verify_dp(dataset: PPMDataset, epsilon, pool_cap: int | None = None,
              trials: int = 50, seed=0) -> DPAuditReport:
    """Exact neighbor audit of the learner's output distribution.

    For ``trials`` random single-private-entry replacements, computes both
    exact selection distributions over the shared class and records the
    maximum pointwise |log P(h) - log P'(h)|. Public entries are never
    touched, since the guarantee holds only with respect to private
    entries; ``trials`` < 1 and an empty list of epsilons are refused
    before any scoring, as they would check nothing. PASS means every
    ratio is at most epsilon + 1e-9. A pool is refused before its family
    is built exactly when ``learn_half`` refuses it by default.

    A hypothesis with c mistakes on the dataset has c - 1 + s on the
    neighbor, where s in {0, 1, 2} counts its mistakes on the flipped old
    entry and the new one. Both laws, and so the ratio at h, depend on h
    only through (c, s): each trial bins the class by 3c + s and evaluates
    the ratio once per pair that occurs. The trials are drawn first, in
    the order a trial-by-trial loop draws them. Their tables come from one
    batched pass (``_swap_tables``) per group of trials whose tables fit in
    ``_CHUNK_ENTRIES / 8`` entries: all 50 default trials while n <= 435.
    The base counts are scored and binned once for every epsilon, then
    scaled to 3c in place in their uint16 while 3n < 2^16 (uint32 beyond):
    the one vector of class length the audit holds.
    """
    epsilons = tuple(check_epsilon(e) for e in (epsilon if np.iterable(epsilon) else [epsilon]))
    if not epsilons:
        raise ValueError("epsilon list must not be empty")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    priv_idx = np.flatnonzero(dataset.p)
    if priv_idx.size == 0:
        raise IllegalNeighborError("dataset has no private entries to perturb")
    s_pub, s_priv, s_prime = partition(dataset)
    check_pool_budget(s_pub.n, dataset.dim, pool_cap, DEFAULT_HYPOTHESIS_BUDGET)
    family = construct_halfspace_family(s_pub, dataset.dim, pool_cap)

    n = dataset.n
    base = all_mistake_counts(family, s_prime, dataset.dim)
    base_hist = bin_counts(base, n + 1)
    base_dists = {eps: MechanismDistribution(base_hist, eps, n) for eps in epsilons}
    # from here on base holds 3c, in place while 3n fits uint16
    base = base.astype(np.uint16 if 3 * n < 1 << 16 else np.uint32, copy=False)
    base *= 3
    rng = np.random.default_rng(seed)
    index = np.empty(trials, dtype=np.int64)
    points = np.empty((trials, 2, dataset.dim))
    labels = np.empty((trials, 2), dtype=np.int64)
    for t in range(trials):
        index[t] = rng.choice(priv_idx)
        points[t, 1] = rng.standard_normal(dataset.dim)
        labels[t, 1] = rng.integers(0, 2)
    # mistakes on (x, y) and on (x, 1-y) sum to 1 for every hypothesis,
    # so dropping the old entry adds its flipped mistakes minus one
    points[:, 0] = dataset.X[index]
    labels[:, 0] = 1 - dataset.y[index]
    results = []
    group = max(1, _CHUNK_ENTRIES // 8 // (3 * (n + 1)))
    for lo in range(0, trials, group):
        swaps = LabeledSample(points[lo:lo + group].reshape(-1, dataset.dim),
                              labels[lo:lo + group].ravel(), np.repeat(index[lo:lo + group], 2))
        pairs = _swap_tables(family, base, swaps, dataset.dim, n)
        for t, neighbor_hist in enumerate(_neighbor_histograms(pairs), lo):
            c, s = np.divmod(np.flatnonzero(pairs[t - lo]), 3)
            for eps in epsilons:
                d1 = MechanismDistribution(neighbor_hist, eps, n)
                ratio = float(np.max(np.abs(base_dists[eps].log_prob(c) - d1.log_prob(c - 1 + s))))
                results.append(NeighborTrial(index=int(index[t]), max_log_ratio=ratio, epsilon=eps))
    return DPAuditReport(epsilons=epsilons, trials=tuple(results),
                         class_size=base.size, family_size=family.size,
                         n=n, slack=RATIO_SLACK)


def _swap_tables(family, base, swaps: LabeledSample, dim: int, n: int) -> np.ndarray:
    """The (trials, n+1, 3) tables of hypotheses by base count c and swap
    count s, for the trials whose swap pairs are ``swaps``, from ``base``
    holding 3c. One bincount of 3c + s + 3(n + 1) i per block of
    ``learner.swap_mistake_counts`` fills the tables of the block's trials,
    i the trial's place in the block."""
    stride = 3 * (n + 1)
    pairs = np.zeros((swaps.n // 2, stride), dtype=np.int64)
    offsets = stride * np.arange(pairs.shape[0])[:, None]
    for samples, rank, counts in swap_mistake_counts(family, swaps, dim):
        keys = counts.astype(np.intp)
        keys += base[rank:rank + keys.shape[1]]
        keys += offsets[:len(keys)]
        pairs[samples] += np.bincount(keys.ravel(), minlength=stride * len(keys)).reshape(-1, stride)
    return pairs.reshape(-1, n + 1, 3)


def _neighbor_histograms(pairs: np.ndarray) -> np.ndarray:
    """Histograms of the neighbor counts c - 1 + s, one per trial, from the
    (trials, n+1, 3) tables of hypotheses by base count c and swap count s.
    A neighbor count outside 0..n means the counts are out of step; it is
    refused, not wrapped."""
    trials, bins = pairs.shape[:2]
    by_sum = np.zeros((trials, bins + 2), dtype=np.int64)  # index = c + s
    for s in range(3):
        by_sum[:, s:s + bins] += pairs[:, :, s]
    if by_sum[:, 0].any() or by_sum[:, -1].any():
        raise AssertionError("neighbor mistake count outside 0..n")
    return by_sum[:, 1:-1]
