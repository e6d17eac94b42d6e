"""A pure-DP auditor of the learner's exponential mechanism.

The auditor is exact rather than sampling-based: it materializes the full
output distribution of the learner over the hypothesis class for a dataset
and for single-private-entry replacements of it, and compares the two
pointwise. The distributions are the learner's own ``MechanismDistribution``
(re-exported here), the object ``learn_half`` draws from. Because the class
is built from public entries only, neighbor runs share the same hypothesis
space and the log-ratio is well defined at every outcome.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .learner import (
    MechanismDistribution,  # re-exported: the distribution the auditor checks
    construct_halfspace_family,
    all_mistake_counts,
    check_pool_budget,
    mechanism_distribution,
)
from .model import LabeledSample, PPMDataset, curator_only, partition, release_safe

DEFAULT_AUDIT_CLASS_LIMIT = 100_000
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
              trials: int = 50, seed=0,
              class_limit: int = DEFAULT_AUDIT_CLASS_LIMIT,
              indices=None) -> DPAuditReport:
    """Exact neighbor audit of the learner's output distribution.

    For ``trials`` random single-private-entry replacements, computes both
    exact selection distributions over the shared class and records the
    maximum pointwise |log P(i) - log P'(i)|. Public entries are never
    touched: passing a public index in ``indices`` is refused, since the
    guarantee holds only with respect to private entries. So are an index
    outside 0..n-1, an empty ``indices`` and ``trials`` < 1; the last two
    would check nothing. PASS means every ratio is at most epsilon + 1e-9.
    """
    epsilons = tuple(float(e) for e in (epsilon if np.iterable(epsilon) else [epsilon]))
    if any(e <= 0 for e in epsilons):
        raise ValueError("epsilon must be positive")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    priv_idx = np.flatnonzero(dataset.p)
    if indices is not None:
        indices = [int(i) for i in indices]
        if not indices:
            raise ValueError("indices must name at least one private entry")
        for i in indices:
            _check_private(dataset, i)
    elif priv_idx.size == 0:
        raise IllegalNeighborError("dataset has no private entries to perturb")
    s_pub, s_priv, s_prime = partition(dataset)
    check_pool_budget(s_pub.n, dataset.dim, pool_cap, class_limit)
    family = construct_halfspace_family(s_pub, dataset.dim, pool_cap)

    base_counts = all_mistake_counts(family, s_prime, dataset.dim)
    # signed, so that a count of 0 minus 1 does not wrap
    dropped = base_counts.astype(np.int64) - 1
    base_dists = {eps: mechanism_distribution(base_counts, eps, dataset.n)
                  for eps in epsilons}
    rng = np.random.default_rng(seed)
    results = []
    for t in range(trials):
        if indices is not None:
            idx = indices[t % len(indices)]
        else:
            idx = int(rng.choice(priv_idx))
        x_new = rng.standard_normal(dataset.dim)
        y_new = int(rng.integers(0, 2))
        # mistakes on (x, y) and on (x, 1-y) sum to 1 for every hypothesis,
        # so dropping the old entry adds its flipped mistakes minus one
        swap = LabeledSample(np.vstack([dataset.X[idx], x_new]),
                             [1 - int(dataset.y[idx]), y_new], [idx, idx])
        neighbor_counts = dropped + all_mistake_counts(family, swap, dataset.dim)
        for eps in epsilons:
            d1 = mechanism_distribution(neighbor_counts, eps, dataset.n)
            ratio = float(np.max(np.abs(base_dists[eps].log_probs - d1.log_probs)))
            results.append(NeighborTrial(index=idx, max_log_ratio=ratio, epsilon=eps))
    return DPAuditReport(epsilons=epsilons, trials=tuple(results),
                         class_size=base_counts.size, family_size=family.size,
                         n=dataset.n, slack=RATIO_SLACK)
