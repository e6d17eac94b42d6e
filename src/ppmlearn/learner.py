"""Halfspace-family construction and private hypothesis selection.

Two stages: build a finite halfspace family from the public points (one
supported pair per point subset of size <= d, plus the public affine
span), then select among all intersections of <= d family members (and
the distinguished empty-region hypothesis) with an exponential mechanism
scored by exact mistake counts on the full labeled sample.

Scoring never leaves integer arithmetic: mistake counts are computed with
0/1 matrix products and compared as ints. The products run in float32,
which is exact while each label's count is at most 2^24, and in float64
for larger samples.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .geometry import (
    AffineSubspace,
    Halfspace,
    MEM_TOL,
    RANK_TOL,
    affine_span,
    dedup_halfspaces,
    supporting_halfspace_pair,
)
from .model import EmptySampleError, ErrorCount, LabeledSample, PPMDataset, partition

DEFAULT_HYPOTHESIS_BUDGET = 50_000_000
_CHUNK_ENTRIES = 1 << 19       # entries per block and per temporary
_FLOAT32_EXACT = 1 << 24       # largest integer count float32 holds exactly


class BudgetExceededError(RuntimeError):
    pass


def default_pool_cap(dim: int):
    """Construction pool caps used by the sweep harness and CLI.

    The class size grows like n_pub^(d^2), so d >= 2 sweeps cap the pool;
    d = 1 stays uncapped. d = 2 keeps the cap of 40 its sweeps were run
    with. For d >= 3 the cap is the largest pool whose worst-case class
    (no halfspace deduplicated) fits the default hypothesis budget.
    Library calls default to uncapped.
    """
    if dim == 1:
        return None
    if dim == 2:
        return 40
    m = 1
    while class_cardinality(2 * sum(math.comb(m + 1, j) for j in range(1, dim + 1)),
                            dim) <= DEFAULT_HYPOTHESIS_BUDGET:
        m += 1
    return m


@dataclass(frozen=True, eq=False)
class HalfspaceFamily:
    """Deduplicated halfspaces built from public points, plus their span.

    Construction reads only public examples: two datasets with identical
    public parts produce bit-identical families.
    """

    halfspaces: tuple[Halfspace, ...]
    aff: AffineSubspace
    pool_indices: tuple[int, ...]
    dim: int

    @property
    def size(self) -> int:
        return len(self.halfspaces)

    @cached_property
    def stacked(self):
        """Read-only (W, w0) arrays for vectorized membership."""
        W = np.array([h.normal for h in self.halfspaces]).reshape(-1, self.dim)
        w0 = np.array([h.offset for h in self.halfspaces], dtype=float)
        W.flags.writeable = w0.flags.writeable = False
        return W, w0


@dataclass(frozen=True)
class IntersectionHypothesis:
    """Hypothesis g(x) = 1(x outside the intersection of member halfspaces
    and the public span); members=None is the empty-region hypothesis that
    labels every point 1."""

    members: tuple[int, ...] | None

    def __post_init__(self):
        if self.members is not None:
            m = tuple(int(i) for i in self.members)
            if not m:
                raise ValueError("region hypothesis needs at least one member")
            if any(b <= a for a, b in zip(m, m[1:])):
                raise ValueError("member indices must be strictly increasing")
            object.__setattr__(self, "members", m)

    @property
    def is_empty_region(self) -> bool:
        return self.members is None


EMPTY_REGION = IntersectionHypothesis(None)


def class_cardinality(family_size: int, dim: int) -> int:
    return 1 + sum(math.comb(family_size, j) for j in range(1, dim + 1))


@dataclass(frozen=True, eq=False)
class ClassG:
    """The finite hypothesis class: empty-region first, then every strictly
    increasing member tuple of size 1..d, smaller sizes first and
    lexicographic within a size. Iteration is restartable."""

    family: HalfspaceFamily
    dim: int

    @property
    def cardinality(self) -> int:
        return class_cardinality(self.family.size, self.dim)

    def __iter__(self):
        yield EMPTY_REGION
        for size in range(1, self.dim + 1):
            for combo in itertools.combinations(range(self.family.size), size):
                yield IntersectionHypothesis(combo)


def construct_halfspace_family(S_pub: LabeledSample, dim: int,
                               pool_cap: int | None = None) -> HalfspaceFamily:
    """Supported halfspace pairs for every public-point subset of size <= d.

    Only the first ``pool_cap`` public points (dataset order) feed the
    construction when a cap is given. An empty public sample yields an
    empty family with a sentinel full-space span.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    X = S_pub.X
    idx = S_pub.indices
    if pool_cap is not None and X.shape[0] > pool_cap:
        X = X[:pool_cap]
        idx = idx[:pool_cap]
    m = X.shape[0]
    if m == 0:
        return HalfspaceFamily((), AffineSubspace.full_space(dim), (), dim)
    halfspaces: list[Halfspace] = []
    for size in range(1, dim + 1):
        for combo in itertools.combinations(range(m), size):
            src = tuple(int(idx[i]) for i in combo)
            h, h_op = supporting_halfspace_pair(X[list(combo)], dim, source=src)
            halfspaces.append(h)
            halfspaces.append(h_op)
    deduped = tuple(dedup_halfspaces(halfspaces))
    return HalfspaceFamily(deduped, affine_span(X, dim), tuple(int(i) for i in idx), dim)


def enumerate_class(family: HalfspaceFamily, dim: int) -> ClassG:
    return ClassG(family=family, dim=dim)


def predict(g: IntersectionHypothesis, family: HalfspaceFamily, x) -> int:
    """0 iff x lies in every member halfspace AND the public span."""
    if g.is_empty_region:
        return 1
    x = np.asarray(x, dtype=float)
    if not family.aff.contains(x):
        return 1
    for i in g.members:
        if not family.halfspaces[i].contains(x):
            return 1
    return 0


def predict_many(g: IntersectionHypothesis, family: HalfspaceFamily, X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if g.is_empty_region:
        return np.ones(X.shape[0], dtype=np.uint8)
    inside = family.aff.contains_many(X)
    for i in g.members:
        inside &= family.halfspaces[i].contains_many(X)
    return (~inside).astype(np.uint8)


def hypothesis_error(g: IntersectionHypothesis, family: HalfspaceFamily,
                     sample: LabeledSample) -> ErrorCount:
    """Vectorized exact mistake count of one hypothesis."""
    if sample.n == 0:
        raise EmptySampleError("empty sample")
    pred = predict_many(g, family, sample.X)
    return ErrorCount(int(np.sum(pred != sample.y)), sample.n)


# ---------------------------------------------------------------------------
# Vectorized mistake counts over the whole class, in enumeration order
# ---------------------------------------------------------------------------


def _membership(family: HalfspaceFamily, X: np.ndarray, dtype) -> np.ndarray:
    """(F, n) 0/1 entries: point in halfspace AND in the public span."""
    W, w0 = family.stacked
    tol = MEM_TOL * (1.0 + np.linalg.norm(X, axis=1))
    in_span = family.aff.contains_many(X)[:, None]
    F, n = family.size, X.shape[0]
    M = np.empty((F, n), dtype=dtype)
    chunk = max(1, _CHUNK_ENTRIES // max(n, 1))
    for lo in range(0, F, chunk):
        hi = min(F, lo + chunk)
        signed = X @ W[lo:hi].T
        signed -= w0[lo:hi]
        M[lo:hi] = ((signed >= -tol[:, None]) & in_span).T
    return M


def _score_blocks(family: HalfspaceFamily, sample: LabeledSample, dim: int):
    """Mistake counts of the whole class as ``(rank_base, counts)`` blocks
    that cover ranks 0, 1, 2, ... in enumeration order.

    mistakes(T) = #(y=0 outside region) + #(y=1 inside region)
                = n0 - |intersection on y=0| + |intersection on y=1|.

    Singles are row counts. A tuple of size s >= 2 takes the product of
    its first s-2 member rows once; on 0/1 rows that keeps the points inside
    all of them. One GEMM per row chunk over those points then scores every
    choice of the last two members (the strict upper triangle).
    """
    X0 = sample.X[sample.y == 0]
    X1 = sample.X[sample.y == 1]
    n0 = X0.shape[0]
    yield 0, np.array([n0], dtype=np.int64)
    F = family.size
    if F == 0:
        return
    # d = 1 needs only row counts; GEMM inner products are exact in float32
    # only while each label's count is at most 2^24
    wide = max(n0, X1.shape[0]) > _FLOAT32_EXACT
    dtype = bool if dim == 1 else np.float64 if wide else np.float32
    M0 = _membership(family, X0, dtype)
    M1 = _membership(family, X1, dtype)
    yield 1, n0 - np.count_nonzero(M0, axis=1) + np.count_nonzero(M1, axis=1)
    rank = 1 + F
    for size in range(2, dim + 1):
        for prefix in itertools.combinations(range(F - 2), size - 2):
            start = prefix[-1] + 1 if prefix else 0
            pts0 = M0[list(prefix)].all(axis=0) if prefix else slice(None)
            pts1 = M1[list(prefix)].all(axis=0) if prefix else slice(None)
            S0, S1 = M0[start:, pts0], M1[start:, pts1]
            m = F - start
            rows = max(1, _CHUNK_ENTRIES // m)
            for a in range(0, m - 1, rows):
                b = min(m - 1, a + rows)
                inside = S1[a:b] @ S1[a + 1:].T
                inside -= S0[a:b] @ S0[a + 1:].T
                keep = np.arange(m - a - 1) >= np.arange(b - a)[:, None]
                counts = inside[keep].astype(np.int64)
                counts += n0
                yield rank, counts
                rank += counts.size


def all_mistake_counts(family: HalfspaceFamily, sample: LabeledSample, dim: int,
                       limit: int | None = None) -> np.ndarray:
    """Mistake counts of every hypothesis in enumeration order (rank 0 is
    the empty-region hypothesis). Materializes the whole vector; guard with
    ``limit``."""
    card = class_cardinality(family.size, dim)
    if limit is not None and card > limit:
        raise BudgetExceededError(
            f"class too large; reduce pool_cap (|G| = {card} > {limit})")
    out = np.empty(card, dtype=np.int64)
    for base, counts in _score_blocks(family, sample, dim):
        out[base:base + counts.size] = counts
    return out


def unrank_hypothesis(rank: int, family_size: int, dim: int) -> IntersectionHypothesis:
    """Hypothesis at a given enumeration rank."""
    if rank == 0:
        return EMPTY_REGION
    rank -= 1
    for size in range(1, dim + 1):
        block = math.comb(family_size, size)
        if rank < block:
            combo = []
            prev = -1
            for slot in range(size):
                i = prev + 1
                while True:
                    rest = math.comb(family_size - i - 1, size - slot - 1)
                    if rank < rest:
                        break
                    rank -= rest
                    i += 1
                combo.append(i)
                prev = i
            return IntersectionHypothesis(tuple(combo))
        rank -= block
    raise IndexError("rank outside the class")


# ---------------------------------------------------------------------------
# ERM halfspace
# ---------------------------------------------------------------------------


def _candidate_halfspaces(X: np.ndarray, dim: int):
    """ERM candidate rows (W, w0): supported hyperplanes of every point
    subset of size <= d in four variants (both orientations, boundary
    nudged in/out), plus the two constant classifiers."""
    n = X.shape[0]
    scale = 1.0 + float(np.max(np.linalg.norm(X, axis=1), initial=0.0))
    delta = 4.0 * MEM_TOL * scale
    rows_w: list[np.ndarray] = []
    rows_b: list[np.ndarray] = []

    def add_variants(W, w0):
        rows_w.extend([W, W, -W, -W])
        rows_b.extend([w0 - delta, w0 + delta, -w0 - delta, -w0 + delta])

    e1 = np.zeros(dim)
    e1[0] = 1.0
    proj = X @ e1
    # constant classifiers: everything inside (all label 1) / nothing inside
    rows_w.extend([e1[None, :], e1[None, :]])
    rows_b.extend([np.array([float(proj.min()) - scale]),
                   np.array([float(proj.max()) + scale])])

    if dim == 1:
        t = X[:, 0]
        add_variants(np.ones((n, 1)), t)
        return np.vstack(rows_w), np.concatenate(rows_b)

    if dim == 2:
        # singletons: deterministic rule gives normal e1 through the point
        add_variants(np.tile(e1, (n, 1)), X[:, 0].copy())
        ii, jj = np.triu_indices(n, k=1)
        diff = X[jj] - X[ii]
        nrm = np.linalg.norm(diff, axis=1)
        ok = nrm > RANK_TOL * scale
        if np.any(ok):
            d_ok = diff[ok] / nrm[ok, None]
            W = np.stack([-d_ok[:, 1], d_ok[:, 0]], axis=1)
            lead = np.where(np.abs(W[:, 0]) > 1e-12, W[:, 0], W[:, 1])
            W *= np.sign(lead)[:, None]
            w0 = np.einsum("ij,ij->i", W, X[ii[ok]])
            add_variants(W, w0)
        if np.any(~ok):
            # coincident pairs degrade to the single-point rule
            add_variants(np.tile(e1, (int(np.sum(~ok)), 1)), X[ii[~ok], 0])
        return np.vstack(rows_w), np.concatenate(rows_b)

    for size in range(1, dim + 1):
        for combo in itertools.combinations(range(n), size):
            h, _ = supporting_halfspace_pair(X[list(combo)], dim)
            add_variants(h.normal[None, :], np.array([h.offset]))
    return np.vstack(rows_w), np.concatenate(rows_b)


def _halfspace_mistakes(W, w0, X, y, chunk_rows: int = 8192) -> np.ndarray:
    """Mistake counts of halfspace classifiers (rows of W, w0) on (X, y).

    A candidate errs on a 0-label inside it and a 1-label outside it. The
    per-point tolerance rides along as an extra GEMM column, and chunk
    buffers are reused to keep the scan memory-bandwidth bound.
    """
    tol = MEM_TOL * (1.0 + np.linalg.norm(X, axis=1))
    mask1 = y.astype(bool)
    # membership test: w.x + tol_x >= w0, via augmented inner product
    Q0 = np.column_stack([X[~mask1], tol[~mask1]]).T.copy()
    Q1 = np.column_stack([X[mask1], tol[mask1]]).T.copy()
    n1 = Q1.shape[1]
    C = W.shape[0]
    chunk = min(chunk_rows, C)
    Waug = np.column_stack([W, np.ones(C)])
    out = np.empty(C, dtype=np.int64)
    buf0 = np.empty((chunk, Q0.shape[1]))
    buf1 = np.empty((chunk, n1))
    bits0 = np.empty(buf0.shape, dtype=bool)
    bits1 = np.empty(buf1.shape, dtype=bool)
    for lo in range(0, C, chunk):
        hi = min(C, lo + chunk)
        k = hi - lo
        off = w0[lo:hi, None]
        in0 = 0
        if Q0.size:
            np.matmul(Waug[lo:hi], Q0, out=buf0[:k])
            np.greater_equal(buf0[:k], off, out=bits0[:k])
            in0 = np.count_nonzero(bits0[:k], axis=1)
        in1 = 0
        if Q1.size:
            np.matmul(Waug[lo:hi], Q1, out=buf1[:k])
            np.greater_equal(buf1[:k], off, out=bits1[:k])
            in1 = np.count_nonzero(bits1[:k], axis=1)
        out[lo:hi] = in0 + (n1 - in1)
    return out


def erm_halfspace(S_prime: LabeledSample, dim: int):
    """Exact empirical-risk-minimizing halfspace over the support-realized
    candidate set; ties broken by lexicographic (w, w0)."""
    if S_prime.n == 0:
        raise EmptySampleError("empty sample")
    W, w0 = _candidate_halfspaces(S_prime.X, dim)
    mistakes = _halfspace_mistakes(W, w0, S_prime.X, S_prime.y)
    best = int(mistakes.min())
    ties = np.flatnonzero(mistakes == best)
    R = np.column_stack([W[ties], w0[ties]])
    keys = tuple(R[:, c] for c in reversed(range(R.shape[1])))
    pick = ties[np.lexsort(keys)[0]]
    h = Halfspace(W[pick], float(w0[pick]))
    return h, ErrorCount(best, S_prime.n)


# ---------------------------------------------------------------------------
# Exhaustive best-in-class
# ---------------------------------------------------------------------------


def best_in_class(classG: ClassG, S_prime: LabeledSample):
    """Exact minimum mistake count over the class; first minimizer in
    enumeration order."""
    if S_prime.n == 0:
        raise EmptySampleError("empty sample")
    best_rank, best_count = 0, S_prime.n + 1
    for base, counts in _score_blocks(classG.family, S_prime, classG.dim):
        k = int(np.argmin(counts))
        if counts[k] < best_count:
            best_rank, best_count = base + k, int(counts[k])
    g = unrank_hypothesis(best_rank, classG.family.size, classG.dim)
    return g, ErrorCount(best_count, S_prime.n)


# ---------------------------------------------------------------------------
# The learning algorithm
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class MechanismDistribution:
    """Exact selection law of the exponential mechanism over the class.

    log_prob_i = -(eps/2) * mistakes_i - log sum_j exp(-(eps/2) * mistakes_j);
    equivalently (eps*n/2) * q_i with score q_i = -mistakes_i / n and
    sensitivity 1/n. The law depends on the class only through the histogram
    of mistake counts (at most n+1 bins), so the normalizer is a sum over
    bins and a draw picks a count first, then a hypothesis with that count.
    Holds a read-only view of ``mistake_counts``.
    """

    mistake_counts: np.ndarray
    epsilon: float
    n: int
    histogram: np.ndarray = field(init=False)  # index = mistake count
    min_mistakes: int = field(init=False)
    log_normalizer: float = field(init=False)  # log sum of exp(-eps*(c - min)/2)

    def __post_init__(self):
        c = np.asarray(self.mistake_counts, dtype=np.int64).view()
        if c.size == 0:
            raise ValueError("empty score list")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        hist = np.bincount(c, minlength=self.n + 1)  # copies read-only input
        c.flags.writeable = hist.flags.writeable = False
        object.__setattr__(self, "mistake_counts", c)
        object.__setattr__(self, "histogram", hist)
        object.__setattr__(self, "min_mistakes", int(np.flatnonzero(hist)[0]))
        object.__setattr__(self, "log_normalizer",
                           math.log(math.fsum(self._bin_weights())))

    def _bin_weights(self) -> np.ndarray:
        """hist[c] * exp(-eps*(c - min)/2) for the counts c >= min."""
        tail = self.histogram[self.min_mistakes:]
        return tail * np.exp(-(self.epsilon / 2.0) * np.arange(tail.size))

    @cached_property
    def log_probs(self) -> np.ndarray:
        shift = self.mistake_counts - self.min_mistakes
        lp = -(self.epsilon / 2.0) * shift - self.log_normalizer
        lp.flags.writeable = False
        return lp

    @property
    def probs(self) -> np.ndarray:
        return np.exp(self.log_probs)

    def sample(self, rng) -> tuple[int, float]:
        """Draw a rank; also returns the uniform draw that picked its count.

        The count c is found by inverting the uniform draw over the
        cumulative bin weights; the rank is then the k-th (k uniform) of the
        hypotheses with count c, found in one chunked pass.
        """
        u = float(rng.random())
        cum = np.cumsum(self._bin_weights())
        # never past the last bin of positive weight
        c = self.min_mistakes + min(
            int(np.searchsorted(cum, u * cum[-1], side="right")),
            int(np.searchsorted(cum, cum[-1], side="left")))
        k = int(rng.integers(self.histogram[c]))
        for lo in range(0, self.mistake_counts.size, _CHUNK_ENTRIES):
            hits = np.flatnonzero(self.mistake_counts[lo:lo + _CHUNK_ENTRIES] == c)
            if k < hits.size:
                return lo + int(hits[k]), u
            k -= hits.size
        raise AssertionError("histogram out of step with the counts")


def mechanism_distribution(mistake_counts, epsilon: float, n: int) -> MechanismDistribution:
    return MechanismDistribution(mistake_counts=np.asarray(mistake_counts),
                                 epsilon=float(epsilon), n=int(n))


@dataclass(frozen=True, eq=False)
class LearnDiagnostics:
    """Selection bookkeeping for reports and the DP auditor."""

    n: int
    n_pub: int
    n_priv: int
    dim: int
    epsilon: float
    pool_cap: int | None
    pool_size: int
    family_size: int
    class_size: int
    aff_dim: int
    selected_rank: int
    selected_mistakes: int
    min_mistakes: int
    error: ErrorCount
    mistake_histogram: np.ndarray  # index = mistake count, value = multiplicity
    log_normalizer: float          # log sum of exp(-eps*(c - min)/2)
    uniform_draw: float | None
    notes: tuple[str, ...] = ()


class LearnResult(NamedTuple):
    hypothesis: IntersectionHypothesis
    family: HalfspaceFamily
    diagnostics: LearnDiagnostics


def learn_half(dataset: PPMDataset, epsilon: float, pool_cap: int | None = None,
               seed=0, budget: int = DEFAULT_HYPOTHESIS_BUDGET) -> LearnResult:
    """Private halfspace-mixture learning.

    Builds the public family, scores every hypothesis in the intersection
    class by exact mistake count on the full labeled sample, and samples
    one via the exponential mechanism with score -err and sensitivity 1/n,
    i.e. selection probability proportional to exp(-eps * mistakes / 2).
    The draw comes from the same ``MechanismDistribution`` that
    ``verify_dp`` audits.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    notes = []
    if epsilon > 1:
        msg = f"epsilon {epsilon} outside (0, 1]; guarantees degrade"
        warnings.warn(msg, RuntimeWarning, stacklevel=2)
        notes.append(msg)

    s_pub, s_priv, s_prime = partition(dataset)
    family = construct_halfspace_family(s_pub, dataset.dim, pool_cap)
    counts = all_mistake_counts(family, s_prime, dataset.dim, limit=budget)
    dist = mechanism_distribution(counts, epsilon, dataset.n)
    rank, u = dist.sample(np.random.default_rng(seed))
    selected = int(counts[rank])
    diag = LearnDiagnostics(
        n=dataset.n, n_pub=dataset.n_pub, n_priv=dataset.n_priv, dim=dataset.dim,
        epsilon=float(epsilon), pool_cap=pool_cap,
        pool_size=len(family.pool_indices), family_size=family.size,
        class_size=counts.size, aff_dim=family.aff.k,
        selected_rank=rank, selected_mistakes=selected,
        min_mistakes=dist.min_mistakes, error=ErrorCount(selected, dataset.n),
        mistake_histogram=dist.histogram, log_normalizer=dist.log_normalizer,
        uniform_draw=u, notes=tuple(notes),
    )
    return LearnResult(unrank_hypothesis(rank, family.size, dataset.dim), family, diag)
