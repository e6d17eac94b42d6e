"""Halfspace-family construction, class scoring and private selection.

Two stages: build a finite halfspace family from the public points (one
supported pair per point subset of size <= d, plus the public affine
span), then select among all intersections of <= d family members (and
the distinguished empty-region hypothesis) with an exponential mechanism
scored by exact mistake counts on the full labeled sample. The mechanism's
law is ``mechanism.MechanismDistribution``; the non-private ERM baseline
is ``erm.erm_halfspace``.

Scoring never leaves integer arithmetic. At d = 1 every member is a
threshold: one sort of the sample and two binary searches per member count
the points on each side, and only the points near a threshold are tested
one by one, O((F + n) log n). At d >= 2 the members come in lines:
member 2l is line l's plus orientation and member 2l + 1 its exact
negation (``HalfspaceFamily``). Membership is taken once per line and
point, and the counts of both orientations follow by inclusion-exclusion
from one symmetric product per label (numpy runs them as syrk) and small
products over the points on a line: pairs cost (F/2)^2 * n / 2
multiply-adds, not F^2 * n / 2. The points stream through the products in
chunks, each dropped once summed: at d = 2 memory is O((F/2)^2 + F/2 *
chunk) per CPU, whatever n. A chunk's products are exact in float32; their
sums, integers of magnitude at most 4n, go to float64 once 4n passes 2^24.
Counts are stored as uint16 while n < 65,536 and as uint32 beyond.

A pair Gram of at least ``_THREAD_MIN_MADDS`` multiply-adds runs on every
CPU the process may use, on a thread pool that lives for that Gram alone:
each CPU streams an equal share of the points into sums of its own, and
the calling thread adds them up. Every sum is an exact integer, so the
counts are bit-identical either way. Smaller Grams, and every d = 1 pass,
run on the calling thread and start no thread.

The DP audit's swap pairs are scored all at once, with the same membership
and rank order (``swap_mistake_counts``).
"""

from __future__ import annotations

import itertools
import math
import os
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import (
    _CHUNK_ENTRIES,
    AffineSubspace,
    DimensionMismatch,
    MEM_TOL,
    _combinations,
    affine_span,
    dedup_rows,
    point_tolerances,
    supporting_hyperplanes,
)
from .mechanism import check_epsilon, mechanism_distribution
from .model import (
    EmptySampleError,
    ErrorCount,
    LabeledSample,
    PPMDataset,
    curator_only,
    partition,
    release_safe,
)

DEFAULT_HYPOTHESIS_BUDGET = 50_000_000
_FLOAT32_EXACT = 1 << 24       # largest integer count float32 holds exactly
# Multiply-adds of a pair Gram, lines^2 * points / 2, from which scoring
# runs on threads: a product of ~19 ms on one core, where the CPUs' shares
# of the points save several times the pool's fixed cost of about 1 ms. A
# d = 2 pass over 820 lines and 8000 points (2.7e9) is above it; one over
# 600 points (2.0e8), which a pool slowed, is below.
_THREAD_MIN_MADDS = 1_000_000_000


class BudgetExceededError(RuntimeError):
    pass


def default_pool_cap(dim: int):
    """Construction pool cap that the sweep and every CLI command default to.

    The class size grows like n_pub^(d^2), so d >= 2 caps the pool; d = 1
    stays uncapped. d = 2 keeps the cap of 40 its sweeps were run with. For
    d >= 3 the cap is the largest pool whose worst-case class (no halfspace
    deduplicated) fits the default budget. Library calls default to uncapped.
    """
    if dim == 1:
        return None
    if dim == 2:
        return 40
    m = 1
    while raw_class_bound(m + 1, dim) <= DEFAULT_HYPOTHESIS_BUDGET:
        m += 1
    return m


def resolve_pool_cap(pool_cap: int | None, dim: int) -> int | None:
    """The sweep's and the CLI's pool cap as the library's: None takes the
    per-dimension default, 0 is uncapped (None), and below 0 is refused."""
    if pool_cap is None:
        return default_pool_cap(dim)
    if pool_cap < 0:
        raise ValueError("pool_cap must be >= 0")
    return None if pool_cap == 0 else int(pool_cap)


def raw_class_bound(m: int, dim: int) -> int:
    """|G| when none of the 2 * sum_{j<=d} C(m, j) supported halfspaces of
    a pool of m points is a duplicate: a bound on the class size."""
    return class_cardinality(2 * sum(math.comb(m, j) for j in range(1, dim + 1)), dim)


def _check_pool_cap(pool_cap: int | None) -> None:
    """A cap keeps at least one pool point; uncapped is spelled None."""
    if pool_cap is not None and pool_cap < 1:
        raise ValueError("pool_cap must be >= 1; None means uncapped")


def check_pool_budget(n_pub: int, dim: int, pool_cap: int | None, budget: int) -> None:
    """Refuse, before the family is built, a pool whose class could exceed
    ``budget``. The bound counts duplicate halfspaces too, so it can refuse
    a pool whose duplicates would have shrunk the class under the budget."""
    _check_pool_cap(pool_cap)
    m = n_pub if pool_cap is None else min(n_pub, pool_cap)
    bound = raw_class_bound(m, dim)
    if bound > budget:
        raise BudgetExceededError(
            f"class too large; reduce pool_cap (|G| up to {bound} > {budget} from "
            f"{m} pool points, counting duplicate halfspaces, so it may have fit)")


@dataclass(frozen=True, eq=False)
class HalfspaceFamily:
    """Deduplicated halfspaces built from public points, plus their span.

    Member i is {x : W[i] . x >= w0[i]}, with a unit normal, and is
    supported by the public entries ``sources[i]``: dataset indices,
    padded with -1 to ``dim`` columns. The members come in lines: line l
    is member 2l, its plus orientation, and member 2l + 1, the exact
    negation of member 2l, as ``construct_halfspace_family`` emits them.
    A family of any other shape is refused. The arrays are read-only.
    Construction reads only public examples: two datasets with identical
    public parts produce bit-identical families.
    """

    W: np.ndarray
    w0: np.ndarray
    sources: np.ndarray
    aff: AffineSubspace
    pool_indices: tuple[int, ...]
    dim: int

    def __post_init__(self):
        W = np.array(self.W, dtype=float).reshape(-1, self.dim)
        w0 = np.array(self.w0, dtype=float).reshape(-1)
        sources = np.array(self.sources, dtype=np.int64).reshape(-1, self.dim)
        if not W.shape[0] == w0.size == sources.shape[0]:
            raise ValueError("W, w0 and sources must have one row per member")
        # the d = 1 scorer's band (``_threshold_excess``) rests on unit normals
        if not np.all(np.abs(np.linalg.norm(W, axis=1) - 1.0) <= 1e-12):
            raise ValueError("member normals must be unit vectors")
        # the d >= 2 scorer derives a line's minus orientation from its plus
        if w0.size % 2 or not (np.array_equal(W[1::2], -W[::2])
                               and np.array_equal(w0[1::2], -w0[::2])):
            raise ValueError("members must come in pairs 2l, 2l + 1 of exact negations")
        for name, arr in (("W", W), ("w0", w0), ("sources", sources)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def size(self) -> int:
        return self.w0.size


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
            if m[0] < 0:
                raise ValueError("member indices must be non-negative")
            object.__setattr__(self, "members", m)

    @property
    def is_empty_region(self) -> bool:
        return self.members is None


EMPTY_REGION = IntersectionHypothesis(None)


def class_cardinality(family_size: int, dim: int) -> int:
    return 1 + sum(math.comb(family_size, j) for j in range(1, dim + 1))


def construct_halfspace_family(S_pub: LabeledSample, dim: int,
                               pool_cap: int | None = None) -> HalfspaceFamily:
    """Supported halfspace pairs for every public-point subset of size <= d.

    Subsets come smaller sizes first and lexicographic within a size; each
    contributes its supported halfspace, then the opposite one, and
    near-duplicate rows are dropped, the first occurrence kept. A row and
    its exact negation are kept or dropped together, so line l stays
    members 2l and 2l + 1 (``HalfspaceFamily``). Only the first
    ``pool_cap`` public points (dataset order) feed the construction when
    a cap is given; a cap below 1 is refused, and None means uncapped. An
    empty public sample yields an empty family with a sentinel full-space
    span.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    _check_pool_cap(pool_cap)
    X = S_pub.X
    idx = S_pub.indices
    if pool_cap is not None and X.shape[0] > pool_cap:
        X = X[:pool_cap]
        idx = idx[:pool_cap]
    m = X.shape[0]
    if m == 0:
        return HalfspaceFamily(np.zeros((0, dim)), np.zeros(0), np.zeros((0, dim)),
                               AffineSubspace.full_space(dim), (), dim)
    Ws, w0s, srcs = [], [], []
    for size in range(1, min(dim, m) + 1):
        combos = _combinations(m, size)
        W, w0 = supporting_hyperplanes(X, combos)
        # the rows are unit already, so the opposite needs no rescaling
        Ws.append(np.stack([W, -W], axis=1).reshape(-1, dim))
        w0s.append(np.stack([w0, -w0], axis=1).ravel())
        src = np.full((combos.shape[0], dim), -1, dtype=np.int64)
        src[:, :size] = idx[combos]
        srcs.append(np.repeat(src, 2, axis=0))
    W, w0, sources = np.concatenate(Ws), np.concatenate(w0s), np.concatenate(srcs)
    kept = dedup_rows(np.column_stack([W, w0]))
    return HalfspaceFamily(W[kept], w0[kept], sources[kept], affine_span(X, dim),
                           tuple(idx.tolist()), dim)


def predict_many(g: IntersectionHypothesis, family: HalfspaceFamily, X) -> np.ndarray:
    """Label of each row of X: 0 iff the point lies in the public span and
    in every member halfspace of ``g``, 1 otherwise."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != family.dim:
        raise DimensionMismatch(f"points have shape {X.shape}, expected (n, {family.dim})")
    if g.is_empty_region:
        return np.ones(X.shape[0], dtype=np.uint8)
    inside = family.aff.contains_many(X)
    tol = point_tolerances(X)
    for i in g.members:
        inside &= X @ family.W[i] - family.w0[i] >= -tol
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


def _cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _chunk_lines(n: int) -> int:
    """Lines per ``_membership`` chunk over n points."""
    return max(1, _CHUNK_ENTRIES // 8 // max(n, 1))


def _chunk_points(L: int) -> int:
    """Points per chunk that ``_gram`` streams over L lines: 4 MiB of float32
    membership. Half that made a d = 2 pass over 820 lines a few % slower."""
    return max(1, 2 * _CHUNK_ENTRIES // max(L, 1))


def _threaded(L: int, n: int) -> bool:
    """Whether a pair Gram over L lines and n points runs on threads."""
    return L * L * n >= 2 * _THREAD_MIN_MADDS


def _membership(family: HalfspaceFamily, X: np.ndarray, Z: np.ndarray):
    """Membership at d >= 2 of points X, all in the public span, written to
    Z, lines by points. Line l's plus orientation (W, w0), member 2l, holds
    x when s = W . x - w0 >= -tol, tol = MEM_TOL * (1 + |x|), and its minus
    orientation, member 2l + 1, the exact negation, when s <= tol, as in
    ``predict_many``. Z gets the plus orientations; returned are the points
    on some line, which both orientations hold: their indices, ascending,
    and their 0/1 on-line columns E, in Z's dtype. One product
    W[lo:hi] @ X.T per chunk of lines, sized so that s stays in L2
    (``_CHUNK_ENTRIES / 8`` float64 entries): s >= -tol gives Z's rows and
    s > tol the points strictly inside, so a held point not strictly inside
    is on the line, kept as an index, never in a mask. d = 1 counts
    thresholds instead (``_threshold_excess``).
    """
    W, w0 = np.ascontiguousarray(family.W[::2]), family.w0[::2]
    tol = point_tolerances(X)
    floor = -tol
    n = X.shape[0]
    step = _chunk_lines(n)
    on_line = []  # flat (line, point) indices, line-major
    for lo in range(0, w0.size, step):
        signed = W[lo:lo + step] @ X.T
        signed -= w0[lo:lo + step, None]
        held = np.greater_equal(signed, floor)
        Z[lo:lo + step] = held
        on = np.greater(signed, tol)
        np.greater(held, on, out=on)  # held and not strictly inside
        on_line.append(np.flatnonzero(on) + lo * n)
    line, point = np.divmod(np.concatenate(on_line), n)
    pts = np.flatnonzero(np.bincount(point, minlength=n))
    E = np.zeros((w0.size, pts.size), dtype=Z.dtype)
    E[line, np.searchsorted(pts, point)] = 1
    return pts, E


def _threshold_excess(family: HalfspaceFamily, sample: LabeledSample) -> np.ndarray:
    """d = 1: for each member, the 1-labels it holds minus the 0-labels it
    holds, over the points in the public span. Its mistakes are n0 plus
    that.

    Member i holds x when x*w - w0 >= -MEM_TOL*(1+|x|) (``_membership``'s
    expression): x >= t for w > 0 and x <= t for w < 0, t = w0/w, give or
    take the tolerance. After one sort of the points, two binary searches
    per member find the points below and above a band [t - b, t + b]; a
    prefix sum of the labels counts those, and the few points inside the
    band are tested with the expression itself, in chunks of at most
    ``_CHUNK_ENTRIES`` tests. O((F + n) log n) plus the band points.

    The band width: normals are unit, |w| within 1e-12 of 1, so the
    tolerance moves the boundary by at most MEM_TOL*(1+|x|)/|w| from t,
    under 1.01*MEM_TOL*(1+|t|) while |x| <= |t| + b. Rounding adds a few
    ulps of 1+|t|: in t = w0/w, in x*w, in the subtraction and in the
    edges t -+ b. With b = 4*MEM_TOL*(1+|t|) + 8*spacing(1+|t|), x*w - w0
    rounds to a value >= 0 above the band and to one below
    -MEM_TOL*(1+|x|) under it; farther points only widen the margins, which
    grow faster than the tolerance. The first term covers the tolerance
    four times over and the second the rounding. w < 0 is the mirror image
    under x -> -x.
    """
    keep = family.aff.contains_many(sample.X)
    x = sample.X[keep, 0]
    order = np.argsort(x, kind="stable")
    x = x[order]
    sign = np.where(sample.y[keep] == 1, 1, -1)[order]  # +1 per 1-label, -1 per 0-label
    tol = point_tolerances(x[:, None])
    extra = 0
    if x.size and max(tol[0], tol[-1]) == np.inf:
        # the norm overflows past |x| ~ 1.3e154: tol is inf and every member
        # holds x; such points sit at the ends of the sort
        huge = tol == np.inf
        extra = int(sign[huge].sum())
        x, tol, sign = x[~huge], tol[~huge], sign[~huge]
    w, w0 = family.W[:, 0], family.w0
    t = w0 / w
    reach = 1.0 + np.abs(t)
    b = 4.0 * MEM_TOL * reach + 8.0 * np.spacing(reach)
    below = np.searchsorted(x, t - b)
    above = np.searchsorted(x, t + b, side="right")
    prefix = np.concatenate([[0], np.cumsum(sign)])
    excess = np.where(w > 0, prefix[-1] - prefix[above], prefix[below]) + extra
    # the band tests, member-major: test k belongs to the last member whose
    # first test is at or before k
    width = above - below
    first = np.cumsum(width) - width
    total = int(width.sum())
    for lo in range(0, total, _CHUNK_ENTRIES):
        k = np.arange(lo, min(lo + _CHUNK_ENTRIES, total))
        member = np.searchsorted(first, k, side="right") - 1
        pos = below[member] + (k - first[member])
        held = x[pos] * w[member] - w0[member] >= -tol[pos]
        excess += np.bincount(member, weights=held * sign[pos],
                              minlength=w.size).astype(np.int64)
    return excess


def _label_operand(Z):
    """Z, or Z of one column widened with a zero column: numpy runs a
    product of inner size 1 outside BLAS, several times slower."""
    return Z if Z.shape[1] > 1 else np.concatenate([Z, np.zeros_like(Z)], axis=1)


def _gram(source, n, n1, L, dtype):
    """The sums over points that the pair counts of L lines are formed
    from: ``source(lo, hi, out)`` gives points lo..hi of n, the n1 1-labels
    first, as ``_membership`` does, in float32, written to ``out`` or not.
    With +1 per 1-label and -1 per 0-label: the Gram G = Z1 Z1^T - Z0 Z0^T
    of the label blocks, on and above its diagonal, in ``dtype``, and the
    on-line points' signed columns of Z, columns of E and signs.

    The points stream in chunks of ``_chunk_points(L)``; each label block
    of a chunk adds its symmetric product to G in row strips of at most
    ``_CHUNK_ENTRIES / 2`` entries, which stay in L2: syrk for a strip's
    diagonal block, a GEMM for the block to its right (a block of one point
    gets a zero column, ``_label_operand``). The products are integers of
    at most the chunk size, exact in float32, and their sums integers of
    magnitude at most n, exact in ``dtype``: G is the same in any order of
    summation. When the L^2 n / 2 multiply-adds reach ``_THREAD_MIN_MADDS``,
    each CPU streams an equal share of the points into sums of its own: the
    calling thread the first share, and a pool that lives for this call
    alone the others.
    """
    parts = _cpus() if _threaded(L, n) else 1
    step, strip = _chunk_points(L), max(1, _CHUNK_ENTRIES // (2 * L))
    # every CPU's chunk and strip in one block: glibc keeps freed memory only up
    # to twice its largest freed block; smaller buffers cost learn_d2 4,000 faults a pass
    width = L * min(step, -(-n // parts))
    work = np.empty((parts, width + min(L, strip) * L), dtype=np.float32)

    def stream(i):
        G = np.zeros((L, L), dtype=dtype)
        end = n * (i + 1) // parts
        # one chunk if n == 0
        return G, [add(G, work[i], lo, min(end, lo + step))
                   for lo in range(n * i // parts, max(end, 1), step)]

    def add(G, buf, lo, hi):
        Z, out = buf[:L * (hi - lo)].reshape(L, hi - lo), buf[width:].reshape(-1, L)
        Z, pts, E = source(lo, hi, Z)
        split = min(max(n1 - lo, 0), hi - lo)
        for block, sum_into in ((Z[:, :split], np.add), (Z[:, split:], np.subtract)):
            if block.shape[1]:
                block = _label_operand(block)
                for a in range(0, L, strip):
                    b = min(L, a + strip)
                    part = out[:b - a, :L - a]
                    np.matmul(block[a:b], block[a:b].T, out=part[:, :b - a])
                    if b < L:
                        np.matmul(block[a:b], block[b:].T, out=part[:, b - a:])
                    sum_into(G[a:b, a:], part, out=G[a:b, a:])
        s = np.where(pts < split, np.float32(1), np.float32(-1))
        return Z[:, pts] * s, E, s

    if parts == 1:
        shares = [stream(0)]
    else:
        from concurrent.futures import ThreadPoolExecutor  # a 6 ms import, paid here only
        # leaving the block waits for every task, also when one raises
        with ThreadPoolExecutor(parts - 1, thread_name_prefix="ppmlearn-score") as pool:
            tasks = [pool.submit(stream, i) for i in range(1, parts)]
            shares = [stream(0)] + [task.result() for task in tasks]
    (G, online), *partials = shares
    for G_i, online_i in partials:
        G += G_i
        online += online_i
    if len(online) > 1:
        online = [[np.concatenate(cols, axis=-1) for cols in zip(*online)]]
    return (G, *(cols.astype(dtype, copy=False) for cols in online[0]))


def _tuple_blocks(G, sP, E, s, total, start, base, singles):
    """Mistake counts, offset by ``base``, from the sums of ``_gram`` over
    points of signed count ``total``: of every member if ``singles``, then
    of every pair i < j of the members from ``start`` on, lexicographic,
    in blocks; member 2l + 1 of G's lines negates 2l (``HalfspaceFamily``).

    Over the points, with +1 per 1-label and -1 per 0-label, the plus
    orientation P_l of line l is a row of Z and the minus orientation is
    1 - P_l + O_l, where O_l, the on-line points, lie in P_l. With the
    signed sizes r_l = |P_l|, the diagonal of G, o_l = |O_l| and A of all
    points, the signed intersections of the four orientation pairs of
    lines l and m follow from G = P_l . P_m and the products C = P_l . O_m,
    C' = O_l . P_m and D = O_l . O_m over the k on-line points:

        plus-plus    G
        plus-minus   r_l - G + C
        minus-plus   r_m - G + C'
        minus-minus  A - r_l - r_m + o_l + o_m + G - C - C' + D

    Each correction, with its row and column terms as extra rank-one rows,
    is one small GEMM of inner size at most 2k + 2. The four blocks are
    interleaved by member, at most ``_CHUNK_ENTRIES`` entries at a time,
    and the pairs i < j of members from ``start`` on kept. Every value is
    an integer of magnitude at most 4n, exact in G's dtype.
    """
    L, k = E.shape
    r = G.diagonal()
    o_r = E @ s - r
    count_minus = o_r + (base + total)  # base + A - r + o
    if singles:
        yield np.concatenate([(base + r)[:, None], count_minus[:, None]], axis=1).ravel()
    # the corrections and their rank-one terms as row factors:
    # plus.T @ on = C + r_l + base, on.T @ plus = C' + r_m + base, and
    # minus.T @ cols = the minus-minus count - G. No inner size is 1,
    # which numpy would not hand to BLAS.
    ones = np.ones((1, L), dtype=G.dtype)
    left = np.concatenate([sP.T, r[None], base * ones, (E * s - sP).T, E.T, count_minus[None],
                           ones])
    right = np.concatenate([E.T, ones, ones, E.T, -sP.T, ones, o_r[None]])
    plus, minus, on, cols = left[:k + 2], left[k + 2:], right[:k + 2], right[k + 2:]
    # member ids over G's lines; a row member before ``start`` keeps no column
    member = np.arange(2 * L)
    row_member = np.where(member < start, 2 * L, member)
    rows = max(1, _CHUNK_ENTRIES // (4 * L))
    for c in range(0, L, rows):
        e = min(L, c + rows)
        g = G[c:e, c:]
        out = np.empty((e - c, 2, L - c, 2), dtype=G.dtype)
        np.add(g, base, out=out[:, 0, :, 0])
        np.subtract(plus[:, c:e].T @ on[:, c:], g, out=out[:, 0, :, 1])
        np.subtract(on[:, c:e].T @ plus[:, c:], g, out=out[:, 1, :, 0])
        np.add(minus[:, c:e].T @ cols[:, c:], g, out=out[:, 1, :, 1])
        keep = member[2 * c:] > row_member[2 * c:2 * e, None]
        yield out.reshape(2 * (e - c), -1)[keep]


def _score_blocks(family: HalfspaceFamily, sample: LabeledSample, dim: int):
    """Mistake counts of the whole class as ``(rank_base, counts)`` blocks
    that cover ranks 0, 1, 2, ... in enumeration order.

    mistakes(T) = #(y=0 outside region) + #(y=1 inside region)
                = n0 - |intersection on y=0| + |intersection on y=1|.

    At d = 1 every member is a threshold: its counts come from one sort and
    binary searches (``_threshold_excess``), with no (F, n) matrix. At
    d >= 2 the work is done once per line, members 2l and 2l + 1, over the
    points in the public span: both orientations follow by integer
    inclusion-exclusion (``_tuple_blocks``) from sums over the points
    (``_gram``). A tuple of size s >= 2 restricts the points to those
    inside its first s-2 members, and one symmetric product per label over
    them scores every choice of the last two. Membership is taken chunk by
    chunk at d = 2 and whole at d >= 3, where the prefixes need it. Counts
    at d >= 2 come as floats holding exact integers.
    """
    zero = sample.y == 0
    n0 = int(np.count_nonzero(zero))
    yield 0, np.array([n0], dtype=np.int64)
    F = family.size
    if F == 0:
        return
    if dim == 1:
        yield 1, n0 + _threshold_excess(family, sample)
        return
    # points off the public span are in no member and only add to n0
    span = family.aff.contains_many(sample.X)
    X1 = sample.X[span & ~zero]
    X = np.concatenate([X1, sample.X[span & zero]])
    n1 = X1.shape[0]
    L, n = F // 2, X.shape[0]
    if dim > 2:
        Z = np.empty((L, n), dtype=np.float32)
        pts, E = _membership(family, X, Z)
        where = np.full(n, -1)  # a point's column of E; -1 off every line
        where[pts] = np.arange(pts.size)
        keep = np.arange(n)

    def source(lo, hi, out):  # points lo..hi of those kept, over lines l0 on
        if dim == 2:
            return out, *_membership(family, X[lo:hi], out)
        cols = keep[lo:hi]
        on = np.flatnonzero(where[cols] >= 0)
        return Z[l0:, cols], on, E[l0:, where[cols[on]]]

    # the sums and the counts formed from them are integers of at most 4n
    dtype = np.float64 if 4 * sample.n > _FLOAT32_EXACT else np.float32
    rank = 1
    for size in range(2, dim + 1):
        for prefix in itertools.combinations(range(F - 2), size - 2):
            start = prefix[-1] + 1 if prefix else 0
            l0, m, m1 = start // 2, n, n1
            if prefix:
                inside = np.ones(n, dtype=bool)
                for p in prefix:
                    held = Z[p // 2] > 0
                    if p % 2:
                        held = ~held
                        held[pts[E[p // 2] > 0]] = True
                    inside &= held
                keep = np.flatnonzero(inside)
                m, m1 = keep.size, int(np.searchsorted(keep, n1))
            sums = _gram(source, m, m1, L - l0, dtype)
            for counts in _tuple_blocks(*sums, 2 * m1 - m, start % 2, n0, not prefix):
                yield rank, counts
                rank += counts.size


def all_mistake_counts(family: HalfspaceFamily, sample: LabeledSample, dim: int) -> np.ndarray:
    """Mistake counts of every hypothesis in enumeration order (rank 0 is
    the empty-region hypothesis), as uint16 while n < 65,536 and as uint32
    beyond. Materializes the whole vector; callers check the class size
    first (``check_pool_budget``)."""
    out = np.empty(class_cardinality(family.size, dim),
                   dtype=np.uint16 if sample.n < 1 << 16 else np.uint32)
    for base, counts in _score_blocks(family, sample, dim):
        out[base:base + counts.size] = counts
    return out


def swap_mistake_counts(family: HalfspaceFamily, swaps: LabeledSample, dim: int):
    """Mistake counts of the whole class on many two-point samples at once:
    points 2t and 2t + 1 of ``swaps`` are sample t. Yields ``(samples,
    rank, counts)`` blocks, with ``counts[i, h]`` the count on sample
    ``samples.start + i`` of the hypothesis at rank ``rank + h``; for each
    slice of samples the blocks cover ranks 0, 1, 2, ... in enumeration
    order. Each sample's counts are ``all_mistake_counts`` on it, bit for
    bit, as float32 holding exact integers 0..2.

    One ``_membership`` call takes every point in the public span: member
    2l holds the points of row l of Z, and member 2l + 1 the others and
    those on line l (E). A point off the span is in no member. With
    sigma = +1 per 1-label and -1 per 0-label, and s0 the 0-labels of a
    sample, the empty region has s0 mistakes, a member s0 plus the signed
    sum of the points it holds, and a pair s0 plus the signed sum of the
    points both hold (``_score_blocks``' identity). The pairs come from one
    batched product per slice of samples and strip of rows, (samples, rows,
    3) @ (samples, 3, members): the rows' memberships and a 1 against
    sigma times the columns' memberships and s0. One ``np.take`` reads the
    entries j > i in rank order. A tuple of size >= 3 multiplies sigma by
    its prefix members' memberships, the scorer's prefix rule, and takes
    the pairs after the prefix. Samples are sliced and rows stripped so
    that no product or block exceeds ``_CHUNK_ENTRIES / 32`` entries by
    more than one row of members: the int64 keys that the audit forms from
    a block then take at most 128 KB.
    """
    T, F = swaps.n // 2, family.size
    labels = swaps.y.reshape(T, 2)
    sign = np.where(labels == 1, 1, -1).astype(np.float32)
    s0 = np.count_nonzero(labels == 0, axis=1).astype(np.float32)
    if F == 0:
        yield slice(0, T), 0, s0[:, None]
        return
    # member by sample by point; points off the public span are in no member
    held = np.zeros((F // 2, 2, swaps.n), dtype=np.int8)
    span = family.aff.contains_many(swaps.X)
    Z = np.empty((F // 2, np.count_nonzero(span)), dtype=np.int8)
    pts, E = _membership(family, swaps.X[span], Z)
    held[:, 0, span] = Z
    minus = 1 - Z
    minus[:, pts] += E
    held[:, 1, span] = minus
    held = held.reshape(F, T, 2)
    budget = _CHUNK_ENTRIES // 32
    step = max(1, budget // F)
    for t in range(0, T, step):
        samples = slice(t, min(T, t + step))
        rows = np.ones((samples.stop - t, F, 3), dtype=np.float32)
        rows[:, :, :2] = held[:, samples].transpose(1, 0, 2)
        cols = np.empty((samples.stop - t, 3, F), dtype=np.float32)
        cols[:, :2] = (rows[:, :, :2] * sign[samples, None]).transpose(0, 2, 1)
        cols[:, 2] = s0[samples, None]
        yield samples, 0, np.concatenate([s0[samples, None], cols.sum(axis=1)], axis=1)
        rank = 1 + F
        for size in range(2, dim + 1):
            for prefix in itertools.combinations(range(F - 2), size - 2):
                start = prefix[-1] + 1 if prefix else 0
                right = cols
                if prefix:
                    right = cols[:, :, start:].copy()
                    right[:, :2] *= rows[:, prefix, :2].prod(axis=1)[:, :, None]
                for counts in _swap_pairs(rows[:, start:], right, budget):
                    yield samples, rank, counts
                    rank += counts.shape[1]


def _swap_pairs(rows, cols, budget):
    """Entries i < j of the stacked products rows @ cols, (s, m, 3) and
    (s, 3, m), lexicographic, in blocks of at most ``budget`` entries or
    one row (``swap_mistake_counts``)."""
    s, m = rows.shape[:2]
    a = 0
    while a < m - 1:
        width = m - a - 1
        b = min(m - 1, a + max(1, budget // (s * width)))
        block = rows[:, a:b] @ cols[:, :, a + 1:]
        upper = np.flatnonzero(np.arange(width) >= np.arange(b - a)[:, None])
        yield np.take(block.reshape(s, -1), upper, axis=1)
        a = b


def unrank_hypothesis(rank: int, family_size: int, dim: int) -> IntersectionHypothesis:
    """Hypothesis at a given enumeration rank, from O(d log F) binomials."""
    if rank < 0:
        raise IndexError("rank outside the class")
    if rank == 0:
        return EMPTY_REGION
    rank -= 1
    for size in range(1, dim + 1):
        block = math.comb(family_size, size)
        if rank < block:
            return IntersectionHypothesis(_unrank_combination(rank, family_size, size))
        rank -= block
    raise IndexError("rank outside the class")


def _unrank_combination(rank: int, m: int, size: int) -> tuple[int, ...]:
    """The strictly increasing ``size``-tuple of range(m) at ``rank`` in
    lexicographic order. The tuples of ``slot`` members drawn from
    range(lo, m) whose first member is below i number
    C(m - lo, slot) - C(m - i, slot), so each member is the largest i
    with that count at most the rank left, found by binary search; the
    last member is lo plus the rank left."""
    combo = []
    lo = 0
    for slot in range(size, 1, -1):
        total = math.comb(m - lo, slot)
        a, b = lo, m - slot
        while a < b:
            mid = (a + b + 1) // 2
            if total - math.comb(m - mid, slot) <= rank:
                a = mid
            else:
                b = mid - 1
        rank -= total - math.comb(m - a, slot)
        combo.append(a)
        lo = a + 1
    combo.append(lo + rank)
    return tuple(combo)


# ---------------------------------------------------------------------------
# Exhaustive best-in-class
# ---------------------------------------------------------------------------


def best_in_class(family: HalfspaceFamily, S_prime: LabeledSample, dim: int):
    """Exact minimum mistake count over the class; first minimizer in
    enumeration order."""
    if S_prime.n == 0:
        raise EmptySampleError("empty sample")
    best_rank, best_count = 0, S_prime.n + 1
    for base, counts in _score_blocks(family, S_prime, dim):
        k = int(np.argmin(counts))
        if counts[k] < best_count:
            best_rank, best_count = base + k, int(counts[k])
    g = unrank_hypothesis(best_rank, family.size, dim)
    return g, ErrorCount(best_count, S_prime.n)


# ---------------------------------------------------------------------------
# The learning algorithm
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class LearnDiagnostics:
    """Selection bookkeeping for reports and the DP auditor. Each field is
    labelled release-safe or curator-only (``model.curator_only_fields``)."""

    n: int = release_safe()
    n_pub: int = release_safe()
    n_priv: int = release_safe()
    dim: int = release_safe()
    epsilon: float = release_safe()
    pool_cap: int | None = release_safe()
    pool_size: int = release_safe()
    family_size: int = release_safe()
    class_size: int = release_safe()
    aff_dim: int = release_safe()
    selected_rank: int = release_safe()  # the epsilon-DP output
    selected_mistakes: int = curator_only()
    min_mistakes: int = curator_only()
    error: ErrorCount = curator_only()
    mistake_histogram: np.ndarray = curator_only()  # index = mistake count, value = multiplicity
    log_normalizer: float = curator_only()          # log sum of exp(-eps*(c - min)/2)
    # the mechanism's secret randomness: released next to the draw, it
    # constrains the histogram of mistake counts that the draw inverted
    uniform_draw: float | None = curator_only()
    notes: tuple[str, ...] = release_safe(default=())


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
    check_epsilon(epsilon)
    notes = []
    if epsilon > 1:
        msg = f"epsilon {epsilon} outside (0, 1]; guarantees degrade"
        warnings.warn(msg, RuntimeWarning, stacklevel=2)
        notes.append(msg)

    s_pub, s_priv, s_prime = partition(dataset)
    check_pool_budget(s_pub.n, dataset.dim, pool_cap, budget)
    family = construct_halfspace_family(s_pub, dataset.dim, pool_cap)
    counts = all_mistake_counts(family, s_prime, dataset.dim)
    dist = mechanism_distribution(counts, epsilon, dataset.n)
    rank, u = dist.sample(np.random.default_rng(seed), counts)
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
