"""Halfspace-family construction and private hypothesis selection.

Two stages: build a finite halfspace family from the public points (one
supported pair per point subset of size <= d, plus the public affine
span), then select among all intersections of <= d family members (and
the distinguished empty-region hypothesis) with an exponential mechanism
scored by exact mistake counts on the full labeled sample.

Scoring never leaves integer arithmetic. At d = 1 every member is a
threshold: one sort of the sample and two binary searches per member count
the points on each side, and only the points near a threshold are tested
one by one, O((F + n) log n). At d >= 2 the members come in lines
(``HalfspaceFamily.line``), a line's plus orientation and its exact
negation (``sign`` 0 and 1). Membership is taken once per line, as a
matrix of lines by points with the 1-labels first, and the counts
of both orientations follow by inclusion-exclusion from one symmetric
product per label (numpy runs them as syrk) and small products over the
points on a line: pairs cost (F/2)^2 * n / 2 multiply-adds, not
F^2 * n / 2. Every value formed is an integer of magnitude at most 4n;
the products run in float32, exact while 4n <= 2^24, and in float64
beyond. Counts are stored as uint16 while n < 65,536 and as uint32
beyond.
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
    DimensionMismatch,
    Halfspace,
    MEM_TOL,
    RANK_TOL,
    affine_span,
    dedup_rows,
    point_tolerance,
    supporting_hyperplanes,
)
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
    while raw_class_bound(m + 1, dim) <= DEFAULT_HYPOTHESIS_BUDGET:
        m += 1
    return m


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
    padded with -1 to ``dim`` columns. Member i lies on line ``line[i]``,
    numbered 0, 1, ... in member order: a member that is the exact
    negation of the member before it, unless that one already closes a
    line, is the second orientation of that member's line (``sign`` 1);
    every other member opens a line (``sign`` 0).
    ``construct_halfspace_family`` emits each line as rows 2k and 2k+1;
    a family given one orientation of some lines has lines of one member.
    The arrays are read-only. Construction reads only public examples:
    two datasets with identical public parts produce bit-identical
    families.
    """

    W: np.ndarray
    w0: np.ndarray
    sources: np.ndarray
    aff: AffineSubspace
    pool_indices: tuple[int, ...]
    dim: int
    line: np.ndarray = field(init=False)
    sign: np.ndarray = field(init=False)

    def __post_init__(self):
        W = np.array(self.W, dtype=float).reshape(-1, self.dim)
        w0 = np.array(self.w0, dtype=float).reshape(-1)
        sources = np.array(self.sources, dtype=np.int64).reshape(-1, self.dim)
        F = w0.size
        if not W.shape[0] == F == sources.shape[0]:
            raise ValueError("W, w0 and sources must have one row per member")
        # the d = 1 scorer's band (``_threshold_excess``) rests on unit normals
        if not np.all(np.abs(np.linalg.norm(W, axis=1) - 1.0) <= 1e-12):
            raise ValueError("member normals must be unit vectors")
        # the d >= 2 scorer derives a line's second orientation from its
        # first, so only exact negations pair up; in a run of them (repeated
        # members) every other one closes a line
        negates = np.zeros(F, dtype=bool)
        negates[1:] = np.all(W[1:] == -W[:-1], axis=1) & (w0[1:] == -w0[:-1])
        i = np.arange(F)
        opener = np.maximum.accumulate(np.where(negates, 0, i))  # the run's first member
        sign = (negates & ((i - opener) % 2 == 1)).astype(np.int64)
        line = np.cumsum(1 - sign) - 1
        for name, arr in (("W", W), ("w0", w0), ("sources", sources),
                          ("line", line), ("sign", sign)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @classmethod
    def from_halfspaces(cls, halfspaces, aff: AffineSubspace, pool_indices,
                        dim: int) -> "HalfspaceFamily":
        """A family whose members are the given halfspaces, in order."""
        hs = tuple(halfspaces)
        sources = np.full((len(hs), dim), -1, dtype=np.int64)
        for row, h in zip(sources, hs):
            src = h.source or ()
            row[:len(src)] = src
        return cls(np.array([h.normal for h in hs]).reshape(-1, dim),
                   np.array([h.offset for h in hs], dtype=float), sources,
                   aff, tuple(pool_indices), dim)

    @property
    def size(self) -> int:
        return self.w0.size

    @cached_property
    def line_planes(self):
        """(W, w0) of the first member of every line, one row per line."""
        first = self.sign == 0
        return self.W[first], self.w0[first]

    @cached_property
    def slots(self) -> np.ndarray:
        """Member index of each orientation slot 2 * line + sign, -1 where
        a line lacks that orientation."""
        slots = np.full(2 * (int(self.line[-1]) + 1 if self.size else 0), -1, dtype=np.int32)
        slots[2 * self.line + self.sign] = np.arange(self.size)
        slots.flags.writeable = False
        return slots

    @cached_property
    def halfspaces(self) -> tuple[Halfspace, ...]:
        """The members as ``Halfspace`` objects, built on first read."""
        return tuple(Halfspace(w, float(b), source=tuple(int(i) for i in src if i >= 0) or None)
                     for w, b, src in zip(self.W, self.w0, self.sources))


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


def _combinations(m: int, size: int) -> np.ndarray:
    """Every strictly increasing ``size``-tuple of range(m), lexicographic,
    as rows of an integer array."""
    flat = itertools.chain.from_iterable(itertools.combinations(range(m), size))
    return np.fromiter(flat, dtype=np.intp, count=math.comb(m, size) * size).reshape(-1, size)


def construct_halfspace_family(S_pub: LabeledSample, dim: int,
                               pool_cap: int | None = None) -> HalfspaceFamily:
    """Supported halfspace pairs for every public-point subset of size <= d.

    Subsets come smaller sizes first and lexicographic within a size; each
    contributes its supported halfspace, then the opposite one, and
    near-duplicate rows are dropped, the first occurrence kept. A row and
    its exact negation are kept or dropped together and make up one line
    (``HalfspaceFamily.line``). Only the
    first ``pool_cap`` public points (dataset order) feed the construction
    when a cap is given; a cap below 1 is refused, and None means uncapped.
    An empty public sample yields an empty family with a sentinel
    full-space span.
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


def enumerate_class(family: HalfspaceFamily, dim: int) -> ClassG:
    return ClassG(family=family, dim=dim)


def predict(g: IntersectionHypothesis, family: HalfspaceFamily, x) -> int:
    """0 iff x lies in every member halfspace AND the public span."""
    if g.is_empty_region:
        return 1
    x = np.asarray(x, dtype=float)
    if not family.aff.contains(x):
        return 1
    tol = point_tolerance(x)
    for i in g.members:
        if float(family.W[i] @ x - family.w0[i]) < -tol:
            return 1
    return 0


def predict_many(g: IntersectionHypothesis, family: HalfspaceFamily, X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if g.is_empty_region:
        return np.ones(X.shape[0], dtype=np.uint8)
    if X.ndim != 2 or X.shape[1] != family.dim:
        raise DimensionMismatch(f"points have shape {X.shape}, expected (n, {family.dim})")
    inside = family.aff.contains_many(X)
    tol = MEM_TOL * (1.0 + np.linalg.norm(X, axis=1))
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


def _membership(family: HalfspaceFamily, X: np.ndarray, dtype):
    """Membership at d >= 2 of points X, all in the public span, lines by
    points.

    One signed value s = W . x - w0 per (line, point), for the first
    member (W, w0) of the line, its plus orientation
    (``HalfspaceFamily.line_planes``). It holds x when s >= -tol,
    tol = MEM_TOL * (1 + |x|), and the minus orientation, its exact
    negation, holds x when s <= tol: the test that ``predict_many`` makes.
    Returns the (L, n) 0/1 matrix Z of the plus orientations and the
    points on some line, which both orientations of that line hold: their
    indices, ascending, and their (L, k) 0/1 on-line columns E. One
    product W[lo:hi] @ X.T per chunk of lines, sized so that s stays in
    L2 (``_CHUNK_ENTRIES / 8`` float64 entries), and two comparison
    passes over it: s >= -tol gives Z's rows and s > tol the points
    strictly inside, so a held point not strictly inside is on the line.
    The few on-line pairs are kept as indices, never as an (L, n) mask.
    d = 1 counts thresholds instead (``_threshold_excess``).
    """
    W, w0 = family.line_planes
    tol = MEM_TOL * (1.0 + np.sqrt(np.add.reduce(X * X, axis=1)))  # the norm, bit for bit
    floor = -tol
    n = X.shape[0]
    Z = np.empty((w0.size, n), dtype=dtype)
    on_line = []  # flat (line, point) indices, line-major
    step = max(1, _CHUNK_ENTRIES // 8 // max(n, 1))
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
    E = np.zeros((w0.size, pts.size), dtype=dtype)
    E[line, np.searchsorted(pts, point)] = 1
    return Z, pts, E


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
    tol = MEM_TOL * (1.0 + np.sqrt(x * x))  # the norm of each point, bit for bit
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
    """Z, or Z widened with zero columns to two: numpy runs a product of
    inner size 0 or 1 outside BLAS, several times slower."""
    if Z.shape[1] >= 2:
        return Z
    wide = np.zeros((Z.shape[0], 2), dtype=Z.dtype)
    wide[:, :Z.shape[1]] = Z
    return wide


def _tuple_blocks(Z, n1, pts, E, slots, start, base, singles):
    """Mistake counts, offset by ``base``, over the points of ``Z`` (lines
    by points; columns: the n1 1-labels, then the 0-labels): of every
    member from ``start`` on if ``singles``, then of every pair of them
    i < j, lexicographic, in blocks. ``slots`` maps the orientation slots
    of Z's lines, 2l + sign, to member indices (``HalfspaceFamily.slots``).

    Over the points, with +1 per 1-label and -1 per 0-label, the plus
    orientation P_l of line l is a row of Z and the minus orientation is
    1 - P_l + O_l, where O_l, the on-line points, lie in P_l. They come as
    indices ``pts`` into Z's columns and on-line columns ``E``. With the
    signed sizes r_l = |P_l|, o_l = |O_l| and A of all points, the signed
    intersections of the four orientation pairs of lines l and m follow
    from G = P_l . P_m, the one large product, and the products
    C = P_l . O_m, C' = O_l . P_m and D = O_l . O_m over the k on-line
    points:

        plus-plus    G
        plus-minus   r_l - G + C
        minus-plus   r_m - G + C'
        minus-minus  A - r_l - r_m + o_l + o_m + G - C - C' + D

    G = Z1 Z1^T - Z0 Z0^T, where Z1 and Z0 are the label blocks of Z's
    columns: two symmetric products, which numpy runs as syrk. A block of
    fewer than two points gets zero columns (``_label_operand``). G is
    formed in row strips of at most ``_CHUNK_ENTRIES / 2`` entries, only
    on and above the diagonal: syrk for the strip's diagonal block, a GEMM
    for the block to its right. A strip stays in L2 while its blocks are
    written; taller strips gain little on syrk at large n and lose more
    on the writes at small n. Each correction, with its row and column
    terms as extra rank-one rows, is one small GEMM of inner size at
    most 2k + 2. The four blocks are interleaved by slot, at most
    ``_CHUNK_ENTRIES`` entries at a time, and the member slots i < j kept.
    Every partial sum is an integer of magnitude at most 4n, exact in
    ``Z``'s dtype (``_score_blocks``).
    """
    L, n = Z.shape
    k = pts.size
    Z1, Z0 = _label_operand(Z[:, :n1]), _label_operand(Z[:, n1:])
    sgn = np.ones(n, dtype=Z.dtype)
    sgn[n1:] = -1
    s = sgn[pts]
    sP = Z[:, pts] * s
    r = Z @ sgn
    o_r = E @ s - r
    count_plus = base + r
    count_minus = o_r + (base + 2 * n1 - n)  # base + A - r + o
    if singles:
        both = np.concatenate([count_plus[:, None], count_minus[:, None]], axis=1)
        yield both.ravel()[slots >= start]
    # the corrections and their rank-one terms as row factors:
    # plus.T @ on = C + r_l + base, on.T @ plus = C' + r_m + base, and
    # minus.T @ cols = the minus-minus count - G. No inner size is 1,
    # which numpy would not hand to BLAS.
    ones = np.ones((1, L), dtype=Z.dtype)
    left = np.concatenate([sP.T, r[None], base * ones, (E * s - sP).T, E.T, count_minus[None],
                           ones])
    right = np.concatenate([E.T, ones, ones, E.T, -sP.T, ones, o_r[None]])
    plus, minus, on, cols = left[:k + 2], left[k + 2:], right[:k + 2], right[k + 2:]
    # a row slot outside the members from ``start`` on keeps no column
    row_member = np.where(slots < start, start + slots.size, slots)
    strip = max(1, _CHUNK_ENTRIES // (2 * L))
    rows = max(1, _CHUNK_ENTRIES // (4 * L))
    for a in range(0, L, strip):
        b = min(L, a + strip)
        G = np.empty((b - a, L - a), dtype=Z.dtype)
        block = G[:, :b - a]
        np.matmul(Z1[a:b], Z1[a:b].T, out=block)
        block -= Z0[a:b] @ Z0[a:b].T
        if b < L:
            block = G[:, b - a:]
            np.matmul(Z1[a:b], Z1[b:].T, out=block)
            block -= Z0[a:b] @ Z0[b:].T
        for c in range(a, b, rows):
            e = min(b, c + rows)
            g = G[c - a:e - a, c - a:]
            out = np.empty((e - c, 2, L - c, 2), dtype=Z.dtype)
            np.add(g, base, out=out[:, 0, :, 0])
            np.subtract(plus[:, c:e].T @ on[:, c:], g, out=out[:, 0, :, 1])
            np.subtract(on[:, c:e].T @ plus[:, c:], g, out=out[:, 1, :, 0])
            np.add(minus[:, c:e].T @ cols[:, c:], g, out=out[:, 1, :, 1])
            keep = slots[2 * c:] > row_member[2 * c:2 * e, None]
            yield out.reshape(2 * (e - c), -1)[keep]


def _score_blocks(family: HalfspaceFamily, sample: LabeledSample, dim: int):
    """Mistake counts of the whole class as ``(rank_base, counts)`` blocks
    that cover ranks 0, 1, 2, ... in enumeration order.

    mistakes(T) = #(y=0 outside region) + #(y=1 inside region)
                = n0 - |intersection on y=0| + |intersection on y=1|.

    At d = 1 every member is a threshold: its counts come from one sort and
    binary searches (``_threshold_excess``), with no (F, n) matrix. At
    d >= 2 the work is done once per line, not once per member: one
    membership row per line over the points in the public span
    (``_membership``), from which both orientations follow by integer
    inclusion-exclusion (``_tuple_blocks``). Singles are signed row totals.
    A tuple of size s >= 2 restricts the points to those inside its first
    s-2 members once, gathering their columns; one symmetric product per
    label over those points then scores every choice of the last two.
    Pairs cost (F/2)^2 * n / 2 multiply-adds, done as syrk. Counts at
    d >= 2 come as floats holding exact integers.
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
    # the GEMMs and the sums after them form integers of magnitude at most
    # 4n, exact in float32 while 4n <= 2^24
    wide = 4 * sample.n > _FLOAT32_EXACT
    Z, pts, E = _membership(family, np.concatenate([X1, sample.X[span & zero]]),
                            np.float64 if wide else np.float32)
    n1 = X1.shape[0]
    line, sign = family.line, family.sign
    rank = 1
    for size in range(2, dim + 1):
        for prefix in itertools.combinations(range(F - 2), size - 2):
            start = prefix[-1] + 1 if prefix else 0
            part = Z, n1, pts, E
            if prefix:
                inside = np.ones(Z.shape[1], dtype=bool)
                for p in prefix:
                    held = Z[line[p]] > 0
                    if sign[p]:
                        held = ~held
                        held[pts[E[line[p]] > 0]] = True
                    inside &= held
                keep = np.flatnonzero(inside)
                on = inside[pts]
                l0 = line[start]
                part = (Z[l0:, keep], int(np.searchsorted(keep, n1)),
                        np.searchsorted(keep, pts[on]), E[l0:, on])
            for counts in _tuple_blocks(*part, family.slots[2 * line[start]:], start,
                                        n0, singles=not prefix):
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
# ERM halfspace
# ---------------------------------------------------------------------------


# The candidates are the two constant classifiers and, for every point
# subset of size <= d, its supported hyperplane in four variants: both
# orientations, and the boundary nudged by -delta and by +delta. Below
# d = 4 the variants are counted from the sides the points lie on, after
# one sort (d = 1, and the singletons at d = 2) or one angular sort per
# pivot (d = 2 and 3, ``_erm_sweep``). Rows whose counts the sides cannot
# settle are scored against every point instead: the constants, the
# singletons and pairs at d = 3, every hyperplane with another point
# inside that point's margin and, at d = 3, every plane whose row may
# stray too far from the sweep's plane. At d >= 4 every candidate is
# scored that way.


def _variants(W, w0, delta):
    """The four variants of each hyperplane row, variant-major:
    (w, w0 - delta), (w, w0 + delta), (-w, -w0 - delta), (-w, -w0 + delta)."""
    return (np.vstack([W, W, -W, -W]),
            np.concatenate([w0 - delta, w0 + delta, -w0 - delta, -w0 + delta]))


def _variant_rows(W, w0, variant, delta):
    """Variant ``variant[k]`` of hyperplane row k."""
    W4, b4 = _variants(W, w0, delta)
    pick = variant * w0.size + np.arange(w0.size)
    return W4[pick], b4[pick]


def _variant_mistakes(inside, off, on0, on1):
    """Mistakes of the four variants of hyperplanes. ``inside`` counts the
    mistakes among the ``off`` points off a hyperplane when its positive
    side is inside: 0-labels on that side, 1-labels on the other. ``on0``
    and ``on1`` count the labels on it, which only variants 0 and 2 hold."""
    return np.stack([inside + on0, inside + on1,
                     off - inside + on0, off - inside + on1])


def _keys(*columns):
    """Candidate-order keys: integer columns compared lexicographically,
    which place each candidate where the enumeration lists it."""
    return np.column_stack(np.broadcast_arrays(*columns)).astype(np.int64)


def _margins(X, delta):
    """Twice the distance from a hyperplane within which a point's side
    does not settle its membership in the variants (delta plus the point's
    membership tolerance); the factor covers float error."""
    return 2.0 * (delta + MEM_TOL * (1.0 + np.linalg.norm(X, axis=1)))


def _pair_hyperplanes(X, ii, jj):
    """Lines through X[i] and X[j]: unit normal with a positive leading
    component, and offset."""
    diff = X[jj] - X[ii]
    nrm = np.linalg.norm(diff, axis=1)
    d = diff / nrm[:, None]
    W = np.stack([-d[:, 1], d[:, 0]], axis=1)
    lead = np.where(np.abs(W[:, 0]) > 1e-12, W[:, 0], W[:, 1])
    W *= np.sign(lead)[:, None]
    return W, np.einsum("ij,ij->i", W, X[ii])


def _halfspace_mistakes(W, w0, X, y) -> np.ndarray:
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
    chunk = max(1, min(C, _CHUNK_ENTRIES // max(X.shape[0], 1)))
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


class _Minimizers:
    """Running minimum of the candidates' mistakes and the candidates that
    attain it, each with its candidate-order key."""

    def __init__(self, X, y):
        self.X, self.y = X, y
        self.count = None
        self.tied = []

    def offer(self, mistakes, rows):
        """``rows(mask)`` builds (W, w0, keys) of the masked candidates."""
        if mistakes.size == 0:
            return
        low = int(mistakes.min())
        if self.count is not None and low > self.count:
            return
        if self.count is None or low < self.count:
            self.count, self.tied = low, []
        self.tied.append(rows(mistakes == low))

    def score(self, W, w0, keys):
        """Offer candidate rows scored against every point."""
        self.offer(_halfspace_mistakes(W, w0, self.X, self.y),
                   lambda mask: (W[mask], w0[mask], keys[mask]))

    def pick(self):
        """The tied row with the least (w, w0) in lexicographic order;
        equal rows go to the first in candidate order."""
        W, w0, keys = (np.concatenate(parts) for parts in zip(*self.tied))
        k = int(np.lexsort((*keys.T[::-1], w0, *W.T[::-1]))[0])
        return Halfspace(W[k], float(w0[k])), self.count


def _erm_thresholds(best: _Minimizers, delta: float) -> None:
    """The variants of the hyperplane with normal e1 through every point,
    the thresholds x[0] = X[i, 0]: every candidate at d = 1 and the
    singletons at d = 2, counted after one sort. A threshold is crowded
    when a sorted neighbour lies within the largest margin of it; a farther
    point then lies outside its own margin too."""
    x = best.X[:, 0]
    n, dim = best.X.shape
    order = np.argsort(x, kind="stable")
    xs, ys = x[order], best.y[order].astype(np.int64)
    near = np.diff(xs) <= _margins(best.X, delta).max()
    crowded = np.zeros(n, dtype=bool)
    crowded[:-1] |= near
    crowded[1:] |= near
    ones = np.concatenate([[0], np.cumsum(ys)])
    p = np.arange(n)
    below1, above1 = ones[:-1], ones[-1] - ones[1:]
    counts = _variant_mistakes((n - 1 - p - above1) + below1, n - 1, 1 - ys, ys)
    clean = order[~crowded]
    e1 = np.eye(dim)[:1]

    def rows(mask):
        variant, at = np.nonzero(mask.reshape(4, -1))
        i = clean[at]
        W, w0 = _variant_rows(np.repeat(e1, i.size, axis=0), x[i], variant, delta)
        return W, w0, _keys(1, variant, i)

    best.offer(counts[:, ~crowded].ravel(), rows)
    i = order[crowded]
    best.score(*_variants(np.repeat(e1, i.size, axis=0), x[i], delta),
               _keys(1, np.repeat(np.arange(4), i.size), np.tile(i, 4)))


# the error bound of a d = 3 row, per unit of scale^2 / h, and the largest
# stray of a row from its sweep plane that the margins absorb (``_erm_sweep``)
_ROW_ERROR = 128 * np.finfo(float).eps
_ROW_STRAY = 2.5e-10


def _rotation_plane(X, piv):
    """The plane in which a hyperplane through the pivot points ``piv``
    (c, d - 1) turns: the 2-D complement of their direction span.

    Returns the coordinates (p, q), each (c, n), of every point minus the
    pivot's first point in an orthonormal frame (c, 2, d) of that plane,
    and the pivot's spread. At d = 2 the plane is the space itself, the
    differences are used as they are and the spread is None. At d = 3 the
    frame is normal to u = X[j] - X[i] (any frame where u = 0), the spread
    is |u|, and one GEMM projects the points.
    """
    c, dim = piv.shape[0], X.shape[1]
    base = X[piv[:, 0]]
    if dim == 2:
        p, q = np.ascontiguousarray(X.T)[:, None, :] - base.T[:, :, None]
        return p, q, np.broadcast_to(np.eye(2), (c, 2, 2)), None
    u = X[piv[:, 1]] - base
    rho = np.linalg.norm(u, axis=1)
    u[rho == 0] = (1.0, 0.0, 0.0)
    u /= np.linalg.norm(u, axis=1)[:, None]
    # a: the axis least aligned with u, made normal to it; b = u x a
    a = np.zeros((c, 3))
    a[np.arange(c), np.argmin(np.abs(u), axis=1)] = 1.0
    a -= np.einsum("ij,ij->i", u, a)[:, None] * u
    a /= np.linalg.norm(a, axis=1)[:, None]
    frame = np.stack([a, np.cross(u, a)], axis=1)
    pq = (frame.reshape(2 * c, 3) @ X.T).reshape(c, 2, -1)
    pq -= np.einsum("cst,ct->cs", frame, base)[:, :, None]
    return pq[:, 0], pq[:, 1], frame, rho


def _plane_rows(X, combos):
    """The supported hyperplane of every point subset ``combos`` (rows of
    d increasing indices): the line rule at d = 2, Gram-Schmidt at d = 3."""
    if combos.shape[1] == 2:
        return _pair_hyperplanes(X, combos[:, 0], combos[:, 1])
    return supporting_hyperplanes(X, combos)


def _plane_keys(combos, n, variant):
    """Candidate-order keys of variant ``variant`` of the hyperplanes of
    ``combos``: (2, variant, pair) at d = 2 and (1, subset, variant) at
    d = 3, a triple's subset index following the n singletons and the
    C(n, 2) pairs in lexicographic order."""
    if combos.shape[1] == 2:
        return _keys(2, variant, combos[:, 0] * n + combos[:, 1])
    i, j, l = combos.T
    rank = (math.comb(n, 3) - (n - i) * (n - i - 1) * (n - i - 2) // 6
            + (n - i - 1) * (n - i - 2) // 2 - (n - j) * (n - j - 1) // 2 + l - j - 1)
    return _keys(1, n + math.comb(n, 2) + rank, variant)


def _erm_sweep(best: _Minimizers, scale: float, delta: float, dim: int) -> None:
    """d = 2 and 3: the variants of the hyperplane through every d points.

    A hyperplane through the d - 1 points of a pivot turns about them in
    their rotation plane (``_rotation_plane``). There, seen from the
    pivot's first point X[i], every other point has a direction, and the
    candidate through X[l] is the line of X[l]'s direction. Folding the
    circle at pi gives each line one angle phi in [0, pi] and each point a
    half, upper or lower, by the sign of its direction's angle. With the
    points sorted by phi, those on the positive side of the candidate's
    normal n_l = (-sin phi_l, cos phi_l) are the later points of the upper
    half and the earlier points of the lower half; so one prefix sum of
    (upper XOR label) counts the mistakes of every candidate with that side
    inside. Each candidate is counted once, from its first d - 1 points as
    the pivot.

    Point k's side settles its membership unless it lies within half its
    margin of the candidate, which needs phi_l within w_k = margin_k / r_k
    of phi_k, modulo pi, r_k being X[k]'s distance from the pivot's affine
    hull. Candidates that such a window reaches are crowded, and scored
    against every point. A point with w_k >= 0.5 crowds every candidate of
    its pivot, as does at d = 3 a pair closer than RANK_TOL * scale.
    Outside every window X[k] lies at least (2/pi) margin_k =
    1.27 (delta + tol_k) from the sweep's plane. The spare
    0.27 (delta + tol_k) >= 1.09e-9 * scale absorbs the rounding of the
    angles and of the membership test, a few ulps of scale each, and at
    d = 3 the stray of the row from the sweep's plane.

    At d = 3 the row W is Gram-Schmidt on the centred triple
    (``supporting_hyperplanes``), not n_l. Let n be the exact normal of
    the triple and h = |u| r_l twice its area. The frame is orthonormal
    and normal to u within a few eps, and X[l]'s coordinates err by at
    most 4 eps scale, its angle by at most 6 eps scale / r_l, so n_l lies
    within 40 eps scale / r_l <= 80 eps scale^2 / h of +-n. Centring errs
    by 3 eps scale per coordinate, and the centred triple's smaller
    singular value is at least h / (4 scale), as the two multiply to
    h / sqrt(3) and the larger is at most 2.31 scale, so the normal of the
    computed span, two-pass rounding included, lies within
    64 eps scale^2 / h of +-n. The residual of the axis that Gram-Schmidt
    takes has a norm above RANK_TOL, and its second pass leaves it normal
    to that span within a few eps of that norm; so W is within
    64 eps scale^2 / h + 4 eps of +-n, and within 2 eta of +-n_l, with
    eta = _ROW_ERROR * scale^2 / h. A plane is settled only if
    2 eta <= _ROW_STRAY. The row then moves a point by at most
    2 _ROW_STRAY scale = 5e-10 * scale, under half the spare, and holds
    the triple within that of its boundary, well inside delta - tol, so
    the triple counts as on it. The rank stays 2, as h >= 2.3e-4 scale^2:
    the kept directions have residuals of at least h / (4 scale), and the
    third, at most 3 eps scale + eta max|V|, stays under
    RANK_TOL (1 + max|V|). The other planes are crowded: a third point
    near the pivot axis, a rank-deficient triple or near-coincident pivots.

    The variants are formed only for candidates whose best variant,
    min(a, off - a) + min(on1, on0), reaches the running minimum; their
    rows come from ``_plane_rows`` and their orientation from the sign of
    W . n_l. Pivots run in chunks, so memory stays O(chunk * n).
    """
    X = best.X
    y = best.y.astype(bool)
    n = X.shape[0]
    m = n - dim + 1          # points off the pivot
    off = m - 1              # points off a candidate
    margin = _margins(X, delta)
    pivots = _combinations(n - 1, dim - 1)
    cols = np.arange(m)
    step = max(1, _CHUNK_ENTRIES // (8 * n))
    for lo in range(0, pivots.shape[0], step):
        piv = pivots[lo:lo + step]
        c = piv.shape[0]
        p, q, frame, rho = _rotation_plane(X, piv)
        theta = np.arctan2(q, p)
        theta[np.arange(c)[:, None], piv] = np.inf  # the pivot sorts last
        k = np.argsort(np.where(theta < 0, theta + np.pi, theta), axis=1)[:, :m]
        theta = np.take_along_axis(theta, k, axis=1)
        upper = theta >= 0
        phi = np.where(upper, theta, theta + np.pi)
        r = np.take_along_axis(np.sqrt(p * p + q * q), k, axis=1)

        # angular windows; only the few that reach a neighbour are placed,
        # on every pivot's doubled half circle in one sorted flat array: row
        # shifts of 16 keep the rows apart, and the slack covers their rounding
        with np.errstate(divide="ignore"):
            w = margin[k] / r
        hull = np.any(w >= 0.5, axis=1)
        if rho is not None:
            hull |= rho <= RANK_TOL * scale
        w += 1e-12 + 8 * np.spacing(16.0 * c + 2 * np.pi)
        gap = np.empty((c, m))
        np.subtract(phi[:, 1:], phi[:, :-1], out=gap[:, :-1])
        gap[:, -1] = phi[:, 0] + np.pi - phi[:, -1]
        own = np.minimum(gap, np.roll(gap, 1, axis=1)) <= w
        own[hull] = False
        crowded = np.repeat(hull[:, None], m, axis=1)
        if own.any():
            shift = 16.0 * np.arange(c)
            flat = (np.concatenate([phi, phi + np.pi], axis=1) + shift[:, None]).ravel()
            start = phi[own] - w[own]
            start[start < 0] += np.pi
            start += shift[np.nonzero(own)[0]]
            cover = np.cumsum(
                np.bincount(np.searchsorted(flat, start), minlength=flat.size + 1)
                - np.bincount(np.searchsorted(flat, start + 2 * w[own], side="right"),
                              minlength=flat.size + 1))[:-1].reshape(c, 2 * m)
            crowded |= cover[:, :m] + cover[:, m:] - own > 0

        line = k > piv[:, -1:]
        if dim == 2:
            line &= r > RANK_TOL * scale  # coincident pairs repeat the singleton rows
        else:
            # planes whose row may stray too far from the sweep's plane
            crowded |= rho[:, None] * r < (2 * _ROW_ERROR / _ROW_STRAY) * scale * scale

        # mistakes off the candidate with the positive side of n_l inside,
        # the 0-labels on that side and the 1-labels on the other: a later
        # point errs when upper XOR label, an earlier one when not
        lab = y[k]
        z = upper ^ lab
        before = np.cumsum(z, axis=1)
        a = before[:, -1:] + z - 2 * before + cols
        on1 = y[piv].sum(axis=1)[:, None] + lab

        clean = line & ~crowded
        if clean.any():
            lower = np.minimum(a, off - a) + np.minimum(on1, dim - on1)
            low = int(lower[clean].min())
            if best.count is None or low <= best.count:
                ci, cj = np.nonzero(clean & (lower == low))
                combos = np.column_stack([piv[ci], k[ci, cj]])
                W, w0 = _plane_rows(X, combos)
                flip = np.einsum("ij,ij->i", W, np.cos(phi[ci, cj, None]) * frame[ci, 1]
                                 - np.sin(phi[ci, cj, None]) * frame[ci, 0]) < 0
                counts = _variant_mistakes(np.where(flip, off - a[ci, cj], a[ci, cj]), off,
                                           dim - on1[ci, cj], on1[ci, cj])

                def rows(mask):
                    variant, at = np.nonzero(mask.reshape(4, -1))
                    return (*_variant_rows(W[at], w0[at], variant, delta),
                            _plane_keys(combos[at], n, variant))

                best.offer(counts.ravel(), rows)
        ci, cj = np.nonzero(line & crowded)
        if ci.size:
            combos = np.column_stack([piv[ci], k[ci, cj]])
            best.score(*_variants(*_plane_rows(X, combos), delta),
                       _plane_keys(np.tile(combos, (4, 1)), n, np.repeat(np.arange(4), ci.size)))


def erm_halfspace(S_prime: LabeledSample, dim: int):
    """Exact empirical-risk-minimizing halfspace over the candidate set
    above; ties broken by lexicographic (w, w0).

    O(n log n) at d = 1, O(n^2 log n) at d = 2 and O(n^3 log n) at d = 3,
    by one sort (d = 1, and the singletons at d = 2) or one angular sort
    per pivot (``_erm_sweep``), plus O(n) per candidate scored against
    every point: the singletons and pairs at d = 3, O(n^3) in all, and the
    crowded hyperplanes. At d >= 4 every candidate is scored against every
    point, O(n^(d+1)). Refuses a ``dim`` below 1 or other than the
    sample's.
    """
    if S_prime.n == 0:
        raise EmptySampleError("empty sample")
    if dim < 1 or dim != S_prime.dim:
        raise DimensionMismatch(f"points have dimension {S_prime.dim}, expected dim {dim}")
    X = S_prime.X
    n = X.shape[0]
    scale = 1.0 + float(np.max(np.linalg.norm(X, axis=1), initial=0.0))
    delta = 4.0 * MEM_TOL * scale
    best = _Minimizers(X, S_prime.y)
    e1 = np.zeros(dim)
    e1[0] = 1.0
    proj = X @ e1
    # constant classifiers: everything inside (all label 1) / nothing inside
    best.score(np.vstack([e1, e1]),
               np.array([float(proj.min()) - scale, float(proj.max()) + scale]),
               _keys(0, 0, [0, 1]))
    if dim <= 2:
        # the thresholds, and at d = 2 the singletons: normal e1 through a point
        _erm_thresholds(best, delta)
    else:
        # every subset the sweep does not count: below size 3 at d = 3
        top = 2 if dim == 3 else dim
        planes = [supporting_hyperplanes(X, _combinations(n, size))
                  for size in range(1, min(top, n) + 1)]
        W, w0 = (np.concatenate(parts) for parts in zip(*planes))
        subset = np.arange(w0.size)
        best.score(*_variants(W, w0, delta),
                   _keys(1, np.tile(subset, 4), np.repeat(np.arange(4), subset.size)))
    if dim in (2, 3):
        _erm_sweep(best, scale, delta, dim)
    h, count = best.pick()
    return h, ErrorCount(count, S_prime.n)


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
    Holds a read-only view of ``mistake_counts``, in the integer dtype it
    came in (``all_mistake_counts`` gives uint16 or uint32).
    """

    mistake_counts: np.ndarray
    epsilon: float
    n: int
    histogram: np.ndarray = field(init=False)  # index = mistake count
    min_mistakes: int = field(init=False)
    log_normalizer: float = field(init=False)  # log sum of exp(-eps*(c - min)/2)

    def __post_init__(self):
        c = np.asarray(self.mistake_counts)
        c = (c if c.dtype.kind in "iu" else c.astype(np.int64)).view()
        if c.size == 0:
            raise ValueError("empty score list")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        # bincount converts to intp, so it runs in chunks, never on a full copy
        hist = np.bincount(c[:_CHUNK_ENTRIES], minlength=self.n + 1)
        for lo in range(_CHUNK_ENTRIES, c.size, _CHUNK_ENTRIES):
            part = np.bincount(c[lo:lo + _CHUNK_ENTRIES], minlength=hist.size)
            part[:hist.size] += hist
            hist = part
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
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
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
