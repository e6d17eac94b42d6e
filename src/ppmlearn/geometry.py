"""Convex-geometry kernel in low dimension.

Halfspaces and affine subspaces with tolerant membership, deterministic
supporting hyperplanes through small point sets, near-duplicate removal,
brute-force convex-hull facet enumeration, LP feasibility of halfspace
intersections inside an affine chart, and search for small infeasibility
witnesses.

Every orthonormal basis here comes from one batched modified Gram-Schmidt,
``_gram_schmidt`` on top of ``_project_out``, which runs over many point
subsets at once: the supported hyperplanes of ``supporting_hyperplanes``
(over the subsets ``_combinations`` lists), the basis of ``affine_span``,
the facet normals of ``hull_facet_halfspaces`` over all subsets of chart
points, and the chart changes of the LP.
Near-duplicate rows are removed by ``dedup_rows``. Families are arrays, so
thousands of halfspaces need no per-subset Python objects.

All tolerances are relative to the data scale: a point x is "on" a unit
hyperplane when |w.x - w0| <= MEM_TOL * (1 + ||x||) (``point_tolerances``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

MEM_TOL = 1e-9    # halfspace membership, relative
AFF_TOL = 1e-9    # affine-subspace distance, relative
LP_TOL = 1e-9     # LP feasibility slack
DEDUP_TOL = 1e-9  # canonical (w, w0) equality
RANK_TOL = 1e-10  # orthonormalization / numerical-rank threshold
_CHUNK_ENTRIES = 1 << 19  # entries per block and per temporary

_LP_SEED = 0x5E1DE1  # fixed seed: randomized LP insertion order is reproducible


class DimensionMismatch(ValueError):
    pass


def point_tolerance(x) -> float:
    """Membership tolerance for a point: MEM_TOL * (1 + ||x||)."""
    return MEM_TOL * (1.0 + float(np.linalg.norm(x)))


def point_tolerances(X) -> np.ndarray:
    """``point_tolerance`` of every row of the (n, d) float array X. The row
    norms are ``np.linalg.norm(X, axis=1)`` bit for bit, without its call
    overhead; the 1-d norm of one point may differ in the last bit."""
    return MEM_TOL * (1.0 + np.sqrt(np.add.reduce(X * X, axis=1)))


def _points(points, dim: int) -> np.ndarray:
    """``points`` as an (n, dim) float array; DimensionMismatch otherwise."""
    P = np.asarray(points, dtype=float)
    if P.ndim != 2 or P.shape[1] != dim:
        raise DimensionMismatch(f"points have shape {P.shape}, expected (n, {dim})")
    return P


def canonicalize(normal, offset):
    """Return (w, w0) with ||w|| = 1, rescaling offset to match.

    Bit-idempotent: if ||w|| is already within 1e-12 of 1 the input is
    returned unchanged, so canonicalize(canonicalize(...)) is exact.
    """
    w = np.asarray(normal, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("normal must be a nonempty vector")
    if not np.all(np.isfinite(w)) or not np.isfinite(offset):
        raise ValueError("halfspace coefficients must be finite")
    norm = float(np.linalg.norm(w))
    if norm == 0.0:
        raise ValueError("normal must be nonzero")
    if abs(norm - 1.0) <= 1e-12:
        return w, float(offset)
    return w / norm, float(offset) / norm


@dataclass(frozen=True, eq=False)
class Halfspace:
    """Closed halfspace {x : w.x >= w0} with unit normal w.

    Doubles as a binary classifier: 1 iff ``contains(x)``.
    ``source`` optionally records the dataset indices of the point subset
    supporting the bounding hyperplane.
    """

    normal: np.ndarray
    offset: float
    source: tuple[int, ...] | None = None

    def __post_init__(self):
        w, w0 = canonicalize(self.normal, self.offset)
        w = np.array(w, dtype=float)
        w.flags.writeable = False
        object.__setattr__(self, "normal", w)
        object.__setattr__(self, "offset", float(w0))
        if self.source is not None:
            object.__setattr__(self, "source", tuple(int(i) for i in self.source))

    @property
    def dim(self) -> int:
        return self.normal.size

    def signed_value(self, x) -> float:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise DimensionMismatch(f"point has shape {x.shape}, expected ({self.dim},)")
        return float(self.normal @ x - self.offset)

    def contains(self, x) -> bool:
        return self.signed_value(x) >= -point_tolerance(x)

    def contains_many(self, X) -> np.ndarray:
        X = _points(X, self.dim)
        return X @ self.normal - self.offset >= -point_tolerances(X)

    def opposite(self) -> "Halfspace":
        """The halfspace {x : w.x <= w0}; shares the bounding hyperplane."""
        return Halfspace(-self.normal, -self.offset, source=self.source)

    def canonical_row(self) -> np.ndarray:
        return np.concatenate([self.normal, [self.offset]])

    def __repr__(self):
        w = ", ".join(f"{v:.6g}" for v in self.normal)
        return f"Halfspace([{w}] . x >= {self.offset:.6g})"


@dataclass(frozen=True, eq=False)
class AffineSubspace:
    """Affine subspace base + span(rows of basis), with orthonormal rows.

    k = 0 is a single point, k = d is all of R^d.
    """

    base: np.ndarray
    basis: np.ndarray  # shape (k, d), orthonormal rows

    def __post_init__(self):
        base = np.array(np.asarray(self.base, dtype=float), dtype=float)
        basis = np.array(np.asarray(self.basis, dtype=float), dtype=float)
        if base.ndim != 1:
            raise ValueError("base must be a vector")
        if basis.size == 0:
            basis = basis.reshape(0, base.size)
        if basis.ndim != 2 or basis.shape[1] != base.size:
            raise DimensionMismatch(f"basis has shape {basis.shape}, expected (k, {base.size})")
        if not np.all(np.isfinite(base)) or not np.all(np.isfinite(basis)):
            raise ValueError("affine subspace data must be finite")
        if basis.shape[0] > 0:
            gram = basis @ basis.T
            if np.max(np.abs(gram - np.eye(basis.shape[0]))) > 1e-10:
                raise ValueError("basis rows must be orthonormal within 1e-10")
        base.flags.writeable = False
        basis.flags.writeable = False
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "basis", basis)

    @classmethod
    def full_space(cls, dim: int) -> "AffineSubspace":
        return cls(np.zeros(dim), np.eye(dim))

    @property
    def dim(self) -> int:
        return self.base.size

    @property
    def k(self) -> int:
        return self.basis.shape[0]

    def to_chart(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        return (X - self.base) @ self.basis.T

    def from_chart(self, Z) -> np.ndarray:
        Z = np.asarray(Z, dtype=float)
        return self.base + Z @ self.basis

    def distance(self, x) -> float:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise DimensionMismatch(f"point has shape {x.shape}, expected ({self.dim},)")
        v = x - self.base
        residual = v - self.basis.T @ (self.basis @ v)
        return float(np.linalg.norm(residual))

    def contains(self, x) -> bool:
        return self.distance(x) <= AFF_TOL * (1.0 + float(np.linalg.norm(x)))

    def contains_many(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        V = X - self.base
        residual = V - (V @ self.basis.T) @ self.basis
        dist = np.linalg.norm(residual, axis=1)
        return dist <= AFF_TOL * (1.0 + np.linalg.norm(X, axis=1))

    def __repr__(self):
        return f"AffineSubspace(dim={self.dim}, k={self.k})"


def _dots(A, B) -> np.ndarray:
    """Inner products along the last axis of two (..., d) arrays: a stacked
    (..., 1, d) @ (..., d, 1) matmul takes the same BLAS dot per row as the
    1-d ``a @ b`` and ``np.linalg.norm(a)``, bit for bit; an einsum or an
    elementwise sum may differ in the last bit."""
    return (A[..., None, :] @ B[..., :, None])[..., 0, 0]


def _project_out(u, basis, count):
    """Two modified Gram-Schmidt passes of the rows of each ``u[b]`` (B, w,
    d) against the first ``count[b]`` rows of ``basis[b]``; rows whose slot
    is empty are left as they are."""
    top = int(count.max(initial=0))
    for _ in range(2):
        for j in range(top):
            b = basis[:, j, None]
            step = u - _dots(b, u)[..., None] * b
            u = np.where((count > j)[:, None, None], step, u)
    return u


def _gram_schmidt(vectors, tol, stop, span=None, rank=None):
    """Orthonormal rows of every subset by batched modified Gram-Schmidt.

    Each vector ``vectors[b, t]`` (B, T, d), in order of t, is projected
    out of the rows subset b holds (``_project_out``) and, normalized,
    appended when its residual norm exceeds ``tol[b]`` and the subset holds
    fewer than ``stop[b]`` rows. Returns ``(span, rank)``: ``rank[b]`` rows
    at the front of ``span[b]`` (B, d, d); passing them back continues the
    basis in place. Each step projects a window of vectors out of the same
    rows, as one at a time would, and moves past the first appended; the
    window doubles (up to ceil(T / B)) after a step that appends nothing,
    so a low-rank ``affine_span`` takes a few steps, not one per point.
    """
    B, T, d = vectors.shape
    if span is None:
        span, rank = np.zeros((B, d, d)), np.zeros(B, dtype=np.intp)
    tol = np.reshape(tol, (-1, 1))
    cap, width, t = -(-T // max(B, 1)), 1, 0
    while t < T and (open_ := rank < stop).any():
        u = _project_out(vectors[:, t:t + width], span, rank)
        norm = np.sqrt(_dots(u, u))                  # (B, width)
        ok = open_[:, None] & (norm > tol)
        hits = np.flatnonzero(ok.any(axis=0))
        first = hits[0] if hits.size else ok.shape[1] - 1
        keep = ok[:, first]
        span[keep, rank[keep]] = u[keep, first] / norm[keep, first, None]
        rank += keep
        t += first + 1
        width = 1 if hits.size else min(2 * width, cap)
    return span, rank


def supporting_hyperplanes(X, combos):
    """Unit normal and offset of the supported hyperplane of every subset.

    ``combos`` is an (B, k) integer array of row indices into ``X`` (n, d),
    1 <= k <= d, one subset per row (``_combinations`` lists every subset of
    a size). Row b is the halfspace {x : W[b] . x >= w0[b]}; its negation
    is the opposite halfspace. The centered points are orthonormalized in
    order (``_gram_schmidt``), keeping directions whose residual norm
    exceeds RANK_TOL * scale, at most k - 1 of them: k centered points span
    no more, and far from the origin the rounding of the centering alone
    can leave a k-th residual above that. The normal is the
    first standard basis vector whose residual against that span exceeds
    RANK_TOL, normalized (so canonical already), with its first coordinate
    above 1e-12 in magnitude made positive. The offset is the normal's inner
    product with the subset's first point.
    """
    X = np.asarray(X, dtype=float)
    combos = np.asarray(combos, dtype=np.intp)
    B = combos.shape[0]
    dim = X.shape[1]
    P = X[combos]                                    # (B, k, d)
    V = P - P.mean(axis=1, keepdims=True)
    scale = 1.0 + np.max(np.abs(V), axis=(1, 2), initial=0.0)
    span, rank = _gram_schmidt(V, RANK_TOL * scale, combos.shape[1] - 1)
    normal = rank.copy()
    _gram_schmidt(np.broadcast_to(np.eye(dim), (B, dim, dim)), RANK_TOL, normal + 1, span, rank)
    W = span[np.arange(B), normal]
    big = np.abs(W) > 1e-12
    lead = W[np.arange(B), np.argmax(big, axis=1)]
    W = np.where((big.any(axis=1) & (lead < 0))[:, None], -W, W)
    w0 = _dots(W, P[:, 0])
    if not (np.all(np.isfinite(W)) and np.all(np.isfinite(w0))):
        raise ValueError("halfspace coefficients must be finite")
    return W, w0


def _combinations(m: int, size: int) -> np.ndarray:
    """Every strictly increasing ``size``-tuple of range(m), lexicographic,
    as rows of an integer array."""
    flat = itertools.chain.from_iterable(itertools.combinations(range(m), size))
    return np.fromiter(flat, dtype=np.intp, count=math.comb(m, size) * size).reshape(-1, size)


def affine_span(points, dim: int | None = None) -> AffineSubspace:
    """Minimal affine subspace containing the points.

    The points are an (n, dim) array, or one point as a vector. Base point
    is the first point; the basis comes from deterministic Gram-Schmidt over
    the differences in input order (``_gram_schmidt``), so k equals the
    numerical rank of the centered point matrix.
    """
    P = np.atleast_2d(np.asarray(points, dtype=float))
    P = _points(P, P.shape[1] if dim is None else dim)
    if P.shape[0] == 0:
        raise ValueError("affine span of an empty point set is undefined")
    D = (P[1:] - P[0])[None]
    span, rank = _gram_schmidt(D, RANK_TOL * (1.0 + np.max(np.abs(D), initial=0.0)), P.shape[1])
    return AffineSubspace(P[0], span[0, :rank[0]])


def dedup_rows(R, tol: float = DEDUP_TOL) -> np.ndarray:
    """Indices of the rows of ``R`` kept by near-duplicate removal, ascending.

    A row is dropped when it lies within ``tol`` in the max norm of an
    earlier kept row; the first occurrence wins, so with a ~ b and b ~ c but
    not a ~ c, a and c are kept. Candidate pairs come from a sort on the
    column that puts the fewest rows within reach of each other, and a
    window of 2 * tol on it; only rows with a near neighbour are resolved
    one by one, in row order.
    """
    R = np.asarray(R, dtype=float)
    F = R.shape[0]
    pos = np.arange(F)
    best = None
    for c in range(R.shape[1] if F > 1 else 0):
        order = np.argsort(R[:, c], kind="stable")
        s = R[order, c]
        reach = np.searchsorted(s, s + 2 * tol, side="right") - pos - 1
        if best is None or reach.sum() < best[1].sum():
            best = order, reach
    if best is None or not best[1].any():
        return pos
    order, reach = best
    first = np.repeat(pos, reach)
    second = first + 1 + np.arange(first.size) - np.repeat(np.cumsum(reach) - reach, reach)
    i, j = order[first], order[second]
    near = np.max(np.abs(R[i] - R[j]), axis=1) <= tol
    lo, hi = np.minimum(i[near], j[near]), np.maximum(i[near], j[near])
    keep = np.ones(F, dtype=bool)
    by_later = np.argsort(hi, kind="stable")
    lo, hi = lo[by_later], hi[by_later]
    starts = np.flatnonzero(np.diff(hi, prepend=-1))
    for a, b in zip(starts, np.append(starts[1:], hi.size)):
        keep[hi[a]] = not keep[lo[a:b]].any()
    return np.flatnonzero(keep)


def hull_facet_halfspaces(points, aff: AffineSubspace) -> list[Halfspace]:
    """Facet halfspaces of the convex hull of the points inside ``aff``.

    The points, an (n, aff.dim) array, must span ``aff`` (k = rank of the
    centered point matrix). Brute force: ``_gram_schmidt`` batches give
    every size-k subset spanning a hyperplane of the chart its normal;
    orientations placing all points on one closed side are kept, and
    near-duplicates dropped (``dedup_rows``). The intersection of the
    returned halfspaces with ``aff`` is the hull. Each facet records the
    spanning subset (positions into ``points``) as its source.
    """
    P = _points(points, aff.dim)
    if P.shape[0] == 0:
        raise ValueError("hull of an empty point set is undefined")
    if not np.all(aff.contains_many(P)):
        raise ValueError("all points must lie inside the affine subspace")
    k = aff.k
    if k == 0:
        W, w0 = supporting_hyperplanes(P, [[0]])
        h = Halfspace(W[0], w0[0], source=(0,))
        return [h, h.opposite()]
    Z = aff.to_chart(P)
    if affine_span(Z, k).k != k:
        raise ValueError("points do not span the affine subspace")
    tol = point_tolerances(Z)
    subsets = itertools.combinations(range(P.shape[0]), k)
    hs, per_block = [], max(1, _CHUNK_ENTRIES // P.shape[0])
    for block in iter(lambda: list(itertools.islice(subsets, per_block)), []):
        sub = Z[np.array(block, dtype=np.intp)]      # (B, k, k)
        D = sub[:, 1:] - sub[:, :1]
        scale = 1.0 + np.max(np.abs(D), axis=(1, 2), initial=0.0)
        span, rank = _gram_schmidt(D, RANK_TOL * scale, k)
        # one complement row each: only subsets spanning a hyperplane reach k
        _gram_schmidt(np.broadcast_to(np.eye(k), (len(block), k, k)), RANK_TOL, rank + 1,
                      span, rank)
        facet = np.flatnonzero(rank == k)
        A = span[facet, k - 1]                       # unit chart normals
        b = _dots(A, sub[facet, 0])
        # stacked products, one matrix-vector product per facet: bit for bit
        # the per-facet expressions Z @ a, basis.T @ a and w . base
        vals = (Z @ A[:, :, None])[:, :, 0] - b[:, None]  # (facets, n)
        W = (aff.basis.T @ A[:, :, None])[:, :, 0]
        w0 = b + _dots(W, np.broadcast_to(aff.base, W.shape))
        side = np.column_stack([np.all(vals >= -tol, axis=1), np.all(vals <= tol, axis=1)])
        hs += [Halfspace(s * W[i], s * w0[i], source=block[f])
               for i, f in enumerate(facet) for s, up in zip((1.0, -1.0), side[i]) if up]
    rows = np.array([h.canonical_row() for h in hs]).reshape(-1, aff.dim + 1)
    return [hs[i] for i in dedup_rows(rows)]


# ---------------------------------------------------------------------------
# LP feasibility (incremental, randomized insertion order, fixed seed)
# ---------------------------------------------------------------------------


def _interval_feasible(A, b, tol):
    """1-d system a*z >= b. Returns witness z or None."""
    lo, hi = -np.inf, np.inf
    for a, rhs in zip(A[:, 0], b):
        if abs(a) <= RANK_TOL:
            if rhs > tol:
                return None
        elif a > 0:
            lo = max(lo, rhs / a)
        else:
            hi = min(hi, rhs / a)
    if lo > hi + tol:
        return None
    if np.isfinite(lo):
        return np.array([lo])
    if np.isfinite(hi):
        return np.array([hi])
    return np.array([0.0])


def _complement(a):
    """Orthonormal basis of a's orthogonal complement: Gram-Schmidt of a, e_1, e_2, ..."""
    span, rank = _gram_schmidt(np.vstack([a, np.eye(a.size)])[None], RANK_TOL, a.size)
    return span[0, 1:rank[0]]


def _feasible_chart(A, b, tol, rng):
    """Find z with A z >= b - tol, or None if the system is infeasible.

    Incremental: maintains a feasible point of the constraints inserted so
    far; a violated constraint forces the point onto its hyperplane and the
    prefix system is re-solved in one fewer dimension. If the restricted
    system is infeasible, so is the prefix including the new constraint.
    """
    m, k = A.shape
    if k == 0:
        return np.zeros(0) if np.all(b <= tol) else None
    if m == 0:
        return np.zeros(k)
    if k == 1:
        return _interval_feasible(A, b, tol)
    order = rng.permutation(m)
    z = np.zeros(k)
    for pos, idx in enumerate(order):
        if A[idx] @ z >= b[idx] - tol:
            continue
        # restrict to the hyperplane A[idx] . z = b[idx]
        a = A[idx]
        nrm = float(np.linalg.norm(a))
        if nrm <= RANK_TOL:
            return None  # unsatisfiable degenerate constraint
        unit = a / nrm
        p = (b[idx] / nrm) * unit
        Q = _complement(a)  # (k-1, k)
        prev = order[: pos + 1]
        A_sub = A[prev] @ Q.T
        b_sub = b[prev] - A[prev] @ p
        y = _feasible_chart(A_sub, b_sub, tol, rng)
        if y is None:
            return None
        z = p + Q.T @ y
    return z


def region_feasible(halfspaces, aff: AffineSubspace):
    """Whether the halfspace intersection meets ``aff``; witness if so.

    Returns (feasible, witness), witness a point of R^d or None. Halfspaces
    effectively parallel to ``aff`` reduce to constant constraints on the
    chart and are resolved directly.
    """
    hs = list(halfspaces)
    dim = aff.dim
    rows = []
    rhs = []
    scale = 1.0
    for h in hs:
        if h.dim != dim:
            raise DimensionMismatch("halfspace dimension does not match the affine subspace")
        a = aff.basis @ h.normal  # chart-normal
        c = h.offset - float(h.normal @ aff.base)
        scale = max(scale, abs(c))
        nrm = float(np.linalg.norm(a))
        if nrm <= RANK_TOL:
            # halfspace parallel to aff: the whole chart is in or out
            if c > LP_TOL * scale:
                return False, None
            continue
        rows.append(a / nrm)
        rhs.append(c / nrm)
    if not rows:
        return True, np.array(aff.base)
    A = np.vstack(rows)
    b = np.asarray(rhs)
    tol = LP_TOL * scale
    rng = np.random.default_rng(_LP_SEED)
    z = _feasible_chart(A, b, tol, rng)
    if z is None:
        return False, None
    return True, aff.from_chart(z)


@dataclass(frozen=True)
class HellyWitness:
    """Sub-collection of family members (plus possibly the affine subspace)
    whose intersection misses the target halfspace."""

    indices: tuple[int, ...]  # positions into the family; len(family) denotes aff
    members: tuple
    includes_aff: bool


def helly_witness(family, aff: AffineSubspace, target: Halfspace, dim: int) -> HellyWitness:
    """Smallest-first search for <= dim members of family + {aff} whose
    intersection misses ``target``.

    Preconditions: the full family intersected with ``aff`` is nonempty but
    adding ``target`` empties it. Existence of a witness of size <= dim then
    follows from Helly's theorem in R^dim. Subsets are scanned in increasing
    size, lexicographically by member index (aff last).
    """
    members = list(family)
    F = len(members)
    feasible_all, _ = region_feasible(members, aff)
    if not feasible_all:
        raise ValueError("region already empty")
    with_target, _ = region_feasible(members + [target], aff)
    if with_target:
        raise ValueError("target intersects region")
    full = AffineSubspace.full_space(dim)
    for size in range(1, dim + 1):
        for combo in itertools.combinations(range(F + 1), size):
            hs = [members[i] for i in combo if i < F]
            sub_aff = aff if F in combo else full
            feas, _ = region_feasible(hs + [target], sub_aff)
            if not feas:
                chosen = tuple(members[i] if i < F else aff for i in combo)
                return HellyWitness(indices=tuple(combo), members=chosen,
                                    includes_aff=F in combo)
    raise RuntimeError("no witness of size <= dim found within tolerance")
