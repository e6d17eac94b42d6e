"""Independent reference implementations used to check library results.

Everything here is deliberately written a different way from the library:
sort-and-scan for 1-d ERM, brute-force ERM that scores every candidate
against every point (its rows at d >= 2 come from the library's batched
kernel, checked bit for bit against the per-subset Gram-Schmidt here), a
per-subset halfspace family with grid-bucket deduplication, a per-subset
hull-facet loop, a point-by-point and member-by-member hypothesis
prediction, the class enumerated by itertools.combinations, an
orientation-predicate hull, vertex enumeration for 2-d feasibility,
elimination-based rank, the plain exponential-mechanism formula without
log-space shifting, and the audit's log-ratio taken at every hypothesis.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from ppmlearn.geometry import (
    DEDUP_TOL,
    MEM_TOL,
    RANK_TOL,
    Halfspace,
    point_tolerance,
    supporting_hyperplanes,
)
from ppmlearn.learner import EMPTY_REGION, IntersectionHypothesis


def erm_1d_mistakes(xs, ys) -> int:
    """Minimum mistakes over all 1-d threshold classifiers, both
    orientations, by scanning splits of the sorted sample."""
    xs = np.asarray(xs, dtype=float).reshape(-1)
    ys = np.asarray(ys, dtype=int).reshape(-1)
    order = np.argsort(xs, kind="stable")
    xs, ys = xs[order], ys[order]
    n = len(xs)
    # prefix[i] = number of 1-labels among the first i points
    prefix = np.concatenate([[0], np.cumsum(ys)])
    total_ones = prefix[-1]
    # legal split positions: between distinct values, plus both ends
    splits = [0, n]
    for i in range(1, n):
        if xs[i] != xs[i - 1]:
            splits.append(i)
    best = n
    for k in splits:
        ones_left, zeros_left = prefix[k], k - prefix[k]
        ones_right = total_ones - ones_left
        zeros_right = (n - k) - ones_right
        # "right" classifier: label 1 iff x >= threshold in the k-th gap
        best = min(best, ones_left + zeros_right)
        # "left" classifier: label 1 iff x <= threshold
        best = min(best, zeros_left + ones_right)
    return int(best)


def erm_candidates(X, dim):
    """Every ERM candidate row (W, w0): the two constant classifiers, then
    the supported hyperplane of every point subset of size <= d in four
    variants (both orientations, boundary nudged in and out). At d = 1 a
    subset's hyperplane is the threshold at its point; at d >= 2 the rows
    come from the batched kernel ``supporting_hyperplanes``, which
    ``test_supporting_hyperplanes_match_the_per_subset_oracle`` checks bit
    for bit against ``supporting_pair_oracle`` on every subset."""
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    scale = 1.0 + float(np.max(np.linalg.norm(X, axis=1), initial=0.0))
    delta = 4.0 * MEM_TOL * scale
    e1 = np.eye(dim)[0]
    if dim == 1:
        W, w0 = np.ones((n, 1)), X[:, 0]
    else:
        planes = [supporting_hyperplanes(X, list(itertools.combinations(range(n), size)))
                  for size in range(1, min(dim, n) + 1)]
        W, w0 = (np.concatenate(parts) for parts in zip(*planes))
    return (np.vstack([e1, e1, W, W, -W, -W]),
            np.concatenate([[X[:, 0].min() - scale, X[:, 0].max() + scale],
                            w0 - delta, w0 + delta, -w0 - delta, -w0 + delta]))


def erm_brute_force(X, y, dim):
    """(normal, offset, mistakes) of the ERM candidate with the fewest
    mistakes, each candidate scored against every point; ties go to the
    least (w, w0) in lexicographic order, then to the first row, and the
    signed zeros of the result are cleared."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y).astype(bool)
    W, w0 = erm_candidates(X, dim)
    tol = MEM_TOL * (1.0 + np.linalg.norm(X, axis=1))
    inside = X @ W.T + tol[:, None] >= w0          # (n, candidates)
    mistakes = np.count_nonzero(inside != y[:, None], axis=0)
    best = int(mistakes.min())
    ties = np.flatnonzero(mistakes == best)
    keys = (w0[ties],) + tuple(W[ties, c] for c in reversed(range(dim)))
    pick = ties[np.lexsort(keys)[0]]
    return W[pick] + 0.0, float(w0[pick]) + 0.0, best


# ---------------------------------------------------------------------------
# Per-subset halfspace family: one Python Gram-Schmidt per point subset,
# then grid-bucket deduplication of the Halfspace objects
# ---------------------------------------------------------------------------


def _orthonormalize(vectors, dim: int, stop: int | None = None) -> np.ndarray:
    basis: list[np.ndarray] = []
    stop = dim if stop is None else stop
    vecs = np.asarray(vectors, dtype=float).reshape(-1, dim)
    scale = 1.0 + (float(np.max(np.abs(vecs))) if vecs.size else 0.0)
    for v in vecs:
        if len(basis) == stop:
            break
        u = v.astype(float)
        for b in basis:
            u = u - (b @ u) * b
        # second MGS pass for numerical orthogonality
        for b in basis:
            u = u - (b @ u) * b
        norm = float(np.linalg.norm(u))
        if norm > RANK_TOL * scale:
            basis.append(u / norm)
    if not basis:
        return np.zeros((0, dim))
    return np.vstack(basis)


def _complement_basis(span: np.ndarray, dim: int) -> np.ndarray:
    comp: list[np.ndarray] = []
    k = span.shape[0]
    for i in range(dim):
        u = np.zeros(dim)
        u[i] = 1.0
        for b in itertools.chain(span, comp):
            u = u - (b @ u) * b
        for b in itertools.chain(span, comp):
            u = u - (b @ u) * b
        norm = float(np.linalg.norm(u))
        if norm > RANK_TOL:
            comp.append(u / norm)
        if len(comp) == dim - k:
            break
    return np.vstack(comp) if comp else np.zeros((0, dim))


def _sign_canonical(w):
    for v in w:
        if abs(v) > 1e-12:
            return w if v > 0 else -w
    return w


def supporting_pair_oracle(points, dim: int, source=None):
    """The supported halfspace of a point subset and its opposite, by one
    Gram-Schmidt over that subset alone."""
    P = np.asarray(points, dtype=float).reshape(-1, dim)
    center = P.mean(axis=0)
    span = _orthonormalize(P - center, dim, stop=P.shape[0] - 1)
    w = _sign_canonical(_complement_basis(span, dim)[0])
    w0 = float(w @ P[0])
    h = Halfspace(w, w0, source=tuple(source) if source is not None else None)
    return h, h.opposite()


def dedup_oracle(halfspaces, tol: float = DEDUP_TOL):
    """First-occurrence near-duplicate removal by grid-bucket probing."""
    kept: list = []
    rows: list[np.ndarray] = []
    buckets: dict[tuple, list[int]] = {}
    offsets = None
    for h in halfspaces:
        row = h.canonical_row()
        if offsets is None:
            m = row.size
            offsets = list(itertools.product((-1, 0, 1), repeat=m))
        key = tuple(np.floor(row / tol).astype(np.int64))
        dup = False
        for off in offsets:
            probe = tuple(k + o for k, o in zip(key, off))
            for idx in buckets.get(probe, ()):
                if float(np.max(np.abs(rows[idx] - row))) <= tol:
                    dup = True
                    break
            if dup:
                break
        if not dup:
            buckets.setdefault(key, []).append(len(rows))
            rows.append(row)
            kept.append(h)
    return kept


def family_oracle(S_pub, dim: int, pool_cap=None) -> list:
    """The deduplicated family halfspaces, built subset by subset: both
    orientations of every public subset of size <= d, in size then
    lexicographic order, each citing its dataset indices."""
    X, idx = S_pub.X, S_pub.indices
    if pool_cap is not None:
        X, idx = X[:pool_cap], idx[:pool_cap]
    halfspaces = []
    for size in range(1, dim + 1):
        for combo in itertools.combinations(range(X.shape[0]), size):
            src = tuple(int(idx[i]) for i in combo)
            halfspaces.extend(supporting_pair_oracle(X[list(combo)], dim, source=src))
    return dedup_oracle(halfspaces)


def hull_facets_oracle(points, aff) -> list:
    """Facet halfspaces of the hull of the points inside ``aff``, one Python
    Gram-Schmidt per size-k subset of chart points, both one-sided
    orientations of each in subset order, then grid-bucket deduplication."""
    P = np.asarray(points, dtype=float)
    k = aff.k
    if k == 0:
        return list(supporting_pair_oracle(P[:1], aff.dim, source=(0,)))
    Z = aff.to_chart(P)
    tol = MEM_TOL * (1.0 + np.linalg.norm(Z, axis=1))
    facets = []
    for combo in itertools.combinations(range(P.shape[0]), k):
        sub = Z[list(combo)]
        dirs = _orthonormalize(sub[1:] - sub[0], k)
        if dirs.shape[0] != k - 1:
            continue  # subset does not span a hyperplane of the chart
        comp = _complement_basis(dirs, k)
        if comp.shape[0] != 1:
            continue
        a = comp[0]
        b = float(a @ sub[0])
        vals = Z @ a - b
        w = aff.basis.T @ a
        w0 = b + float(w @ aff.base)
        if np.all(vals >= -tol):
            facets.append(Halfspace(w, w0, source=combo))
        if np.all(vals <= tol):
            facets.append(Halfspace(-w, -w0, source=combo))
    return dedup_oracle(facets)


def predict_oracle(g, family, x) -> int:
    """The label of one point under hypothesis ``g``: 0 iff x lies in the
    public span and in every member halfspace, checked member by member."""
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


def class_oracle(family, dim: int):
    """The hypothesis class in enumeration order: the empty region, then
    every strictly increasing member tuple of size 1..d, smaller sizes
    first and lexicographic within a size."""
    yield EMPTY_REGION
    for size in range(1, dim + 1):
        for combo in itertools.combinations(range(family.size), size):
            yield IntersectionHypothesis(combo)


def convex_hull_2d(points) -> list[int]:
    """Indices of hull vertices in counter-clockwise order (monotone chain,
    orientation predicate only)."""
    pts = [(float(p[0]), float(p[1]), i) for i, p in enumerate(points)]
    pts = sorted(set(pts), key=lambda t: (t[0], t[1]))
    if len(pts) <= 2:
        return [p[2] for p in pts]

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return [p[2] for p in lower[:-1] + upper[:-1]]


def point_in_hull_2d(q, hull_pts, tol=1e-9) -> bool:
    """Point-in-convex-polygon by orientation signs (hull ccw)."""
    m = len(hull_pts)
    if m == 1:
        return bool(np.linalg.norm(np.asarray(q) - hull_pts[0]) <= tol)
    for i in range(m):
        a = hull_pts[i]
        b = hull_pts[(i + 1) % m]
        cr = (b[0] - a[0]) * (q[1] - a[1]) - (b[1] - a[1]) * (q[0] - a[0])
        if cr < -tol:
            return False
    return True


def feasible_2d(constraints, tol=1e-7):
    """Whether {x in R^2 : a_i . x >= b_i for all i} is nonempty.

    Complete by case analysis: a nonempty system whose normals span R^2 has
    a vertex (some pair of active boundaries), otherwise all normals are
    parallel and the system reduces to an interval along the common normal.
    """
    A = np.asarray([c[0] for c in constraints], dtype=float)
    b = np.asarray([c[1] for c in constraints], dtype=float)
    m = len(b)
    if m == 0:
        return True
    norms = np.linalg.norm(A, axis=1)
    if np.any(norms <= 1e-12):
        keep = norms > 1e-12
        if np.any(b[~keep] > tol):
            return False
        if not np.any(keep):
            return True
        A, b, norms = A[keep], b[keep], norms[keep]
        m = len(b)
    A = A / norms[:, None]
    b = b / norms

    def ok(x):
        return bool(np.all(A @ x >= b - tol))

    crosses = np.abs(A[:, None, 0] * A[None, :, 1] - A[:, None, 1] * A[None, :, 0])
    if np.all(crosses <= 1e-9):
        # all normals parallel: interval along u
        u = A[0]
        s = A @ u
        lo, hi = -np.inf, np.inf
        for si, bi in zip(s, b):
            if si > 0:
                lo = max(lo, bi / si)
            else:
                hi = min(hi, bi / si)
        return lo <= hi + tol
    if ok(b[0] * A[0]):
        return True
    for i in range(m):
        for j in range(i + 1, m):
            M = np.vstack([A[i], A[j]])
            det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
            if abs(det) <= 1e-12:
                continue
            x = np.linalg.solve(M, np.array([b[i], b[j]]))
            if ok(x):
                return True
    return False


def matrix_rank_elimination(M, tol=1e-8) -> int:
    """Numerical rank by Gaussian elimination with partial pivoting."""
    A = np.array(M, dtype=float)
    if A.size == 0:
        return 0
    rows, cols = A.shape
    scale = max(1.0, float(np.max(np.abs(A))))
    rank = 0
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        piv = r + int(np.argmax(np.abs(A[r:, c])))
        if abs(A[piv, c]) <= tol * scale:
            continue
        A[[r, piv]] = A[[piv, r]]
        for rr in range(rows):
            if rr != r:
                A[rr] -= A[rr, c] / A[r, c] * A[r]
        r += 1
        rank += 1
    return rank


def mechanism_probs_direct(mistake_counts, epsilon) -> np.ndarray:
    """Plain (unshifted) exponential-mechanism probabilities."""
    w = [math.exp(-epsilon * c / 2.0) for c in mistake_counts]
    total = sum(w)
    return np.array([v / total for v in w])


def audit_ratio_oracle(base_counts, neighbor_counts, epsilon, n) -> float:
    """max over every hypothesis h of |log P(h) - log P'(h)|, each law's log
    probabilities formed over the whole counts vector: -(eps/2) times the
    count's distance from the smallest count, minus the log of the exactly
    summed bin weights."""
    def log_probs(counts):
        counts = np.asarray(counts, dtype=np.int64)
        hist = np.bincount(counts, minlength=n + 1)
        low = int(np.flatnonzero(hist)[0])
        tail = hist[low:]
        log_z = math.log(math.fsum(tail * np.exp(-(epsilon / 2.0) * np.arange(tail.size))))
        return -(epsilon / 2.0) * (counts - low) - log_z

    return float(np.max(np.abs(log_probs(base_counts) - log_probs(neighbor_counts))))


def count_mistakes_pointwise(labels_pred, labels_true) -> int:
    return int(sum(1 for a, b in zip(labels_pred, labels_true) if int(a) != int(b)))


def unrank_walk(rank: int, family_size: int, dim: int):
    """Members of the hypothesis at ``rank`` in the class enumeration
    (empty region first, then member tuples by size, lexicographic), None
    for the empty region, by walking member indices one at a time: O(F)
    binomials a call. Raises IndexError outside the class."""
    if rank < 0:
        raise IndexError("rank outside the class")
    if rank == 0:
        return None
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
            return tuple(combo)
        rank -= block
    raise IndexError("rank outside the class")
