"""Exact empirical-risk minimization over halfspaces: the non-private
baseline that the learner is compared against.

The candidates are the two constant classifiers and, for every point
subset of size <= d, its supported hyperplane (``supporting_hyperplanes``)
in four variants: both orientations, and the boundary nudged by -delta
and by +delta. The variants are counted from the sides the points lie on:
the singletons, whose hyperplane is the threshold x[0] = X[i, 0] at every
d, after one sort, and the subsets of size d after one angular sort per
pivot (``_erm_sweep``). Rows whose counts the sides cannot settle are
scored against every point instead: the constants, the subsets of sizes
2 to d - 1, every hyperplane with another point inside that point's
margin and every plane whose row may stray too far from the sweep's
plane. At d >= 4 no sweep runs, and every plane is scored against every
point (``_erm_planes``).
"""

from __future__ import annotations

import numpy as np

from .geometry import (
    _CHUNK_ENTRIES,
    DimensionMismatch,
    Halfspace,
    MEM_TOL,
    RANK_TOL,
    _combinations,
    _gram_schmidt,
    point_tolerances,
    supporting_hyperplanes,
)
from .model import EmptySampleError, ErrorCount, LabeledSample


def _variants(W, w0, delta):
    """The four variants of each hyperplane row, variant-major:
    (w, w0 - delta), (w, w0 + delta), (-w, -w0 - delta), (-w, -w0 + delta)."""
    return (np.vstack([W, W, -W, -W]),
            np.concatenate([w0 - delta, w0 + delta, -w0 - delta, -w0 + delta]))


def _variant_mistakes(inside, off, on0, on1):
    """Mistakes of the four variants of hyperplanes. ``inside`` counts the
    mistakes among the ``off`` points off a hyperplane when its positive
    side is inside: 0-labels on that side, 1-labels on the other. ``on0``
    and ``on1`` count the labels on it, which only variants 0 and 2 hold."""
    return np.stack([inside + on0, inside + on1,
                     off - inside + on0, off - inside + on1])


def _margins(X, delta):
    """Twice the distance from a hyperplane within which a point's side
    does not settle its membership in the variants (delta plus the point's
    membership tolerance); the factor covers float error."""
    return 2.0 * (delta + point_tolerances(X))


def _halfspace_mistakes(W, w0, X, y) -> np.ndarray:
    """Mistake counts of halfspace classifiers (rows of W, w0) on (X, y).

    A candidate errs on a 0-label inside it and a 1-label outside it. The
    per-point tolerance rides along as an extra GEMM column, and chunk
    buffers are reused to keep the scan memory-bandwidth bound.
    """
    tol = point_tolerances(X)
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
    """Running minimum of the candidates' mistakes and the candidate rows
    that attain it."""

    def __init__(self, X, y):
        self.X, self.y = X, y
        self.count = None
        self.tied = []

    def offer(self, mistakes, W, w0):
        """Candidate rows (W, w0) with their mistakes."""
        if mistakes.size == 0:
            return
        low = int(mistakes.min())
        if self.count is not None and low > self.count:
            return
        if self.count is None or low < self.count:
            self.count, self.tied = low, []
        at = mistakes == low
        self.tied.append((W[at], w0[at]))

    def score(self, W, w0):
        """Offer candidate rows scored against every point."""
        self.offer(_halfspace_mistakes(W, w0, self.X, self.y), W, w0)

    def pick(self):
        """The tied row with the least (w, w0) in lexicographic order, its
        signed zeros cleared. Rows that tie in that order are bitwise equal
        but for the sign of a zero, so the order of the candidates does not
        change the result."""
        W, w0 = (np.concatenate(parts) for parts in zip(*self.tied))
        k = int(np.lexsort((w0, *W.T[::-1]))[0])
        return Halfspace(W[k] + 0.0, float(w0[k]) + 0.0), self.count


def _erm_thresholds(best: _Minimizers, delta: float) -> None:
    """The variants of the hyperplane with normal e1 through every point,
    the thresholds x[0] = X[i, 0], counted after one sort: every candidate
    at d = 1, and the singletons at every d, whose supported hyperplane
    (``supporting_hyperplanes``) is that row. A threshold is crowded when a
    sorted neighbour lies within the largest margin of it; a farther point
    then lies outside its own margin too."""
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
    e1 = np.eye(dim)[:1]
    i = order[~crowded]
    best.offer(counts[:, ~crowded].ravel(),
               *_variants(np.repeat(e1, i.size, axis=0), x[i], delta))
    i = order[crowded]
    best.score(*_variants(np.repeat(e1, i.size, axis=0), x[i], delta))


# the error bound of a row, per unit of scale^(d - 1) / (spread r), and the
# largest stray of a row from its sweep plane that the margins absorb
# (``_erm_sweep``)
_ROW_ERROR = 128 * np.finfo(float).eps
_ROW_STRAY = 2.5e-10


def _rotation_plane(X, piv, scale):
    """The plane in which a hyperplane through the pivot points ``piv``
    (c, d - 1) turns: the 2-D complement of their d - 2 differences D from
    the pivot's first point.

    Gram-Schmidt (``_gram_schmidt``) runs on D, keeping residuals above
    RANK_TOL * scale, then on the standard basis up to d rows; the last two
    rows are the orthonormal frame (c, 2, d), the identity at d = 2.
    Returns the coordinates (p, q), each (c, n), of every point minus the
    pivot's first point in that frame, the frame, the spread
    sqrt(det(D D^T)) (1 at d = 2, |u| at d = 3 with u = X[j] - X[i]), and
    whether D has rank below d - 2.
    """
    c, dim = piv.shape[0], X.shape[1]
    base = X[piv[:, 0]]
    D = X[piv[:, 1:]] - base[:, None]
    span, rank = _gram_schmidt(D, RANK_TOL * scale, dim - 2)
    deficient = rank < dim - 2
    _gram_schmidt(np.broadcast_to(np.eye(dim), (c, dim, dim)), RANK_TOL, dim, span, rank)
    frame = span[:, dim - 2:]
    pq = (frame.reshape(2 * c, dim) @ X.T).reshape(c, 2, -1)
    pq -= frame @ base[:, :, None]
    # abs: rounding can take the determinant of a singular D D^T below 0
    spread = np.sqrt(np.abs(np.linalg.det(D @ D.transpose(0, 2, 1))))
    return pq[:, 0], pq[:, 1], frame, spread, deficient


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
    its pivot, as do pivot differences of rank below d - 2. Outside every
    window X[k] lies at least (2/pi) margin_k = 1.27 (delta + tol_k) from
    the sweep's plane. The spare 0.27 (delta + tol_k) >= 1.09e-9 * scale
    absorbs the rounding of the angles and of the membership test, a few
    ulps of scale each, and the stray of the row from the sweep's plane.

    The row W is Gram-Schmidt on the centred subset
    (``supporting_hyperplanes``), not n_l. Let n be the exact normal of the
    subset, s the pivot's spread and eta = _ROW_ERROR * scale^(d-1) /
    (s r_l); W lies within 2 eta of +-n_l, as below. A plane is settled
    only if 2 eta <= _ROW_STRAY. The row then moves a point by at most
    2 _ROW_STRAY scale = 5e-10 * scale, under half the spare, and holds
    the subset within that of its boundary, well inside delta - tol, so
    the subset counts as on it. The other planes are crowded: a point near
    the pivot's hull, a rank-deficient subset or near-coincident pivots. At
    d >= 4 no such bound is proven yet (``_erm_planes``).

    At d = 2 the frame is exact and X[l]'s coordinates are its difference
    from X[i], rounded once, so n_l lies within 8 eps <= 16 eps scale / r_l
    of +-n. Centring the pair errs by eps scale per coordinate, so the
    direction Gram-Schmidt keeps lies within 3 eps scale / r_l of the
    pair's, and its second pass leaves W normal to it within 4 eps <=
    8 eps scale / r_l: W is within 11 eps scale / r_l of +-n and within
    27 eps scale / r_l <= 2 eta of +-n_l. The rank stays 1, as
    r_l >= 2.3e-4 scale: the kept residual r_l / 2 is far above
    RANK_TOL (1 + r_l / 2), and the kernel keeps at most one direction for
    two points.

    At d = 3 let h = s r_l = |u| r_l, twice the triangle's area. The frame
    is orthonormal and normal to u within a few eps, and X[l]'s coordinates
    err by at most 4 eps scale, its angle by at most 6 eps scale / r_l, so
    n_l lies within 40 eps scale / r_l <= 80 eps scale^2 / h of +-n.
    Centring errs by 3 eps scale per coordinate, and the centred triple's
    smaller singular value is at least h / (4 scale), as the two multiply
    to h / sqrt(3) and the larger is at most 2.31 scale, so the normal of
    the computed span, two-pass rounding included, lies within
    64 eps scale^2 / h of +-n. The residual of the axis that Gram-Schmidt
    takes has a norm above RANK_TOL, and its second pass leaves it normal
    to that span within a few eps of that norm; so W is within
    64 eps scale^2 / h + 4 eps of +-n, and within 2 eta of +-n_l. The rank
    stays 2, as h >= 2.3e-4 scale^2: the kept directions have residuals of
    at least h / (4 scale), above RANK_TOL (1 + max|V|), and the kernel
    keeps at most two directions for three points.

    The variants are formed only for candidates whose best variant,
    min(a, off - a) + min(on1, on0), reaches the running minimum; their
    orientation follows from the sign of W . n_l. Pivots run in chunks, so
    memory stays O(chunk * n).
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
        p, q, frame, spread, deficient = _rotation_plane(X, piv, scale)
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
        hull = deficient | np.any(w >= 0.5, axis=1)
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
        # planes whose row may stray too far from the sweep's plane
        crowded |= spread[:, None] * r < (2 * _ROW_ERROR / _ROW_STRAY) * scale ** (dim - 1)
        line = k > piv[:, -1:]

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
            if low <= best.count:
                ci, cj = np.nonzero(clean & (lower == low))
                W, w0 = supporting_hyperplanes(X, np.column_stack([piv[ci], k[ci, cj]]))
                flip = np.einsum("ij,ij->i", W, np.cos(phi[ci, cj, None]) * frame[ci, 1]
                                 - np.sin(phi[ci, cj, None]) * frame[ci, 0]) < 0
                counts = _variant_mistakes(np.where(flip, off - a[ci, cj], a[ci, cj]), off,
                                           dim - on1[ci, cj], on1[ci, cj])
                best.offer(counts.ravel(), *_variants(W, w0, delta))
        ci, cj = np.nonzero(line & crowded)
        if ci.size:
            best.score(*_variants(*supporting_hyperplanes(
                X, np.column_stack([piv[ci], k[ci, cj]])), delta))


def _erm_planes(best: _Minimizers, delta: float, dim: int) -> None:
    """d >= 4: the variants of the hyperplane through every d points, each
    scored against every point, as no bound on a row's stray from the
    sweep's plane is proven there (``_erm_sweep``). The subsets come in
    chunks by their first d - 1 points, the sweep's pivots, so memory stays
    O(chunk * n)."""
    n = best.X.shape[0]
    pivots = _combinations(n - 1, dim - 1)
    step = max(1, _CHUNK_ENTRIES // (8 * n))
    for lo in range(0, pivots.shape[0], step):
        piv = pivots[lo:lo + step]
        ci, cj = np.nonzero(np.arange(n) > piv[:, -1:])
        if ci.size:
            best.score(*_variants(*supporting_hyperplanes(
                best.X, np.column_stack([piv[ci], cj])), delta))


def erm_halfspace(S_prime: LabeledSample, dim: int):
    """Exact empirical-risk-minimizing halfspace over the candidates the
    module docstring lists; ties broken by lexicographic (w, w0), signed
    zeros cleared.

    O(n log n) at d = 1 and O(n^d log n) at d = 2 and 3, by one sort for
    the singletons and one angular sort per pivot (``_erm_sweep``), plus
    O(n) per candidate scored against every point: the subsets of sizes 2
    to d - 1 (the pairs at d = 3, O(n^3) in all) and the crowded
    hyperplanes. At d >= 4 every plane is scored so, O(n^(d+1)). Refuses a
    ``dim`` below 1 or other than the sample's.
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
    # constant classifiers: everything inside (all label 1) / nothing inside
    best.score(np.eye(dim)[[0, 0]],
               np.array([float(X[:, 0].min()) - scale, float(X[:, 0].max()) + scale]))
    _erm_thresholds(best, delta)
    for size in range(2, min(dim - 1, n) + 1):
        best.score(*_variants(*supporting_hyperplanes(X, _combinations(n, size)), delta))
    if dim > 3:
        _erm_planes(best, delta, dim)
    elif dim >= 2:
        _erm_sweep(best, scale, delta, dim)
    h, count = best.pick()
    return h, ErrorCount(count, S_prime.n)
