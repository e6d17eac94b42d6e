"""Data model: examples with privacy bits, datasets, and empirical error.

Empirical errors are kept as exact integer mistake counts so that argmin
and selection-probability logic downstream never touches floating point;
the exponential mechanism's sensitivity argument needs the exact 1/n
granularity.

Report fields carry a privacy label in their dataclass metadata:
release-safe values are determined by the public entries, epsilon, the
sample sizes and the settings (or are the epsilon-DP output itself);
curator-only values are computed from private data without noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from fractions import Fraction

import numpy as np


class EmptySampleError(ValueError):
    pass


PRIVACY = "privacy"  # metadata key of a report field's privacy label
RELEASE_SAFE = "release-safe"
CURATOR_ONLY = "curator-only"


def release_safe(**kwargs):
    """A dataclass field whose value may be released next to the output."""
    return field(metadata={PRIVACY: RELEASE_SAFE}, **kwargs)


def curator_only(**kwargs):
    """A dataclass field computed from private data without noise."""
    return field(metadata={PRIVACY: CURATOR_ONLY}, **kwargs)


def curator_only_fields(cls) -> frozenset[str]:
    """Names of the fields of a report dataclass labelled curator-only."""
    return frozenset(f.name for f in fields(cls) if f.metadata.get(PRIVACY) == CURATOR_ONLY)


@dataclass(frozen=True, eq=False)
class LabeledSample:
    """Ordered labeled examples (no privacy bits), as arrays.

    ``indices`` cites each example's position in the parent dataset so that
    derived structures stay traceable to the original order. Coordinates
    must be finite and labels 0/1, as in ``PPMDataset``.
    """

    X: np.ndarray
    y: np.ndarray
    indices: np.ndarray

    def __post_init__(self):
        X = np.array(np.asarray(self.X, dtype=float))
        y = np.array(np.asarray(self.y, dtype=np.uint8))
        idx = np.array(np.asarray(self.indices, dtype=np.int64))
        if X.ndim != 2:
            raise ValueError("X must be 2-d")
        if not np.all(np.isfinite(X)):
            raise ValueError("coordinates must be finite")
        if y.shape != (X.shape[0],) or idx.shape != (X.shape[0],):
            raise ValueError("y/indices lengths must match X")
        if y.size and y.max() > 1:
            raise ValueError("labels must be 0/1")
        for arr in (X, y, idx):
            arr.flags.writeable = False
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "indices", idx)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def dim(self) -> int:
        return self.X.shape[1]

    def __len__(self):
        return self.n

    def __iter__(self):
        for i in range(self.n):
            yield self.X[i], int(self.y[i])


@dataclass(frozen=True, eq=False)
class PPMDataset:
    """Ordered sample of (x, y, p) triples in R^d.

    Order is significant and preserved; the public/private partition and
    the label-only view are derived from it deterministically.
    """

    dim: int
    X: np.ndarray
    y: np.ndarray
    p: np.ndarray  # True = private

    def __post_init__(self):
        X = np.array(np.asarray(self.X, dtype=float))
        y = np.array(np.asarray(self.y))
        p = np.array(np.asarray(self.p))
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if X.ndim != 2 or X.shape[1] != self.dim:
            raise ValueError(f"X must have shape (n, {self.dim})")
        if X.shape[0] == 0:
            raise EmptySampleError("empty dataset rejected")
        if not np.all(np.isfinite(X)):
            raise ValueError("coordinates must be finite")
        if not np.isin(y, (0, 1)).all():
            raise ValueError("labels must be 0/1")
        if p.dtype != np.bool_ and not np.isin(p, (0, 1)).all():
            raise ValueError("privacy bits must be 0/1")
        y = y.astype(np.uint8)
        p = p.astype(bool)
        if y.shape != (X.shape[0],) or p.shape != (X.shape[0],):
            raise ValueError("y/p lengths must match X")
        for arr in (X, y, p):
            arr.flags.writeable = False
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "p", p)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def n_priv(self) -> int:
        return int(self.p.sum())

    @property
    def n_pub(self) -> int:
        return self.n - self.n_priv


def partition(dataset: PPMDataset):
    """Split into (S_pub, S_priv, S_prime), all in original order.

    S_prime is the label-only view of the whole dataset (privacy bits
    dropped). Empty partitions are legal.
    """
    idx = np.arange(dataset.n)
    pub = ~dataset.p
    s_pub = LabeledSample(dataset.X[pub], dataset.y[pub], idx[pub])
    s_priv = LabeledSample(dataset.X[dataset.p], dataset.y[dataset.p], idx[dataset.p])
    s_prime = LabeledSample(dataset.X, dataset.y, idx)
    return s_pub, s_priv, s_prime


@dataclass(frozen=True)
class ErrorCount:
    """Exact empirical error: integer mistakes out of an integer total.

    Comparisons require a common total and compare mistake counts, so no
    floating-point ordering can creep into argmin logic.
    """

    mistakes: int
    total: int

    def __post_init__(self):
        if self.total < 1:
            raise EmptySampleError("empty sample")
        if not 0 <= self.mistakes <= self.total:
            raise ValueError(f"mistakes {self.mistakes} outside [0, {self.total}]")

    @property
    def value(self) -> Fraction:
        return Fraction(self.mistakes, self.total)

    def as_float(self) -> float:
        return self.mistakes / self.total

    def _check(self, other: "ErrorCount"):
        if self.total != other.total:
            raise ValueError("cannot compare errors over different totals")

    def __lt__(self, other):
        self._check(other)
        return self.mistakes < other.mistakes

    def __le__(self, other):
        self._check(other)
        return self.mistakes <= other.mistakes

    def __gt__(self, other):
        self._check(other)
        return self.mistakes > other.mistakes

    def __ge__(self, other):
        self._check(other)
        return self.mistakes >= other.mistakes


def empirical_error(predict, sample: LabeledSample) -> ErrorCount:
    """Exact mistake count of a point classifier over a labeled sample.

    ``predict`` maps a point of R^d to a 0/1 label. This is the plain
    per-point reference implementation; hot paths use vectorized scoring
    and are tested against this one.
    """
    if sample.n == 0:
        raise EmptySampleError("empty sample")
    mistakes = 0
    for x, y in sample:
        if int(predict(x)) != y:
            mistakes += 1
    return ErrorCount(mistakes, sample.n)
