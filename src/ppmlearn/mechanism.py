"""The exponential mechanism over the hypothesis class, as one law.

``MechanismDistribution`` is the selection law that ``learn_half`` draws
from and ``verify_dp`` audits. It is built from the histogram of mistake
counts alone (n + 1 bins), so the same object serves a class of any size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import _CHUNK_ENTRIES


def check_epsilon(epsilon) -> float:
    """epsilon as a float, refused unless positive and finite: nan or inf
    would make the law's normalizer nan."""
    eps = float(epsilon)
    if not 0 < eps < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    return eps


@dataclass(frozen=True, eq=False)
class MechanismDistribution:
    """Exact selection law of the exponential mechanism over the class.

    log_prob(c) = -(eps/2) * c - log sum_j exp(-(eps/2) * mistakes_j) for a
    hypothesis with c mistakes; equivalently (eps*n/2) * q with score
    q = -c / n and sensitivity 1/n. The law depends on the class only
    through the histogram of mistake counts (n+1 bins), so it is built from
    that histogram alone: the normalizer is a sum over bins, and a draw
    picks a count first, then a hypothesis with that count from the counts
    vector the caller passes in.
    """

    histogram: np.ndarray  # index = mistake count
    epsilon: float
    n: int
    min_mistakes: int = field(init=False)
    log_normalizer: float = field(init=False)  # log sum of exp(-eps*(c - min)/2)

    def __post_init__(self):
        check_epsilon(self.epsilon)
        if self.n < 1:
            raise ValueError("n must be >= 1")
        hist = np.array(self.histogram, dtype=np.int64)
        if hist.shape != (self.n + 1,):
            raise ValueError(f"histogram has {hist.size} bins, not n + 1 = {self.n + 1}")
        if not hist.any():
            raise ValueError("empty score list")
        hist.flags.writeable = False
        object.__setattr__(self, "histogram", hist)
        object.__setattr__(self, "min_mistakes", int(np.flatnonzero(hist)[0]))
        # past about 1,490 bins at eps = 1 the weights underflow to 0; fsum
        # rounds the exact sum once, so leaving them out changes no bit
        weights = self._bin_weights()
        object.__setattr__(self, "log_normalizer", math.log(math.fsum(weights[weights > 0])))

    def _bin_weights(self) -> np.ndarray:
        """hist[c] * exp(-eps*(c - min)/2) for the counts c >= min."""
        tail = self.histogram[self.min_mistakes:]
        return tail * np.exp(-(self.epsilon / 2.0) * np.arange(tail.size))

    def log_prob(self, counts):
        """Log-probability of one hypothesis with each of ``counts`` mistakes."""
        shift = np.asarray(counts, dtype=np.int64) - self.min_mistakes
        return -(self.epsilon / 2.0) * shift - self.log_normalizer

    def sample(self, rng, counts) -> tuple[int, float]:
        """Draw a rank of ``counts``, the mistake counts this law was binned
        from; also returns the uniform draw that picked its count.

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
        for lo in range(0, counts.size, _CHUNK_ENTRIES):
            hits = np.flatnonzero(counts[lo:lo + _CHUNK_ENTRIES] == c)
            if k < hits.size:
                return lo + int(hits[k]), u
            k -= hits.size
        raise AssertionError("histogram out of step with the counts")


def bin_counts(values: np.ndarray, bins: int) -> np.ndarray:
    """Histogram of the mistake counts ``values`` over range(bins), in
    chunks: bincount converts to intp one chunk at a time, never a full
    copy. A count past the last bin, n, is refused."""
    hist = np.zeros(bins, dtype=np.intp)
    for lo in range(0, values.size, _CHUNK_ENTRIES):
        part = np.bincount(values[lo:lo + _CHUNK_ENTRIES], minlength=bins)
        if part.size > bins:
            raise ValueError(f"mistake count {part.size - 1} above n = {bins - 1}")
        hist += part
    return hist


def mechanism_distribution(mistake_counts, epsilon: float, n: int) -> MechanismDistribution:
    """The law over a class with these mistake counts. No hypothesis makes
    more than n mistakes on n points, so a count above n is refused, and a
    count that is not an integer is refused, not rounded."""
    c = np.asarray(mistake_counts)
    if c.dtype.kind not in "iu":
        if not np.all(np.isfinite(c) & (np.floor(c) == c)):
            raise ValueError("mistake counts must be integers")
        c = c.astype(np.int64)
    return MechanismDistribution(histogram=bin_counts(c, n + 1), epsilon=float(epsilon),
                                 n=int(n))
