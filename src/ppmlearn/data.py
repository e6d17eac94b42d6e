"""Synthetic data generators for the mixed private/public privacy models,
and CSV serialization of datasets.

Privacy bits follow the label-determined rule p = priv <=> y = 1, softened
by an optional flip rate rho; labels follow a target halfspace, softened by
an optional symmetric noise rate eta. Points landing within membership
tolerance of the target's boundary are resampled so tolerant membership
never makes a label ambiguous.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .geometry import Halfspace, point_tolerances
from .model import LabeledSample, PPMDataset

MARGINALS = ("gaussian", "cube", "affine")

_STREAM_TRAIN = 0
_STREAM_HOLDOUT = 1
_STREAM_FRAME = 2


class CsvFormatError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class GeneratorSpec:
    """Distribution spec: marginal over R^d, labeling halfspace, noise and
    privacy-flip rates, seed.

    rho = 0 gives the exact label-determined model; eta = 0 makes the data
    realizable by the target. marginal="affine" draws a Gaussian inside a
    seeded affine_dim-dimensional affine subspace.
    """

    dim: int
    target: Halfspace
    marginal: str = "gaussian"
    affine_dim: int | None = None
    label_noise: float = 0.0
    privacy_flip: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.target.dim != self.dim:
            raise ValueError("target dimension mismatch")
        if self.marginal not in MARGINALS:
            raise ValueError(f"marginal must be one of {MARGINALS}")
        if not 0.0 <= self.label_noise < 0.5:
            raise ValueError("label_noise must be in [0, 0.5)")
        if not 0.0 <= self.privacy_flip <= 0.5:
            raise ValueError("privacy_flip must be in [0, 0.5]")
        if self.marginal == "affine":
            if self.affine_dim is None or not 0 <= self.affine_dim <= self.dim:
                raise ValueError("affine marginal needs affine_dim in [0, dim]")

    def with_seed(self, seed: int) -> "GeneratorSpec":
        return replace(self, seed=int(seed))


def _rng(spec: GeneratorSpec, stream: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=spec.seed, spawn_key=(stream,)))


def _affine_frame(spec: GeneratorSpec):
    """Seeded orthonormal frame for the embedded-Gaussian marginal."""
    rng = _rng(spec, _STREAM_FRAME)
    k = spec.affine_dim
    base = rng.standard_normal(spec.dim)
    if k == 0:
        return base, np.zeros((0, spec.dim))
    A = rng.standard_normal((spec.dim, k))
    Q, R = np.linalg.qr(A)
    Q = Q * np.sign(np.diag(R))  # fix QR sign ambiguity
    return base, Q.T


def _draw_points(spec: GeneratorSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    if spec.marginal == "gaussian":
        return rng.standard_normal((n, spec.dim))
    if spec.marginal == "cube":
        return rng.uniform(-1.0, 1.0, size=(n, spec.dim))
    base, frame = _affine_frame(spec)
    z = rng.standard_normal((n, frame.shape[0]))
    return base + z @ frame


def _draw_clear_of_boundary(spec: GeneratorSpec, n: int,
                            rng: np.random.Generator) -> np.ndarray:
    """Sample points, redrawing any within membership tolerance of the
    target's hyperplane."""
    X = _draw_points(spec, n, rng)
    w, w0 = spec.target.normal, spec.target.offset
    for _ in range(100):
        close = np.abs(X @ w - w0) <= point_tolerances(X)
        if not np.any(close):
            return X
        X[close] = _draw_points(spec, int(np.sum(close)), rng)
    raise RuntimeError("could not sample points clear of the target boundary")


def _labels(spec: GeneratorSpec, X: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    clean = (X @ spec.target.normal - spec.target.offset >= 0).astype(np.uint8)
    if spec.label_noise > 0:
        flips = rng.random(X.shape[0]) < spec.label_noise
        clean = clean ^ flips.astype(np.uint8)
    return clean


def generate(spec: GeneratorSpec, n: int) -> PPMDataset:
    """n i.i.d. examples; label = target(x) xor Bern(eta); privacy bit =
    label xor Bern(rho), with 1 mapped to private. Deterministic per seed."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = _rng(spec, _STREAM_TRAIN)
    X = _draw_clear_of_boundary(spec, n, rng)
    y = _labels(spec, X, rng)
    p = y.astype(bool)
    if spec.privacy_flip > 0:
        flips = rng.random(n) < spec.privacy_flip
        p = p ^ flips
    return PPMDataset(dim=spec.dim, X=X, y=y, p=p)


def generate_holdout(spec: GeneratorSpec, m: int) -> LabeledSample:
    """m labeled draws from the same distribution, no privacy bits, from an
    independent stream of the spec's seed."""
    if m < 1:
        raise ValueError("m must be >= 1")
    rng = _rng(spec, _STREAM_HOLDOUT)
    X = _draw_clear_of_boundary(spec, m, rng)
    y = _labels(spec, X, rng)
    return LabeledSample(X, y, np.arange(m))


# ---------------------------------------------------------------------------
# CSV round trip: header x1,...,xd,y,p with p = 1 meaning private
# ---------------------------------------------------------------------------


def write_csv(dataset: PPMDataset, path) -> None:
    cols = [f"x{i + 1}" for i in range(dataset.dim)] + ["y", "p"]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(cols) + "\n")
        for i in range(dataset.n):
            vals = [repr(float(v)) for v in dataset.X[i]]
            vals.append(str(int(dataset.y[i])))
            vals.append(str(int(dataset.p[i])))
            fh.write(",".join(vals) + "\n")


def read_csv(path) -> PPMDataset:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    lines = [ln for ln in lines if ln.strip() != ""]
    if not lines:
        raise CsvFormatError("empty file")
    header = [c.strip() for c in lines[0].split(",")]
    if len(header) < 3 or header[-2:] != ["y", "p"]:
        raise CsvFormatError(f"header must be x1,...,xd,y,p; got {lines[0]!r}")
    dim = len(header) - 2
    expected = [f"x{i + 1}" for i in range(dim)]
    if header[:dim] != expected:
        raise CsvFormatError(
            f"header mismatch: expected {','.join(expected + ['y', 'p'])}, got {lines[0]!r}")
    rows, ys, ps = [], [], []
    for lineno, ln in enumerate(lines[1:], start=2):
        parts = ln.split(",")
        if len(parts) != dim + 2:
            raise CsvFormatError(
                f"line {lineno}: expected {dim + 2} fields, got {len(parts)}")
        try:
            x = [float(v) for v in parts[:dim]]
        except ValueError as exc:
            raise CsvFormatError(f"line {lineno}: bad coordinate ({exc})") from None
        if not all(np.isfinite(x)):
            raise CsvFormatError(f"line {lineno}: non-finite coordinate")
        if parts[dim] not in ("0", "1"):
            raise CsvFormatError(f"line {lineno}: y must be 0 or 1, got {parts[dim]!r}")
        if parts[dim + 1] not in ("0", "1"):
            raise CsvFormatError(f"line {lineno}: p must be 0 or 1, got {parts[dim + 1]!r}")
        rows.append(x)
        ys.append(int(parts[dim]))
        ps.append(int(parts[dim + 1]))
    if not rows:
        raise CsvFormatError("no data rows")
    return PPMDataset(dim=dim, X=np.array(rows), y=np.array(ys), p=np.array(ps))
