import numpy as np
import pytest

from ppmlearn.data import (
    CsvFormatError,
    GeneratorSpec,
    generate,
    generate_holdout,
    read_csv,
    write_csv,
)
from ppmlearn.geometry import Halfspace, affine_span
from ppmlearn.model import empirical_error, partition


def spec_1d(seed=0, **kw):
    return GeneratorSpec(dim=1, target=Halfspace([1.0], 0.0), seed=seed, **kw)


def test_clean_generation_is_realizable_and_label_determined():
    spec = spec_1d(seed=1)
    ds = generate(spec, 200)
    _, _, s_prime = partition(ds)
    assert empirical_error(spec.target.contains, s_prime).mistakes == 0
    assert np.array_equal(ds.p, ds.y == 1)


def test_label_noise_rate_concentrates():
    spec = spec_1d(seed=2, label_noise=0.1)
    ds = generate(spec, 10_000)
    clean = (ds.X @ spec.target.normal - spec.target.offset >= 0).astype(int)
    flip_rate = float(np.mean(clean != ds.y))
    assert abs(flip_rate - 0.1) <= 0.01


def test_privacy_flip_rate_concentrates():
    spec = spec_1d(seed=3, privacy_flip=0.25)
    ds = generate(spec, 10_000)
    disagree = float(np.mean(ds.p != (ds.y == 1)))
    assert abs(disagree - 0.25) <= 0.015


def test_cube_marginal_stays_in_box():
    spec = GeneratorSpec(dim=2, target=Halfspace([1.0, -1.0], 0.0),
                         marginal="cube", seed=8)
    ds = generate(spec, 500)
    assert np.all(np.abs(ds.X) <= 1.0)
    assert np.array_equal(ds.p, ds.y == 1)


def test_affine_marginal_keeps_low_dimension():
    target = Halfspace([1.0, 0.0, 0.0], 0.0)
    spec = GeneratorSpec(dim=3, target=target, marginal="affine", affine_dim=1, seed=4)
    ds = generate(spec, 40)
    s_pub, _, _ = partition(ds)
    if s_pub.n > 0:
        assert affine_span(s_pub.X, 3).k <= 1


def test_points_clear_of_target_boundary():
    spec = spec_1d(seed=5)
    ds = generate(spec, 5000)
    margins = np.abs(ds.X @ spec.target.normal - spec.target.offset)
    tol = 1e-9 * (1 + np.linalg.norm(ds.X, axis=1))
    assert np.all(margins > tol)


def test_seeded_determinism_and_holdout_independence():
    spec = spec_1d(seed=6, label_noise=0.05)
    a = generate(spec, 100)
    b = generate(spec, 100)
    assert a.X.tobytes() == b.X.tobytes()
    assert np.array_equal(a.y, b.y) and np.array_equal(a.p, b.p)
    hold = generate_holdout(spec, 100)
    assert hold.X.tobytes() != a.X.tobytes()
    h2 = generate_holdout(spec, 100)
    assert hold.X.tobytes() == h2.X.tobytes()


def test_spec_validation():
    with pytest.raises(ValueError):
        spec_1d(label_noise=0.5)
    with pytest.raises(ValueError):
        spec_1d(privacy_flip=0.6)
    with pytest.raises(ValueError):
        GeneratorSpec(dim=2, target=Halfspace([1.0], 0.0))
    with pytest.raises(ValueError):
        GeneratorSpec(dim=2, target=Halfspace([1.0, 0.0], 0.0), marginal="affine")


# --- CSV ---------------------------------------------------------------------


def test_csv_round_trip_exact(tmp_path):
    spec = GeneratorSpec(dim=3, target=Halfspace([1.0, -1.0, 0.5], 0.1),
                         label_noise=0.1, seed=7)
    ds = generate(spec, 60)
    path = tmp_path / "ds.csv"
    write_csv(ds, path)
    back = read_csv(path)
    assert back.dim == ds.dim
    assert np.array_equal(back.X, ds.X)  # repr round-trips doubles exactly
    assert np.array_equal(back.y, ds.y)
    assert np.array_equal(back.p, ds.p)


def test_csv_bad_privacy_bit_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x1,y,p\n0.5,1,1\n0.25,0,2\n")
    with pytest.raises(CsvFormatError, match="line 3"):
        read_csv(path)


def test_csv_header_mismatch(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x1,x3,y,p\n0.5,1.0,1,1\n")
    with pytest.raises(CsvFormatError, match="header"):
        read_csv(path)


def test_csv_field_count_and_values(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x1,x2,y,p\n0.5,1.0,1\n")
    with pytest.raises(CsvFormatError, match="line 2"):
        read_csv(path)
    path.write_text("x1,y,p\nabc,1,0\n")
    with pytest.raises(CsvFormatError, match="line 2"):
        read_csv(path)
    path.write_text("x1,y,p\n0.5,3,0\n")
    with pytest.raises(CsvFormatError, match="y must be"):
        read_csv(path)
