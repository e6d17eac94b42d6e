import numpy as np
import pytest

from ppmlearn.geometry import Halfspace
from ppmlearn.model import (
    EmptySampleError,
    ErrorCount,
    LabeledSample,
    PPMDataset,
    empirical_error,
    partition,
)

from oracles import count_mistakes_pointwise


def make_dataset(X, y, p):
    X = np.asarray(X, dtype=float)
    return PPMDataset(dim=X.shape[1], X=X, y=np.asarray(y), p=np.asarray(p))


# --- dataset validation -----------------------------------------------------


def test_dataset_rejects_bad_input():
    with pytest.raises(EmptySampleError):
        make_dataset(np.zeros((0, 2)), [], [])
    with pytest.raises(ValueError):
        make_dataset([[np.inf, 0.0]], [0], [0])
    with pytest.raises(ValueError):
        make_dataset([[0.0, 0.0]], [2], [0])
    with pytest.raises(ValueError):
        make_dataset([[0.0, 0.0]], [1], [3])


def test_dataset_counts_and_immutability():
    ds = make_dataset([[0.0], [1.0], [2.0]], [0, 1, 1], [0, 1, 1])
    assert (ds.n, ds.n_priv, ds.n_pub) == (3, 2, 1)
    with pytest.raises(ValueError):
        ds.X[0, 0] = 5.0


# --- partition ---------------------------------------------------------------


def test_partition_three_examples():
    ds = make_dataset([[0.0], [1.0], [2.0]], [0, 1, 0], [0, 1, 0])
    s_pub, s_priv, s_prime = partition(ds)
    assert list(s_pub.indices) == [0, 2]
    assert list(s_priv.indices) == [1]
    assert list(s_prime.indices) == [0, 1, 2]
    assert np.array_equal(s_prime.X, ds.X)
    assert s_pub.n + s_priv.n == s_prime.n == ds.n


def test_partition_all_private():
    ds = make_dataset([[0.0], [1.0]], [1, 1], [1, 1])
    s_pub, s_priv, s_prime = partition(ds)
    assert s_pub.n == 0
    assert np.array_equal(s_priv.X, s_prime.X)
    assert np.array_equal(s_priv.y, s_prime.y)


def test_partition_label_determined():
    rng = np.random.default_rng(0)
    y = rng.integers(0, 2, 30)
    ds = make_dataset(rng.standard_normal((30, 2)), y, y)
    s_pub, s_priv, _ = partition(ds)
    assert np.all(s_pub.y == 0)
    assert np.all(s_priv.y == 1)


def test_partition_is_index_bijection():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = int(rng.integers(1, 40))
        ds = make_dataset(rng.standard_normal((n, 3)),
                          rng.integers(0, 2, n), rng.integers(0, 2, n))
        s_pub, s_priv, _ = partition(ds)
        merged = sorted(list(s_pub.indices) + list(s_priv.indices))
        assert merged == list(range(n))


# --- empirical error -----------------------------------------------------------


def test_empirical_error_constant_classifier():
    s = LabeledSample(np.zeros((3, 1)), np.array([1, 1, 0]), np.arange(3))
    err = empirical_error(lambda x: 1, s)
    assert (err.mistakes, err.total) == (1, 3)
    assert err.value == pytest.approx(1 / 3)


def test_empirical_error_realizable_target():
    rng = np.random.default_rng(2)
    h = Halfspace([1.0, -0.5], 0.2)
    X = rng.standard_normal((50, 2))
    y = (X @ h.normal - h.offset >= 0).astype(int)
    s = LabeledSample(X, y, np.arange(50))
    assert empirical_error(h.contains, s).mistakes == 0


def test_empirical_error_vs_pointwise_oracle():
    X = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0],
                  [-1.0, -1.0], [3.0, 3.0], [1.0, -2.0]])
    y = np.array([1, 0, 1, 1, 0, 0])
    h = Halfspace([1.0, 1.0], 1.0)
    s = LabeledSample(X, y, np.arange(6))
    err = empirical_error(h.contains, s)
    preds = [int(h.contains(x)) for x in X]
    assert err.mistakes == count_mistakes_pointwise(preds, y)


def test_empirical_error_permutation_invariant():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((20, 2))
    y = rng.integers(0, 2, 20)
    h = Halfspace([0.3, 1.0], -0.1)
    perm = rng.permutation(20)
    e1 = empirical_error(h.contains, LabeledSample(X, y, np.arange(20)))
    e2 = empirical_error(h.contains, LabeledSample(X[perm], y[perm], np.arange(20)))
    assert e1.mistakes == e2.mistakes


def test_empirical_error_complement_sums_to_total():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((15, 1))
    y = rng.integers(0, 2, 15)
    s = LabeledSample(X, y, np.arange(15))
    h = Halfspace([1.0], 0.0)
    direct = empirical_error(h.contains, s)
    flipped = empirical_error(lambda x: 1 - h.contains(x), s)
    assert direct.mistakes + flipped.mistakes == s.n


def test_labeled_sample_refuses_labels_other_than_0_and_1():
    # the class scorer counts 0-labels and 1-labels; a 2 would be scored
    # as neither by it and as a mistake by hypothesis_error
    with pytest.raises(ValueError, match="labels must be 0/1"):
        LabeledSample(np.zeros((3, 1)), np.array([2, 0, 1]), np.arange(3))


def test_empirical_error_empty_sample():
    s = LabeledSample(np.zeros((0, 1)), np.zeros(0, dtype=int), np.zeros(0, dtype=int))
    with pytest.raises(EmptySampleError):
        empirical_error(lambda x: 0, s)


# --- error counts ----------------------------------------------------------------


def test_error_count_exact_and_comparisons():
    a = ErrorCount(1, 3)
    b = ErrorCount(2, 3)
    assert a < b and b > a and a <= a
    assert a.value * 3 == 1  # exact rational
    with pytest.raises(ValueError):
        _ = a < ErrorCount(1, 4)
    with pytest.raises(ValueError):
        ErrorCount(4, 3)
    with pytest.raises(EmptySampleError):
        ErrorCount(0, 0)
