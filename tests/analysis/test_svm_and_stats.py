"""Tests for the SVM classifier and statistics helpers."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.stats import fit_gaussian, frequency_vector, mean, stdev
from repro.analysis.svm import LinearSvm, OneVsRestSvm, train_test_split
from repro.errors import ReproError


def blobs(centers, per_class=30, spread=0.3, seed=0):
    rng = np.random.default_rng(seed)
    features, labels = [], []
    for label, center in enumerate(centers):
        pts = rng.normal(loc=center, scale=spread, size=(per_class, len(center)))
        features.append(pts)
        labels += [label] * per_class
    return np.vstack(features), np.array(labels)


class TestLinearSvm:
    def test_separable_binary(self):
        X, y = blobs([[0, 0], [3, 3]])
        labels = np.where(y == 0, -1, 1)
        svm = LinearSvm().fit(X, labels)
        assert np.mean(svm.predict(X) == labels) > 0.97

    def test_rejects_bad_labels(self):
        X = np.zeros((4, 2))
        with pytest.raises(ReproError):
            LinearSvm().fit(X, np.array([0, 1, 2, 3]))

    def test_predict_before_fit_raises(self):
        with pytest.raises(ReproError):
            LinearSvm().predict(np.zeros((1, 2)))

    def test_deterministic(self):
        X, y = blobs([[0, 0], [2, 2]])
        labels = np.where(y == 0, -1, 1)
        a = LinearSvm(seed=3).fit(X, labels)
        b = LinearSvm(seed=3).fit(X, labels)
        assert np.allclose(a.weights, b.weights)


class TestOneVsRest:
    def test_multiclass_blobs(self):
        X, y = blobs([[0, 0], [4, 0], [0, 4], [4, 4]])
        clf = OneVsRestSvm(epochs=120).fit(X, y)
        assert clf.score(X, y) > 0.95

    def test_single_class_rejected(self):
        with pytest.raises(ReproError):
            OneVsRestSvm().fit(np.zeros((3, 2)), np.zeros(3))

    def test_generalizes_to_held_out(self):
        X, y = blobs([[0, 0], [5, 5], [0, 5]], per_class=40)
        Xtr, ytr, Xte, yte = train_test_split(X, y, 0.25, seed=2)
        clf = OneVsRestSvm(epochs=120).fit(Xtr, ytr)
        assert clf.score(Xte, yte) > 0.9


class TestSplit:
    def test_sizes(self):
        X = np.arange(40).reshape(20, 2).astype(float)
        y = np.arange(20)
        Xtr, ytr, Xte, yte = train_test_split(X, y, 0.25, seed=0)
        assert len(yte) == 5 and len(ytr) == 15

    def test_disjoint(self):
        X = np.arange(40).reshape(20, 2).astype(float)
        y = np.arange(20)
        _, ytr, _, yte = train_test_split(X, y, 0.3)
        assert not set(ytr.tolist()) & set(yte.tolist())

    def test_invalid_fraction(self):
        with pytest.raises(ReproError):
            train_test_split(np.zeros((4, 1)), np.zeros(4), 1.5)


class TestStats:
    def test_mean_and_stdev(self):
        assert mean([1, 2, 3]) == 2
        assert stdev([1, 2, 3]) == pytest.approx(1.0)

    def test_mean_empty_raises(self):
        with pytest.raises(ValueError):
            mean([])

    def test_stdev_single_is_zero(self):
        assert stdev([5]) == 0.0

    def test_gaussian_fit_recovers_moments(self):
        rng = np.random.default_rng(1)
        samples = rng.normal(2200, 300, size=5000).tolist()
        fit = fit_gaussian(samples)
        assert fit.mu == pytest.approx(2200, rel=0.02)
        assert fit.sigma == pytest.approx(300, rel=0.05)

    def test_frequency_vector_excludes_zeros(self):
        vec = frequency_vector([0, 0, 5, 5, 7])
        assert vec[4] == pytest.approx(2 / 3)
        assert vec[6] == pytest.approx(1 / 3)

    def test_frequency_vector_all_zero(self):
        assert frequency_vector([0, 0]) == [0.0] * 35

    @given(st.lists(st.integers(0, 40), max_size=60))
    def test_frequency_vector_sums_to_one_or_zero(self, values):
        total = sum(frequency_vector(values))
        assert total == pytest.approx(1.0) or total == 0.0
