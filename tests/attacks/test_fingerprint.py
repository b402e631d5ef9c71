"""Tests for SSBP process fingerprinting (Fig 11)."""

import numpy as np
import pytest

from repro.analysis.svm import OneVsRestSvm, train_test_split
from repro.attacks.fingerprint import SsbpFingerprinter, collect_dataset
from repro.cpu.machine import Machine
from repro.runtime.atomic import content_key
from repro.workloads.cnn import CNN_MODELS, CnnVictim


@pytest.fixture(scope="module")
def small_dataset():
    models = {k: CNN_MODELS[k] for k in ("vgg16", "mobilenetv2", "googlenet")}
    return collect_dataset(models, samples_per_model=3, rounds=5)


class TestFingerprinter:
    def test_probe_round_reads_counts(self):
        machine = Machine(seed=21)
        victim = CnnVictim(machine, CNN_MODELS["vgg16"])
        fingerprinter = SsbpFingerprinter(machine)
        for _ in range(4):
            victim.inference_pass()
        values = fingerprinter.probe_round()
        assert len(values) == len(fingerprinter.probes)
        assert any(v > 0 for v in values)  # the victim left C3 residue

    def test_fingerprint_vector_normalized(self):
        machine = Machine(seed=22)
        victim = CnnVictim(machine, CNN_MODELS["alexnet"])
        fingerprinter = SsbpFingerprinter(machine)
        vector = fingerprinter.fingerprint(victim, rounds=5)
        assert len(vector) == 35
        assert sum(vector) == pytest.approx(1.0)


class TestDataset:
    def test_shapes(self, small_dataset):
        features, labels, names = small_dataset
        assert features.shape == (9, 35)
        assert sorted(set(labels.tolist())) == [0, 1, 2]
        assert len(names) == 3

    def test_dataset_matches_pinned_digest(self, small_dataset):
        # ``content_key`` of the features and labels: any drift in the
        # CNN victims, the probe rounds or the simulator shows up here.
        features, labels, _ = small_dataset
        payload = {"features": features.tolist(), "labels": labels.tolist()}
        assert content_key(payload) == (
            "25d11c127753851a9f5bf4e2c821beba0fb3400cb7d4c99891ba6e203b19e483"
        )

    def test_vectors_are_informative(self, small_dataset):
        features, _, _ = small_dataset
        assert np.all(features.sum(axis=1) > 0)

    def test_models_have_distinct_signatures(self, small_dataset):
        features, labels, _ = small_dataset
        centroids = [features[labels == c].mean(axis=0) for c in range(3)]
        for i in range(3):
            for j in range(i + 1, 3):
                assert np.linalg.norm(centroids[i] - centroids[j]) > 0.05

    def test_svm_classifies_models(self, small_dataset):
        """The Fig 11 result at test scale: held-out fingerprints are
        attributed to the right model (paper: > 95.5% over 6 models)."""
        features, labels, _ = small_dataset
        Xtr, ytr, Xte, yte = train_test_split(features, labels, 0.34, seed=3)
        clf = OneVsRestSvm(epochs=120).fit(Xtr, ytr)
        assert clf.score(Xte, yte) >= 0.67  # small-sample bound
