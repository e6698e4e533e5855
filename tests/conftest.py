"""Shared pytest fixtures.

Fixtures deliberately use small problem sizes (a handful of workers, tens of
samples) so the whole suite stays fast; the paper-shape assertions in
``tests/experiments/test_figures.py`` run the figures at a larger scale.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.learning.datasets import make_blobs
from repro.learning.models import SoftmaxClassifier
from repro.learning.partition import partition_dataset
from repro.simulation.cluster import ClusterSpec, cluster_from_vcpu_counts
from repro.simulation.workers import WorkerSpec


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic random generator for tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def example_throughputs() -> list[float]:
    """The throughputs from the paper's Example 1: c = [1, 2, 3, 4, 4]."""
    return [1.0, 2.0, 3.0, 4.0, 4.0]


@pytest.fixture
def small_cluster() -> ClusterSpec:
    """A 5-worker heterogeneous cluster with exactly known throughputs."""
    workers = tuple(
        WorkerSpec(
            worker_id=i,
            vcpus=v,
            true_throughput=100.0 * v,
            compute_noise=0.0,
        )
        for i, v in enumerate([1, 2, 3, 4, 4])
    )
    return ClusterSpec(name="test-cluster", workers=workers)


@pytest.fixture
def heterogeneous_cluster() -> ClusterSpec:
    """An 8-worker cluster shaped like the paper's Cluster-A."""
    return cluster_from_vcpu_counts(
        "Cluster-A-like",
        {2: 2, 4: 2, 8: 3, 12: 1},
        samples_per_second_per_vcpu=50.0,
        machine_spread=0.05,
        compute_noise=0.02,
        rng=0,
    )


@pytest.fixture
def blob_dataset():
    """Small classification dataset shared by learning/protocol tests."""
    return make_blobs(num_samples=120, num_features=16, num_classes=4, rng=0)


@pytest.fixture
def partitioned_blobs(blob_dataset):
    """The blob dataset split into 10 partitions."""
    return partition_dataset(blob_dataset, 10, rng=0)


@pytest.fixture
def softmax_model(blob_dataset):
    """Softmax classifier sized for the blob dataset."""
    return SoftmaxClassifier(
        blob_dataset.num_features, blob_dataset.num_classes, rng=0
    )
