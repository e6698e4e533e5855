"""Unit tests for the BSP protocols (naive and coded)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.coding import heterogeneity_aware_strategy
from repro.learning.models import SoftmaxClassifier
from repro.learning.optimizers import SGD
from repro.learning.partition import partition_dataset
from repro.protocols.base import ProtocolError, TrainingConfig, evaluate_mean_loss
from repro.protocols.coded import CodedBSPProtocol, NaiveBSPProtocol
from repro.simulation.network import ZeroCommunication
from repro.simulation.stragglers import FailStop, NoStragglers


@pytest.fixture
def config():
    return TrainingConfig(
        num_iterations=5,
        num_stragglers=1,
        optimizer_factory=lambda: SGD(learning_rate=0.2),
        straggler_injector=NoStragglers(),
        network=ZeroCommunication(),
        seed=0,
    )


@pytest.fixture
def model(blob_dataset):
    return SoftmaxClassifier(blob_dataset.num_features, blob_dataset.num_classes, rng=0)


class TestTrainingConfig:
    def test_defaults_validated(self):
        with pytest.raises(ProtocolError):
            TrainingConfig(num_iterations=0)
        with pytest.raises(ProtocolError):
            TrainingConfig(num_stragglers=-1)
        with pytest.raises(ProtocolError):
            TrainingConfig(num_partitions=0)
        with pytest.raises(ProtocolError):
            TrainingConfig(partitions_multiplier=0)
        with pytest.raises(ProtocolError):
            TrainingConfig(record_loss_every=0)

    def test_resolve_partitions_by_scheme(self):
        config = TrainingConfig(partitions_multiplier=3)
        assert config.resolve_partitions(8, "naive") == 8
        assert config.resolve_partitions(8, "heter_aware") == 24

    def test_resolve_partitions_override(self):
        config = TrainingConfig(num_partitions=40)
        assert config.resolve_partitions(8, "naive") == 40

    def test_make_rng_streams_are_independent(self):
        config = TrainingConfig(seed=7)
        a = config.make_rng().normal(size=4)
        b = config.make_rng(stream_offset=99).normal(size=4)
        c = config.make_rng().normal(size=4)
        assert np.allclose(a, c)
        assert not np.allclose(a, b)

    def test_evaluate_mean_loss_subsampling(self, model, partitioned_blobs):
        full = evaluate_mean_loss(model, partitioned_blobs, max_samples=0)
        sub = evaluate_mean_loss(
            model, partitioned_blobs, max_samples=20, rng=np.random.default_rng(0)
        )
        assert np.isfinite(full) and np.isfinite(sub)
        # Subsampled estimate is in the same ballpark for an untrained model.
        assert sub == pytest.approx(full, rel=0.5)


class TestCodedBSPProtocol:
    def test_trace_has_one_record_per_iteration(
        self, model, partitioned_blobs, small_cluster, config
    ):
        protocol = CodedBSPProtocol(scheme="heter_aware")
        trace = protocol.run(model, partitioned_blobs, small_cluster, config)
        assert trace.num_iterations == config.num_iterations
        assert trace.completed
        assert trace.scheme == "heter_aware"

    def test_training_reduces_loss(
        self, model, partitioned_blobs, small_cluster, config
    ):
        protocol = CodedBSPProtocol(scheme="heter_aware")
        trace = protocol.run(model, partitioned_blobs, small_cluster, config)
        assert trace.losses[-1] < trace.losses[0]

    def test_identical_updates_across_coded_schemes(
        self, blob_dataset, small_cluster, config
    ):
        """All coded BSP schemes apply the same gradients => same final model."""
        partitioned = partition_dataset(blob_dataset, 10, rng=0)
        finals = {}
        for scheme in ("naive", "heter_aware", "group_based"):
            model = SoftmaxClassifier(
                blob_dataset.num_features, blob_dataset.num_classes, rng=0
            )
            CodedBSPProtocol(scheme=scheme).run(
                model, partitioned, small_cluster, config
            )
            finals[scheme] = model.parameters()
        assert np.allclose(finals["naive"], finals["heter_aware"], atol=1e-8)
        assert np.allclose(finals["naive"], finals["group_based"], atol=1e-8)

    def test_naive_stalls_on_fault(self, model, partitioned_blobs, small_cluster):
        config = TrainingConfig(
            num_iterations=4,
            num_stragglers=0,
            optimizer_factory=lambda: SGD(0.1),
            straggler_injector=FailStop({0: 1}),
            network=ZeroCommunication(),
            seed=0,
        )
        trace = NaiveBSPProtocol().run(model, partitioned_blobs, small_cluster, config)
        assert not trace.completed
        # The run aborts at the first stalled iteration.
        assert trace.num_iterations <= 2

    def test_coded_survives_fault(self, model, partitioned_blobs, small_cluster):
        config = TrainingConfig(
            num_iterations=4,
            num_stragglers=1,
            optimizer_factory=lambda: SGD(0.1),
            straggler_injector=FailStop({4: 0}),
            network=ZeroCommunication(),
            seed=0,
        )
        protocol = CodedBSPProtocol(scheme="heter_aware")
        trace = protocol.run(model, partitioned_blobs, small_cluster, config)
        assert trace.completed
        for record in trace.records:
            assert 4 not in record.workers_used

    def test_explicit_strategy_is_used(
        self, model, partitioned_blobs, small_cluster, config
    ):
        strategy = heterogeneity_aware_strategy(
            small_cluster.estimated_throughputs,
            num_partitions=10,
            num_stragglers=1,
            rng=3,
        )
        protocol = CodedBSPProtocol(scheme="custom", strategy=strategy)
        trace = protocol.run(model, partitioned_blobs, small_cluster, config)
        assert trace.metadata["loads"] == list(strategy.loads)

    def test_partition_mismatch_rejected(
        self, model, blob_dataset, small_cluster, config
    ):
        partitioned = partition_dataset(blob_dataset, 10, rng=0)
        strategy = heterogeneity_aware_strategy(
            small_cluster.estimated_throughputs,
            num_partitions=8,
            num_stragglers=1,
            rng=0,
        )
        protocol = CodedBSPProtocol(scheme="custom", strategy=strategy)
        with pytest.raises(ProtocolError):
            protocol.run(model, partitioned, small_cluster, config)

    def test_worker_count_mismatch_rejected(
        self, model, partitioned_blobs, heterogeneous_cluster, config
    ):
        strategy = heterogeneity_aware_strategy(
            [1, 2, 3], num_partitions=10, num_stragglers=1, rng=0
        )
        protocol = CodedBSPProtocol(scheme="custom", strategy=strategy)
        with pytest.raises(ProtocolError):
            protocol.run(model, partitioned_blobs, heterogeneous_cluster, config)

    def test_metadata_records_configuration(
        self, model, partitioned_blobs, small_cluster, config
    ):
        protocol = CodedBSPProtocol(scheme="group_based")
        trace = protocol.run(model, partitioned_blobs, small_cluster, config)
        assert trace.metadata["protocol"] == "coded_bsp"
        assert trace.metadata["num_partitions"] == 10
        assert trace.metadata["num_stragglers"] == 1
