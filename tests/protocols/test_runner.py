"""Unit tests for the high-level protocol runner."""

from __future__ import annotations

import numpy as np
import pytest

from repro.learning.models import SoftmaxClassifier
from repro.learning.optimizers import SGD
from repro.protocols.base import ProtocolError, TrainingConfig
from repro.protocols.runner import (
    PROTOCOL_NAMES,
    compare_schemes,
    make_protocol,
    run_scheme,
)
from repro.simulation.cluster import cluster_from_vcpu_counts
from repro.simulation.network import ZeroCommunication
from repro.simulation.stragglers import NoStragglers, TransientSlowdown


@pytest.fixture
def config():
    return TrainingConfig(
        num_iterations=3,
        num_stragglers=1,
        optimizer_factory=lambda: SGD(learning_rate=0.1),
        straggler_injector=NoStragglers(),
        network=ZeroCommunication(),
        seed=0,
        loss_eval_samples=60,
    )


def model_factory_for(dataset):
    return lambda: SoftmaxClassifier(dataset.num_features, dataset.num_classes, rng=0)


class TestMakeProtocol:
    def test_all_names_constructible(self):
        for name in PROTOCOL_NAMES:
            protocol = make_protocol(name)
            assert protocol.name in (name, "ssp", "async")

    def test_unknown_name(self):
        with pytest.raises(ProtocolError):
            make_protocol("bogus")

    def test_ssp_staleness_forwarded(self):
        protocol = make_protocol("ssp", ssp_staleness=7)
        assert protocol.staleness == 7

    def test_dyn_ssp_variant(self):
        protocol = make_protocol("dyn_ssp", ssp_staleness=2, ssp_batch_size=8)
        assert protocol.name == "dyn_ssp"
        assert protocol.adaptive_learning_rate
        assert protocol.batch_size == 8


class TestRunScheme:
    def test_partitions_follow_scheme_convention(
        self, blob_dataset, small_cluster, config
    ):
        naive_trace = run_scheme(
            "naive", model_factory_for(blob_dataset), blob_dataset, small_cluster, config
        )
        heter_trace = run_scheme(
            "heter_aware",
            model_factory_for(blob_dataset),
            blob_dataset,
            small_cluster,
            config,
        )
        assert naive_trace.metadata["num_partitions"] == small_cluster.num_workers
        assert (
            heter_trace.metadata["num_partitions"]
            == config.partitions_multiplier * small_cluster.num_workers
        )

    def test_explicit_partition_override(self, blob_dataset, small_cluster):
        config = TrainingConfig(
            num_iterations=2,
            num_stragglers=1,
            num_partitions=20,
            optimizer_factory=lambda: SGD(0.1),
            network=ZeroCommunication(),
            seed=0,
        )
        trace = run_scheme(
            "heter_aware",
            model_factory_for(blob_dataset),
            blob_dataset,
            small_cluster,
            config,
        )
        assert trace.metadata["num_partitions"] == 20


class TestCompareSchemes:
    def test_returns_one_trace_per_scheme(self, blob_dataset, small_cluster, config):
        traces = compare_schemes(
            ["naive", "cyclic", "heter_aware", "group_based"],
            model_factory_for(blob_dataset),
            blob_dataset,
            small_cluster,
            config,
        )
        assert set(traces.keys()) == {"naive", "cyclic", "heter_aware", "group_based"}
        for trace in traces.values():
            assert trace.num_iterations == config.num_iterations

    def test_every_scheme_sees_the_conditions_of_a_solo_run(self, blob_dataset):
        """A shared config's live RNG streams are not handed from one scheme
        to the next: each compared scheme runs exactly as it runs alone."""
        cluster = cluster_from_vcpu_counts(
            "noisy", {1: 2, 2: 2, 4: 1}, compute_noise=0.1, rng=0
        )

        def noisy_config():
            return TrainingConfig(
                num_iterations=4,
                num_stragglers=1,
                optimizer_factory=lambda: SGD(learning_rate=0.1),
                straggler_injector=TransientSlowdown(0.3, mean_delay_seconds=1.0),
                seed=3,
            )

        schemes = ["cyclic", "heter_aware", "ssp"]
        shared = noisy_config()
        traces = compare_schemes(
            schemes, model_factory_for(blob_dataset), blob_dataset, cluster, shared
        )
        for scheme in schemes:
            alone = run_scheme(
                scheme, model_factory_for(blob_dataset), blob_dataset, cluster,
                noisy_config(),
            )
            np.testing.assert_array_equal(traces[scheme].durations, alone.durations)

    def test_heter_aware_faster_than_naive_on_heterogeneous_cluster(
        self, blob_dataset, small_cluster, config
    ):
        traces = compare_schemes(
            ["naive", "heter_aware"],
            model_factory_for(blob_dataset),
            blob_dataset,
            small_cluster,
            config,
        )
        assert (
            traces["heter_aware"].mean_iteration_time()
            < traces["naive"].mean_iteration_time()
        )

    def test_final_losses_finite(self, blob_dataset, small_cluster, config):
        traces = compare_schemes(
            ["heter_aware", "ssp"],
            model_factory_for(blob_dataset),
            blob_dataset,
            small_cluster,
            config,
        )
        for trace in traces.values():
            assert np.isfinite(trace.losses[-1])
