"""Integration tests across the whole stack.

These tests exercise the complete path the paper describes: allocate
partitions from throughput estimates, build the coding matrix, compute real
partial gradients with a numpy model, encode per worker, simulate straggling
workers, decode at the master, update the model, and verify both the
numerical exactness and the qualitative timing behaviour.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.coding import (
    Decoder,
    build_strategy,
    certify_robustness,
    makespan_lower_bound,
)
from repro.experiments.common import measure_timing_trace
from repro.learning import (
    SGD,
    MLPClassifier,
    SoftmaxClassifier,
    compute_partial_gradients,
    encode_all_workers,
    full_gradient,
    make_blobs,
    make_cifar10_like,
    partition_dataset,
)
from repro.metrics import run_resource_usage, speedup_table, timing_stats
from repro.protocols import TrainingConfig, compare_schemes
from repro.simulation import (
    ArtificialDelay,
    FailStop,
    SimpleNetwork,
    ZeroCommunication,
    cluster_from_vcpu_counts,
)


@pytest.fixture(scope="module")
def cluster_a():
    return cluster_from_vcpu_counts(
        "Cluster-A", {2: 2, 4: 2, 8: 3, 12: 1}, rng=0
    )


class TestCodedTrainingEquivalence:
    """Coded BSP training is statistically identical to uncoded training."""

    def test_decoded_gradient_equals_full_gradient_for_every_scheme(self, cluster_a):
        dataset = make_blobs(num_samples=320, num_features=12, num_classes=5, rng=0)
        model = MLPClassifier(12, 5, hidden_sizes=(16,), rng=0)
        for scheme, k in (
            ("cyclic", 8),
            ("fractional", 8),
            ("heter_aware", 16),
            ("group_based", 16),
        ):
            partitioned = partition_dataset(dataset, k, rng=0)
            strategy = build_strategy(
                scheme,
                throughputs=cluster_a.estimated_throughputs,
                num_partitions=k,
                num_stragglers=1,
                rng=0,
            )
            partial = compute_partial_gradients(model, partitioned)
            coded = encode_all_workers(strategy, partial)
            expected = full_gradient(model, partitioned)
            decoder = Decoder(strategy)
            for straggler in range(cluster_a.num_workers):
                received = {w: g for w, g in coded.items() if w != straggler}
                recovered = decoder.decode(received)
                scale = max(1.0, float(np.abs(expected).max()))
                assert np.allclose(recovered, expected, atol=1e-6 * scale), scheme

    def test_coded_and_sequential_training_produce_same_model(self, cluster_a):
        """The full protocol's parameter trajectory equals centralised SGD."""
        dataset = make_blobs(num_samples=320, num_features=10, num_classes=4, rng=1)
        config = TrainingConfig(
            num_iterations=5,
            num_stragglers=1,
            optimizer_factory=lambda: SGD(0.2),
            network=ZeroCommunication(),
            seed=0,
        )
        # Distributed coded run.
        coded_model_factory = lambda: SoftmaxClassifier(10, 4, rng=0)
        traces = compare_schemes(
            ["heter_aware"], coded_model_factory, dataset, cluster_a, config
        )
        assert traces["heter_aware"].completed

        # Centralised run applying the same full-batch gradients on the same
        # partitioned subset of the data.
        partitioned = partition_dataset(
            dataset, 2 * cluster_a.num_workers, rng=config.seed
        )
        central = SoftmaxClassifier(10, 4, rng=0)
        optimizer = SGD(0.2)
        theta = central.parameters()
        for _ in range(5):
            grad = full_gradient(central, partitioned) / partitioned.samples_used
            theta = optimizer.step(theta, grad)
            central.set_parameters(theta)

        distributed = coded_model_factory()
        # Re-run to grab the final parameters (compare_schemes built its own).
        from repro.protocols import CodedBSPProtocol

        CodedBSPProtocol(scheme="heter_aware").run(
            distributed, partitioned, cluster_a, config
        )
        assert np.allclose(distributed.parameters(), central.parameters(), atol=1e-8)


class TestStragglerToleranceEndToEnd:
    def test_every_scheme_certified_on_cluster_a(self, cluster_a):
        for scheme, k in (
            ("cyclic", 8),
            ("heter_aware", 16),
            ("group_based", 16),
        ):
            strategy = build_strategy(
                scheme,
                throughputs=cluster_a.estimated_throughputs,
                num_partitions=k,
                num_stragglers=2,
                rng=0,
            )
            assert certify_robustness(strategy, max_patterns=15, rng=0).robust, scheme

    def test_fault_tolerance_in_simulation(self, cluster_a):
        trace = measure_timing_trace(
            "heter_aware",
            cluster_a,
            num_stragglers=1,
            total_samples=16 * 64,
            num_iterations=3,
            num_partitions=16,
            injector=FailStop({7: 0}),
            network=ZeroCommunication(),
            seed=0,
        )
        assert trace.completed
        assert all(7 not in record.workers_used for record in trace.records)


class TestPaperHeadlineClaims:
    """End-to-end checks of the paper's qualitative claims."""

    def test_heter_aware_meets_theorem5_bound_on_cluster_a(self, cluster_a):
        throughputs = cluster_a.estimated_throughputs
        strategy = build_strategy(
            "heter_aware",
            throughputs=throughputs,
            num_partitions=32,
            num_stragglers=1,
            rng=0,
        )
        bound = makespan_lower_bound(throughputs, 32, 1)
        times = strategy.computation_times(throughputs)
        # Worst worker within one partition's cost of the bound.
        assert times.max() <= bound + 1.0 / throughputs.min() + 1e-9

    def test_speedup_over_cyclic_under_faults(self, cluster_a):
        """Heter-aware is substantially faster than cyclic when a worker faults."""
        dataset = make_blobs(num_samples=640, num_features=8, num_classes=4, rng=0)
        config = TrainingConfig(
            num_iterations=4,
            num_stragglers=1,
            optimizer_factory=lambda: SGD(0.1),
            straggler_injector=ArtificialDelay(1, float("inf")),
            network=SimpleNetwork(),
            seed=0,
            loss_eval_samples=128,
        )
        traces = compare_schemes(
            ["cyclic", "heter_aware", "group_based"],
            lambda: SoftmaxClassifier(8, 4, rng=0),
            dataset,
            cluster_a,
            config,
        )
        speedups = speedup_table(traces, baseline="cyclic")
        assert speedups["heter_aware"] > 1.5
        assert speedups["group_based"] > 1.5

    def test_resource_usage_ordering(self, cluster_a):
        """Fig. 5 ordering: naive lowest, heter-aware family highest."""
        dataset = make_blobs(num_samples=640, num_features=8, num_classes=4, rng=0)
        config = TrainingConfig(
            num_iterations=4,
            num_stragglers=1,
            optimizer_factory=lambda: SGD(0.1),
            network=SimpleNetwork(),
            seed=0,
            loss_eval_samples=128,
        )
        traces = compare_schemes(
            ["naive", "heter_aware"],
            lambda: SoftmaxClassifier(8, 4, rng=0),
            dataset,
            cluster_a,
            config,
        )
        assert run_resource_usage(traces["naive"]) < run_resource_usage(
            traces["heter_aware"]
        )

    def test_loss_per_wallclock_ordering(self, cluster_a):
        """At a common deadline, heter-aware has made at least as much progress."""
        from repro.metrics import loss_at_time

        dataset = make_blobs(num_samples=640, num_features=8, num_classes=4, rng=0)
        config = TrainingConfig(
            num_iterations=6,
            num_stragglers=1,
            optimizer_factory=lambda: SGD(0.2),
            network=SimpleNetwork(),
            seed=0,
            loss_eval_samples=128,
        )
        traces = compare_schemes(
            ["naive", "heter_aware"],
            lambda: SoftmaxClassifier(8, 4, rng=0),
            dataset,
            cluster_a,
            config,
        )
        deadline = min(trace.total_time for trace in traces.values())
        naive_loss = loss_at_time(traces["naive"], deadline)
        heter_loss = loss_at_time(traces["heter_aware"], deadline)
        assert heter_loss <= naive_loss + 1e-9


class TestImageWorkloadEndToEnd:
    def test_cifar_like_mlp_coded_training(self, cluster_a):
        """A small CIFAR-like workload trains end to end under coding."""
        dataset = make_cifar10_like(num_samples=160, rng=0)
        config = TrainingConfig(
            num_iterations=3,
            num_stragglers=1,
            optimizer_factory=lambda: SGD(0.05),
            network=SimpleNetwork(),
            seed=0,
            loss_eval_samples=64,
        )
        traces = compare_schemes(
            ["heter_aware"],
            lambda: MLPClassifier(dataset.num_features, 10, hidden_sizes=(32,), rng=0),
            dataset,
            cluster_a,
            config,
        )
        trace = traces["heter_aware"]
        assert trace.completed
        assert timing_stats(trace).mean > 0
        assert np.isfinite(trace.losses).all()
