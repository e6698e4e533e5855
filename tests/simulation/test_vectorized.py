"""Equivalence tests: the timing kernel vs the reference loops.

The kernel draws each randomness component of a run from its own stream
in whole-trace batches, then decides every iteration through the batched
prefix search and its order memo.  The pre-PR per-worker/per-iteration
implementations kept in :mod:`repro._reference` are the anchor: at matched
component streams the kernel's compute times and communication times equal
the reference's scalar draws, and every iteration decodes exactly where the
reference's per-prefix search decodes the same completion times.
Randomized configurations (schemes, clusters, injectors, seeds) probe the
equivalence property-style.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro._reference import (
    decide_reference,
    measure_timing_trace_reference,
    simulate_worker_timings_reference,
)
from repro.coding.decoding import Decoder
from repro.coding.registry import build_strategy, natural_partitions
from repro.experiments.common import measure_timing_trace
from repro.simulation.cluster import cluster_from_vcpu_counts, uniform_cluster
from repro.simulation.network import SimpleNetwork
from repro.simulation.stragglers import (
    ArtificialDelay,
    FailStop,
    NoStragglers,
    StragglerInjector,
    TransientSlowdown,
)
from repro.simulation.vectorized import (
    StackedRun,
    TimingTraceKernel,
    simulate_worker_timing_arrays_stacked,
)

SCHEMES = ("naive", "cyclic", "fractional", "heter_aware", "group_based")


def make_cluster(seed: int, mixed_noise: bool = False):
    cluster = cluster_from_vcpu_counts(
        f"cluster-{seed}",
        {2: 2, 4: 2, 8: 3, 12: 1},
        compute_noise=0.02,
        rng=seed,
    )
    if mixed_noise:
        workers = [
            w if index % 2 else type(w)(
                worker_id=w.worker_id,
                vcpus=w.vcpus,
                true_throughput=w.true_throughput,
                estimated_throughput=w.estimated_throughput,
                compute_noise=0.0,
            )
            for index, w in enumerate(cluster.workers)
        ]
        cluster = cluster.with_workers(workers)
    return cluster


def injector_grid(seed: int):
    return [
        NoStragglers(),
        ArtificialDelay(1, 1.0),
        ArtificialDelay(2, 2.5),
        ArtificialDelay(1, float("inf")),
        TransientSlowdown(probability=0.3, mean_delay_seconds=1.0),
        FailStop({seed % 8: 2}),
    ]


def one_run(injector, seed: int) -> list[StackedRun]:
    """A 1-run stack whose injector and jitter streams are seeded apart."""
    return [
        StackedRun(
            injector_rng=np.random.default_rng(seed),
            jitter_rng=np.random.default_rng(seed + 1),
            injector=injector,
        )
    ]


def reference_compute_rows(cluster, workloads, iterations: int, seed: int):
    """The reference's scalar jitter draws from the run's jitter stream
    (``NoStragglers`` consumes nothing, so the stream holds jitter only)."""
    jitter_rng = np.random.default_rng(seed + 1)
    return np.array(
        [
            [
                timing.compute_time
                for timing in simulate_worker_timings_reference(
                    cluster, workloads, iteration=iteration, rng=jitter_rng
                )
            ]
            for iteration in range(iterations)
        ]
    )


def assert_decisions_match_reference(strategy, arrays) -> None:
    decoder = Decoder(strategy)
    decisions = zip(
        arrays.durations.tolist(), arrays.workers_used, arrays.used_groups
    )
    for completion, decision in zip(arrays.completion_times, decisions, strict=True):
        assert decision == decide_reference(decoder, completion)


class TestWorkerTimingsEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    def test_batched_draws_match_reference_loop(self, seed):
        cluster = make_cluster(seed, mixed_noise=seed % 2 == 0)
        rng = np.random.default_rng(seed)
        workloads = rng.integers(0, 500, size=cluster.num_workers).astype(float)
        expected_compute = reference_compute_rows(cluster, workloads, 4, seed)
        reference_comm = [
            timing.comm_time
            for timing in simulate_worker_timings_reference(
                cluster, workloads, gradient_bytes=1024.0, network=SimpleNetwork()
            )
        ]
        for injector in injector_grid(seed):
            compute, delays, comm = simulate_worker_timing_arrays_stacked(
                cluster, workloads, 4, one_run(injector, seed),
                gradient_bytes=1024.0, network=SimpleNetwork(),
            )
            assert np.array_equal(compute[0], expected_compute)
            assert comm.tolist() == reference_comm
            assert np.array_equal(
                delays[0],
                injector.delays_batch(
                    0, 4, cluster.num_workers, np.random.default_rng(seed)
                ),
            )

    def test_zero_workload_worker_pays_no_comm(self, small_cluster):
        _, _, comm = simulate_worker_timing_arrays_stacked(
            small_cluster, [0, 10, 10, 10, 10], 1, one_run(NoStragglers(), 0),
            gradient_bytes=1e6, network=SimpleNetwork(),
        )
        assert comm[0] == 0.0
        assert np.all(comm[1:] > 0.0)


class TestSimulateIterationEquivalence:
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("seed", range(3))
    def test_iteration_matches_reference(self, scheme, seed):
        cluster = make_cluster(seed)
        k = natural_partitions(scheme, cluster.num_workers, 2)
        strategy = build_strategy(
            scheme,
            throughputs=cluster.estimated_throughputs,
            num_partitions=k,
            num_stragglers=1,
            rng=seed,
        )
        kernel = TimingTraceKernel(
            strategy, cluster, samples_per_partition=32, gradient_bytes=2048.0
        )
        for injector in injector_grid(seed):
            (arrays,) = kernel.run_stacked(3, one_run(injector, seed))
            assert_decisions_match_reference(strategy, arrays)


class TestTraceKernelEquivalence:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_kernel_run_matches_iteration_loop(self, scheme):
        cluster = make_cluster(3)
        k = natural_partitions(scheme, cluster.num_workers, 2)
        strategy = build_strategy(
            scheme,
            throughputs=cluster.estimated_throughputs,
            num_partitions=k,
            num_stragglers=1,
            rng=3,
        )
        injector = ArtificialDelay(1, 1.5)
        kernel = TimingTraceKernel(
            strategy, cluster, samples_per_partition=32,
            injector=injector, network=SimpleNetwork(), gradient_bytes=2048.0,
        )
        (arrays,) = kernel.run_stacked(40, one_run(None, 9))
        assert np.array_equal(
            arrays.compute_times,
            reference_compute_rows(cluster, kernel.workloads, 40, 9),
        )
        assert_decisions_match_reference(strategy, arrays)

    def test_kernel_rejects_bad_injector_on_any_iteration(self):
        class BadAfterFirst(StragglerInjector):
            def delays(self, iteration, num_workers, rng):
                if iteration == 0:
                    return np.zeros(num_workers)
                return np.zeros(num_workers + 1)

        cluster = uniform_cluster("uni", 4, compute_noise=0.0)
        strategy = build_strategy(
            "cyclic", throughputs=cluster.estimated_throughputs,
            num_partitions=4, num_stragglers=1, rng=0,
        )
        kernel = TimingTraceKernel(
            strategy, cluster, samples_per_partition=8, injector=BadAfterFirst()
        )
        with pytest.raises(Exception, match=r"returned shape \(5,\)"):
            kernel.run_stacked(3, one_run(None, 0))

    def test_kernel_drops_nan_completions_like_reference(self):
        class NanDelay(StragglerInjector):
            def delays(self, iteration, num_workers, rng):
                delays = np.zeros(num_workers)
                delays[0] = np.nan
                return delays

        cluster = uniform_cluster("uni", 4, compute_noise=0.0)
        strategy = build_strategy(
            "cyclic", throughputs=cluster.estimated_throughputs,
            num_partitions=4, num_stragglers=1, rng=0,
        )
        kernel = TimingTraceKernel(
            strategy, cluster, samples_per_partition=8, injector=NanDelay()
        )
        (arrays,) = kernel.run_stacked(2, one_run(None, 0))
        assert np.isnan(arrays.completion_times[:, 0]).all()
        assert all(0 not in workers for workers in arrays.workers_used)
        assert_decisions_match_reference(strategy, arrays)

    def test_kernel_handles_undecodable_runs(self):
        cluster = uniform_cluster("uni", 4, compute_noise=0.0)
        strategy = build_strategy(
            "naive", throughputs=cluster.estimated_throughputs,
            num_partitions=4, num_stragglers=0, rng=0,
        )
        kernel = TimingTraceKernel(
            strategy, cluster, samples_per_partition=8,
            injector=FailStop({0: 0}),
        )
        (arrays,) = kernel.run_stacked(5, one_run(None, 0))
        assert np.all(np.isinf(arrays.durations))
        assert arrays.workers_used.tuples() == ((),) * 5
        assert not arrays.decodable.any()


class TestMeasureTimingTraceEquivalence:
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("seed", [0, 11])
    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_full_trace_matches_reference(self, scheme, seed):
        cluster = make_cluster(seed)
        reference = measure_timing_trace_reference(
            scheme, cluster, num_stragglers=1, total_samples=2048,
            num_iterations=60, injector=ArtificialDelay(1, 1.0), seed=seed,
        )
        current = measure_timing_trace(
            scheme, cluster, num_stragglers=1, total_samples=2048,
            num_iterations=60, injector=ArtificialDelay(1, 1.0), seed=seed,
        )
        assert current.metadata == {**reference.metadata, "rng_version": 2}
        strategy = build_strategy(
            scheme,
            throughputs=cluster.estimated_throughputs,
            num_partitions=current.metadata["num_partitions"],
            num_stragglers=1,
            rng=np.random.default_rng(seed),
        )
        assert_decisions_match_reference(strategy, current.columns())

    def test_trace_round_trips_through_json(self):
        cluster = make_cluster(0)
        trace = measure_timing_trace(
            "heter_aware", cluster, num_stragglers=1, total_samples=2048,
            num_iterations=5, seed=0,
        )
        from repro.simulation.trace import RunTrace

        assert RunTrace.from_dict(trace.to_dict()).to_dict() == trace.to_dict()
