"""Equivalence tests: vectorized timing kernels vs the reference loops.

The vectorized fast paths must be *exactly* equivalent — same RNG stream,
same floats, same decode decisions — to the pre-PR per-worker/per-iteration
implementations kept in :mod:`repro._reference`.  Randomized configurations
(schemes, clusters, injectors, seeds) probe the equivalence property-style.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro._reference import (
    measure_timing_trace_reference,
    simulate_iteration_reference,
    simulate_worker_timings_reference,
)
from repro.coding.registry import build_strategy, natural_partitions
from repro.experiments.common import measure_timing_trace
from repro.simulation.cluster import cluster_from_vcpu_counts, uniform_cluster
from repro.simulation.network import SimpleNetwork
from repro.simulation.stragglers import (
    ArtificialDelay,
    FailStop,
    NoStragglers,
    TransientSlowdown,
)
from repro.simulation.timing import (
    simulate_iteration,
    simulate_worker_timing_arrays,
    simulate_worker_timings,
)
from repro.simulation.vectorized import TimingTraceKernel

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


class TestWorkerTimingsEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    def test_batched_draws_match_reference_loop(self, seed):
        cluster = make_cluster(seed, mixed_noise=seed % 2 == 0)
        rng = np.random.default_rng(seed)
        workloads = rng.integers(0, 500, size=cluster.num_workers).astype(float)
        for injector in injector_grid(seed):
            ref_rng = np.random.default_rng(seed + 1)
            new_rng = np.random.default_rng(seed + 1)
            for iteration in range(4):
                reference = simulate_worker_timings_reference(
                    cluster, workloads, injector=injector, iteration=iteration,
                    gradient_bytes=1024.0, network=SimpleNetwork(), rng=ref_rng,
                )
                current = simulate_worker_timings(
                    cluster, workloads, injector=injector, iteration=iteration,
                    gradient_bytes=1024.0, network=SimpleNetwork(), rng=new_rng,
                )
                assert reference == current

    def test_array_form_matches_object_form(self, small_cluster):
        workloads = [100, 200, 0, 400, 400]
        compute, delays, comm = simulate_worker_timing_arrays(
            small_cluster, workloads, injector=ArtificialDelay(1, 2.0),
            gradient_bytes=4096.0, network=SimpleNetwork(), rng=7,
        )
        timings = simulate_worker_timings(
            small_cluster, workloads, injector=ArtificialDelay(1, 2.0),
            gradient_bytes=4096.0, network=SimpleNetwork(), rng=7,
        )
        for worker, timing in enumerate(timings):
            assert timing.compute_time == compute[worker]
            assert timing.injected_delay == delays[worker]
            assert timing.comm_time == comm[worker]

    def test_zero_workload_worker_pays_no_comm(self, small_cluster):
        _, _, comm = simulate_worker_timing_arrays(
            small_cluster, [0, 10, 10, 10, 10],
            gradient_bytes=1e6, network=SimpleNetwork(), rng=0,
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
        for injector in injector_grid(seed):
            ref_rng = np.random.default_rng(seed)
            new_rng = np.random.default_rng(seed)
            for iteration in range(3):
                reference = simulate_iteration_reference(
                    strategy, cluster, samples_per_partition=32,
                    injector=injector, iteration=iteration,
                    gradient_bytes=2048.0, rng=ref_rng,
                )
                current = simulate_iteration(
                    strategy, cluster, samples_per_partition=32,
                    injector=injector, iteration=iteration,
                    gradient_bytes=2048.0, rng=new_rng,
                )
                assert reference.duration == current.duration
                assert reference.workers_used == current.workers_used
                assert reference.used_group == current.used_group
                assert reference.decodable == current.decodable
                assert np.array_equal(
                    reference.completion_times, current.completion_times
                )


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
        arrays = kernel.run(40, rng=np.random.default_rng(9))
        loop_rng = np.random.default_rng(9)
        for iteration in range(40):
            timing = simulate_iteration_reference(
                strategy, cluster, samples_per_partition=32,
                injector=injector, iteration=iteration,
                gradient_bytes=2048.0, network=SimpleNetwork(), rng=loop_rng,
            )
            assert timing.duration == arrays.durations[iteration]
            assert timing.workers_used == arrays.workers_used[iteration]
            assert timing.used_group == arrays.used_groups[iteration]
            assert np.array_equal(
                timing.completion_times, arrays.completion_times[iteration]
            )

    def test_kernel_rejects_bad_injector_on_any_iteration(self):
        class BadAfterFirst(NoStragglers):
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
        with pytest.raises(Exception, match="wrong number of delays"):
            kernel.run(3, rng=0)

    def test_kernel_drops_nan_completions_like_reference(self):
        class NanDelay(NoStragglers):
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
        arrays = kernel.run(2, rng=0)
        loop_rng = np.random.default_rng(0)
        for iteration in range(2):
            timing = simulate_iteration_reference(
                strategy, cluster, samples_per_partition=8,
                injector=NanDelay(), iteration=iteration, rng=loop_rng,
            )
            assert timing.duration == arrays.durations[iteration]
            assert timing.workers_used == arrays.workers_used[iteration]

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
        arrays = kernel.run(5, rng=0)
        assert np.all(np.isinf(arrays.durations))
        assert arrays.workers_used == ((),) * 5
        assert not arrays.decodable.any()


class TestMeasureTimingTraceEquivalence:
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("seed", [0, 11])
    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_full_trace_identical_to_reference(self, scheme, seed):
        cluster = make_cluster(seed)
        reference = measure_timing_trace_reference(
            scheme, cluster, num_stragglers=1, total_samples=2048,
            num_iterations=60, injector=ArtificialDelay(1, 1.0), seed=seed,
        )
        current = measure_timing_trace(
            scheme, cluster, num_stragglers=1, total_samples=2048,
            num_iterations=60, injector=ArtificialDelay(1, 1.0), seed=seed,
        )
        assert reference.metadata == current.metadata
        assert np.array_equal(reference.durations, current.durations)
        for ref_record, new_record in zip(reference.records, current.records):
            assert tuple(map(float, ref_record.compute_times)) == tuple(
                map(float, new_record.compute_times)
            )
            assert tuple(map(float, ref_record.completion_times)) == tuple(
                map(float, new_record.completion_times)
            )
            assert ref_record.workers_used == new_record.workers_used
            assert ref_record.used_group == new_record.used_group

    def test_trace_round_trips_through_json(self):
        cluster = make_cluster(0)
        trace = measure_timing_trace(
            "heter_aware", cluster, num_stragglers=1, total_samples=2048,
            num_iterations=5, seed=0,
        )
        from repro.simulation.trace import RunTrace

        assert RunTrace.from_dict(trace.to_dict()).to_dict() == trace.to_dict()
