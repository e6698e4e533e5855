"""Unit tests for the iteration timing model, through the timing kernel.

Each test simulates one iteration as a 1-iteration, 1-run stack of
:class:`~repro.simulation.vectorized.TimingTraceKernel` (or its per-worker
draw stage, :func:`simulate_worker_timing_arrays_stacked`).
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.coding import (
    cyclic_strategy,
    heterogeneity_aware_strategy,
    naive_strategy,
)
from repro.simulation.network import SimpleNetwork, ZeroCommunication
from repro.simulation.rng import RngStreams
from repro.simulation.stragglers import ArtificialDelay, FailStop, NoStragglers
from repro.simulation.timing import TimingError, worker_workloads
from repro.simulation.vectorized import (
    StackedRun,
    TimingTraceKernel,
    simulate_worker_timing_arrays_stacked,
)


def one_run(injector=None, seed=0):
    streams = RngStreams.from_seed(seed)
    return [
        StackedRun(
            injector_rng=streams.injector,
            jitter_rng=streams.jitter,
            network_rng=streams.network,
            injector=injector,
        )
    ]


def simulate_worker_timings(
    cluster, workloads, injector=None, network=None, gradient_bytes=0.0, rng=0
):
    """One iteration's per-worker timing breakdown."""
    compute, delays, comm = simulate_worker_timing_arrays_stacked(
        cluster,
        workloads,
        1,
        one_run(injector, seed=rng),
        gradient_bytes=gradient_bytes,
        network=network,
    )
    completion = compute[0, 0] + delays[0, 0] + comm
    return [
        SimpleNamespace(
            compute_time=compute[0, 0, worker],
            injected_delay=delays[0, 0, worker],
            comm_time=comm[worker],
            completion_time=completion[worker],
            failed=bool(np.isinf(completion[worker])),
        )
        for worker in range(cluster.num_workers)
    ]


def simulate_iteration(
    strategy, cluster, samples_per_partition, injector=None, network=None, rng=0
):
    """One iteration through the kernel, as a small record."""
    kernel = TimingTraceKernel(
        strategy, cluster, samples_per_partition, network=network
    )
    (arrays,) = kernel.run_stacked(1, one_run(injector, seed=rng))
    duration = float(arrays.durations[0])
    return SimpleNamespace(
        duration=duration,
        decodable=bool(np.isfinite(duration)),
        completion_times=arrays.completion_times[0],
        workers_used=arrays.workers_used.tuples()[0],
        used_group=arrays.used_groups.tuples()[0],
    )


@pytest.fixture
def heter_strategy(small_cluster):
    return heterogeneity_aware_strategy(
        small_cluster.estimated_throughputs,
        num_partitions=10,
        num_stragglers=1,
        rng=0,
    )


class TestWorkerWorkloads:
    def test_workloads_scale_with_partition_size(self, heter_strategy):
        small = worker_workloads(heter_strategy, 10)
        large = worker_workloads(heter_strategy, 20)
        assert np.allclose(large, 2 * small)

    def test_workload_equals_load_times_size(self, heter_strategy):
        workloads = worker_workloads(heter_strategy, 7)
        assert np.allclose(workloads, np.array(heter_strategy.loads) * 7)

    def test_rejects_negative_size(self, heter_strategy):
        with pytest.raises(TimingError):
            worker_workloads(heter_strategy, -1)


class TestSimulateWorkerTimings:
    def test_no_noise_no_delay_exact_times(self, small_cluster):
        workloads = [100, 200, 300, 400, 400]
        timings = simulate_worker_timings(
            small_cluster, workloads, network=ZeroCommunication()
        )
        # small_cluster throughputs are [100, 200, 300, 400, 400] with zero
        # noise, so every worker takes exactly 1 second of compute.
        for timing in timings:
            assert timing.compute_time == pytest.approx(1.0)
            assert timing.injected_delay == 0.0
            assert timing.comm_time == 0.0
            assert not timing.failed

    def test_network_time_added_only_for_loaded_workers(self, small_cluster):
        workloads = [0, 200, 300, 400, 400]
        network = SimpleNetwork(latency_seconds=0.5, bandwidth_bytes_per_second=1e12)
        timings = simulate_worker_timings(
            small_cluster, workloads, network=network, gradient_bytes=10
        )
        assert timings[0].comm_time == 0.0
        assert timings[1].comm_time == pytest.approx(0.5, rel=1e-6)

    def test_injected_delay_applied(self, small_cluster):
        injector = ArtificialDelay(1, 5.0, workers=(2,))
        timings = simulate_worker_timings(
            small_cluster,
            [100] * 5,
            injector=injector,
            network=ZeroCommunication(),
            rng=0,
        )
        assert timings[2].injected_delay == 5.0

    def test_failed_worker_completion_is_infinite(self, small_cluster):
        injector = FailStop({1: 0})
        timings = simulate_worker_timings(
            small_cluster, [100] * 5, injector=injector, rng=0
        )
        assert timings[1].failed
        assert np.isinf(timings[1].completion_time)

    def test_rejects_wrong_workload_count(self, small_cluster):
        with pytest.raises(TimingError):
            simulate_worker_timings(small_cluster, [1, 2, 3])

    def test_rejects_negative_workloads(self, small_cluster):
        with pytest.raises(TimingError):
            simulate_worker_timings(small_cluster, [1, 2, 3, -4, 5])


class TestSimulateIteration:
    def test_heter_aware_balanced_duration(self, small_cluster, heter_strategy):
        timing = simulate_iteration(
            heter_strategy,
            small_cluster,
            samples_per_partition=70,
            injector=NoStragglers(),
            network=ZeroCommunication(),
        )
        assert timing.decodable
        # Loads are proportional to throughput => everyone finishes near the
        # Theorem 5 bound 2 * 700 / 1400 = 1.0; integer rounding of the loads
        # (10 partitions over 5 workers) costs at most one partition on the
        # critical worker, i.e. 70 / 400 = 0.175 s here.
        expected = 2 * 10 * 70 / small_cluster.true_throughputs.sum()
        assert expected <= timing.duration <= expected + 70 / 400 + 1e-9

    def test_naive_waits_for_slowest(self, small_cluster):
        strategy = naive_strategy(5)
        timing = simulate_iteration(
            strategy,
            small_cluster,
            samples_per_partition=100,
            network=ZeroCommunication(),
        )
        # Slowest worker: 100 samples at 100 samples/s.
        assert timing.duration == pytest.approx(1.0)
        assert len(timing.workers_used) == 5

    def test_naive_with_fault_is_undecodable(self, small_cluster):
        strategy = naive_strategy(5)
        timing = simulate_iteration(
            strategy,
            small_cluster,
            samples_per_partition=100,
            injector=FailStop({0: 0}),
        )
        assert not timing.decodable
        assert np.isinf(timing.duration)
        assert timing.workers_used == ()

    def test_coded_scheme_survives_fault(self, small_cluster, heter_strategy):
        timing = simulate_iteration(
            heter_strategy,
            small_cluster,
            samples_per_partition=70,
            injector=FailStop({4: 0}),
            network=ZeroCommunication(),
        )
        assert timing.decodable
        assert 4 not in timing.workers_used

    def test_cyclic_limited_by_slow_workers(self, small_cluster):
        strategy = cyclic_strategy(5, 1, rng=0)
        timing = simulate_iteration(
            strategy,
            small_cluster,
            samples_per_partition=100,
            network=ZeroCommunication(),
        )
        # Each worker holds 2 partitions = 200 samples; the master can skip
        # only the single slowest worker, so the second-slowest (200 samples
        # at 200/s = 1.0 s) sets the duration... unless the skipped worker is
        # needed. Duration must be at least 200/200 and at most 200/100.
        assert 1.0 <= timing.duration <= 2.0 + 1e-9

    def test_duration_never_below_fastest_needed_worker(
        self, small_cluster, heter_strategy
    ):
        timing = simulate_iteration(
            heter_strategy,
            small_cluster,
            samples_per_partition=70,
            rng=0,
        )
        used_times = [
            timing.completion_times[worker] for worker in timing.workers_used
        ]
        assert timing.duration == pytest.approx(max(used_times))

    def test_mismatched_cluster_and_strategy(self, small_cluster):
        strategy = naive_strategy(3)
        with pytest.raises(TimingError):
            simulate_iteration(strategy, small_cluster, samples_per_partition=10)

    def test_group_fast_path_recorded(self, small_cluster):
        from repro.coding import group_based_strategy

        strategy = group_based_strategy(
            small_cluster.estimated_throughputs,
            num_partitions=10,
            num_stragglers=1,
            rng=0,
        )
        if not strategy.groups:
            pytest.skip("no groups detected for this configuration")
        timing = simulate_iteration(
            strategy,
            small_cluster,
            samples_per_partition=70,
            network=ZeroCommunication(),
            rng=0,
        )
        assert timing.decodable
        # Either the group path fired (used_group set) or the general path
        # used at least m - s workers.
        if timing.used_group is None:
            assert len(timing.workers_used) >= strategy.num_workers - 1
