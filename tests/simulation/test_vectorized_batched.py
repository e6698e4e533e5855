"""Tests for the kernel's run path (a 1-run stack) and the kernel cache."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro._reference import simulate_iteration_reference
from repro.coding.registry import build_strategy, natural_partitions
from repro.simulation.cluster import cluster_from_vcpu_counts, uniform_cluster
from repro.simulation.network import SimpleNetwork
from repro.simulation.rng import RngStreams
from repro.simulation.stragglers import ArtificialDelay, FailStop, NoStragglers
from repro.simulation.vectorized import (
    StackedRun,
    TimingKernelCache,
    TimingTraceKernel,
    cluster_fingerprint,
    simulate_worker_timing_arrays_stacked,
    strategy_fingerprint,
)


def make_kernel(scheme: str = "heter_aware", seed: int = 0, noise: float = 0.02):
    cluster = cluster_from_vcpu_counts(
        "batch-cluster", {2: 2, 4: 2, 8: 3, 12: 1}, compute_noise=noise, rng=seed
    )
    k = natural_partitions(scheme, cluster.num_workers, 2)
    strategy = build_strategy(
        scheme,
        throughputs=cluster.estimated_throughputs,
        num_partitions=k,
        num_stragglers=1,
        rng=np.random.default_rng(seed),
    )
    kernel = TimingTraceKernel(
        strategy, cluster, samples_per_partition=max(1, 2048 // k),
        gradient_bytes=8.0 * 65536, network=SimpleNetwork(),
    )
    return kernel, strategy, cluster


def one_run(kernel, num_iterations, injector_rng=0, jitter_rng=1, injector=None):
    """A single v2 run: the kernel's 1-run stack."""
    run = StackedRun(
        injector_rng=np.random.default_rng(injector_rng),
        jitter_rng=np.random.default_rng(jitter_rng),
        injector=injector,
    )
    (arrays,) = kernel.run_stacked(num_iterations, [run])
    return arrays


def v1_reference_run(kernel, num_iterations, rng, injector):
    """The kernel's configuration through the v1 per-iteration loop."""
    generator = np.random.default_rng(rng)
    timings = [
        simulate_iteration_reference(
            kernel.strategy,
            kernel.cluster,
            samples_per_partition=max(1, 2048 // kernel.strategy.num_partitions),
            decoder=kernel.decoder,
            injector=injector,
            iteration=iteration,
            gradient_bytes=kernel.gradient_bytes,
            network=kernel.network,
            rng=generator,
        )
        for iteration in range(num_iterations)
    ]
    return SimpleNamespace(
        durations=np.array([timing.duration for timing in timings]),
        compute_times=np.array([timing.compute_times for timing in timings]),
    )


class TestOneRunStack:
    def test_shapes_and_determinism(self):
        kernel, _, _ = make_kernel()
        streams = RngStreams.from_seed(0)
        arrays = one_run(
            kernel, 50, streams.injector, streams.jitter, ArtificialDelay(1, 1.0)
        )
        assert arrays.durations.shape == (50,)
        assert arrays.compute_times.shape == (50, kernel.num_workers)
        assert arrays.completion_times.shape == (50, kernel.num_workers)
        repeat = RngStreams.from_seed(0)
        again = one_run(
            kernel, 50, repeat.injector, repeat.jitter, ArtificialDelay(1, 1.0)
        )
        assert np.array_equal(arrays.durations, again.durations)
        assert np.array_equal(arrays.compute_times, again.compute_times)

    def test_duration_is_prefix_completion_time(self):
        kernel, _, _ = make_kernel(scheme="cyclic")
        arrays = one_run(kernel, 30)
        for step in range(30):
            completion = arrays.completion_times[step]
            assert arrays.durations[step] <= completion.max() + 1e-12
            # the reported duration is an actual completion time
            assert np.isclose(completion, arrays.durations[step]).any()

    def test_statistically_close_to_v1(self):
        kernel, _, _ = make_kernel()
        injector = ArtificialDelay(1, 1.0)
        v1 = v1_reference_run(kernel, 2000, rng=0, injector=injector)
        streams = RngStreams.from_seed(0)
        v2 = one_run(kernel, 2000, streams.injector, streams.jitter, injector)
        assert np.isfinite(v1.durations).all() and np.isfinite(v2.durations).all()
        assert v2.durations.mean() == pytest.approx(v1.durations.mean(), rel=0.05)
        assert v2.compute_times.mean(axis=0) == pytest.approx(
            v1.compute_times.mean(axis=0), rel=0.05
        )

    def test_failed_workers_are_trimmed(self):
        kernel, _, _ = make_kernel(scheme="cyclic")
        arrays = one_run(kernel, 10, injector=FailStop({0: 0}))
        assert np.isinf(arrays.completion_times[:, 0]).all()
        for used in arrays.workers_used:
            assert 0 not in used

    def test_order_cache_shared_across_runs(self):
        kernel, _, _ = make_kernel(scheme="cyclic", noise=0.0)
        one_run(kernel, 20, injector_rng=0, jitter_rng=0)
        cached = len(kernel._order_cache)
        assert cached > 0
        # Noise-free cluster: completion orders repeat, so a later run
        # re-uses the memoised decisions instead of re-deriving them.
        one_run(kernel, 20, injector_rng=5, jitter_rng=6)
        assert len(kernel._order_cache) == cached

    def test_rejects_nonpositive_iterations(self):
        kernel, _, _ = make_kernel()
        with pytest.raises(ValueError, match="positive"):
            one_run(kernel, 0)

    def test_no_jitter_cluster(self):
        cluster = uniform_cluster("flat", 5, compute_noise=0.0)
        strategy = build_strategy(
            "cyclic",
            throughputs=cluster.estimated_throughputs,
            num_partitions=5,
            num_stragglers=1,
            rng=np.random.default_rng(0),
        )
        kernel = TimingTraceKernel(strategy, cluster, samples_per_partition=16)
        arrays = one_run(kernel, 6)
        assert np.array_equal(arrays.compute_times[0], arrays.compute_times[-1])

    def test_injector_override_beats_constructor_injector(self):
        kernel, _, _ = make_kernel()
        assert isinstance(kernel.injector, NoStragglers)
        arrays = one_run(
            kernel, 5, injector=ArtificialDelay(1, 100.0, workers=(2,))
        )
        assert (arrays.completion_times[:, 2] > 100.0).all()


class TestStackedTimingArrays:
    def test_component_streams_do_not_interleave(self):
        # Same injector stream with a different jitter stream must produce
        # identical delays: the components do not share a generator.
        cluster = cluster_from_vcpu_counts(
            "c", {2: 2, 4: 2}, compute_noise=0.02, rng=0
        )
        workloads = np.full(cluster.num_workers, 32.0)
        injector = ArtificialDelay(2, 1.0)

        def delays_for(jitter_seed):
            run = StackedRun(
                injector_rng=np.random.default_rng(7),
                jitter_rng=np.random.default_rng(jitter_seed),
                injector=injector,
            )
            _, delays, _ = simulate_worker_timing_arrays_stacked(
                cluster, workloads, 25, [run]
            )
            return delays

        assert np.array_equal(delays_for(1), delays_for(99))

    def test_comm_vector_matches_network(self):
        cluster = uniform_cluster("flat", 4, compute_noise=0.0)
        workloads = np.array([16.0, 0.0, 16.0, 16.0])
        run = StackedRun(
            injector_rng=np.random.default_rng(0),
            jitter_rng=np.random.default_rng(1),
        )
        _, _, comm = simulate_worker_timing_arrays_stacked(
            cluster, workloads, 3, [run], gradient_bytes=1.25e8,
            network=SimpleNetwork(latency_seconds=0.0),
        )
        assert np.array_equal(comm, [1.0, 0.0, 1.0, 1.0])


class TestFingerprints:
    def test_identical_builds_share_fingerprints(self):
        _, strategy_a, cluster_a = make_kernel(seed=0)
        _, strategy_b, cluster_b = make_kernel(seed=0)
        assert strategy_fingerprint(strategy_a) == strategy_fingerprint(strategy_b)
        assert cluster_fingerprint(cluster_a) == cluster_fingerprint(cluster_b)

    def test_different_builds_differ(self):
        _, strategy_a, cluster_a = make_kernel(seed=0)
        _, strategy_b, cluster_b = make_kernel(seed=1)
        assert strategy_fingerprint(strategy_a) != strategy_fingerprint(strategy_b)
        assert cluster_fingerprint(cluster_a) != cluster_fingerprint(cluster_b)


class TestTimingKernelCache:
    def test_hit_on_identical_configuration(self):
        cache = TimingKernelCache()
        _, strategy, cluster = make_kernel(seed=0)
        one = cache.get_or_build(strategy, cluster, 64, gradient_bytes=1.0)
        _, strategy_again, _ = make_kernel(seed=0)
        two = cache.get_or_build(strategy_again, cluster, 64, gradient_bytes=1.0)
        assert one is two
        assert cache.hits == 1 and cache.misses == 1

    def test_miss_on_different_workload_or_network(self):
        cache = TimingKernelCache()
        _, strategy, cluster = make_kernel(seed=0)
        cache.get_or_build(strategy, cluster, 64)
        cache.get_or_build(strategy, cluster, 128)
        cache.get_or_build(strategy, cluster, 64, network=SimpleNetwork())
        assert cache.misses == 3 and cache.hits == 0

    def test_nearby_network_parameters_do_not_collide(self):
        # Regression: keying on network.describe() rounded the parameters
        # (0.1 ms / 0.01 Gbit/s display precision), so nearby latencies
        # collided and a cache hit returned wrong communication times.
        cache = TimingKernelCache()
        _, strategy, cluster = make_kernel(seed=0)
        a = cache.get_or_build(
            strategy, cluster, 64,
            network=SimpleNetwork(latency_seconds=0.005),
            gradient_bytes=1024.0,
        )
        b = cache.get_or_build(
            strategy, cluster, 64,
            network=SimpleNetwork(latency_seconds=0.00504),
            gradient_bytes=1024.0,
        )
        assert a is not b
        assert not np.array_equal(
            one_run(a, 3).completion_times, one_run(b, 3).completion_times
        )
        # Equal parameters in a fresh model instance still hit.
        again = cache.get_or_build(
            strategy, cluster, 64,
            network=SimpleNetwork(latency_seconds=0.005),
            gradient_bytes=1024.0,
        )
        assert again is a

    def test_lru_eviction(self):
        cache = TimingKernelCache(maxsize=1)
        _, strategy, cluster = make_kernel(seed=0)
        first = cache.get_or_build(strategy, cluster, 64)
        cache.get_or_build(strategy, cluster, 128)
        assert len(cache) == 1
        again = cache.get_or_build(strategy, cluster, 64)
        assert again is not first  # evicted and rebuilt

    def test_cached_kernel_results_identical_to_fresh(self):
        cache = TimingKernelCache()
        _, strategy, cluster = make_kernel(seed=0)
        kernel = cache.get_or_build(strategy, cluster, 64, gradient_bytes=8.0)
        warm = cache.get_or_build(strategy, cluster, 64, gradient_bytes=8.0)
        fresh = TimingTraceKernel(
            strategy, cluster, samples_per_partition=64, gradient_bytes=8.0
        )
        injector = ArtificialDelay(1, 1.0)
        assert np.array_equal(
            one_run(warm, 40, injector=injector).durations,
            one_run(fresh, 40, injector=injector).durations,
        )
        assert kernel is warm
