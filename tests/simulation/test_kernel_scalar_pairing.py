"""Batched timing kernels paired against their scalar counterparts.

These are the KER001 pairing tests for ``ClusterSpec.compute_times_batch``,
``StragglerInjector.delays_batch`` and
``simulate_worker_timing_arrays_stacked``: the batched forms draw each
randomness component in one generator call, which (for a fixed component
stream) consumes the stream in exactly the order the per-iteration scalar
path does — so at matched seeds the batch is *bit-identical* to stacking
scalar calls, not merely statistically close.  The stacked per-worker
arrays are pinned against the scalar per-worker loop of
``repro._reference``, and the timing kernel's 1-run stack against a
composition of those primitives written here.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro._reference import simulate_worker_timings_reference
from repro.coding.registry import build_strategy
from repro.simulation.cluster import ClusterError, cluster_from_vcpu_counts
from repro.simulation.network import LogNormalNetwork, SimpleNetwork
from repro.simulation.rng import RngStreams
from repro.simulation.stragglers import (
    ArtificialDelay,
    NoStragglers,
    TransientSlowdown,
)
from repro.simulation.vectorized import (
    StackedRun,
    TimingTraceKernel,
    simulate_worker_timing_arrays_stacked,
)


@pytest.fixture
def noisy_cluster():
    return cluster_from_vcpu_counts(
        "pairing", {2: 3, 4: 2}, compute_noise=0.15, rng=0
    )


@pytest.fixture
def workloads():
    return np.array([10.0, 5.0, 0.0, 8.0, 2.0])


class TestComputeTimesBatchPairsScalar:
    def test_bit_identical_to_stacked_scalar_calls(self, noisy_cluster, workloads):
        iterations = 6
        batch = noisy_cluster.compute_times_batch(
            workloads, iterations, rng=np.random.default_rng(7)
        )
        scalar_rng = np.random.default_rng(7)
        stacked = np.stack(
            [
                noisy_cluster.compute_times(workloads, rng=scalar_rng)
                for _ in range(iterations)
            ]
        )
        assert batch.shape == (iterations, noisy_cluster.num_workers)
        assert np.array_equal(batch, stacked)

    def test_no_rng_is_deterministic_broadcast(self, noisy_cluster, workloads):
        batch = noisy_cluster.compute_times_batch(workloads, 3)
        scalar = noisy_cluster.compute_times(workloads)
        assert np.array_equal(batch, np.stack([scalar] * 3))

    def test_heterogeneous_noise_still_pairs(self, workloads):
        cluster = cluster_from_vcpu_counts(
            "pairing-hetero", {1: 2, 2: 2, 8: 1}, compute_noise=0.3, rng=1
        )
        batch = cluster.compute_times_batch(
            workloads, 5, rng=np.random.default_rng(11)
        )
        scalar_rng = np.random.default_rng(11)
        stacked = np.stack(
            [cluster.compute_times(workloads, rng=scalar_rng) for _ in range(5)]
        )
        assert np.array_equal(batch, stacked)

    def test_rejects_nonpositive_iterations(self, noisy_cluster, workloads):
        with pytest.raises(ClusterError):
            noisy_cluster.compute_times_batch(workloads, 0)


def reference_timing_arrays(cluster, workloads, **kwargs):
    """The reference's per-worker timings as ``(compute, delays, comm)``."""
    timings = simulate_worker_timings_reference(cluster, workloads, **kwargs)
    return tuple(
        np.array([getattr(timing, field) for timing in timings])
        for field in ("compute_time", "injected_delay", "comm_time")
    )


def one_run(injector=None, injector_seed=0, jitter_seed=0):
    return [
        StackedRun(
            injector_rng=np.random.default_rng(injector_seed),
            jitter_rng=np.random.default_rng(jitter_seed),
            injector=injector,
        )
    ]


class TestStackedTimingArraysPairScalar:
    def test_deterministic_configuration_matches_scalar_exactly(self, workloads):
        """With no jitter/stragglers both paths are rng-free and must agree."""
        quiet = cluster_from_vcpu_counts(
            "pairing-quiet", {2: 3, 4: 2}, compute_noise=0.0, rng=0
        )
        network = SimpleNetwork()
        compute_b, delays_b, comm_b = simulate_worker_timing_arrays_stacked(
            quiet,
            workloads,
            4,
            one_run(NoStragglers()),
            gradient_bytes=4096.0,
            network=network,
        )
        for iteration in range(4):
            compute, delays, comm = reference_timing_arrays(
                quiet,
                workloads,
                injector=NoStragglers(),
                iteration=iteration,
                gradient_bytes=4096.0,
                network=network,
            )
            assert np.array_equal(compute_b[0, iteration], compute)
            assert np.array_equal(delays_b[0, iteration], delays)
            assert np.array_equal(comm_b, comm)

    def test_jittered_run_pairs_scalar_bitwise(self, noisy_cluster, workloads):
        """With randomness only in the jitter, stack == scalar bit-for-bit.

        ``NoStragglers`` consumes no random numbers, so the scalar path's
        single shared generator sees exactly the jitter draws — at matched
        seeds the run's ``jitter_rng`` stream and the scalar loop consume
        the stream identically and every row must match exactly.
        """
        iterations = 8
        compute_b, delays_b, comm_b = simulate_worker_timing_arrays_stacked(
            noisy_cluster,
            workloads,
            iterations,
            one_run(NoStragglers(), jitter_seed=6),
            gradient_bytes=1024.0,
            network=SimpleNetwork(),
        )
        scalar_rng = np.random.default_rng(6)
        for iteration in range(iterations):
            compute, delays, comm = reference_timing_arrays(
                noisy_cluster,
                workloads,
                injector=NoStragglers(),
                iteration=iteration,
                gradient_bytes=1024.0,
                network=SimpleNetwork(),
                rng=scalar_rng,
            )
            assert np.array_equal(compute_b[0, iteration], compute)
            assert np.array_equal(delays_b[0, iteration], delays)
            assert np.array_equal(comm_b, comm)


class TestDelaysBatchPairsScalar:
    def test_fixed_worker_delays_pair_scalar(self, noisy_cluster):
        """A fixed-worker injector yields identical delay rows on both paths.

        (The free-choice ``ArtificialDelay`` batch draw intentionally uses a
        different stream layout — same distribution, not bit-paired — so the
        deterministic fixed-worker form is the exact-equality case.)
        """
        injector = ArtificialDelay(
            num_stragglers=2, delay_seconds=1.5, workers=(0, 3)
        )
        m = noisy_cluster.num_workers
        batch = injector.delays_batch(0, 5, m, np.random.default_rng(3))
        for iteration in range(5):
            scalar = injector.delays(iteration, m, np.random.default_rng(0))
            assert np.array_equal(batch[iteration], np.asarray(scalar))
        assert np.array_equal(batch[:, [0, 3]], np.full((5, 2), 1.5))


class TestOneRunStackPairsComposition:
    """The kernel's 1-run stack == the per-run primitives composed by hand."""

    @pytest.mark.parametrize(
        "network", [SimpleNetwork(), LogNormalNetwork()], ids=["simple", "lognormal"]
    )
    def test_completion_times_bit_equal(self, noisy_cluster, network):
        strategy = build_strategy(
            "cyclic",
            throughputs=noisy_cluster.estimated_throughputs,
            num_partitions=noisy_cluster.num_workers,
            num_stragglers=1,
            rng=np.random.default_rng(0),
        )
        gradient_bytes = 4096.0
        kernel = TimingTraceKernel(
            strategy,
            noisy_cluster,
            samples_per_partition=16,
            network=network,
            gradient_bytes=gradient_bytes,
        )
        injector = TransientSlowdown(probability=0.3, mean_delay_seconds=0.5)
        n, m = 12, noisy_cluster.num_workers
        streams = RngStreams.from_seed(4)
        run = StackedRun(
            injector_rng=streams.injector,
            jitter_rng=streams.jitter,
            network_rng=streams.network,
            injector=injector,
        )
        (arrays,) = kernel.run_stacked(n, [run])

        streams = RngStreams.from_seed(4)
        delays = injector.delays_batch(0, n, m, streams.injector)
        compute = noisy_cluster.compute_times_batch(kernel.workloads, n, streams.jitter)
        if network.is_stochastic:
            transfer = network.sample_transfer_times(
                gradient_bytes, (n, m), streams.network
            )
        else:
            transfer = network.transfer_time(gradient_bytes)
        loaded = kernel.workloads > 0
        expected = compute + delays + np.where(loaded, transfer, 0.0)
        assert np.array_equal(arrays.compute_times, compute)
        assert np.array_equal(arrays.completion_times, expected)
