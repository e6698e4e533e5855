"""Bit-identity of the run-stacked timing kernel, the one timing path.

A single run is a 1-run stack, so the contract pinned
here is that stacking many runs into one numpy call changes *nothing* about
any individual run: slice ``r`` of an ``R``-run stack equals the 1-run
stack of run ``r`` — per-run generators spawned from the same seeds,
outputs compared exactly (``inf`` rows included) — for every registered
straggler model and every Table II cluster.  The draws themselves are
pinned against an independent composition written here from the per-run
primitives (``delays_batch`` + ``compute_times_batch`` + the network's
transfer times), fed the same ``RngStreams``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro._reference import decide_reference, simulate_worker_timings_reference
from repro.api.builders import build_injector
from repro.api.spec import StragglerSpec
from repro.coding.decoding import Decoder
from repro.coding.registry import build_strategy, natural_partitions
from repro.experiments.clusters import build_cluster
from repro.simulation.cluster import uniform_cluster
from repro.simulation.network import LogNormalNetwork, SimpleNetwork
from repro.simulation.rng import RngStreams
from repro.simulation.vectorized import (
    StackedRun,
    TimingTraceKernel,
    simulate_worker_timing_arrays_stacked,
)

#: Every registered straggler model, as declarative specs (worker 1 fails at
#: iteration 5 in the fail_stop case so the stack carries ``inf`` rows).
STRAGGLER_SPECS = {
    "none": StragglerSpec("none", {}),
    "artificial_delay": StragglerSpec(
        "artificial_delay", {"num_stragglers": 2, "delay_seconds": 1.0}
    ),
    "transient": StragglerSpec(
        "transient", {"probability": 0.2, "mean_delay_seconds": 1.5}
    ),
    "bursty": StragglerSpec(
        "bursty",
        {"enter_probability": 0.1, "exit_probability": 0.3, "mean_delay_seconds": 2.0},
    ),
    "fail_stop": StragglerSpec("fail_stop", {"failures": {1: 5}}),
    "composite": StragglerSpec(
        "composite",
        {
            "parts": [
                {
                    "kind": "artificial_delay",
                    "params": {"num_stragglers": 1, "delay_seconds": 0.5},
                },
                {
                    "kind": "transient",
                    "params": {"probability": 0.1, "mean_delay_seconds": 0.8},
                },
            ]
        },
    ),
}

TABLE_II_CLUSTERS = ["Cluster-A", "Cluster-B", "Cluster-C", "Cluster-D"]

SEEDS = [11, 12, 13, 14, 15]


GRADIENT_BYTES = 8.0 * 65536


def make_kernel(cluster, scheme="heter_aware", network=None, seed=0):
    k = natural_partitions(scheme, cluster.num_workers, 2)
    strategy = build_strategy(
        scheme,
        throughputs=cluster.estimated_throughputs,
        num_partitions=k,
        num_stragglers=1,
        rng=np.random.default_rng(seed),
    )
    return TimingTraceKernel(
        strategy,
        cluster,
        samples_per_partition=max(1, 2048 // k),
        gradient_bytes=GRADIENT_BYTES,
        network=network or SimpleNetwork(),
    )


def stacked_runs(seeds, straggler_spec, stochastic_network):
    """One StackedRun per seed with fresh v2 component streams."""
    runs = []
    for seed in seeds:
        streams = RngStreams.from_seed(seed)
        runs.append(
            StackedRun(
                injector_rng=streams.injector,
                jitter_rng=streams.jitter,
                network_rng=streams.network if stochastic_network else None,
                injector=build_injector(straggler_spec),
            )
        )
    return runs


def one_run(kernel, num_iterations, seed, straggler_spec, stochastic_network):
    """The 1-run stack of one seed: exactly what a standalone v2 run does."""
    runs = stacked_runs([seed], straggler_spec, stochastic_network)
    (arrays,) = kernel.run_stacked(num_iterations, runs)
    return arrays


def composed_draws(
    cluster, workloads, num_iterations, seed, straggler_spec, network
):
    """Compute, delays and comm of one run, composed from the primitives.

    Independent of ``simulate_worker_timing_arrays_stacked``: each component
    draws from its own ``RngStreams`` child exactly once, over the whole
    trace, and unloaded workers send nothing.
    """
    streams = RngStreams.from_seed(seed)
    shape = (num_iterations, cluster.num_workers)
    delays = build_injector(straggler_spec).delays_batch(
        0, num_iterations, cluster.num_workers, streams.injector
    )
    compute = cluster.compute_times_batch(workloads, num_iterations, streams.jitter)
    if network.is_stochastic:
        transfer = network.sample_transfer_times(
            GRADIENT_BYTES, shape, streams.network
        )
    else:
        transfer = network.transfer_time(GRADIENT_BYTES)
    comm = np.where(np.asarray(workloads) > 0, transfer, 0.0)
    return compute, delays, comm


def assert_arrays_identical(stacked, solo):
    np.testing.assert_array_equal(stacked.durations, solo.durations)
    np.testing.assert_array_equal(stacked.compute_times, solo.compute_times)
    np.testing.assert_array_equal(stacked.completion_times, solo.completion_times)
    assert stacked.workers_used == solo.workers_used
    assert stacked.used_groups == solo.used_groups


class TestRunStackedBitIdentity:
    """``run_stacked`` slice r == the 1-run stack of run r."""

    @pytest.mark.parametrize("straggler", sorted(STRAGGLER_SPECS))
    @pytest.mark.parametrize("cluster_name", TABLE_II_CLUSTERS)
    def test_every_model_on_every_table_ii_cluster(self, straggler, cluster_name):
        cluster = build_cluster(cluster_name, rng=0)
        kernel = make_kernel(cluster)
        spec = STRAGGLER_SPECS[straggler]
        n = 25
        stacked = kernel.run_stacked(n, stacked_runs(SEEDS, spec, False))
        for index, seed in enumerate(SEEDS):
            assert_arrays_identical(
                stacked[index], one_run(kernel, n, seed, spec, False)
            )

    @pytest.mark.parametrize("straggler", sorted(STRAGGLER_SPECS))
    @pytest.mark.parametrize("cluster_name", TABLE_II_CLUSTERS)
    def test_stochastic_network_draws_stay_per_run(self, straggler, cluster_name):
        cluster = build_cluster(cluster_name, rng=0)
        kernel = make_kernel(cluster, network=LogNormalNetwork())
        spec = STRAGGLER_SPECS[straggler]
        n = 25
        stacked = kernel.run_stacked(n, stacked_runs(SEEDS, spec, True))
        for index, seed in enumerate(SEEDS):
            assert_arrays_identical(
                stacked[index], one_run(kernel, n, seed, spec, True)
            )

    def test_fail_stop_rows_are_infinite(self):
        cluster = build_cluster("Cluster-A", rng=0)
        kernel = make_kernel(cluster)
        spec = STRAGGLER_SPECS["fail_stop"]
        stacked = kernel.run_stacked(12, stacked_runs(SEEDS[:2], spec, False))
        for arrays in stacked:
            assert np.isinf(arrays.completion_times[6:, 1]).all()
            for used in arrays.workers_used[6:]:
                assert 1 not in used

    def test_deterministic_stack_matches_v1_run(self):
        # Noise-free, identical workers: which workers the injector delays
        # cannot matter, so the v1 scalar loop of repro._reference and the
        # stacked path must coincide exactly.
        cluster = uniform_cluster("flat", 6, compute_noise=0.0)
        kernel = make_kernel(cluster, scheme="cyclic")
        spec = STRAGGLER_SPECS["artificial_delay"]
        injector, rng = build_injector(spec), np.random.default_rng(0)
        decoder = Decoder(kernel.strategy)
        v1 = []
        for iteration in range(10):
            timings = simulate_worker_timings_reference(
                cluster,
                kernel.workloads,
                injector=injector,
                iteration=iteration,
                gradient_bytes=kernel.gradient_bytes,
                network=kernel.network,
                rng=rng,
            )
            completion = [timing.completion_time for timing in timings]
            v1.append(decide_reference(decoder, completion)[0])
        stacked = kernel.run_stacked(10, stacked_runs([0, 1], spec, False))
        for arrays in stacked:
            np.testing.assert_array_equal(arrays.durations, v1)

    def test_per_run_clusters_share_the_decoder(self):
        # Seed sweeps build seed-dependent clusters; decode decisions depend
        # only on the strategy, so per-run clusters ride the same kernel.
        base = build_cluster("Cluster-A", rng=0)
        kernel = make_kernel(base, scheme="naive")
        spec = STRAGGLER_SPECS["artificial_delay"]
        n = 20
        runs = []
        for seed in SEEDS:
            streams = RngStreams.from_seed(seed)
            runs.append(
                StackedRun(
                    injector_rng=streams.injector,
                    jitter_rng=streams.jitter,
                    injector=build_injector(spec),
                    cluster=build_cluster("Cluster-A", rng=seed),
                )
            )
        stacked = kernel.run_stacked(n, runs)
        for index, seed in enumerate(SEEDS):
            solo_kernel = make_kernel(
                build_cluster("Cluster-A", rng=seed), scheme="naive"
            )
            assert_arrays_identical(
                stacked[index], one_run(solo_kernel, n, seed, spec, False)
            )

    def test_rejects_empty_runs(self):
        kernel = make_kernel(build_cluster("Cluster-A", rng=0))
        with pytest.raises(ValueError, match="runs"):
            kernel.run_stacked(5, [])


class TestIndependentComposition:
    """Kernel draws == ``delays_batch`` + ``compute_times_batch`` + comm."""

    @pytest.mark.parametrize("straggler", sorted(STRAGGLER_SPECS))
    @pytest.mark.parametrize("cluster_name", TABLE_II_CLUSTERS)
    @pytest.mark.parametrize("network_name", ["simple", "lognormal"])
    def test_completion_times_bit_equal(self, straggler, cluster_name, network_name):
        cluster = build_cluster(cluster_name, rng=0)
        network = SimpleNetwork() if network_name == "simple" else LogNormalNetwork()
        stochastic = network.is_stochastic
        kernel = make_kernel(cluster, network=network)
        spec = STRAGGLER_SPECS[straggler]
        n = 25
        stacked = kernel.run_stacked(n, stacked_runs(SEEDS, spec, stochastic))
        for index, seed in enumerate(SEEDS):
            compute, delays, comm = composed_draws(
                cluster, kernel.workloads, n, seed, spec, network
            )
            np.testing.assert_array_equal(stacked[index].compute_times, compute)
            np.testing.assert_array_equal(
                stacked[index].completion_times, compute + delays + comm
            )

    @pytest.mark.parametrize("straggler", sorted(STRAGGLER_SPECS))
    def test_stacked_arrays_bit_equal(self, straggler):
        cluster = build_cluster("Cluster-B", rng=0)
        workloads = np.full(cluster.num_workers, 48.0)
        workloads[0] = 0.0  # an unloaded worker sends nothing
        spec = STRAGGLER_SPECS[straggler]
        n = 25
        compute, delays, comm = simulate_worker_timing_arrays_stacked(
            cluster,
            workloads,
            n,
            stacked_runs(SEEDS, spec, False),
            gradient_bytes=GRADIENT_BYTES,
            network=SimpleNetwork(),
        )
        assert comm.shape == (cluster.num_workers,)
        for index, seed in enumerate(SEEDS):
            solo_compute, solo_delays, solo_comm = composed_draws(
                cluster, workloads, n, seed, spec, SimpleNetwork()
            )
            np.testing.assert_array_equal(compute[index], solo_compute)
            np.testing.assert_array_equal(delays[index], solo_delays)
            np.testing.assert_array_equal(comm, solo_comm)

    def test_stochastic_network_comm_is_per_run(self):
        cluster = build_cluster("Cluster-A", rng=0)
        workloads = np.full(cluster.num_workers, 32.0)
        spec = STRAGGLER_SPECS["none"]
        _, _, comm = simulate_worker_timing_arrays_stacked(
            cluster,
            workloads,
            15,
            stacked_runs(SEEDS, spec, True),
            gradient_bytes=GRADIENT_BYTES,
            network=LogNormalNetwork(),
        )
        assert comm.shape == (len(SEEDS), 15, cluster.num_workers)
        for index, seed in enumerate(SEEDS):
            _, _, solo_comm = composed_draws(
                cluster, workloads, 15, seed, spec, LogNormalNetwork()
            )
            np.testing.assert_array_equal(comm[index], solo_comm)
        assert not np.array_equal(comm[0], comm[1])

    def test_deterministic_rows_match_the_scalar_path(self):
        # Noise-free cluster, rng-free injector, deterministic network: every
        # stacked row equals a per-iteration call of the scalar per-worker
        # loop in repro._reference (which all the batch forms grew from).
        cluster = uniform_cluster("flat", 5, compute_noise=0.0)
        workloads = np.array([16.0, 0.0, 16.0, 16.0, 16.0])
        pinned = StragglerSpec(
            "artificial_delay",
            {"num_stragglers": 2, "delay_seconds": 1.0, "workers": [2, 3]},
        )
        injector = build_injector(pinned)
        compute, delays, comm = simulate_worker_timing_arrays_stacked(
            cluster,
            workloads,
            4,
            stacked_runs([0], pinned, False),
            injector=injector,
            gradient_bytes=1e6,
            network=SimpleNetwork(),
        )
        for iteration in range(4):
            timings = simulate_worker_timings_reference(
                cluster,
                workloads,
                injector=injector,
                iteration=iteration,
                gradient_bytes=1e6,
                network=SimpleNetwork(),
            )
            ref_compute, ref_delays, ref_comm = (
                np.array([getattr(timing, field) for timing in timings])
                for field in ("compute_time", "injected_delay", "comm_time")
            )
            np.testing.assert_array_equal(compute[0, iteration], ref_compute)
            np.testing.assert_array_equal(delays[0, iteration], ref_delays)
            np.testing.assert_array_equal(comm, ref_comm)
