"""Property-based tests for the iteration timing engine's invariants.

Each example simulates one iteration as a 1-iteration, 1-run stack of the
timing kernel.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding import Decoder, build_strategy, natural_partitions
from repro.metrics.resource_usage import iteration_resource_usage
from repro.simulation.cluster import ClusterSpec
from repro.simulation.network import SimpleNetwork
from repro.simulation.rng import RngStreams
from repro.simulation.stragglers import ArtificialDelay, NoStragglers
from repro.simulation.trace import RunTrace
from repro.simulation.vectorized import StackedRun, TimingTraceKernel
from repro.simulation.workers import WorkerSpec


def simulate_iteration(
    strategy, cluster, samples_per_partition, injector=None, network=None, rng=0
):
    """Iteration 0 of a 1-run stack, as a trace record."""
    kernel = TimingTraceKernel(
        strategy, cluster, samples_per_partition, network=network
    )
    streams = RngStreams.from_seed(rng)
    run = StackedRun(
        injector_rng=streams.injector,
        jitter_rng=streams.jitter,
        network_rng=streams.network,
        injector=injector,
    )
    (arrays,) = kernel.run_stacked(1, [run])
    return RunTrace.from_arrays("prop", cluster.name, arrays).records[0]


def make_cluster(speeds: list[float]) -> ClusterSpec:
    workers = tuple(
        WorkerSpec(
            worker_id=i,
            vcpus=1,
            true_throughput=100.0 * speed,
            compute_noise=0.01,
        )
        for i, speed in enumerate(speeds)
    )
    return ClusterSpec(name="prop-cluster", workers=workers)


speeds_strategy = st.lists(
    st.floats(min_value=0.5, max_value=6.0), min_size=3, max_size=8
)


@given(
    speeds=speeds_strategy,
    scheme=st.sampled_from(["naive", "cyclic", "heter_aware", "group_based"]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=40, deadline=None)
def test_duration_equals_latest_used_worker(speeds, scheme, seed):
    """The iteration ends exactly when the slowest *used* worker reports."""
    cluster = make_cluster(speeds)
    k = natural_partitions(scheme, cluster.num_workers)
    strategy = build_strategy(
        scheme,
        throughputs=cluster.estimated_throughputs,
        num_partitions=k,
        num_stragglers=0 if scheme == "naive" else 1,
        rng=seed,
    )
    timing = simulate_iteration(
        strategy,
        cluster,
        samples_per_partition=32,
        injector=NoStragglers(),
        network=SimpleNetwork(),
        rng=seed,
    )
    assert timing.duration < float("inf")
    used_times = [timing.completion_times[w] for w in timing.workers_used]
    assert timing.duration == max(used_times)
    # No worker that finished *after* the duration was needed.
    assert all(t <= timing.duration + 1e-12 for t in used_times)


@given(speeds=speeds_strategy, seed=st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_used_workers_can_actually_decode(speeds, seed):
    """The worker set the engine reports is genuinely decodable."""
    cluster = make_cluster(speeds)
    k = 2 * cluster.num_workers
    strategy = build_strategy(
        "heter_aware",
        throughputs=cluster.estimated_throughputs,
        num_partitions=k,
        num_stragglers=1,
        rng=seed,
    )
    timing = simulate_iteration(
        strategy,
        cluster,
        samples_per_partition=32,
        injector=ArtificialDelay(1, 5.0),
        network=SimpleNetwork(),
        rng=seed,
    )
    assert timing.duration < float("inf")
    assert Decoder(strategy).can_decode(timing.workers_used)


@given(speeds=speeds_strategy, seed=st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_resource_usage_bounded(speeds, seed):
    """Per-iteration resource usage always lies in (0, 1]."""
    cluster = make_cluster(speeds)
    strategy = build_strategy(
        "heter_aware",
        throughputs=cluster.estimated_throughputs,
        num_partitions=2 * cluster.num_workers,
        num_stragglers=1,
        rng=seed,
    )
    timing = simulate_iteration(
        strategy,
        cluster,
        samples_per_partition=32,
        network=SimpleNetwork(),
        rng=seed,
    )
    usage = iteration_resource_usage(timing)
    assert 0.0 < usage <= 1.0


@given(
    speeds=speeds_strategy,
    delay=st.floats(min_value=0.0, max_value=30.0),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=40, deadline=None)
def test_heter_aware_duration_insensitive_to_single_delay(speeds, delay, seed):
    """One delayed worker never slows a 1-straggler-tolerant scheme by more
    than the delayed worker's own contribution (it can simply be skipped)."""
    cluster = make_cluster(speeds)
    k = 2 * cluster.num_workers
    strategy = build_strategy(
        "heter_aware",
        throughputs=cluster.estimated_throughputs,
        num_partitions=k,
        num_stragglers=1,
        rng=seed,
    )
    baseline = simulate_iteration(
        strategy,
        cluster,
        samples_per_partition=32,
        injector=NoStragglers(),
        network=SimpleNetwork(),
        rng=seed,
    )
    delayed = simulate_iteration(
        strategy,
        cluster,
        samples_per_partition=32,
        injector=ArtificialDelay(1, delay, workers=(0,)),
        network=SimpleNetwork(),
        rng=seed,
    )
    assert delayed.duration < float("inf")
    # The delayed run is never worse than waiting for every non-delayed
    # worker plus jitter; in particular it never inherits the full delay
    # when the delay exceeds the spread of normal completion times.
    others_max = max(
        t for w, t in enumerate(baseline.completion_times) if w != 0
    )
    assert delayed.duration <= max(others_max, baseline.duration) * 1.5 + 1e-9
