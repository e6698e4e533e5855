"""Reference (pre-vectorization) implementations of the hot paths.

These are the straightforward per-worker / per-prefix implementations the
repo shipped before the matrix-form rewrite.  They are kept as **exactness
anchors**: the property tests assert that the vectorized kernels
(:func:`repro.simulation.timing.simulate_worker_timings`,
:meth:`repro.coding.Decoder.earliest_decodable_prefix`,
:func:`repro.experiments.common.measure_timing_trace`) produce results
identical to these references on randomized strategies, clusters and
completion orders.

Nothing here should be used in production paths; the public modules are
always at least as fast and exactly equivalent.
"""

from __future__ import annotations

import warnings
from collections.abc import Sequence

import numpy as np

from .coding.decoding import Decoder
from .coding.registry import build_strategy, natural_partitions
from .coding.types import CodingStrategy
from .simulation.cluster import ClusterSpec
from .simulation.network import CommunicationModel, SimpleNetwork, ZeroCommunication
from .simulation.stragglers import NoStragglers, StragglerInjector
from .simulation.timing import (
    IterationTiming,
    TimingError,
    WorkerTiming,
    worker_workloads,
)
from .simulation.trace import IterationRecord, RunTrace

__all__ = [
    "earliest_decodable_prefix_reference",
    "simulate_worker_timings_reference",
    "simulate_iteration_reference",
    "measure_timing_trace_reference",
    "trace_from_arrays_records_reference",
]


def earliest_decodable_prefix_reference(
    decoder: Decoder, completion_order: Sequence[int]
) -> int | None:
    """Pre-PR linear prefix search: one full decode attempt per prefix."""
    finished: list[int] = []
    for index, worker in enumerate(completion_order, start=1):
        finished.append(int(worker))
        if decoder.can_decode(finished):
            return index
    return None


def simulate_worker_timings_reference(
    cluster: ClusterSpec,
    workloads: Sequence[float],
    injector: StragglerInjector | None = None,
    iteration: int = 0,
    gradient_bytes: float = 0.0,
    network: CommunicationModel | None = None,
    rng: np.random.Generator | int | None = None,
) -> tuple[WorkerTiming, ...]:
    """Pre-PR per-worker timing loop (scalar RNG draws, per-worker comm)."""
    workloads = np.asarray(workloads, dtype=np.float64)
    if workloads.shape != (cluster.num_workers,):
        raise TimingError(
            f"expected {cluster.num_workers} workloads, got shape {workloads.shape}"
        )
    if np.any(workloads < 0):
        raise TimingError("workloads must be non-negative")
    injector = injector or NoStragglers()
    network = network or ZeroCommunication()
    generator = np.random.default_rng(rng)
    delays = np.asarray(
        injector.delays(iteration, cluster.num_workers, generator), dtype=np.float64
    )
    if delays.shape != (cluster.num_workers,):
        raise TimingError("straggler injector returned the wrong number of delays")

    timings = []
    for worker_spec, samples, delay in zip(cluster.workers, workloads, delays):
        compute = worker_spec.compute_time(float(samples), rng=generator)
        comm = network.transfer_time(gradient_bytes) if samples > 0 else 0.0
        timings.append(
            WorkerTiming(
                worker_id=worker_spec.worker_id,
                samples=float(samples),
                compute_time=float(compute),
                injected_delay=float(delay),
                comm_time=float(comm),
            )
        )
    return tuple(timings)


def simulate_iteration_reference(
    strategy: CodingStrategy,
    cluster: ClusterSpec,
    samples_per_partition: int,
    decoder: Decoder | None = None,
    injector: StragglerInjector | None = None,
    iteration: int = 0,
    gradient_bytes: float = 0.0,
    network: CommunicationModel | None = None,
    rng: np.random.Generator | int | None = None,
) -> IterationTiming:
    """Pre-PR iteration simulation: per-worker loop plus per-prefix decode."""
    if strategy.num_workers != cluster.num_workers:
        raise TimingError(
            f"strategy has {strategy.num_workers} workers but cluster "
            f"{cluster.name!r} has {cluster.num_workers}"
        )
    workloads = worker_workloads(strategy, samples_per_partition)
    timings = simulate_worker_timings_reference(
        cluster,
        workloads,
        injector=injector,
        iteration=iteration,
        gradient_bytes=gradient_bytes,
        network=network,
        rng=rng,
    )
    decoder = decoder or Decoder(strategy)

    completion = np.array([t.completion_time for t in timings])
    finite = [w for w in range(cluster.num_workers) if np.isfinite(completion[w])]
    order = sorted(finite, key=lambda w: (completion[w], w))
    prefix = earliest_decodable_prefix_reference(decoder, order)
    if prefix is None:
        return IterationTiming(
            duration=float("inf"),
            worker_timings=timings,
            workers_used=(),
            used_group=None,
            decodable=False,
        )
    finished = order[:prefix]
    result = decoder.decoding_vector(finished)
    assert result is not None
    duration = float(completion[finished[-1]])
    return IterationTiming(
        duration=duration,
        worker_timings=timings,
        workers_used=result.workers_used,
        used_group=result.used_group,
        decodable=True,
    )


def measure_timing_trace_reference(
    scheme: str,
    cluster: ClusterSpec,
    num_stragglers: int,
    total_samples: int,
    num_iterations: int,
    partitions_multiplier: int = 2,
    num_partitions: int | None = None,
    injector: StragglerInjector | None = None,
    network: CommunicationModel | None = None,
    gradient_bytes: float = 8.0 * 65536,
    seed: int | None = 0,
) -> RunTrace:
    """Pre-PR timing-trace loop: one ``simulate_iteration`` call per step."""
    from .experiments.common import TIMING_SEED_OFFSET, SampleCountDriftWarning

    if num_iterations <= 0:
        raise ValueError("num_iterations must be positive")
    if total_samples <= 0:
        raise ValueError("total_samples must be positive")
    construction_rng = np.random.default_rng(seed)
    timing_rng = np.random.default_rng(
        None if seed is None else seed + TIMING_SEED_OFFSET
    )
    injector = injector or NoStragglers()
    network = network or SimpleNetwork()

    k = num_partitions or natural_partitions(
        scheme, cluster.num_workers, partitions_multiplier
    )
    samples_per_partition = max(1, total_samples // k)
    effective_total_samples = samples_per_partition * k
    if effective_total_samples != total_samples:
        warnings.warn(
            f"scheme {scheme!r} with k={k} partitions processes "
            f"{effective_total_samples} samples per iteration instead of the "
            f"requested {total_samples}",
            SampleCountDriftWarning,
            stacklevel=2,
        )
    strategy = build_strategy(
        scheme,
        throughputs=cluster.estimated_throughputs,
        num_partitions=k,
        num_stragglers=num_stragglers,
        rng=construction_rng,
    )
    decoder = Decoder(strategy)
    trace = RunTrace(
        scheme=scheme,
        cluster_name=cluster.name,
        metadata={
            "mode": "timing_only",
            "num_workers": cluster.num_workers,
            "num_partitions": k,
            "num_stragglers": num_stragglers,
            "total_samples": total_samples,
            "effective_total_samples": effective_total_samples,
            "samples_per_partition": samples_per_partition,
            "loads": list(strategy.loads),
            "num_groups": len(strategy.groups),
            "injector": injector.describe(),
            "network": network.describe(),
        },
    )
    for iteration in range(num_iterations):
        timing = simulate_iteration_reference(
            strategy,
            cluster,
            samples_per_partition=samples_per_partition,
            decoder=decoder,
            injector=injector,
            iteration=iteration,
            gradient_bytes=gradient_bytes,
            network=network,
            rng=timing_rng,
        )
        trace.append(
            IterationRecord(
                iteration=iteration,
                duration=timing.duration,
                train_loss=float("nan"),
                compute_times=tuple(timing.compute_times),
                completion_times=tuple(timing.completion_times),
                workers_used=timing.workers_used,
                used_group=timing.used_group,
            )
        )
    return trace


def trace_from_arrays_records_reference(
    scheme: str,
    cluster_name: str,
    arrays,
    metadata: dict | None = None,
) -> RunTrace:
    """The PR 3 trace assembly: one materialized record per iteration.

    Before the columnar :meth:`~repro.simulation.trace.RunTrace.from_arrays`
    path, ``measure_timing_trace`` converted the batched kernel's arrays
    back into per-iteration :class:`IterationRecord` objects (``tolist`` +
    tuple-of-floats per row).  Kept verbatim as the serialization-equality
    anchor: a trace built this way must produce byte-identical ``to_dict``
    JSON to the columnar trace over the same arrays.
    """
    trace = RunTrace(scheme=scheme, cluster_name=cluster_name, metadata=metadata)
    nan = float("nan")
    trace.extend(
        [
            IterationRecord.unchecked(
                iteration=iteration,
                duration=duration,
                train_loss=nan,
                compute_times=tuple(compute_row),
                completion_times=tuple(completion_row),
                workers_used=workers,
                used_group=group,
            )
            for iteration, (duration, compute_row, completion_row, workers, group) in (
                enumerate(
                    zip(
                        arrays.durations.tolist(),
                        arrays.compute_times.tolist(),
                        arrays.completion_times.tolist(),
                        arrays.workers_used,
                        arrays.used_groups,
                    )
                )
            )
        ]
    )
    return trace
