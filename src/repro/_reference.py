"""Reference implementations and the ``rng_version=1`` golden oracle.

Two kinds of code live here, and neither runs in production paths:

* **Exactness anchors** — the straightforward per-worker / per-prefix
  implementations the repo shipped before the matrix-form rewrite.  The
  property tests assert that the batched kernels
  (:func:`repro.simulation.vectorized.simulate_worker_timing_arrays_stacked`,
  :meth:`repro.coding.Decoder.earliest_decodable_prefix`, the columnar
  trace assembly) agree with these on randomized strategies, clusters and
  completion orders.
* **The v1 oracle** — the historical single-stream RNG layout
  (``rng_version=1``): one generator per run, on which the injector draw
  and the per-worker jitter draws interleave iteration by iteration.  The
  engine runs ``rng_version=2`` only; :func:`run_spec_reference` turns a
  v1 :class:`~repro.api.spec.RunSpec` into the
  :class:`~repro.api.result.RunResult` the engine used to return for it,
  which is what pins the golden report's v1 cells
  (:mod:`repro.experiments.golden`) bit for bit.  It is built from the
  per-iteration timing loop, the per-iteration coded BSP loop
  (:func:`coded_bsp_run_reference`) and the per-event SSP heap loop
  (:func:`ssp_run_per_event_reference`).

Only ``tests/**`` and :mod:`repro.experiments.golden` may import this
module (lint rule IMP001).
"""

from __future__ import annotations

import heapq
import warnings
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .api.builders import build_injector, build_network
from .api.engine import Engine, _build_cluster_for, _cached_dataset
from .api.result import RunResult
from .api.spec import RunSpec
from .coding.decoding import Decoder
from .coding.registry import build_strategy, natural_partitions
from .coding.types import CodingStrategy
from .experiments.common import SampleCountDriftWarning
from .experiments.workloads import get_workload
from .learning.gradients import compute_partial_gradients, encode_worker_gradient
from .learning.models.base import Model
from .learning.optimizers import SGD
from .learning.partition import PartitionedDataset
from .protocols.base import TrainingConfig, evaluate_mean_loss
from .protocols.coded import CodedBSPProtocol
from .protocols.runner import _partition_for_scheme, make_protocol
from .protocols.ssp import SSPProtocol
from .simulation.cluster import ClusterSpec
from .simulation.network import CommunicationModel, SimpleNetwork, ZeroCommunication
from .simulation.stragglers import NoStragglers, StragglerInjector
from .simulation.timing import TimingError, worker_workloads
from .simulation.trace import IterationRecord, RunTrace

__all__ = [
    "TIMING_SEED_OFFSET",
    "WorkerTiming",
    "IterationTiming",
    "earliest_decodable_prefix_reference",
    "decide_reference",
    "simulate_worker_timings_reference",
    "simulate_iteration_reference",
    "measure_timing_trace_reference",
    "trace_from_arrays_records_reference",
    "coded_bsp_run_reference",
    "ssp_run_per_event_reference",
    "run_spec_reference",
]

#: v1 offset separating a run's construction stream (``seed``) from its
#: timing stream (``seed + TIMING_SEED_OFFSET``).
TIMING_SEED_OFFSET = 104_729

#: v1 offset of the SSP mini-batch stream (``seed + _BATCH_SEED_OFFSET``).
_BATCH_SEED_OFFSET = 208_003


@dataclass(frozen=True)
class WorkerTiming:
    """Timing breakdown of one worker in one iteration.

    Attributes
    ----------
    worker_id:
        Worker index.
    samples:
        Number of samples the worker processes this iteration.
    compute_time:
        Pure computation time (seconds).
    injected_delay:
        Extra delay added by the straggler injector; ``inf`` for failures.
    comm_time:
        Time to push the coded gradient to the master.
    completion_time:
        ``compute_time + injected_delay + comm_time``; ``inf`` when the
        worker never reports.
    """

    worker_id: int
    samples: float
    compute_time: float
    injected_delay: float
    comm_time: float

    @property
    def completion_time(self) -> float:
        return self.compute_time + self.injected_delay + self.comm_time

    @property
    def failed(self) -> bool:
        return bool(np.isinf(self.completion_time))


@dataclass(frozen=True)
class IterationTiming:
    """Outcome of one simulated iteration.

    Attributes
    ----------
    duration:
        Wall-clock duration of the iteration (``inf`` when undecodable).
    worker_timings:
        Per-worker breakdowns, ordered by worker index.
    workers_used:
        Workers whose coded gradients the master actually combined.
    used_group:
        The group used for decoding when the group fast path fired.
    decodable:
        Whether the master recovered the gradient at all.
    """

    duration: float
    worker_timings: tuple[WorkerTiming, ...]
    workers_used: tuple[int, ...]
    used_group: tuple[int, ...] | None
    decodable: bool

    @property
    def compute_times(self) -> np.ndarray:
        return np.array([t.compute_time for t in self.worker_timings])

    @property
    def completion_times(self) -> np.ndarray:
        return np.array([t.completion_time for t in self.worker_timings])


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


def decide_reference(
    decoder: Decoder, completion: Sequence[float]
) -> tuple[float, tuple[int, ...], tuple[int, ...] | None]:
    """One iteration's decode decision from its per-worker completion times.

    The master decodes from the earliest prefix of the finite-completion
    workers, ordered by ``(completion_time, worker_id)``, that can decode.
    Returns ``(duration, workers_used, used_group)``; an undecodable
    iteration is ``(inf, (), None)``.
    """
    finite = [w for w in range(len(completion)) if np.isfinite(completion[w])]
    order = sorted(finite, key=lambda w: (completion[w], w))
    prefix = earliest_decodable_prefix_reference(decoder, order)
    if prefix is None:
        return float("inf"), (), None
    result = decoder.decoding_vector(order[:prefix])
    assert result is not None
    return float(completion[order[prefix - 1]]), result.workers_used, result.used_group


def simulate_worker_timings_reference(
    cluster: ClusterSpec,
    workloads: Sequence[float],
    injector: StragglerInjector | None = None,
    iteration: int = 0,
    gradient_bytes: float = 0.0,
    network: CommunicationModel | None = None,
    rng: np.random.Generator | int | None = None,
) -> tuple[WorkerTiming, ...]:
    """Pre-PR per-worker timing loop (scalar RNG draws, per-worker comm).

    The injector draws first, then each worker's jitter, all from ``rng``:
    the v1 stream layout.  Stochastic network models are refused; the v1
    layout has no slot for network draws.
    """
    workloads = np.asarray(workloads, dtype=np.float64)
    if workloads.shape != (cluster.num_workers,):
        raise TimingError(
            f"expected {cluster.num_workers} workloads, got shape {workloads.shape}"
        )
    if np.any(workloads < 0):
        raise TimingError("workloads must be non-negative")
    injector = injector or NoStragglers()
    network = network or ZeroCommunication()
    if network.is_stochastic:
        raise TimingError(
            f"{type(network).__name__} samples per-message transfer times; "
            "the v1 stream layout has no slot for network draws"
        )
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
    completion = np.array([t.completion_time for t in timings])
    duration, workers_used, used_group = decide_reference(
        decoder or Decoder(strategy), completion
    )
    return IterationTiming(
        duration=duration,
        worker_timings=timings,
        workers_used=workers_used,
        used_group=used_group,
        decodable=bool(np.isfinite(duration)),
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
    """The v1 timing trace: one ``simulate_iteration_reference`` per step,
    on one timing generator seeded ``seed + TIMING_SEED_OFFSET``."""
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
    records = []
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
        records.append(
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
    return RunTrace(
        scheme=scheme,
        cluster_name=cluster.name,
        records=records,
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
    nan = float("nan")
    return RunTrace(
        scheme=scheme,
        cluster_name=cluster_name,
        records=[
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
        ],
        metadata=metadata,
    )


def coded_bsp_run_reference(
    protocol: CodedBSPProtocol,
    model: Model,
    partitioned: PartitionedDataset,
    cluster: ClusterSpec,
    config: TrainingConfig,
) -> RunTrace:
    """The v1 coded BSP loop: one timing draw, encode and decode per step.

    Two seed-offset streams: ``seed`` builds the coding matrix and samples
    the loss evaluation, ``seed + TIMING_SEED_OFFSET`` drives the timing,
    so schemes run with one seed face identical iteration conditions.
    """
    construction_rng = config.make_rng()
    timing_rng = config.make_rng(stream_offset=TIMING_SEED_OFFSET)
    strategy, optimizer, gradient_bytes, total_samples, metadata = protocol._prepare(
        model, partitioned, cluster, config, construction_rng
    )
    decoder = Decoder(strategy)

    records = []
    parameters = model.parameters()
    last_loss = float("nan")
    for iteration in range(config.num_iterations):
        timing = simulate_iteration_reference(
            strategy,
            cluster,
            samples_per_partition=partitioned.partition_size,
            decoder=decoder,
            injector=config.straggler_injector,
            iteration=iteration,
            gradient_bytes=gradient_bytes,
            network=config.network,
            rng=timing_rng,
        )
        if iteration % config.record_loss_every == 0:
            last_loss = evaluate_mean_loss(
                model, partitioned, config.loss_eval_samples, construction_rng
            )

        if not timing.decodable:
            # The master can never recover this iteration (e.g. naive
            # scheme with a failed worker): record the stall and abort.
            records.append(
                IterationRecord(
                    iteration=iteration,
                    duration=float("inf"),
                    train_loss=last_loss,
                    compute_times=tuple(timing.compute_times),
                    completion_times=tuple(timing.completion_times),
                    workers_used=(),
                    used_group=None,
                )
            )
            break

        # Real gradient computation for the workers the master used.
        needed_partitions = sorted(
            {
                partition
                for worker in timing.workers_used
                for partition in strategy.support(worker)
            }
        )
        partial_gradients = compute_partial_gradients(
            model, partitioned, needed_partitions
        )
        coded = {
            worker: encode_worker_gradient(strategy, worker, partial_gradients)
            for worker in timing.workers_used
        }
        aggregated = decoder.decode(coded)
        parameters = optimizer.step(parameters, aggregated / total_samples)
        model.set_parameters(parameters)

        records.append(
            IterationRecord(
                iteration=iteration,
                duration=timing.duration,
                train_loss=last_loss,
                compute_times=tuple(timing.compute_times),
                completion_times=tuple(timing.completion_times),
                workers_used=timing.workers_used,
                used_group=timing.used_group,
            )
        )
    return RunTrace(
        scheme=protocol.name,
        cluster_name=cluster.name,
        records=records,
        metadata=metadata,
    )


def ssp_run_per_event_reference(
    protocol: SSPProtocol,
    model: Model,
    partitioned: PartitionedDataset,
    cluster: ClusterSpec,
    config: TrainingConfig,
) -> RunTrace:
    """The v1 per-event SSP heap simulation.

    One RNG draw, one parameter snapshot and one heap operation per pushed
    update; the oracle of the batched schedule scan
    (:meth:`~repro.protocols.ssp.SSPProtocol.run_stacked`).  A stochastic
    network model draws its per-message transfer times from the config's
    ``network`` child stream, as the batched path does.
    """
    # Same stream split as the BSP protocols: the timing stream is
    # separate from everything else so runs with a shared seed are
    # comparable across protocols.  Mini-batch sampling gets its own
    # stream so enabling it does not perturb the timing draws.
    eval_rng = config.make_rng()
    timing_rng = config.make_rng(stream_offset=TIMING_SEED_OFFSET)
    batch_rng = config.make_rng(stream_offset=_BATCH_SEED_OFFSET)
    network = config.network
    network_rng: np.random.Generator | None = None
    if network.is_stochastic:
        network_rng = config.make_rng(component="network")
    num_workers = cluster.num_workers
    shards, shard_sizes = protocol._validate_and_shard(partitioned, cluster)
    shard_data = [protocol._shard_data(partitioned, shard) for shard in shards]
    gradient_bytes = model.num_parameters * config.bytes_per_parameter
    staleness = protocol.staleness
    batch_size = protocol.batch_size

    optimizer = config.optimizer_factory()
    parameters = model.parameters()
    records = []

    clocks = np.zeros(num_workers, dtype=np.int64)
    snapshots: list[np.ndarray] = [parameters.copy() for _ in range(num_workers)]
    snapshot_versions = np.zeros(num_workers, dtype=np.int64)
    blocked: set[int] = set()
    heap: list[tuple[float, int]] = []
    updates = 0

    def step_duration(worker: int, iteration: int) -> float:
        spec = cluster.workers[worker]
        compute = spec.compute_time(float(shard_sizes[worker]), rng=timing_rng)
        delay = float(
            config.straggler_injector.delays(iteration, num_workers, timing_rng)[
                worker
            ]
        )
        if network_rng is not None:
            comm = float(
                network.sample_transfer_times(gradient_bytes, (), network_rng)
            )
        else:
            comm = network.transfer_time(gradient_bytes)
        return compute + delay + comm

    def start_worker(worker: int, now: float) -> None:
        snapshots[worker] = parameters.copy()
        snapshot_versions[worker] = updates
        duration = step_duration(worker, int(clocks[worker]))
        if np.isfinite(duration):
            heapq.heappush(heap, (now + duration, worker))
        # Workers with infinite duration (failed) simply never report.

    for worker in range(num_workers):
        start_worker(worker, 0.0)

    total_updates_target = config.num_iterations * num_workers
    current_time = 0.0
    round_start_time = 0.0
    round_index = 0
    last_loss = evaluate_mean_loss(
        model, partitioned, config.loss_eval_samples, eval_rng
    )

    while updates < total_updates_target and heap:
        completion_time, worker = heapq.heappop(heap)
        current_time = completion_time

        # Master applies the (stale) update from this worker.
        model.set_parameters(snapshots[worker])
        features, labels = shard_data[worker]
        if batch_size is not None and batch_size < features.shape[0]:
            batch = batch_rng.choice(features.shape[0], size=batch_size, replace=False)
            features, labels = features[batch], labels[batch]
        _, shard_grad = model.loss_and_gradient(features, labels)
        mean_grad = shard_grad / max(features.shape[0], 1)
        if protocol.adaptive_learning_rate:
            # DynSSP-style damping: the older the snapshot this gradient
            # was computed against, the smaller the step it takes.
            gradient_staleness = int(updates - snapshot_versions[worker])
            mean_grad = mean_grad / (1.0 + gradient_staleness)
        parameters = optimizer.step(parameters, mean_grad)
        model.set_parameters(parameters)
        clocks[worker] += 1
        updates += 1

        # Unblock workers whose staleness condition is now satisfied.
        min_clock = clocks.min()
        for other in sorted(blocked):
            if clocks[other] - min_clock <= staleness:
                blocked.discard(other)
                start_worker(other, current_time)

        # Decide what this worker does next.
        if clocks[worker] - clocks.min() > staleness:
            blocked.add(worker)
        else:
            start_worker(worker, current_time)

        # Emit one trace record per round of m updates.  As in the BSP
        # protocols, the recorded loss is the one *before* this round's
        # updates (``last_loss`` was evaluated at the round boundary), so
        # curves from different protocols are directly comparable.
        if updates % num_workers == 0:
            records.append(
                IterationRecord(
                    iteration=round_index,
                    duration=current_time - round_start_time,
                    train_loss=last_loss,
                    compute_times=tuple(np.zeros(num_workers)),
                    completion_times=tuple(np.zeros(num_workers)),
                    workers_used=tuple(range(num_workers)),
                    used_group=None,
                )
            )
            round_start_time = current_time
            round_index += 1
            if round_index % config.record_loss_every == 0:
                last_loss = evaluate_mean_loss(
                    model, partitioned, config.loss_eval_samples, eval_rng
                )

    if updates < total_updates_target and not heap:
        # Every runnable worker is blocked (or failed): the run stalls.
        records.append(
            IterationRecord(
                iteration=round_index,
                duration=float("inf"),
                train_loss=last_loss,
                compute_times=tuple(np.zeros(num_workers)),
                completion_times=tuple(np.zeros(num_workers)),
                workers_used=(),
                used_group=None,
            )
        )
    return RunTrace(
        scheme=protocol.name,
        cluster_name=cluster.name,
        records=records,
        metadata=protocol._trace_metadata(partitioned, shard_sizes, config),
    )


def run_spec_reference(spec: RunSpec) -> RunResult:
    """The :class:`~repro.api.result.RunResult` of an ``rng_version=1`` spec.

    Reproduces what :meth:`Engine.run <repro.api.engine.Engine.run>`
    returned for v1 specs before the engine ran v2 only: the same cluster,
    injector, network, dataset and model builds, then the v1 timing trace
    (timing mode) or the v1 coded BSP / SSP loops (training mode), each on
    seed-offset streams of ``spec.seed``.  Third-party protocols have no v1
    layout and are refused, as are stochastic network models.
    """
    if spec.rng_version != 1:
        raise ValueError(
            f"run_spec_reference reproduces rng_version=1 runs, got "
            f"rng_version={spec.rng_version}; run it with Engine.run"
        )
    Engine().validate(spec.replace(rng_version=2))  # every name, as run did
    network = build_network(spec.network)
    if network.is_stochastic:
        raise TimingError(
            f"{type(network).__name__} samples per-message transfer times; "
            "the v1 stream layout has no slot for network draws"
        )
    cluster = _build_cluster_for(spec)
    if spec.mode == "timing":
        trace = measure_timing_trace_reference(
            spec.scheme,
            cluster,
            num_stragglers=spec.num_stragglers,
            total_samples=spec.resolved_total_samples(),
            num_iterations=spec.num_iterations,
            partitions_multiplier=spec.partitions_multiplier,
            num_partitions=spec.num_partitions,
            injector=build_injector(spec.straggler),
            network=network,
            gradient_bytes=spec.gradient_bytes,
            seed=spec.seed,
        )
        return RunResult.from_trace(spec, trace)

    learning_rate = spec.learning_rate
    config = TrainingConfig(
        num_iterations=spec.num_iterations,
        num_stragglers=spec.num_stragglers,
        num_partitions=spec.num_partitions,
        partitions_multiplier=spec.partitions_multiplier,
        optimizer_factory=lambda: SGD(learning_rate=learning_rate),
        straggler_injector=build_injector(spec.straggler),
        network=network,
        seed=spec.seed,
        record_loss_every=spec.record_loss_every,
        loss_eval_samples=spec.loss_eval_samples,
    )
    protocol = make_protocol(
        spec.scheme,
        ssp_staleness=spec.ssp_staleness,
        ssp_batch_size=spec.ssp_batch_size,
    )
    dataset = _cached_dataset(spec.workload, spec.total_samples, spec.seed or 0)
    partitioned = _partition_for_scheme(spec.scheme, dataset, cluster, config)
    model = get_workload(spec.workload).make_model(dataset, seed=spec.seed or 0)
    if isinstance(protocol, SSPProtocol):
        trace = ssp_run_per_event_reference(
            protocol, model, partitioned, cluster, config
        )
    elif isinstance(protocol, CodedBSPProtocol):
        trace = coded_bsp_run_reference(protocol, model, partitioned, cluster, config)
    else:
        raise ValueError(
            f"protocol {spec.scheme!r} has no rng_version=1 layout; only the "
            "builtin coded BSP and SSP-family protocols do"
        )
    return RunResult.from_trace(spec, trace)
