"""Stale Synchronous Parallel (SSP) and fully asynchronous baselines.

The paper's Fig. 4 compares its coded BSP schemes against SSP (Ho et al.,
2013), the classic approach of *avoiding* stragglers by letting workers run
ahead of each other up to a staleness bound.  In a heterogeneous cluster the
paper observes that (a) the staleness threshold is hit almost every step, so
the synchronisation overhead approaches BSP's, and (b) fast workers dominate
the updates with stale gradients, hurting the convergence rate.

This module reproduces that behaviour mechanistically with an event-driven
simulation:

* the dataset's partitions are divided uniformly across workers (SSP has no
  notion of coded redundancy);
* each worker repeatedly pulls the parameters, computes the gradient of its
  shard against that (possibly stale) snapshot, and pushes an update;
* a worker whose local clock is more than ``staleness`` steps ahead of the
  slowest worker blocks until the slowest catches up;
* the master applies updates immediately as they arrive.

``staleness=inf`` gives the fully asynchronous (TAP-style) baseline.

One :class:`~repro.simulation.trace.RunTrace` record is emitted per *round*
(= ``num_workers`` pushed updates), so traces are comparable with the BSP
protocols' per-iteration records.

The simulation is batched: all step durations are pre-drawn in
whole-matrix calls
(:meth:`~repro.simulation.cluster.ClusterSpec.compute_times_batch`,
:meth:`~repro.simulation.stragglers.StragglerInjector.delays_batch`, and
for stochastic networks the batched
:meth:`~repro.simulation.network.CommunicationModel.sample_transfer_times`
on the dedicated ``network`` child stream), and the event dynamics are
resolved **without a heap**: with durations fixed, a worker's step-``c``
finish time obeys the recurrence ::

    F[w, c] = max(F[w, c-1], M[c - s - 1]) + D[c, w],   M[j] = max_w F[w, j]

(the ``M`` gate is the staleness barrier — "every worker has completed
step ``c - s``"; ``staleness=inf`` drops it, so the Async baseline is the
no-blocking special case where ``F`` is a plain column cumsum).  A numpy
scan over per-worker clocks evaluates the recurrence chunk by chunk, the
global update order is one ``lexsort`` over the finite finish times, and
the snapshot each update was computed against falls out of the same rank
arithmetic.  Only the real gradient replay — inherently sequential, one
tiny model evaluation per update — stays in Python, and the trace is
emitted as whole arrays through
:meth:`~repro.simulation.trace.RunTrace.from_arrays`.  The historical
per-event heap loop (one RNG draw, one parameter snapshot and one heap
operation per pushed update) survives only as the oracle in
:mod:`repro._reference`; with the same step durations both produce the
same schedule.
"""

from __future__ import annotations

import math
import time
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..learning.models.base import Model, generic_kernels_forced
from ..learning.partition import PartitionedDataset
from ..simulation.cluster import ClusterSpec
from ..simulation.trace import RaggedColumn, RunTrace
from ..simulation.vectorized import TimingTraceArrays
from .base import ProtocolError, TrainingConfig, TrainingProtocol, evaluate_mean_loss

__all__ = ["SSPProtocol", "AsyncProtocol", "replay_clock"]


class _ReplayClock:
    """Wall-clock accumulator for the gradient-replay stage.

    :meth:`SSPProtocol._run_batched` adds the time spent inside
    :meth:`SSPProtocol._block_gradients` (whichever implementation is
    active — the version-grouped stacked path or the per-pair reference),
    separate from the engine costs both share (the sequential optimiser
    walk, batch resolution, loss evaluation).  Its one reader is the
    paper-workload benchmark: ``bench/run.py`` reports it per pass as
    ``protocols.ssp.replay_s``.  Reset ``seconds`` to zero before a
    measured region and read it afterwards.
    """

    __slots__ = ("seconds",)

    def __init__(self) -> None:
        self.seconds = 0.0


#: Process-wide replay-stage clock (see :class:`_ReplayClock`).
replay_clock = _ReplayClock()


@dataclass(frozen=True)
class _EventSchedule:
    """Resolved update schedule of a batched SSP run.

    One entry per applied update, in master processing order (time, then
    worker index — the heap's tie-break).  ``versions[i]`` is the number of
    master updates the snapshot of update ``i`` was computed against
    (``i - versions[i]`` is the DynSSP gradient staleness).  ``stalled`` is
    set when the run can never reach its update target (every runnable
    worker blocked or failed).
    """

    times: np.ndarray
    workers: np.ndarray
    versions: np.ndarray
    stalled: bool

    @property
    def num_events(self) -> int:
        return int(self.times.shape[0])


class SSPProtocol(TrainingProtocol):
    """Stale Synchronous Parallel training.

    Parameters
    ----------
    staleness:
        Maximum number of steps any worker may run ahead of the slowest
        worker.  ``0`` degenerates to BSP-like lockstep, ``numpy.inf`` to
        fully asynchronous training.
    batch_size:
        When given, each worker step computes its gradient on a random
        mini-batch of this many samples from its shard (the way SSP
        parameter servers are actually run) instead of the full shard.  The
        coded BSP schemes always use exact full-batch partial gradients, as
        the paper's framework requires, so this knob controls how much
        gradient noise the SSP baseline carries.
    adaptive_learning_rate:
        Enable DynSSP-style staleness-adaptive step sizes (Jiang et al.,
        SIGMOD 2017 — reference [6] of the paper): an update computed from a
        snapshot that is ``d`` master updates old is scaled by
        ``1 / (1 + d)``, damping the damage stale gradients do.  The paper
        cites DynSSP as the strongest asynchronous competitor; this flag
        reproduces that variant.
    """

    def __init__(
        self,
        staleness: float = 3,
        batch_size: int | None = None,
        adaptive_learning_rate: bool = False,
    ) -> None:
        if staleness < 0:
            raise ProtocolError("staleness must be non-negative")
        if batch_size is not None and batch_size <= 0:
            raise ProtocolError("batch_size must be positive when given")
        self.staleness = float(staleness)
        self.batch_size = batch_size
        self.adaptive_learning_rate = bool(adaptive_learning_rate)
        if adaptive_learning_rate:
            self.name = "dyn_ssp"
        else:
            self.name = "ssp" if np.isfinite(staleness) else "async"

    # ------------------------------------------------------------------
    def _assign_shards(
        self, partitioned: PartitionedDataset, num_workers: int
    ) -> list[list[int]]:
        """Round-robin the partitions over workers (uniform division)."""
        shards: list[list[int]] = [[] for _ in range(num_workers)]
        for partition in range(partitioned.num_partitions):
            shards[partition % num_workers].append(partition)
        return shards

    def _shard_data(
        self, partitioned: PartitionedDataset, shard: list[int]
    ) -> tuple[np.ndarray, np.ndarray]:
        indices = np.concatenate(
            [partitioned.partitions[p].sample_indices for p in shard]
        )
        dataset = partitioned.dataset
        return dataset.features[indices], dataset.labels[indices]

    def _validate_and_shard(
        self, partitioned: PartitionedDataset, cluster: ClusterSpec
    ) -> tuple[list[list[int]], np.ndarray]:
        """Check the partition/worker contract; return each worker's
        partitions and sample count (the shard data is built by the caller,
        so a stack of runs never holds every run's copy at once)."""
        num_workers = cluster.num_workers
        if partitioned.num_partitions < num_workers:
            raise ProtocolError(
                "SSP requires at least one partition per worker: "
                f"k={partitioned.num_partitions} < m={num_workers}"
            )
        shards = self._assign_shards(partitioned, num_workers)
        shard_sizes = np.array(
            [sum(partitioned.partitions[p].size for p in shard) for shard in shards]
        )
        return shards, shard_sizes

    def _trace_metadata(
        self, partitioned: PartitionedDataset, shard_sizes: np.ndarray, config: TrainingConfig
    ) -> dict:
        return {
            "protocol": "ssp",
            "staleness": self.staleness,
            "batch_size": self.batch_size,
            "adaptive_learning_rate": self.adaptive_learning_rate,
            "num_partitions": partitioned.num_partitions,
            "shard_sizes": shard_sizes.tolist(),
            "straggler_injector": config.straggler_injector.describe(),
            "network": config.network.describe(),
        }

    # ------------------------------------------------------------------
    def run(
        self,
        model: Model,
        partitioned: PartitionedDataset,
        cluster: ClusterSpec,
        config: TrainingConfig,
    ) -> RunTrace:
        return self.run_stacked([model], [partitioned], [cluster], [config])[0]

    # ------------------------------------------------------------------
    def run_stacked(
        self,
        models: Sequence[Model],
        partitioneds: Sequence[PartitionedDataset],
        clusters: Sequence[ClusterSpec],
        configs: Sequence[TrainingConfig],
    ) -> list[RunTrace]:
        """Run many independent trainings with one stacked scan.

        This is the one SSP path: :meth:`run` is a 1-run stack.  The
        expensive part of the batched path — the heap-free schedule scan —
        is evaluated once over a ``(runs, workers)`` clock matrix instead of
        once per run, so a sweep of ``R`` seeds costs one numpy scan per
        chunk rather than ``R``.  Each run draws from its own config's
        per-component streams, so every returned trace is bit-identical to
        ``run(models[r], ...)``.  All runs must share the worker count and
        iteration count (the stack shape); the sequential gradient replay
        still happens per run.
        """
        num_runs = len(models)
        if not (len(partitioneds) == len(clusters) == len(configs) == num_runs):
            raise ProtocolError(
                "run_stacked inputs must all have the same length; got "
                f"{num_runs} models, {len(partitioneds)} datasets, "
                f"{len(clusters)} clusters, {len(configs)} configs"
            )
        if num_runs == 0:
            raise ProtocolError("run_stacked needs at least one run")
        assignments: list[tuple[list[list[int]], np.ndarray]] = []
        gradient_bytes_list: list[float] = []
        injector_rngs: list[np.random.Generator] = []
        jitter_rngs: list[np.random.Generator] = []
        network_rngs: list[np.random.Generator | None] = []
        for model, partitioned, cluster, config in zip(
            models, partitioneds, clusters, configs, strict=True
        ):
            assignments.append(self._validate_and_shard(partitioned, cluster))
            gradient_bytes_list.append(
                model.num_parameters * config.bytes_per_parameter
            )
            injector_rngs.append(config.make_rng(component="injector"))
            jitter_rngs.append(config.make_rng(component="jitter"))
            network_rngs.append(
                config.make_rng(component="network")
                if config.network.is_stochastic
                else None
            )
        schedules = self._simulate_schedules_stacked(
            clusters,
            [shard_sizes for _, shard_sizes in assignments],
            gradient_bytes_list,
            configs,
            injector_rngs,
            jitter_rngs,
            network_rngs,
        )
        return [
            self._run_batched(
                models[run],
                partitioneds[run],
                clusters[run],
                configs[run],
                schedules[run],
                *assignments[run],
            )
            for run in range(num_runs)
        ]

    # ------------------------------------------------------------------
    # the batched path
    # ------------------------------------------------------------------
    def _draw_step_durations(
        self,
        cluster: ClusterSpec,
        shard_sizes: np.ndarray,
        gradient_bytes: float,
        config: TrainingConfig,
        start: int,
        count: int,
        injector_rng: np.random.Generator,
        jitter_rng: np.random.Generator,
        network_rng: np.random.Generator | None,
    ) -> np.ndarray:
        """Durations of steps ``start .. start + count`` for every worker,
        shape ``(count, m)`` — compute, injected delay and communication all
        drawn in whole-matrix calls from their per-component streams."""
        num_workers = cluster.num_workers
        delays = np.asarray(
            config.straggler_injector.delays_batch(
                start, count, num_workers, injector_rng
            ),
            dtype=np.float64,
        )
        if delays.shape != (count, num_workers):
            raise ProtocolError(
                "straggler injector returned the wrong batch shape: "
                f"{delays.shape} instead of {(count, num_workers)}"
            )
        durations = cluster.compute_times_batch(shard_sizes, count, rng=jitter_rng)
        durations += delays
        if network_rng is not None:
            durations += config.network.sample_transfer_times(
                gradient_bytes, (count, num_workers), network_rng
            )
        else:
            durations += config.network.transfer_time(gradient_bytes)
        return durations

    def _simulate_schedules_stacked(
        self,
        clusters: Sequence[ClusterSpec],
        shard_sizes: Sequence[np.ndarray],
        gradient_bytes: Sequence[float],
        configs: Sequence[TrainingConfig],
        injector_rngs: Sequence[np.random.Generator],
        jitter_rngs: Sequence[np.random.Generator],
        network_rngs: Sequence[np.random.Generator | None],
    ) -> list[_EventSchedule]:
        """Resolve many independent runs' event dynamics in one stacked scan.

        Evaluates the finish-time recurrence (module docstring) with a
        numpy scan over a ``(runs, workers)`` clock matrix, chunk by chunk:
        the chunk grows until every run's first ``target`` events are
        provably complete — a worker still running past a run's current
        horizon might owe earlier events, so that run keeps scanning while
        any of its live workers' last computed finish precedes the
        tentative ``target``-th event time.  ``staleness=inf`` (Async)
        needs no gate, so each chunk is one ``cumsum`` along the clock
        axis.

        The chunk sequence depends only on the shared shape constants, so a
        run active at scan round ``t`` draws exactly the blocks a 1-run
        scan would have drawn from the same streams — every returned
        schedule is bit-identical to the 1-run scan of that run alone.  Runs
        that settle early are finalized (one runs-leading lexsort resolves
        every active run's event order at once) and stop consuming their
        streams, again exactly like the 1-run scan.
        """
        num_runs = len(clusters)
        num_workers = clusters[0].num_workers
        num_iterations = configs[0].num_iterations
        for index in range(num_runs):
            if clusters[index].num_workers != num_workers:
                raise ProtocolError(
                    f"stacked run {index} has {clusters[index].num_workers} "
                    f"workers; the stack is shaped for {num_workers}"
                )
            if configs[index].num_iterations != num_iterations:
                raise ProtocolError(
                    f"stacked run {index} wants {configs[index].num_iterations} "
                    f"iterations; the stack is shaped for {num_iterations}"
                )
        target = num_iterations * num_workers
        bound = None
        if math.isfinite(self.staleness):
            # Integer clocks make the effective staleness bound floor(s).
            bound = int(math.floor(self.staleness))
        chunk = min(max(num_iterations + (bound or 0) + 2, 8), target)
        finish_blocks: list[np.ndarray] = []
        barrier: list[np.ndarray] = []  # M[c] = max_w F[r, w, c], shape (runs,)
        previous = np.zeros((num_runs, num_workers))
        schedules: list[_EventSchedule | None] = [None] * num_runs
        done = np.zeros(num_runs, dtype=bool)
        total_steps = 0
        while True:
            # Settled runs stop drawing (their streams must end exactly
            # where the standalone scan left them); their rows scan zeros.
            durations = np.zeros((num_runs, chunk, num_workers))
            for run in range(num_runs):
                if done[run]:
                    continue
                durations[run] = self._draw_step_durations(
                    clusters[run], shard_sizes[run], gradient_bytes[run],
                    configs[run], total_steps, chunk,
                    injector_rngs[run], jitter_rngs[run], network_rngs[run],
                )
            finish = np.empty((num_runs, chunk, num_workers))
            if bound is None:
                # Async: no blocking — finishes are per-worker prefix sums.
                np.cumsum(durations, axis=1, out=finish)
                finish += previous[:, None, :]
                previous = finish[:, -1, :].copy()
            else:
                for local in range(chunk):
                    step = total_steps + local
                    gate_index = step - bound - 1
                    if gate_index >= 0:
                        row = np.maximum(previous, barrier[gate_index][:, None])
                    else:
                        row = previous
                    row = row + durations[:, local, :]
                    finish[:, local, :] = row
                    barrier.append(row.max(axis=1))
                    previous = row
            finish_blocks.append(finish)
            total_steps += chunk

            live = np.isfinite(previous)
            all_finish = (
                finish_blocks[0]
                if len(finish_blocks) == 1
                else np.concatenate(finish_blocks, axis=1)
            )
            active = np.flatnonzero(~done)
            flat_active = all_finish[active].reshape(active.size, -1)
            finite_mask = np.isfinite(flat_active)
            counts = finite_mask.sum(axis=1)
            run_rows, flat_index = np.nonzero(finite_mask)
            times_all = flat_active[run_rows, flat_index]
            clocks_all, workers_all = np.divmod(flat_index, num_workers)
            # The runs-leading lexsort: one stable sort resolves every
            # active run's processing order at once; within a run the keys
            # are (time, then worker index — the heap's tie-break), exactly
            # the standalone ``lexsort((workers, times))``.
            order_all = np.lexsort((workers_all, times_all, run_rows))
            offsets = np.concatenate(([0], np.cumsum(counts)))
            for position, run in enumerate(active):
                lo, hi = int(offsets[position]), int(offsets[position + 1])
                order = order_all[lo:hi] - lo
                if counts[position] >= target:
                    times = times_all[lo:hi]
                    horizon = times[order[target - 1]]
                    # Live workers whose last computed finish is already
                    # past the tentative target time cannot owe earlier
                    # events (durations are strictly positive).
                    if np.any(live[run] & (previous[run] < horizon)):
                        continue  # horizon not settled: extend the scan
                elif live[run].any():
                    continue  # still producing events: extend the scan
                # Complete (or stalled with no runnable worker): finalize.
                schedules[run] = self._finalize_schedule(
                    all_finish[run],
                    flat_index[lo:hi],
                    times_all[lo:hi],
                    clocks_all[lo:hi],
                    workers_all[lo:hi],
                    order,
                    target,
                    bound,
                )
                done[run] = True
            if done.all():
                break
            # A single live worker produces one event per scan column, so
            # `target` columns always satisfy the break condition; the
            # doubling never needs to scan past that.
            chunk = max(1, min(chunk * 2, target - total_steps))
        return [schedule for schedule in schedules if schedule is not None]

    @staticmethod
    def _finalize_schedule(
        all_finish: np.ndarray,
        finite_index: np.ndarray,
        times: np.ndarray,
        clocks: np.ndarray,
        workers: np.ndarray,
        order: np.ndarray,
        target: int,
        bound: int | None,
    ) -> _EventSchedule:
        """Turn one run's settled scan state into its event schedule.

        ``order`` is the run-local lexsorted processing order over its
        finite events; the snapshot an update was computed against is 1 +
        the rank of the event that (re)started its step — the later of the
        worker's own previous completion and the staleness barrier it
        waited on — which falls out of pure rank arithmetic.
        """
        selected = order[: min(target, order.size)]
        event_times = times[selected]
        event_workers = workers[selected]
        event_clocks = clocks[selected]
        ranks_flat = np.full(all_finish.size, -1, dtype=np.int64)
        ranks_flat[finite_index[order]] = np.arange(order.size)
        ranks = ranks_flat.reshape(all_finish.shape)
        previous_rank = np.where(
            event_clocks > 0,
            ranks[np.maximum(event_clocks - 1, 0), event_workers],
            -1,
        )
        if bound is not None:
            row_max_rank = ranks.max(axis=1)
            gate_index = event_clocks - bound - 1
            gate_rank = np.where(
                gate_index >= 0, row_max_rank[np.maximum(gate_index, 0)], -1
            )
            trigger_rank = np.maximum(previous_rank, gate_rank)
        else:
            trigger_rank = previous_rank
        versions = np.where(trigger_rank >= 0, trigger_rank + 1, 0)
        return _EventSchedule(
            times=event_times,
            workers=event_workers,
            versions=versions,
            stalled=selected.size < target,
        )

    def _resolve_event_batches(
        self,
        schedule: _EventSchedule,
        shard_data: list[tuple[np.ndarray, np.ndarray]],
        shard_sizes: np.ndarray,
        batch_rng: np.random.Generator,
    ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Pre-resolve every update's sample batch, grouped per worker.

        Full-shard updates share their worker's shard arrays (no copies).
        With ``batch_size`` set, each worker's mini-batches come from one
        uniform matrix whose row-wise ``argpartition`` yields uniformly
        random ``batch_size``-subsets of its shard (the ``ArtificialDelay``
        trick) gathered in a single fancy index — same distribution as the
        per-event ``choice(replace=False)`` calls, drawn in one batch.
        """
        batch_size = self.batch_size
        num_events = schedule.num_events
        features_per_event: list[np.ndarray] = [None] * num_events  # type: ignore[list-item]
        labels_per_event: list[np.ndarray] = [None] * num_events  # type: ignore[list-item]
        workers = schedule.workers
        for worker in range(shard_sizes.shape[0]):
            positions = np.flatnonzero(workers == worker)
            if positions.size == 0:
                continue
            features, labels = shard_data[worker]
            shard_n = int(shard_sizes[worker])
            if batch_size is not None and batch_size < shard_n:
                uniforms = batch_rng.random((positions.size, shard_n))
                subsets = np.argpartition(uniforms, batch_size - 1, axis=1)[
                    :, :batch_size
                ]
                gathered_features = features[subsets]  # (count, bs, ...)
                gathered_labels = labels[subsets]
                for row, position in enumerate(positions):
                    features_per_event[position] = gathered_features[row]
                    labels_per_event[position] = gathered_labels[row]
            else:
                for position in positions:
                    features_per_event[position] = features
                    labels_per_event[position] = labels
        return features_per_event, labels_per_event

    #: Per-call cap on one stacked gradient evaluation's feature bytes;
    #: blocks whose batches exceed it are evaluated in chunks.
    _STACK_BYTES_LIMIT = 32 << 20

    #: Parameter-vector size (bytes) above which the version-grouped replay
    #: beats the per-pair parameter cubes.  The cube path pays one full
    #: parameter-vector copy per update but evaluates a whole block in a
    #: handful of broadcast kernel calls; the grouped path copies nothing
    #: but dispatches one kernel call per (version, shape) group, and at
    #: fig4 scale most groups hold only a few updates.  Small models
    #: (softmax/CNN, ~0.2 MiB of parameters) are dominated by the dispatch
    #: overhead, CIFAR-scale MLPs (1.5 MiB+) by the copies.
    _GROUPED_PARAM_BYTES_MIN = 1 << 20

    def _block_gradients(
        self,
        model: Model,
        event_features: list[np.ndarray],
        event_labels: list[np.ndarray],
        snapshots: dict[int, np.ndarray],
        version_readers: np.ndarray,
        version_list: list[int],
        start: int,
        stop: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Shard gradients of updates ``[start, stop)``, in group order.

        Dispatches between two bit-identical replay strategies on the
        model's parameter-vector size (see :data:`_GROUPED_PARAM_BYTES_MIN`):
        small models take the per-pair parameter-cube path
        (:meth:`_block_gradients_cubes`, a handful of broadcast
        ``multi_loss_and_gradient`` calls per block), large models the
        **version-grouped** path below.  ``force_generic_kernels`` also
        routes through the cube path, where it degrades to the per-pair
        ``set_parameters``/``loss_and_gradient`` loop — the property-test
        baseline.

        The grouped path buckets the block's updates by ``(snapshot
        version, batch shape)`` (mixed shapes only occur when shards divide
        unevenly) and evaluates each group through one shared-parameter
        :meth:`~repro.learning.models.base.Model.batch_loss_and_gradient`
        call at that version's snapshot — bit-identical to per-update
        ``loss_and_gradient`` at each update's own snapshot.  Grouping by
        version means the parameter vector is adopted zero-copy via
        ``set_parameters`` instead of stacked into a per-pair
        ``(e, num_parameters)`` cube: the cube path copies the full
        parameter vector once per update (hundreds of MB per run at
        CIFAR-MLP scale), which dominated the replay.  Snapshots are
        reference-counted and freed once their last reader has been
        gathered (the model may keep the last-adopted one alive through
        its views; callers re-``set_parameters`` before every other use).

        Returns ``(gradients, rows)``: each group's kernel writes its
        results directly into consecutive rows of ``gradients`` (no
        per-update copy back into schedule order), and ``rows[i - start]``
        is the row holding update ``i``'s gradient.

        Every builtin model vectorizes the batch kernel through its
        stacked kernel, so each group is one matmul pass.  Third-party
        models without an override fall back to the generic per-slice
        loop at the group's snapshot.
        """
        if generic_kernels_forced() or (
            model.num_parameters * 8 < self._GROUPED_PARAM_BYTES_MIN
        ):
            return self._block_gradients_cubes(
                model,
                event_features,
                event_labels,
                snapshots,
                version_readers,
                version_list,
                start,
                stop,
            )
        count = stop - start
        gradients = np.empty((count, model.num_parameters))
        rows = np.empty(count, dtype=np.intp)
        groups: dict[tuple[int, tuple[int, ...]], list[int]] = {}
        for index in range(start, stop):
            key = (version_list[index], event_features[index].shape)
            groups.setdefault(key, []).append(index)
        position = 0
        for (version, _), members in groups.items():
            model.set_parameters(snapshots[version])
            bytes_per_event = max(int(event_features[members[0]].nbytes), 1)
            chunk = max(1, self._STACK_BYTES_LIMIT // bytes_per_event)
            for begin in range(0, len(members), chunk):
                part = members[begin : begin + chunk]
                block = gradients[position : position + len(part)]
                model.batch_loss_and_gradient(
                    np.stack([event_features[i] for i in part]),
                    np.stack([event_labels[i] for i in part]),
                    out=block,
                )
                rows[[i - start for i in part]] = np.arange(
                    position, position + len(part)
                )
                position += len(part)
        block_versions = np.asarray(version_list[start:stop], dtype=np.intp)
        np.subtract.at(version_readers, block_versions, 1)
        for version in sorted(set(version_list[start:stop])):
            if not version_readers[version]:
                del snapshots[version]
        return gradients, rows

    def _block_gradients_cubes(
        self,
        model: Model,
        event_features: list[np.ndarray],
        event_labels: list[np.ndarray],
        snapshots: dict[int, np.ndarray],
        version_readers: np.ndarray,
        version_list: list[int],
        start: int,
        stop: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-pair ``(parameters, batch)`` cube replay.

        Stacks each update's snapshot into an ``(e, num_parameters)``
        parameter cube (one full parameter-vector copy per update) and
        hands whole blocks to
        :meth:`~repro.learning.models.base.Model.multi_loss_and_gradient`.
        This was the only replay before the version-grouped restructure
        above and remains the *live* fast path for small-parameter models
        (the copies are cheap and a block collapses into a few broadcast
        kernel calls); with :func:`force_generic_kernels` active the multi
        kernel degrades to the generic per-pair ``set_parameters`` /
        ``loss_and_gradient`` loop, which pins the *whole* replay to the
        per-pair reference semantics — the property-test baseline.
        ``TestReplayDispatchEquivalence`` asserts its results match
        :meth:`_block_gradients` exactly.
        """
        count = stop - start
        gradients = np.empty((count, model.num_parameters))
        parameter_bytes = model.num_parameters * gradients.itemsize
        position = 0
        while position < count:
            shape = event_features[start + position].shape
            end = position + 1
            while end < count and event_features[start + end].shape == shape:
                end += 1
            bytes_per_event = (
                max(int(event_features[start + position].nbytes), 1)
                + parameter_bytes
            )
            chunk = max(1, self._STACK_BYTES_LIMIT // bytes_per_event)
            for begin in range(position, end, chunk):
                part = list(range(begin, min(begin + chunk, end)))
                _, grads = model.multi_loss_and_gradient(
                    np.stack([event_features[start + i] for i in part]),
                    np.stack([event_labels[start + i] for i in part]),
                    np.stack(
                        [snapshots[version_list[start + i]] for i in part]
                    ),
                )
                gradients[begin : begin + len(part)] = grads
            position = end
        block_versions = np.asarray(version_list[start:stop], dtype=np.intp)
        np.subtract.at(version_readers, block_versions, 1)
        for version in sorted(set(version_list[start:stop])):
            if not version_readers[version]:
                del snapshots[version]
        return gradients, np.arange(count, dtype=np.intp)

    def _run_batched(
        self,
        model: Model,
        partitioned: PartitionedDataset,
        cluster: ClusterSpec,
        config: TrainingConfig,
        schedule: _EventSchedule,
        shards: list[list[int]],
        shard_sizes: np.ndarray,
    ) -> RunTrace:
        """The replay of one run of :meth:`run_stacked`: pre-drawn
        mini-batches, in-place optimiser updates and a columnar trace over
        the ``schedule`` the stacked scan resolved (whole-matrix timing
        draws, heap-free).  Only the inherently sequential gradient replay
        remains per-update Python.  The timing streams were consumed by the
        scan and are not touched here.
        """
        eval_rng = config.make_rng()
        batch_rng = config.make_rng(stream_offset=208_003)
        num_workers = cluster.num_workers
        metadata = self._trace_metadata(partitioned, shard_sizes, config)
        metadata["rng_version"] = 2

        shard_data = [self._shard_data(partitioned, shard) for shard in shards]
        event_features, event_labels = self._resolve_event_batches(
            schedule, shard_data, shard_sizes, batch_rng
        )

        optimizer = config.optimizer_factory()
        parameters = model.parameters()
        num_events = schedule.num_events
        versions = schedule.versions
        # Snapshots are kept only for versions some later update reads, and
        # freed as soon as their last reader has consumed them.
        version_readers = np.bincount(versions, minlength=num_events + 1)
        snapshots: dict[int, np.ndarray] = {}
        if version_readers[0]:
            snapshots[0] = parameters.copy()
        last_loss = evaluate_mean_loss(
            model, partitioned, config.loss_eval_samples, eval_rng
        )

        num_rounds = num_events // num_workers
        round_durations = np.empty(num_rounds)
        round_losses = np.empty(num_rounds)
        round_start_time = 0.0
        round_index = 0
        event_times = schedule.times
        adaptive = self.adaptive_learning_rate
        version_list = versions.tolist()
        block_start = 0
        while block_start < num_events:
            # Greedy gradient block: updates [block_start, block_end) whose
            # snapshots are all already decided (versions <= block_start), so
            # their gradients evaluate in a few version-grouped stacked
            # kernel calls.  SSP's snapshot lag is ~m updates, so blocks are
            # ~one round long — the sequential part below is optimiser-only.
            block_end = block_start
            while block_end < num_events and version_list[block_end] <= block_start:
                block_end += 1
            # The replay clock feeds bench/run.py's protocols.ssp.replay_s;
            # it never reaches results, traces or fingerprints.
            replay_start = time.perf_counter()  # repro-lint: disable=RNG002
            gradients, gradient_rows = self._block_gradients(
                model,
                event_features,
                event_labels,
                snapshots,
                version_readers,
                version_list,
                block_start,
                block_end,
            )
            replay_end = time.perf_counter()  # repro-lint: disable=RNG002
            replay_clock.seconds += replay_end - replay_start
            for index in range(block_start, block_end):
                mean_grad = gradients[gradient_rows[index - block_start]]
                mean_grad /= max(event_labels[index].shape[0], 1)
                if adaptive:
                    # DynSSP-style damping, from the schedule's rank
                    # arithmetic: this update is `index - versions[index]`
                    # master updates stale.
                    mean_grad /= 1.0 + (index - version_list[index])
                parameters = optimizer.step_inplace(parameters, mean_grad)
                applied = index + 1
                if version_readers[applied]:
                    snapshots[applied] = parameters.copy()

                if applied % num_workers == 0:
                    current_time = float(event_times[index])
                    round_durations[round_index] = current_time - round_start_time
                    round_losses[round_index] = last_loss
                    round_start_time = current_time
                    round_index += 1
                    if round_index % config.record_loss_every == 0:
                        model.set_parameters(parameters)
                        last_loss = evaluate_mean_loss(
                            model, partitioned, config.loss_eval_samples, eval_rng
                        )
            block_start = block_end
        model.set_parameters(parameters)

        durations = round_durations
        losses = round_losses
        # Code 0 is a round that used every worker, code 1 the stall; no
        # round decodes through a group.
        codes = np.zeros(num_rounds, dtype=np.intp)
        if schedule.stalled:
            # Every runnable worker is blocked (or failed): the run stalls.
            durations = np.append(durations, np.inf)
            losses = np.append(losses, last_loss)
            codes = np.append(codes, 1)
        workers = RaggedColumn.from_distinct_rows([tuple(range(num_workers)), ()])
        groups = RaggedColumn.from_distinct_rows([None, None], nullable=True)
        arrays = TimingTraceArrays(
            durations=durations,
            compute_times=np.zeros((durations.shape[0], num_workers)),
            completion_times=np.zeros((durations.shape[0], num_workers)),
            workers_used=workers.take(codes),
            used_groups=groups.take(codes),
        )
        return RunTrace.from_arrays(
            scheme=self.name,
            cluster_name=cluster.name,
            arrays=arrays,
            train_losses=losses,
            metadata=metadata,
        )


class AsyncProtocol(SSPProtocol):
    """Fully asynchronous (TAP-style) training: SSP with unbounded staleness."""

    def __init__(self, batch_size: int | None = None) -> None:
        super().__init__(staleness=float("inf"), batch_size=batch_size)
