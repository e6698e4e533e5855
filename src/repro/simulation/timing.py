"""Iteration timing engine.

Given a coding strategy, a cluster and a straggler injector, this module
computes *when* each worker would deliver its coded gradient and when the
master can decode — the quantities behind every figure in the paper's
evaluation.  The engine is deliberately separate from the numpy training
loop: protocols first ask the engine for the iteration's timing, then run
the corresponding real gradient computation, so simulated wall-clock time
and real learning progress stay consistent.

Timing model per worker ``i``::

    compute_i = (assigned samples_i / true_throughput_i) * jitter
    total_i   = compute_i + injected_delay_i + comm_time_i

The master finishes the iteration at the earliest time ``t`` such that the
workers that have reported by ``t`` can decode the aggregated gradient
(:meth:`repro.coding.Decoder.earliest_decodable_prefix`).  ``inf`` means the
iteration can never complete (e.g. the naive scheme with a failed worker).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..coding.decoding import Decoder
from ..coding.types import CodingStrategy
from .cluster import ClusterSpec
from .network import CommunicationModel, ZeroCommunication
from .stragglers import NoStragglers, StragglerInjector

__all__ = [
    "WorkerTiming",
    "IterationTiming",
    "worker_workloads",
    "simulate_worker_timings",
    "simulate_worker_timing_arrays",
    "simulate_iteration",
    "decodable_completion_order",
]


class TimingError(ValueError):
    """Raised on inconsistent timing inputs."""


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

    def __post_init__(self) -> None:
        # The arrays are cached (built once, frozen) instead of being rebuilt
        # on every access; metrics code reads them repeatedly per iteration.
        compute = np.array([t.compute_time for t in self.worker_timings])
        completion = np.array([t.completion_time for t in self.worker_timings])
        compute.flags.writeable = False
        completion.flags.writeable = False
        object.__setattr__(self, "_compute_times", compute)
        object.__setattr__(self, "_completion_times", completion)

    @property
    def compute_times(self) -> np.ndarray:
        return self._compute_times

    @property
    def completion_times(self) -> np.ndarray:
        return self._completion_times


def worker_workloads(
    strategy: CodingStrategy, samples_per_partition: int
) -> np.ndarray:
    """Per-worker workload in samples: ``n_i * |D_j|``."""
    if samples_per_partition < 0:
        raise TimingError("samples_per_partition must be non-negative")
    return np.asarray(strategy.loads, dtype=np.float64) * samples_per_partition


def simulate_worker_timings(
    cluster: ClusterSpec,
    workloads: Sequence[float],
    injector: StragglerInjector | None = None,
    iteration: int = 0,
    gradient_bytes: float = 0.0,
    network: CommunicationModel | None = None,
    rng: np.random.Generator | int | None = None,
) -> tuple[WorkerTiming, ...]:
    """Compute each worker's timing breakdown for one iteration.

    Vectorized: one batched jitter draw for all workers (bit-identical RNG
    stream to per-worker scalar draws) and one communication-model call per
    distinct payload instead of one per worker.
    """
    compute, delays, comm = simulate_worker_timing_arrays(
        cluster,
        workloads,
        injector=injector,
        iteration=iteration,
        gradient_bytes=gradient_bytes,
        network=network,
        rng=rng,
    )
    workloads = np.asarray(workloads, dtype=np.float64)
    return tuple(
        WorkerTiming(
            worker_id=worker,
            samples=float(workloads[worker]),
            compute_time=float(compute[worker]),
            injected_delay=float(delays[worker]),
            comm_time=float(comm[worker]),
        )
        for worker in range(cluster.num_workers)
    )


def simulate_worker_timing_arrays(
    cluster: ClusterSpec,
    workloads: Sequence[float],
    injector: StragglerInjector | None = None,
    iteration: int = 0,
    gradient_bytes: float = 0.0,
    network: CommunicationModel | None = None,
    rng: np.random.Generator | int | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Array form of :func:`simulate_worker_timings`.

    Returns ``(compute_times, injected_delays, comm_times)``, each of shape
    ``(m,)``; completion times are their sum.  This is the kernel the
    trace-scale simulation loops build on.
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
            f"{type(network).__name__} samples per-message transfer times "
            "and requires the rng_version=2 stacked path "
            "(simulate_worker_timing_arrays_stacked with a network_rng per "
            "run); the v1 stream layout has no slot for network draws"
        )
    generator = np.random.default_rng(rng)
    delays = np.asarray(
        injector.delays(iteration, cluster.num_workers, generator), dtype=np.float64
    )
    if delays.shape != (cluster.num_workers,):
        raise TimingError("straggler injector returned the wrong number of delays")
    compute = cluster.compute_times(workloads, rng=generator)
    # Every loaded worker ships an identically sized payload, so the network
    # model is consulted once, not once per worker.
    comm = np.where(workloads > 0, network.transfer_time(gradient_bytes), 0.0)
    return compute, delays, comm


def simulate_iteration(
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
    """Simulate the timing of one gradient-coded BSP iteration.

    Parameters
    ----------
    strategy:
        The coding strategy in use (``naive_strategy`` gives the uncoded
        baseline: every worker must report).
    cluster:
        The heterogeneous cluster.
    samples_per_partition:
        Size of each data partition ``|D_j|`` in samples.
    decoder:
        Optional pre-built decoder (re-use avoids re-solving the same
        straggler patterns every iteration).
    injector, iteration, gradient_bytes, network, rng:
        See :func:`simulate_worker_timings`.
    """
    if strategy.num_workers != cluster.num_workers:
        raise TimingError(
            f"strategy has {strategy.num_workers} workers but cluster "
            f"{cluster.name!r} has {cluster.num_workers}"
        )
    workloads = worker_workloads(strategy, samples_per_partition)
    compute, delays, comm = simulate_worker_timing_arrays(
        cluster,
        workloads,
        injector=injector,
        iteration=iteration,
        gradient_bytes=gradient_bytes,
        network=network,
        rng=rng,
    )
    timings = tuple(
        WorkerTiming(
            worker_id=worker,
            samples=float(workloads[worker]),
            compute_time=float(compute[worker]),
            injected_delay=float(delays[worker]),
            comm_time=float(comm[worker]),
        )
        for worker in range(cluster.num_workers)
    )
    decoder = decoder or Decoder(strategy)

    completion = compute + delays + comm
    order = decodable_completion_order(completion)
    prefix = decoder.earliest_decodable_prefix(order)
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
    assert result is not None  # earliest_decodable_prefix guarantees this
    duration = float(completion[finished[-1]])
    return IterationTiming(
        duration=duration,
        worker_timings=timings,
        workers_used=result.workers_used,
        used_group=result.used_group,
        decodable=True,
    )


def decodable_completion_order(completion: np.ndarray) -> list[int]:
    """Finite-completion workers sorted by ``(completion_time, worker_id)``.

    A stable argsort ties equal completion times by worker index, matching
    the master's deterministic arrival-order convention.
    """
    order = np.argsort(completion, kind="stable")
    finite = int(np.isfinite(completion).sum())
    return order[:finite].tolist()
