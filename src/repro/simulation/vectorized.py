"""Trace-scale vectorized timing kernel.

:class:`TimingTraceKernel` simulates whole traces of one (strategy,
cluster) pair.  It builds what every run shares (the per-worker workloads
and the decoder) once, and every run draws *all* iterations of its
injector delays, jitter and (stochastic) transfer times in single batched
calls from its own per-component generators (see
:mod:`repro.simulation.rng`), so a trace runs without re-entering Python
per iteration.  One or more independent
runs are simulated together by :meth:`TimingTraceKernel.run_stacked`; a
single run is a 1-run stack.

The decodable-prefix decision depends only on the completion *order*, so
it is memoised per order; the kernel orders the whole stack with one
argsort and decides all orders the memo has not seen in one
:meth:`~repro.coding.decoding.Decoder.earliest_decodable_prefix_batched`
call, which steps them together one worker position at a time.  Each
iteration then carries one code into the kernel's table of distinct
decisions, and the ``workers_used`` and ``used_groups`` trace columns are
one gather over that table per run.

The per-iteration scalar timing path that the batched draws are pinned
against lives in :mod:`repro._reference`.

:class:`TimingKernelCache` keys kernels on (strategy fingerprint, cluster
fingerprint, workload, network) so sweep-style experiments that vary only
the straggler injector (e.g. Fig. 2's delay axis) share one kernel — and
with it the memoised decode-order decisions — across sweep points.  It
also memoises the seeded strategy and cluster builds a timing run starts
with.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from collections.abc import Callable, Hashable, Sequence
from dataclasses import dataclass
from typing import Any, TypeVar

import numpy as np

from ..coding.decoding import DecodeResult, Decoder
from ..coding.types import CodingStrategy
from .cluster import ClusterSpec
from .network import CommunicationModel, ZeroCommunication
from .stragglers import NoStragglers, StragglerInjector
from .timing import TimingError, worker_workloads
from .trace import RaggedColumn

__all__ = [
    "StackedRun",
    "TimingTraceArrays",
    "TimingTraceKernel",
    "TimingKernelCache",
    "default_timing_kernel_cache",
    "simulate_worker_timing_arrays_stacked",
    "strategy_fingerprint",
    "cluster_fingerprint",
]

_T = TypeVar("_T")


@dataclass(frozen=True)
class TimingTraceArrays:
    """Column-oriented outcome of a multi-iteration timing simulation.

    Attributes
    ----------
    durations:
        Iteration durations, shape ``(n,)``; ``inf`` where undecodable.
    compute_times:
        Per-worker compute times, shape ``(n, m)``.
    completion_times:
        Per-worker completion times, shape ``(n, m)``.
    workers_used:
        Per-iteration workers whose results the master combined, as a
        :class:`~repro.simulation.trace.RaggedColumn` (an empty row where
        the iteration was undecodable).
    used_groups:
        Per-iteration group used by the decode fast path, as a nullable
        :class:`~repro.simulation.trace.RaggedColumn` (absent rows where
        the general decode ran or the iteration was undecodable).

    The kernels gather both columns from their table of distinct decode
    decisions, so no per-iteration Python object is created;
    :meth:`RaggedColumn.tuples` gives the tuple view on demand.
    """

    durations: np.ndarray
    compute_times: np.ndarray
    completion_times: np.ndarray
    workers_used: RaggedColumn
    used_groups: RaggedColumn

    @property
    def num_iterations(self) -> int:
        return int(self.durations.shape[0])

    @property
    def decodable(self) -> np.ndarray:
        return np.isfinite(self.durations)


@dataclass(frozen=True)
class StackedRun:
    """Per-run inputs of one slice of a run-stacked simulation.

    A stack simulates many *independent* runs in one kernel call; what can
    vary between them is captured here.  Every run owns its generators
    (spawned from its own seed via the per-component streams of
    :class:`~repro.simulation.rng.RngStreams`) and its injector, so each
    slice of the stacked output is bit-identical to the 1-run stack of that
    run alone.  ``network_rng`` is required when the network model is
    stochastic.

    ``injector``/``cluster`` default to the kernel- or call-level one; a
    per-run cluster must have the same worker count (sweeps over seeds build
    seed-dependent clusters, which share the kernel's decoder because decode
    decisions depend only on the strategy, never on the cluster).
    """

    injector_rng: np.random.Generator
    jitter_rng: np.random.Generator
    network_rng: np.random.Generator | None = None
    injector: StragglerInjector | None = None
    cluster: ClusterSpec | None = None


def simulate_worker_timing_arrays_stacked(
    cluster: ClusterSpec,
    workloads: Sequence[float],
    num_iterations: int,
    runs: Sequence[StackedRun],
    injector: StragglerInjector | None = None,
    start_iteration: int = 0,
    gradient_bytes: float = 0.0,
    network: CommunicationModel | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-worker timing blocks of whole traces, for a stack of runs.

    Returns ``(compute_times, injected_delays, comm_times)`` with shapes
    ``(runs, n, m)``, ``(runs, n, m)`` and ``(m,)`` — or ``(runs, n, m)``
    for the comm times too when the network model is stochastic; row ``i``
    describes iteration ``start_iteration + i``.  Injector, jitter and
    network randomness come from each run's *separate* generators (the
    per-component stream layout): run ``r`` draws all of its
    delays in one :meth:`~repro.simulation.stragglers.StragglerInjector
    .delays_batch` call, all of its jitter in one
    :meth:`~repro.simulation.cluster.ClusterSpec.compute_times_batch` call
    and, for stochastic networks, all of its transfer times in one
    :meth:`~repro.simulation.network.CommunicationModel
    .sample_transfer_times` call.  Runs are independent, so their draws
    never merge: slice ``r`` depends on ``runs[r]`` alone.  A 1-run stack
    returns its run's blocks as ``(1, n, m)`` views, without a copy.
    Each block equals the per-iteration scalar draws of
    :func:`repro._reference.simulate_worker_timings_reference` taken from
    the same component stream.
    """
    if num_iterations <= 0:
        raise TimingError("num_iterations must be positive")
    if not runs:
        raise TimingError("runs must not be empty")
    workloads = np.asarray(workloads, dtype=np.float64)
    num_workers = cluster.num_workers
    if workloads.shape != (num_workers,):
        raise TimingError(
            f"expected {num_workers} workloads, got shape {workloads.shape}"
        )
    if np.any(workloads < 0):
        raise TimingError("workloads must be non-negative")
    network = network or ZeroCommunication()
    default_injector = injector or NoStragglers()
    loaded = workloads > 0

    def draw(index: int, run: StackedRun) -> tuple[np.ndarray, ...]:
        run_cluster = run.cluster or cluster
        if run_cluster.num_workers != num_workers:
            raise TimingError(
                f"stacked run {index} uses cluster {run_cluster.name!r} with "
                f"{run_cluster.num_workers} workers; the stack is shaped for "
                f"{num_workers}"
            )
        delays = np.asarray(
            (run.injector or default_injector).delays_batch(
                start_iteration, num_iterations, num_workers, run.injector_rng
            ),
            dtype=np.float64,
        )
        if delays.shape != (num_iterations, num_workers):
            raise TimingError(
                "straggler injector returned the wrong batch shape: "
                f"{delays.shape} instead of {(num_iterations, num_workers)}"
            )
        compute = run_cluster.compute_times_batch(
            workloads, num_iterations, run.jitter_rng
        )
        if not network.is_stochastic:
            return compute, delays
        if run.network_rng is None:
            # default_rng(None) would draw OS entropy: this run's slice
            # could never be reproduced while its other draws are seeded.
            raise TimingError(
                f"stacked run {index} has no network_rng, but "
                f"{type(network).__name__} samples per-message transfer "
                "times; pass the run's network stream"
            )
        sampled = network.sample_transfer_times(
            gradient_bytes, (num_iterations, num_workers), run.network_rng
        )
        return compute, delays, np.where(loaded, sampled, 0.0)

    if len(runs) == 1:
        blocks = draw(0, runs[0])
        stacked = [block[np.newaxis] for block in blocks]
    else:
        shape = (len(runs), num_iterations, num_workers)
        stacked = [np.empty(shape) for _ in range(3 if network.is_stochastic else 2)]
        for index, run in enumerate(runs):
            for out, block in zip(stacked, draw(index, run), strict=True):
                out[index] = block
    if not network.is_stochastic:
        stacked.append(np.where(loaded, network.transfer_time(gradient_bytes), 0.0))
    compute, delays, comm = stacked
    return compute, delays, comm


class TimingTraceKernel:
    """Precompiled simulation of one (strategy, cluster) pair.

    Parameters
    ----------
    strategy, cluster, samples_per_partition:
        The coding strategy, the cluster it runs on and the size of each
        data partition ``|D_j|`` in samples.
    decoder:
        Optional pre-built decoder to share straggler-pattern caches with.
    injector, network, gradient_bytes:
        Per-iteration simulation knobs, fixed for the kernel's lifetime.
    """

    def __init__(
        self,
        strategy: CodingStrategy,
        cluster: ClusterSpec,
        samples_per_partition: int,
        decoder: Decoder | None = None,
        injector: StragglerInjector | None = None,
        network: CommunicationModel | None = None,
        gradient_bytes: float = 0.0,
    ) -> None:
        if strategy.num_workers != cluster.num_workers:
            raise TimingError(
                f"strategy has {strategy.num_workers} workers but cluster "
                f"{cluster.name!r} has {cluster.num_workers}"
            )
        self.strategy = strategy
        self.cluster = cluster
        self.decoder = decoder or Decoder(strategy)
        self.injector = injector or NoStragglers()
        self.network = network or ZeroCommunication()
        self.num_workers = cluster.num_workers

        workloads = worker_workloads(strategy, samples_per_partition)
        self.workloads = workloads
        self.gradient_bytes = float(gradient_bytes)
        # The decodable prefix depends only on the completion *order*; cache
        # the (prefix, decision code) pair per observed order so repeated
        # orderings across iterations cost one dict lookup.  Kernels can now
        # outlive single runs (TimingKernelCache), so insertion stops at a
        # bound — existing entries keep serving hits, new orders just pay
        # the decode each time once the cache is full.
        self.order_cache_limit = 100_000
        self._order_cache: dict[bytes, tuple[int, int]] = {}
        # Every distinct decode decision (workers used, group used) gets one
        # code; the tables hold row ``code`` of each trace column, so a
        # trace's columns are one gather of its per-iteration codes.  Code 0
        # is the undecodable decision.  Many orders share a decision, so the
        # tables stay far smaller than the order memo.
        self._decision_codes: dict[tuple, int] = {((), None): 0}
        self._new_decisions: list[tuple] = []
        self._workers_table = RaggedColumn.from_distinct_rows([()])
        self._groups_table = RaggedColumn.from_distinct_rows([None], nullable=True)
        # Serve's request threads share cached kernels; the memo and the
        # code tables must change together.
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def _decide(
        self, completion: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, RaggedColumn, RaggedColumn]:
        """Decode decision for every row of ``(n, m)`` completion times.

        Returns the durations (``inf`` where undecodable), each row's
        decision code, and the workers-used and group-used tables those
        codes index (``table.take(codes)`` is the trace column).  A decision
        depends only on the row's completion order: the stable argsort cut
        at the finite count, since non-finite times sort last.  Each
        distinct order is decided once, from ``self._order_cache`` when it
        was seen before, else by one :meth:`~repro.coding.decoding.Decoder
        .earliest_decodable_prefix_batched` call over all the misses.
        """
        num_rows, m = completion.shape
        orders = completion.argsort(axis=1, kind="stable")
        counts = np.isfinite(completion).sum(axis=1)
        # Small clusters pack each (order, count) row into one integer, so
        # the distinct rows fall out of one 1-D np.unique: jittered sweeps
        # revisit a handful of orders tens of thousands of times.  Larger
        # clusters are deduplicated by cache key below.
        field_bits = max(m.bit_length(), 1)
        if (m + 1) * field_bits <= 64:
            shifts = np.arange(m, dtype=np.uint64) * np.uint64(field_bits)
            packed = (orders.astype(np.uint64) << shifts).sum(
                axis=1, dtype=np.uint64
            )
            packed |= counts.astype(np.uint64) << np.uint64(m * field_bits)
            _, distinct, inverse = np.unique(
                packed, return_index=True, return_inverse=True
            )
            inverse = np.asarray(inverse).ravel()
        else:
            distinct = inverse = np.arange(num_rows)
        counts_list = counts.tolist()
        with self._lock:
            order_cache = self._order_cache
            decisions: list[tuple[int, int]] = []
            misses: dict[bytes, list[int]] = {}  # key -> positions in decisions
            miss_rows: list[int] = []
            for position, row in enumerate(distinct.tolist()):
                key = orders[row, : counts_list[row]].tobytes()
                hit = order_cache.get(key)
                decisions.append((0, 0) if hit is None else hit)
                if hit is None:
                    waiting = misses.setdefault(key, [])
                    if not waiting:
                        miss_rows.append(row)
                    waiting.append(position)
            if miss_rows:
                decided = self.decoder.earliest_decodable_prefix_batched(
                    orders[miss_rows], counts[miss_rows]
                )
                for (key, positions), (prefix, result) in zip(
                    misses.items(), decided, strict=True
                ):
                    decision = (prefix or 0, self._decision_code(result))
                    if len(order_cache) < self.order_cache_limit:
                        order_cache[key] = decision
                    for position in positions:
                        decisions[position] = decision
            workers_table, groups_table = self._decision_tables()
        prefixes, codes = np.array(decisions, dtype=np.intp).reshape(-1, 2).T
        prefixes = prefixes[inverse]
        durations = np.full(num_rows, np.inf)
        decodable = np.flatnonzero(prefixes)
        durations[decodable] = completion[
            decodable, orders[decodable, prefixes[decodable] - 1]
        ]
        return durations, codes[inverse], workers_table, groups_table

    def _decision_code(self, result: DecodeResult | None) -> int:
        """The code of ``result``'s decision, assigned on first sight."""
        decision = (
            ((), None) if result is None else (result.workers_used, result.used_group)
        )
        code = self._decision_codes.get(decision)
        if code is None:
            code = len(self._decision_codes)
            self._decision_codes[decision] = code
            self._new_decisions.append(decision)
        return code

    def _decision_tables(self) -> tuple[RaggedColumn, RaggedColumn]:
        """The workers-used and group-used tables, one row per code."""
        if self._new_decisions:
            workers, groups = zip(*self._new_decisions)
            self._new_decisions = []
            self._workers_table = RaggedColumn.concatenate(
                [self._workers_table, RaggedColumn.from_distinct_rows(workers)]
            )
            self._groups_table = RaggedColumn.concatenate(
                [
                    self._groups_table,
                    RaggedColumn.from_distinct_rows(groups, nullable=True),
                ]
            )
        return self._workers_table, self._groups_table

    # ------------------------------------------------------------------
    def run_stacked(
        self,
        num_iterations: int,
        runs: Sequence[StackedRun],
        start_iteration: int = 0,
    ) -> list[TimingTraceArrays]:
        """Simulate ``len(runs)`` independent runs.

        This is the one timing path: a single run is a 1-run stack, and
        entry ``r`` of an ``R``-run stack is bit-identical to the 1-run stack
        of ``runs[r]`` (durations, completion times, worker sets —
        everything).  Each run draws its delays, jitter and (stochastic)
        transfer times from its own streams via
        :func:`simulate_worker_timing_arrays_stacked`.  Then one
        ``argsort``/``isfinite`` call orders all ``runs * n`` iterations,
        and the decode decisions are deduplicated across the *whole stack*
        through ``self._order_cache``: every distinct order it has not seen
        is decided in one batched prefix search shared by all runs.
        """
        compute, delays, comm = simulate_worker_timing_arrays_stacked(
            self.cluster,
            self.workloads,
            num_iterations,
            runs,
            injector=self.injector,
            start_iteration=start_iteration,
            gradient_bytes=self.gradient_bytes,
            network=self.network,
        )
        num_runs = len(runs)
        completion = compute + delays
        completion += comm
        durations, codes, workers_table, groups_table = self._decide(
            completion.reshape(num_runs * num_iterations, self.num_workers)
        )
        durations = durations.reshape(num_runs, num_iterations)
        codes = codes.reshape(num_runs, num_iterations)
        return [
            TimingTraceArrays(
                durations=durations[index],
                compute_times=compute[index],
                completion_times=completion[index],
                workers_used=workers_table.take(codes[index]),
                used_groups=groups_table.take(codes[index]),
            )
            for index in range(num_runs)
        ]


# ---------------------------------------------------------------------------
# kernel cache
# ---------------------------------------------------------------------------

def strategy_fingerprint(strategy: CodingStrategy) -> bytes:
    """Digest identifying a strategy's decode-relevant content.

    Two strategies with equal fingerprints have identical coding matrices,
    partition assignments, groups and straggler tolerance, hence identical
    decoders and identical decode-order decisions.
    """
    digest = hashlib.sha256()
    digest.update(strategy.scheme.encode())
    digest.update(str(strategy.num_stragglers).encode())
    digest.update(str(strategy.matrix.shape).encode())
    digest.update(np.ascontiguousarray(strategy.matrix).tobytes())
    digest.update(repr(strategy.assignment.partitions_per_worker).encode())
    digest.update(repr(strategy.groups).encode())
    return digest.digest()


def cluster_fingerprint(cluster: ClusterSpec) -> bytes:
    """Digest identifying a cluster's timing-relevant content."""
    digest = hashlib.sha256()
    digest.update(cluster.name.encode())
    digest.update(np.ascontiguousarray(cluster._true_throughput_array).tobytes())
    digest.update(np.ascontiguousarray(cluster._compute_noise_array).tobytes())
    return digest.digest()


#: Each build memo of a :class:`TimingKernelCache` holds up to this many
#: entries per kernel slot.  Strategies and clusters are small next to a
#: kernel and its decode-order memo, and a resumable sweep builds every
#: member twice (once to plan, once to run), so the memo must hold a whole
#: sweep's worth: 1,024 entries at the default ``maxsize``.
_BUILDS_PER_KERNEL = 16


class TimingKernelCache:
    """Bounded LRU cache of :class:`TimingTraceKernel` objects.

    Keyed on everything that is baked into a kernel at construction time —
    strategy fingerprint, cluster fingerprint, samples per partition,
    network model and payload size — but *not* on the straggler injector,
    which callers pass per run.  A fig2-style sweep over injector delays
    therefore reuses one kernel (and its memoised decode-order cache and
    :class:`~repro.coding.decoding.Decoder`) across every delay value.

    Cached kernels are pure with respect to results: the decode decisions
    they memoise are deterministic functions of the completion order, so a
    cache hit is bit-identical to a freshly built kernel.

    The cache also memoises the builds a timing run starts with, through
    :meth:`memoised`: coding strategies (keyed by scheme, estimated
    throughputs, k, s and construction seed) and clusters (keyed by name
    and options, the seed included).  Those builds are deterministic in
    their keys, so a memo hit changes the build count, never a result;
    builds seeded from fresh entropy are never memoised.  Each kind has its
    own LRU bound of ``maxsize * 16`` entries.  :meth:`clear` empties the
    kernels and every memo.
    """

    def __init__(self, maxsize: int = 64) -> None:
        if maxsize <= 0:
            raise ValueError("maxsize must be positive")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._kernels: OrderedDict[tuple, TimingTraceKernel] = OrderedDict()
        self._memos: dict[str, OrderedDict[Hashable, Any]] = {}
        # The process-wide default cache is shared by ``repro serve``'s
        # request threads; one lock keeps the LRU bookkeeping coherent there.
        # Each kernel guards its own decode memo and decision tables.
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._kernels)

    def clear(self) -> None:
        with self._lock:
            self._kernels.clear()
            self._memos.clear()
            self.hits = 0
            self.misses = 0

    def memoised(self, kind: str, key: Hashable, build: Callable[[], _T]) -> _T:
        """``build()``, memoised under ``key`` in the ``kind`` memo.

        ``build`` must be deterministic in ``key``.  It runs outside the
        lock; two threads may race to build the same entry, and either
        result may serve later lookups.
        """
        with self._lock:
            memo = self._memos.setdefault(kind, OrderedDict())
            if key in memo:
                memo.move_to_end(key)
                return memo[key]
        value = build()
        with self._lock:
            memo = self._memos.setdefault(kind, OrderedDict())
            memo[key] = value
            while len(memo) > self.maxsize * _BUILDS_PER_KERNEL:
                memo.popitem(last=False)
        return value

    def get_or_build(
        self,
        strategy: CodingStrategy,
        cluster: ClusterSpec,
        samples_per_partition: int,
        network: CommunicationModel | None = None,
        gradient_bytes: float = 0.0,
    ) -> TimingTraceKernel:
        """Return the cached kernel for this configuration, building on miss."""
        network = network or ZeroCommunication()
        # A deterministic kernel depends on its communication model only
        # through one scalar, so its fingerprint is that exact float —
        # collision-free (unlike describe(), which rounds) and maximally
        # reusable across freshly built model instances.  Stochastic models
        # fingerprint their full distribution parameters instead.
        key = (
            strategy_fingerprint(strategy),
            cluster_fingerprint(cluster),
            int(samples_per_partition),
            network.fingerprint(gradient_bytes),
            float(gradient_bytes),
        )
        with self._lock:
            kernel = self._kernels.get(key)
            if kernel is not None:
                self.hits += 1
                self._kernels.move_to_end(key)
                return kernel
            self.misses += 1
        kernel = TimingTraceKernel(
            strategy,
            cluster,
            samples_per_partition=samples_per_partition,
            network=network,
            gradient_bytes=gradient_bytes,
        )
        with self._lock:
            # Two threads may race to build the same kernel; last write wins
            # and both kernels are bit-identical, so results never depend on
            # which one a later lookup returns.
            self._kernels[key] = kernel
            while len(self._kernels) > self.maxsize:
                self._kernels.popitem(last=False)
        return kernel


#: Process-wide kernel cache shared by every default code path — the engine's
#: timing mode and bare :func:`repro.experiments.common
#: .measure_timing_trace` calls alike — so fig2-style sweeps reuse kernels,
#: decoders and memoised decode-order decisions across sweep points no
#: matter which entry point drove them.  Decode decisions are pure functions
#: of the completion order, so sharing changes wall-clock time only, never
#: results.
_DEFAULT_KERNEL_CACHE = TimingKernelCache(maxsize=64)


def default_timing_kernel_cache() -> TimingKernelCache:
    """The process-wide :class:`TimingKernelCache` used by default paths."""
    return _DEFAULT_KERNEL_CACHE
