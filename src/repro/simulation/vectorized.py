"""Trace-scale vectorized timing kernel.

:func:`repro.simulation.simulate_iteration` is convenient but pays avoidable
per-iteration costs when thousands of iterations are simulated back to back:
it revalidates its inputs, rebuilds the workload vector, re-queries the
network model and materialises per-worker :class:`WorkerTiming` objects every
step.  :class:`TimingTraceKernel` hoists everything that is constant across
iterations (base compute times, jitter mask, communication times, the
decoder) out of the loop and draws the per-iteration randomness in single
batched calls.  The decodable-prefix decision depends only on the completion
*order*, so it is memoised per order; every entry point orders the whole
trace (or stack) with one argsort and decides all orders the memo has not
seen in one :meth:`~repro.coding.decoding.Decoder
.earliest_decodable_prefix_batched` call, which steps them together one
worker position at a time.

Two RNG stream layouts are supported:

* :meth:`TimingTraceKernel.run` (``rng_version=1``) consumes a single
  generator in exactly the same sequence as the per-iteration path
  (injector draw first, then one batched jitter draw per iteration), so a
  kernel run is bit-identical to ``num_iterations`` successive
  ``simulate_iteration`` calls with a shared generator.  The equivalence is
  asserted property-style in ``tests/simulation/test_vectorized.py``.
* :meth:`TimingTraceKernel.run_stacked` (``rng_version=2``) simulates one
  or more independent runs, each with its own per-component generators
  (see :mod:`repro.simulation.rng`): every run draws *all* iterations of
  injector delays and jitter in single batched calls, so the whole trace
  runs without re-entering Python per iteration.  A single run is a 1-run
  stack.  Traces are statistically equivalent to v1 at matched seeds but
  not bit-identical.

:class:`TimingKernelCache` keys kernels on (strategy fingerprint, cluster
fingerprint, workload, network) so sweep-style experiments that vary only
the straggler injector (e.g. Fig. 2's delay axis) share one kernel — and
with it the memoised decode-order decisions — across sweep points.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..coding.decoding import DecodeResult, Decoder
from ..coding.types import CodingStrategy
from .cluster import ClusterSpec
from .network import CommunicationModel, ZeroCommunication
from .stragglers import NoStragglers, StragglerInjector
from .timing import TimingError, worker_workloads

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
        Per-iteration tuple of workers whose results the master combined.
    used_groups:
        Per-iteration group used by the fast path (``None`` otherwise).
    """

    durations: np.ndarray
    compute_times: np.ndarray
    completion_times: np.ndarray
    workers_used: tuple[tuple[int, ...], ...]
    used_groups: tuple[tuple[int, ...] | None, ...]

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
    (spawned from its own seed via the ``rng_version=2`` component streams)
    and its injector, so each slice of the stacked output is bit-identical
    to the 1-run stack of that run alone.  ``network_rng`` is required when
    the network model is stochastic.

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
    """Run-stacked whole-trace form of :func:`~repro.simulation.timing
    .simulate_worker_timing_arrays`.

    Returns ``(compute_times, injected_delays, comm_times)`` with shapes
    ``(runs, n, m)``, ``(runs, n, m)`` and ``(m,)`` — or ``(runs, n, m)``
    for the comm times too when the network model is stochastic; row ``i``
    describes iteration ``start_iteration + i``.  Injector, jitter and
    network randomness come from each run's *separate* generators (the
    ``rng_version=2`` per-component layout): run ``r`` draws all of its
    delays in one :meth:`~repro.simulation.stragglers.StragglerInjector
    .delays_batch` call, all of its jitter in one
    :meth:`~repro.simulation.cluster.ClusterSpec.compute_times_batch` call
    and, for stochastic networks, all of its transfer times in one
    :meth:`~repro.simulation.network.CommunicationModel
    .sample_transfer_times` call.  Runs are independent, so their draws
    never merge: slice ``r`` depends on ``runs[r]`` alone.
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
    shape = (len(runs), num_iterations, num_workers)
    loaded = workloads > 0
    compute = np.empty(shape)
    delays = np.empty(shape)
    comm = (
        np.empty(shape)
        if network.is_stochastic
        else np.where(loaded, network.transfer_time(gradient_bytes), 0.0)
    )
    for index, run in enumerate(runs):
        run_cluster = run.cluster or cluster
        if run_cluster.num_workers != num_workers:
            raise TimingError(
                f"stacked run {index} uses cluster {run_cluster.name!r} with "
                f"{run_cluster.num_workers} workers; the stack is shaped for "
                f"{num_workers}"
            )
        block = np.asarray(
            (run.injector or default_injector).delays_batch(
                start_iteration, num_iterations, num_workers, run.injector_rng
            ),
            dtype=np.float64,
        )
        if block.shape != (num_iterations, num_workers):
            raise TimingError(
                "straggler injector returned the wrong batch shape: "
                f"{block.shape} instead of {(num_iterations, num_workers)}"
            )
        delays[index] = block
        compute[index] = run_cluster.compute_times_batch(
            workloads, num_iterations, run.jitter_rng
        )
        if network.is_stochastic:
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
            comm[index] = np.where(loaded, sampled, 0.0)
    return compute, delays, comm


class TimingTraceKernel:
    """Precompiled simulation of one (strategy, cluster) pair.

    Parameters
    ----------
    strategy, cluster, samples_per_partition:
        As in :func:`repro.simulation.simulate_iteration`.
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
        # Everything below is constant across iterations and hoisted here.
        self._base_compute = workloads / cluster._true_throughput_array
        noise = cluster._compute_noise_array
        self._jitter_mask = (noise > 0.0) & (workloads > 0.0)
        self._jitter_sigma = noise[self._jitter_mask]
        self._jitter_count = int(self._jitter_mask.sum())
        self._any_jitter = self._jitter_count > 0
        self._all_jitter = self._jitter_count == self.num_workers
        # Scalar-sigma draws share the RNG stream with array-sigma draws but
        # use the generator's fast fixed-parameter path.
        self._uniform_sigma: float | None = None
        if self._any_jitter and (self._jitter_sigma == self._jitter_sigma[0]).all():
            self._uniform_sigma = float(self._jitter_sigma[0])
        self.gradient_bytes = float(gradient_bytes)
        # Deterministic models bake one scalar per worker; stochastic models
        # (is_stochastic) keep the typical value here for v1-style callers
        # and sample per-message times in run_stacked instead.
        self._comm = np.where(
            workloads > 0, self.network.transfer_time(gradient_bytes), 0.0
        )
        # The decodable prefix depends only on the completion *order*; cache
        # the (prefix, decode result) pair per observed order so repeated
        # orderings across iterations cost one dict lookup.  Kernels can now
        # outlive single runs (TimingKernelCache), so insertion stops at a
        # bound — existing entries keep serving hits, new orders just pay
        # the decode each time once the cache is full.
        self.order_cache_limit = 100_000
        self._order_cache: dict[bytes, tuple[int | None, DecodeResult | None]] = {}

    # ------------------------------------------------------------------
    def _jittered_compute(self, rng: np.random.Generator) -> np.ndarray:
        if not self._any_jitter:
            return self._base_compute.copy()
        if self._uniform_sigma is not None:
            values = rng.lognormal(
                mean=0.0, sigma=self._uniform_sigma, size=self._jitter_count
            )
        else:
            values = rng.lognormal(mean=0.0, sigma=self._jitter_sigma)
        if self._all_jitter:
            return self._base_compute * values
        jitter = np.ones(self.num_workers)
        jitter[self._jitter_mask] = values
        return self._base_compute * jitter

    # ------------------------------------------------------------------
    def _decide(
        self, completion: np.ndarray
    ) -> tuple[
        np.ndarray,
        tuple[tuple[int, ...], ...],
        tuple[tuple[int, ...] | None, ...],
    ]:
        """Decode decision for every row of ``(n, m)`` completion times.

        Returns the durations (``inf`` where undecodable) and each row's
        workers used and group used.  A decision depends only on the row's
        completion order: the stable argsort cut at the finite count, since
        non-finite times sort last.  Each distinct order is decided once,
        from ``self._order_cache`` when it was seen before, else by one
        :meth:`~repro.coding.decoding.Decoder
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
        order_cache = self._order_cache
        counts_list = counts.tolist()
        decisions: list[tuple[int | None, DecodeResult | None]] = []
        misses: dict[bytes, list[int]] = {}  # key -> positions in decisions
        miss_rows: list[int] = []
        for position, row in enumerate(distinct.tolist()):
            key = orders[row, : counts_list[row]].tobytes()
            hit = order_cache.get(key)
            decisions.append((None, None) if hit is None else hit)
            if hit is None:
                waiting = misses.setdefault(key, [])
                if not waiting:
                    miss_rows.append(row)
                waiting.append(position)
        if miss_rows:
            decided = self.decoder.earliest_decodable_prefix_batched(
                orders[miss_rows], counts[miss_rows]
            )
            for (key, positions), hit in zip(misses.items(), decided, strict=True):
                if len(order_cache) < self.order_cache_limit:
                    order_cache[key] = hit
                for position in positions:
                    decisions[position] = hit
        results = [decisions[position][1] for position in inverse.tolist()]
        prefixes = np.array([prefix or 0 for prefix, _ in decisions], dtype=np.intp)
        prefixes = prefixes[inverse]
        durations = np.full(num_rows, np.inf)
        decodable = np.flatnonzero(prefixes)
        durations[decodable] = completion[
            decodable, orders[decodable, prefixes[decodable] - 1]
        ]
        return (
            durations,
            tuple(() if result is None else result.workers_used for result in results),
            tuple(None if result is None else result.used_group for result in results),
        )

    # ------------------------------------------------------------------
    def run(
        self,
        num_iterations: int,
        rng: np.random.Generator | int | None = None,
        start_iteration: int = 0,
        injector: StragglerInjector | None = None,
    ) -> TimingTraceArrays:
        """Simulate ``num_iterations`` iterations and return stacked arrays.

        ``injector`` overrides the constructor-time injector for this run
        (used by the kernel cache to reuse one kernel across sweep points
        that differ only in their straggler model).
        """
        if num_iterations <= 0:
            raise TimingError("num_iterations must be positive")
        if self.network.is_stochastic:
            raise TimingError(
                f"{type(self.network).__name__} samples per-message transfer "
                "times and requires the rng_version=2 stacked path "
                "(run_stacked with a network_rng per run); the v1 stream "
                "layout has no slot for network draws"
            )
        generator = np.random.default_rng(rng)
        m = self.num_workers
        compute_times = np.empty((num_iterations, m))
        completion_times = np.empty((num_iterations, m))
        injector_delays = (injector or self.injector).delays
        comm = self._comm
        base = self._base_compute
        uniform_sigma = self._uniform_sigma if self._all_jitter else None
        lognormal = generator.lognormal
        for step in range(num_iterations):
            delays = np.asarray(
                injector_delays(start_iteration + step, m, generator),
                dtype=np.float64,
            )
            if delays.shape != (m,):
                raise TimingError(
                    "straggler injector returned the wrong number of delays"
                )
            compute = compute_times[step]
            if uniform_sigma is not None:
                np.multiply(base, lognormal(0.0, uniform_sigma, m), out=compute)
            else:
                compute[:] = self._jittered_compute(generator)
            completion = completion_times[step]
            np.add(compute, delays, out=completion)
            completion += comm
        # Decode decisions never feed the generator, so the whole trace is
        # decided after the draws, in one batched call.
        durations, workers_used, used_groups = self._decide(completion_times)
        return TimingTraceArrays(
            durations=durations,
            compute_times=compute_times,
            completion_times=completion_times,
            workers_used=workers_used,
            used_groups=used_groups,
        )

    # ------------------------------------------------------------------
    def run_stacked(
        self,
        num_iterations: int,
        runs: Sequence[StackedRun],
        start_iteration: int = 0,
    ) -> list[TimingTraceArrays]:
        """Simulate ``len(runs)`` independent runs (``rng_version=2``).

        This is the one v2 timing path: a single run is a 1-run stack, and
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
        durations, workers_used, used_groups = self._decide(
            completion.reshape(num_runs * num_iterations, self.num_workers)
        )
        durations = durations.reshape(num_runs, num_iterations)
        out: list[TimingTraceArrays] = []
        for index in range(num_runs):
            lo = index * num_iterations
            hi = lo + num_iterations
            out.append(
                TimingTraceArrays(
                    durations=durations[index],
                    compute_times=compute[index],
                    completion_times=completion[index],
                    workers_used=workers_used[lo:hi],
                    used_groups=used_groups[lo:hi],
                )
            )
        return out


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
    """

    def __init__(self, maxsize: int = 64) -> None:
        if maxsize <= 0:
            raise ValueError("maxsize must be positive")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._kernels: OrderedDict[tuple, TimingTraceKernel] = OrderedDict()
        # The process-wide default cache is shared by ``repro serve``'s
        # request threads; one lock keeps the LRU bookkeeping coherent there.  Cached
        # kernels themselves are safe to *use* concurrently only insofar as
        # their memoised decode decisions are append-only dict writes.
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._kernels)

    def clear(self) -> None:
        with self._lock:
            self._kernels.clear()
            self.hits = 0
            self.misses = 0

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


#: Process-wide kernel cache shared by every default code path — the engine
#: timing backend and bare :func:`repro.experiments.common
#: .measure_timing_trace` calls alike — so fig2-style sweeps reuse kernels,
#: decoders and memoised decode-order decisions across sweep points no
#: matter which entry point drove them.  Decode decisions are pure functions
#: of the completion order, so sharing changes wall-clock time only, never
#: results.
_DEFAULT_KERNEL_CACHE = TimingKernelCache(maxsize=64)


def default_timing_kernel_cache() -> TimingKernelCache:
    """The process-wide :class:`TimingKernelCache` used by default paths."""
    return _DEFAULT_KERNEL_CACHE
