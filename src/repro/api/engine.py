"""The engine: one entry point that executes any :class:`RunSpec`.

The engine does three things and nothing else:

1. **validate** the spec's names against the plugin registries (clear errors
   listing what *is* available);
2. **dispatch** to the execution backend registered for ``spec.mode`` —
   ``"timing"`` wraps the timing-only path used by Figs. 2/3/5 and
   ``"training"`` wraps the full protocol path used by Fig. 4;
3. **normalise** the backend's :class:`~repro.simulation.trace.RunTrace`
   into a :class:`~repro.api.result.RunResult` with a uniform metric set.

:meth:`Engine.sweep` and :meth:`Engine.compare` are thin declarative loops
over :meth:`Engine.run`, which is what the per-figure experiments and the
CLI are built from.  Custom backends register with
:func:`repro.api.register_backend` and immediately gain all three.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, fields
from typing import Any

from .._registry import (
    ARRAY_BACKENDS,
    CLUSTERS,
    EXECUTION_BACKENDS,
    PROTOCOLS,
    SCHEMES,
    WORKLOADS,
    register_backend,
)
from ..experiments.clusters import build_cluster
from ..experiments.common import _timing_setup, _TimingSetup, measure_timing_trace
from ..experiments.workloads import get_workload
from ..learning.models.base import Model
from ..learning.optimizers import SGD
from ..learning.partition import PartitionedDataset
from ..protocols.base import TrainingConfig
from ..protocols.runner import _partition_for_scheme, make_protocol, run_scheme
from ..protocols.ssp import SSPProtocol
from ..simulation.cluster import ClusterSpec
from ..simulation.network import CommunicationModel
from ..simulation.rng import RngStreams
from ..simulation.stragglers import StragglerInjector
from ..simulation.trace import RunTrace
from ..simulation.vectorized import (
    StackedRun,
    TimingKernelCache,
    default_timing_kernel_cache,
    strategy_fingerprint,
)
from .builders import build_injector, build_network
from .executors import Executor, resolve_executor
from .result import RunResult
from .spec import RunSpec, SpecError

__all__ = ["Engine", "EngineError"]


#: Soft cap on ``runs * iterations * workers`` elements held by one stacked
#: kernel call; larger groups are executed in consecutive chunks of runs.
_STACK_ELEMENT_CAP = 4_000_000


class EngineError(ValueError):
    """Raised when a spec cannot be executed (unknown names, bad mode)."""


@dataclass(frozen=True)
class _TimingStackMember:
    """One sweep spec prepared for run-stacked timing execution.

    ``setup`` is what :func:`~repro.experiments.common.measure_timing_trace`
    derives from the spec, built by the same helper, so stacked execution
    observes exactly the per-run state the fallback path would have built.
    The member owns its injector, as a standalone run does.
    """

    index: int
    spec: RunSpec
    cluster: ClusterSpec
    injector: StragglerInjector
    network: CommunicationModel
    setup: _TimingSetup
    group_key: tuple[Any, ...]


@dataclass(frozen=True)
class _TrainingStackMember:
    """One sweep spec prepared for run-stacked SSP/Async training."""

    index: int
    spec: RunSpec
    protocol: SSPProtocol
    model: Model
    partitioned: PartitionedDataset
    cluster: ClusterSpec
    config: TrainingConfig
    group_key: tuple[Any, ...]


def _build_cluster_for(spec: RunSpec) -> ClusterSpec:
    """Build the spec's cluster; the cluster RNG defaults to the run seed."""
    options = dict(spec.cluster_options)
    options.setdefault("rng", spec.seed)
    return build_cluster(spec.cluster, **options)


# ---------------------------------------------------------------------------
# builtin backends
# ---------------------------------------------------------------------------

@register_backend("timing", description="timing-only simulation (Figs. 2/3/5)")
def _run_timing(spec: RunSpec) -> RunTrace:
    total_samples = spec.resolved_total_samples()
    # measure_timing_trace's default routes through the process-wide kernel
    # cache (repro.simulation.vectorized.default_timing_kernel_cache), so
    # engine-driven and bare calls share one kernel pool.  Decode-order
    # decisions are pure functions of the completion order; sharing changes
    # wall-clock time only, never results.
    return measure_timing_trace(
        spec.scheme,
        _build_cluster_for(spec),
        num_stragglers=spec.num_stragglers,
        total_samples=total_samples,
        num_iterations=spec.num_iterations,
        partitions_multiplier=spec.partitions_multiplier,
        num_partitions=spec.num_partitions,
        injector=build_injector(spec.straggler),
        network=build_network(spec.network),
        gradient_bytes=spec.gradient_bytes,
        seed=spec.seed,
        rng_version=spec.rng_version,
    )


@functools.lru_cache(maxsize=8)
def _cached_dataset(workload: str, total_samples: int | None, seed: int):
    """Dataset construction is deterministic in (workload, size, seed), so
    compare/sweep runs that differ only in scheme share one dataset object
    (read-only) instead of regenerating it per run — the behaviour the
    legacy ``compare_schemes`` path had."""
    return get_workload(workload).make_dataset(total_samples, seed=seed)


@register_backend("training", description="full protocol training (Fig. 4)")
def _run_training(spec: RunSpec) -> RunTrace:
    cluster = _build_cluster_for(spec)
    preset = get_workload(spec.workload)
    dataset = _cached_dataset(spec.workload, spec.total_samples, spec.seed or 0)
    learning_rate = spec.learning_rate
    # v2 threads the per-component RngStreams through the config: the coded
    # BSP protocols consume the injector/jitter/network streams via the
    # batched timing kernel and the training stream for construction and
    # loss-evaluation sampling.  The derived integer seed covers the places
    # that still need one (partition shuffling, the SSP event simulation),
    # keeping their randomness on the training lineage, independent of the
    # timing components.  v1 keeps the historical direct-seed behaviour.
    config_seed = spec.seed
    streams = None
    if spec.rng_version == 2:
        streams = RngStreams.from_seed(spec.seed)
        if spec.seed is not None:
            config_seed = streams.training_seed()
    config = TrainingConfig(
        num_iterations=spec.num_iterations,
        num_stragglers=spec.num_stragglers,
        num_partitions=spec.num_partitions,
        partitions_multiplier=spec.partitions_multiplier,
        optimizer_factory=lambda: SGD(learning_rate=learning_rate),
        straggler_injector=build_injector(spec.straggler),
        network=build_network(spec.network),
        seed=config_seed,
        record_loss_every=spec.record_loss_every,
        loss_eval_samples=spec.loss_eval_samples,
        rng_streams=streams,
    )
    return run_scheme(
        spec.scheme,
        model_factory=lambda: preset.make_model(
            dataset, seed=spec.seed or 0
        ).use_array_backend(spec.array_backend),
        dataset=dataset,
        cluster=cluster,
        config=config,
        ssp_staleness=spec.ssp_staleness,
        ssp_batch_size=spec.ssp_batch_size,
    )


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------

class Engine:
    """Execute :class:`RunSpec` objects through pluggable backends.

    Parameters
    ----------
    backends:
        Optional mode -> backend mapping overriding the global registry
        (useful for tests injecting fakes); ``None`` uses
        :data:`repro.api.registry.EXECUTION_BACKENDS`.
    """

    def __init__(self, backends: Mapping[str, Any] | None = None) -> None:
        self._backends = None if backends is None else dict(backends)

    @staticmethod
    def timing_kernel_cache() -> TimingKernelCache:
        """The process-wide timing-kernel cache (hit/miss counters included)."""
        return default_timing_kernel_cache()

    @staticmethod
    def clear_timing_kernel_cache() -> None:
        """Drop every cached timing kernel (results never depend on this)."""
        default_timing_kernel_cache().clear()

    # -- validation ----------------------------------------------------
    def _backend(self, mode: str):
        if self._backends is not None:
            if mode not in self._backends:
                raise EngineError(
                    f"unknown mode {mode!r}; this engine supports "
                    f"{sorted(self._backends)}"
                )
            return self._backends[mode]
        if mode not in EXECUTION_BACKENDS:
            raise EngineError(
                f"unknown mode {mode!r}; registered backends: "
                f"{list(EXECUTION_BACKENDS.names())}"
            )
        return EXECUTION_BACKENDS.get(mode)

    def validate(self, spec: RunSpec) -> None:
        """Check every name in ``spec`` against the registries."""
        self._backend(spec.mode)
        if spec.mode == "timing" and spec.scheme not in SCHEMES:
            raise EngineError(
                f"unknown scheme {spec.scheme!r}; registered schemes: "
                f"{list(SCHEMES.names())}"
            )
        if spec.mode == "training":
            if spec.scheme not in PROTOCOLS:
                raise EngineError(
                    f"unknown protocol {spec.scheme!r}; registered protocols: "
                    f"{list(PROTOCOLS.names())}"
                )
            if spec.workload not in WORKLOADS:
                raise EngineError(
                    f"unknown workload {spec.workload!r}; registered workloads: "
                    f"{list(WORKLOADS.names())}"
                )
            if spec.array_backend not in ARRAY_BACKENDS:
                raise EngineError(
                    f"unknown array backend {spec.array_backend!r}; registered "
                    f"array backends: {list(ARRAY_BACKENDS.names())}"
                )
        if spec.cluster not in CLUSTERS and "vcpu_counts" not in spec.cluster_options:
            raise EngineError(
                f"unknown cluster {spec.cluster!r}; registered clusters: "
                f"{list(CLUSTERS.names())} (or pass cluster_options['vcpu_counts'])"
            )

    # -- execution ------------------------------------------------------
    def run(self, spec: RunSpec) -> RunResult:
        """Execute one spec and return its uniform result."""
        if not isinstance(spec, RunSpec):
            raise SpecError(f"Engine.run expects a RunSpec, got {type(spec).__name__}")
        self.validate(spec)
        backend = self._backend(spec.mode)
        trace = backend(spec)
        return RunResult.from_trace(spec, trace)

    def run_many(
        self,
        specs: Sequence[RunSpec],
        executor: "Executor | str | None" = None,
    ) -> list[RunResult]:
        """Run several specs, one result per spec, in order.

        ``executor`` says where they run: ``None`` (default) runs them one
        after another in-process; a registered name (``"process"``,
        ``"cached"``) or an :class:`~repro.api.executors.Executor` instance
        hands them to that executor.  Every run's randomness
        derives from its spec's seed, so results are bit-identical whatever
        the executor; only wall-clock time changes.

        Raises
        ------
        EngineError
            When subprocess execution is requested on an engine carrying
            injected (non-registry) backends — those cannot be rebuilt in a
            worker process.
        """
        specs = list(specs)
        chosen = resolve_executor(executor)
        if chosen is None:
            return [self.run(spec) for spec in specs]
        if chosen.requires_subprocess:
            if self._backends is not None:
                raise EngineError(
                    "subprocess execution requires registry-backed engines; "
                    "this engine carries injected backends that worker "
                    "processes cannot reconstruct"
                )
            for spec in specs:
                if not isinstance(spec, RunSpec):
                    raise SpecError(
                        f"Engine.run_many expects RunSpecs, got {type(spec).__name__}"
                    )
                self.validate(spec)  # fail fast in the parent process
        return chosen.run_specs(self, specs)

    # -- sweep planner --------------------------------------------------
    #
    # ``sweep`` partitions its specs into *stackable groups* — runs whose
    # timing (or SSP schedule scan) can be evaluated as one run-stacked
    # kernel call — and a remainder executed through :meth:`run_many`.
    # Stacking requires the builtin registry backends, ``rng_version=2``
    # and an explicit seed: each run then owns per-component RNG streams,
    # so its slice of the stacked output is bit-identical to a standalone
    # :meth:`run` of the same spec.

    def _timing_stackable(self, spec: RunSpec) -> bool:
        return (
            spec.mode == "timing"
            and spec.rng_version == 2
            and spec.seed is not None
            and spec.num_iterations > 0
            and self._backends is None
            and "timing" in EXECUTION_BACKENDS
            and EXECUTION_BACKENDS.get("timing") is _run_timing
        )

    def _training_stackable(self, spec: RunSpec) -> bool:
        return (
            spec.mode == "training"
            and spec.rng_version == 2
            and spec.seed is not None
            and self._backends is None
            and "training" in EXECUTION_BACKENDS
            and EXECUTION_BACKENDS.get("training") is _run_training
        )

    @staticmethod
    def _sweep_cluster(
        spec: RunSpec, cache: dict[tuple[Any, ...], ClusterSpec]
    ) -> ClusterSpec:
        """Per-sweep cluster cache; same spec inputs return the same object.

        Cluster construction is deterministic in (name, options, rng), so
        sharing instances changes nothing but the build count.
        """
        options = dict(spec.cluster_options)
        options.setdefault("rng", spec.seed)
        key = (spec.cluster, tuple(sorted((k, repr(v)) for k, v in options.items())))
        cluster = cache.get(key)
        if cluster is None:
            cluster = build_cluster(spec.cluster, **options)
            cache[key] = cluster
        return cluster

    def _prepare_timing_member(
        self,
        index: int,
        spec: RunSpec,
        cluster_cache: dict[tuple[Any, ...], ClusterSpec],
    ) -> _TimingStackMember | None:
        """Build the spec's ``measure_timing_trace`` set-up, or ``None``
        when the spec must take the fallback path (bad sample counts raise
        there with the historical message)."""
        total_samples = spec.resolved_total_samples()
        if total_samples is None or total_samples <= 0:
            return None
        cluster = self._sweep_cluster(spec, cluster_cache)
        injector = build_injector(spec.straggler)
        network = build_network(spec.network)
        setup = _timing_setup(
            spec.scheme,
            cluster,
            spec.num_stragglers,
            total_samples,
            spec.partitions_multiplier,
            spec.num_partitions,
            injector,
            network,
            spec.seed,
            spec.rng_version,
        )
        # Two runs stack iff their decode structure and kernel inputs agree;
        # the cluster may differ per run (decode decisions depend only on
        # the strategy), so it is deliberately absent from the key.
        group_key = (
            "timing",
            strategy_fingerprint(setup.strategy),
            setup.samples_per_partition,
            network.fingerprint(spec.gradient_bytes),
            float(spec.gradient_bytes),
            spec.num_iterations,
            cluster.num_workers,
        )
        return _TimingStackMember(
            index=index,
            spec=spec,
            cluster=cluster,
            injector=injector,
            network=network,
            setup=setup,
            group_key=group_key,
        )

    def _prepare_training_member(
        self,
        index: int,
        spec: RunSpec,
        cluster_cache: dict[tuple[Any, ...], ClusterSpec],
    ) -> _TrainingStackMember | None:
        """Mirror ``_run_training``'s per-run derivations for SSP-family
        protocols; ``None`` routes other protocols to the fallback path."""
        protocol = make_protocol(
            spec.scheme,
            ssp_staleness=spec.ssp_staleness,
            ssp_batch_size=spec.ssp_batch_size,
        )
        if not isinstance(protocol, SSPProtocol):
            return None
        cluster = self._sweep_cluster(spec, cluster_cache)
        preset = get_workload(spec.workload)
        dataset = _cached_dataset(spec.workload, spec.total_samples, spec.seed or 0)
        learning_rate = spec.learning_rate
        streams = RngStreams.from_seed(spec.seed)
        config = TrainingConfig(
            num_iterations=spec.num_iterations,
            num_stragglers=spec.num_stragglers,
            num_partitions=spec.num_partitions,
            partitions_multiplier=spec.partitions_multiplier,
            optimizer_factory=lambda: SGD(learning_rate=learning_rate),
            straggler_injector=build_injector(spec.straggler),
            network=build_network(spec.network),
            seed=streams.training_seed(),
            record_loss_every=spec.record_loss_every,
            loss_eval_samples=spec.loss_eval_samples,
            rng_streams=streams,
        )
        partitioned = _partition_for_scheme(spec.scheme, dataset, cluster, config)
        model = preset.make_model(dataset, seed=spec.seed or 0).use_array_backend(
            spec.array_backend
        )
        # The stacked scan shares one protocol instance and one clock-matrix
        # shape; everything else (dataset, network, injector, optimiser)
        # stays per-run, so it may vary freely inside a group.
        group_key = (
            "training",
            spec.scheme,
            float(spec.ssp_staleness),
            spec.ssp_batch_size,
            spec.num_iterations,
            cluster.num_workers,
        )
        return _TrainingStackMember(
            index=index,
            spec=spec,
            protocol=protocol,
            model=model,
            partitioned=partitioned,
            cluster=cluster,
            config=config,
            group_key=group_key,
        )

    def _run_timing_stack(
        self, members: Sequence[_TimingStackMember]
    ) -> list[RunResult]:
        """Execute one stackable timing group through the stacked kernel."""
        first = members[0]
        kernel = default_timing_kernel_cache().get_or_build(
            first.setup.strategy,
            first.cluster,
            samples_per_partition=first.setup.samples_per_partition,
            network=first.network,
            gradient_bytes=first.spec.gradient_bytes,
        )
        runs: list[StackedRun] = []
        for member in members:
            member.setup.warn_if_drifted(stacklevel=4)
            streams = RngStreams.from_seed(member.spec.seed)
            runs.append(
                StackedRun(
                    injector_rng=streams.injector,
                    jitter_rng=streams.jitter,
                    network_rng=streams.network,
                    injector=member.injector,
                    cluster=member.cluster,
                )
            )
        arrays_list = kernel.run_stacked(first.spec.num_iterations, runs)
        results: list[RunResult] = []
        for member, arrays in zip(members, arrays_list, strict=True):
            trace = RunTrace.from_arrays(
                scheme=member.spec.scheme,
                cluster_name=member.cluster.name,
                arrays=arrays,
                metadata=member.setup.metadata,
            )
            results.append(RunResult.from_trace(member.spec, trace))
        return results

    @staticmethod
    def _run_training_stack(
        members: Sequence[_TrainingStackMember],
    ) -> list[RunResult]:
        """Execute one stackable training group through the stacked scan."""
        traces = members[0].protocol.run_stacked(
            [member.model for member in members],
            [member.partitioned for member in members],
            [member.cluster for member in members],
            [member.config for member in members],
        )
        return [
            RunResult.from_trace(member.spec, trace)
            for member, trace in zip(members, traces, strict=True)
        ]

    def _run_sweep_specs(
        self,
        specs: Sequence[RunSpec],
        executor: "Executor | str | None" = None,
    ) -> list[RunResult]:
        """Dispatch sweep specs through stacked groups plus a fallback."""
        chosen = resolve_executor(executor)
        specs = list(specs)
        results: list[RunResult | None] = [None] * len(specs)
        timing_groups: dict[tuple[Any, ...], list[_TimingStackMember]] = {}
        training_groups: dict[tuple[Any, ...], list[_TrainingStackMember]] = {}
        remainder: list[int] = []
        cluster_cache: dict[tuple[Any, ...], ClusterSpec] = {}
        for index, spec in enumerate(specs):
            if not isinstance(spec, RunSpec):
                raise SpecError(
                    f"Engine.sweep expects RunSpecs, got {type(spec).__name__}"
                )
            if self._timing_stackable(spec):
                self.validate(spec)
                timing_member = self._prepare_timing_member(
                    index, spec, cluster_cache
                )
                if timing_member is not None:
                    timing_groups.setdefault(
                        timing_member.group_key, []
                    ).append(timing_member)
                    continue
            elif self._training_stackable(spec):
                self.validate(spec)
                training_member = self._prepare_training_member(
                    index, spec, cluster_cache
                )
                if training_member is not None:
                    training_groups.setdefault(
                        training_member.group_key, []
                    ).append(training_member)
                    continue
            remainder.append(index)
        for key in [key for key, group in training_groups.items() if len(group) < 2]:
            remainder.extend(member.index for member in training_groups.pop(key))
        # A singleton timing group run in-process is a 1-run stack, which
        # reuses the cluster and strategy its member already built.  Under
        # an explicit executor, singletons join the fallback instead, so
        # the executor sees every ragged run.
        if chosen is not None:
            for key in [k for k, group in timing_groups.items() if len(group) < 2]:
                remainder.extend(member.index for member in timing_groups.pop(key))
        remainder.sort()
        timing_chunks: list[list[_TimingStackMember]] = []
        for timing_group in timing_groups.values():
            spec0 = timing_group[0].spec
            per_run = max(
                1, spec0.num_iterations * timing_group[0].cluster.num_workers
            )
            step = max(1, _STACK_ELEMENT_CAP // per_run)
            for start in range(0, len(timing_group), step):
                timing_chunks.append(timing_group[start : start + step])
        training_chunks = list(training_groups.values())
        # An explicit executor may take whole stacked groups as units, so a
        # pool moves per-group stacks, not per-run pickles.  A declined
        # dispatch (run_groups -> None) and the default executor=None both
        # fall through to the in-process stacked path.
        member_chunks: list[list[Any]] = [*timing_chunks, *training_chunks]
        dispatched: list[list[RunResult]] | None = None
        if chosen is not None and member_chunks:
            group_specs = [
                [member.spec for member in chunk] for chunk in member_chunks
            ]
            dispatched = chosen.run_groups(self, group_specs)
        if dispatched is not None:
            for chunk, chunk_results in zip(member_chunks, dispatched, strict=True):
                for member, result in zip(chunk, chunk_results, strict=True):
                    results[member.index] = result
        else:
            for timing_chunk in timing_chunks:
                for member, result in zip(
                    timing_chunk, self._run_timing_stack(timing_chunk), strict=True
                ):
                    results[member.index] = result
            for training_chunk in training_chunks:
                for member, result in zip(
                    training_chunk,
                    self._run_training_stack(training_chunk),
                    strict=True,
                ):
                    results[member.index] = result
        if remainder:
            fallback = self.run_many(
                [specs[index] for index in remainder], executor=chosen
            )
            for index, result in zip(remainder, fallback, strict=True):
                results[index] = result
        final: list[RunResult] = []
        for result in results:
            assert result is not None  # every index is filled above
            final.append(result)
        return final

    def compare(
        self,
        spec: RunSpec,
        schemes: Sequence[str],
        executor: "Executor | str | None" = None,
    ) -> dict[str, RunResult]:
        """Run the same spec under several schemes (paired by shared seed).

        ``executor`` has the same meaning as in :meth:`run_many`.
        """
        results = self.run_many(
            [spec.replace(scheme=scheme) for scheme in schemes], executor=executor
        )
        return dict(zip(schemes, results))

    def sweep(
        self,
        spec: RunSpec,
        executor: "Executor | str | None" = None,
        **axes: Iterable[Any],
    ) -> list[RunResult]:
        """Run the cartesian product of field overrides.

        Each keyword names a :class:`RunSpec` field and supplies the values
        to sweep; results are returned in row-major order of the axes::

            engine.sweep(base, scheme=["naive", "cyclic"], seed=[0, 1, 2])

        yields the six runs naive/0, naive/1, ... cyclic/2.

        Sweeps are *planned*: specs that share their decode structure and
        kernel inputs (registry backends, ``rng_version=2``, explicit
        seeds) are executed as run-stacked groups — one 3-D kernel call (or
        one stacked SSP schedule scan) per group instead of one call per
        run — and everything else falls back to :meth:`run_many`.  Under
        ``executor=None`` a stackable timing spec with no stack partner
        runs as a 1-run stack, so its cluster and strategy are built once.
        Stacking never changes results: each run draws from its own seed's
        per-component streams, so every result is bit-identical to a
        standalone :meth:`run` of the same spec, stacked or not.

        ``executor`` changes *where* the planned units execute, never what
        they are.  ``None`` (default) runs everything in-process.  An
        explicit executor (name or
        :class:`~repro.api.executors.Executor` instance) is offered whole
        stacked groups as dispatch units — ``"process"`` pickles one
        result stack per group instead of one result per run — and the
        ragged remainder, singletons included, runs through
        :meth:`run_many` on the same executor.  ``executor="cached"`` wraps
        the run store (:mod:`repro.store`): re-running an identical sweep
        recomputes nothing, so interrupted sweeps resume where they left
        off.

        Raises
        ------
        EngineError
            When an axis is not a :class:`RunSpec` field, or is given an
            empty value list — the cartesian product would silently be
            empty.
        """
        if not axes:
            return self.run_many([spec], executor=executor)
        names = list(axes)
        field_names = {field.name for field in fields(RunSpec)}
        value_lists: list[list[Any]] = []
        for name in names:
            if name not in field_names:
                raise EngineError(
                    f"unknown sweep axis {name!r}; sweep axes are RunSpec "
                    f"fields: {sorted(field_names)}"
                )
            values = list(axes[name])
            if not values:
                raise EngineError(
                    f"sweep axis {name!r} has no values; every swept axis "
                    "needs at least one value (omit the axis to keep the "
                    "base spec's setting)"
                )
            value_lists.append(values)
        specs = [
            spec.replace(**dict(zip(names, values)))
            for values in itertools.product(*value_lists)
        ]
        return self._run_sweep_specs(specs, executor=executor)
