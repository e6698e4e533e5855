"""Per-layer spans recorded from outside the program.

The traced run wraps the public functions and methods listed in
:data:`TARGETS` in place, for the duration of one pass, and records one span
per call: name, start, end and the span that was open when it started.  A
span's *self time* is its duration minus the time covered by its child
spans, so the self times of one pass add up to the time spent inside any
traced call.

Nothing in ``repro`` changes.  A method is wrapped on its defining class and
on every ``repro`` subclass that overrides it; a module function is replaced
in every loaded ``repro.*`` module that holds the same object, which also
catches ``from x import f`` call sites.  A target that no longer exists is
skipped and reports zero calls.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True)
class Target:
    """One public call boundary: ``module.owner.attr`` or ``module.attr``."""

    layer: str
    module: str
    owner: str | None
    attr: str

    @property
    def name(self) -> str:
        attr = "init" if self.attr == "__init__" else self.attr
        parts = [self.layer, self.owner, attr] if self.owner else [self.layer, attr]
        return ".".join(parts)


def _targets(layer: str, module: str, *paths: str) -> list[Target]:
    out = []
    for path in paths:
        owner, _, attr = path.rpartition(".")
        out.append(Target(layer, module, owner or None, attr))
    return out


TARGETS: tuple[Target, ...] = (
    *_targets("api", "repro.api.engine", "Engine.run", "Engine.sweep", "Engine.compare"),
    *_targets("api", "repro.api.result", "RunResult.from_trace"),
    *_targets("api", "repro.api.spec", "RunSpec.fingerprint"),
    *_targets("api", "repro.api.executors", "CachedExecutor.run_groups"),
    *_targets("simulation", "repro.simulation.vectorized",
              "TimingKernelCache.get_or_build", "TimingTraceKernel.run_batched",
              "TimingTraceKernel.run_stacked"),
    *_targets("simulation", "repro.simulation.cluster",
              "ClusterSpec.compute_times_batch", "ClusterSpec.compute_times_stacked"),
    *_targets("simulation", "repro.simulation.stragglers",
              "StragglerInjector.delays_batch", "StragglerInjector.delays_stacked"),
    *_targets("simulation", "repro.simulation.trace", "RunTrace.from_arrays",
              "RaggedColumn.from_rows", "TraceColumns.to_bytes",
              "TraceColumns.from_bytes"),
    *_targets("experiments", "repro.experiments.clusters", "build_cluster"),
    *_targets("experiments", "repro.experiments.common", "measure_timing_trace"),
    *_targets("experiments", "repro.experiments.workloads", "Workload.make_dataset"),
    *_targets("coding", "repro.coding.registry", "build_strategy"),
    *_targets("coding", "repro.coding.decoding", "Decoder.__init__",
              "Decoder.earliest_decodable_prefix", "Decoder.decoding_vector"),
    *_targets("learning", "repro.learning.models.base",
              "Model.batch_loss_and_gradient", "Model.multi_loss_and_gradient"),
    *_targets("learning", "repro.learning.optimizers", "Optimizer.step_inplace"),
    *_targets("protocols", "repro.protocols.coded", "CodedBSPProtocol.run"),
    *_targets("protocols", "repro.protocols.ssp", "SSPProtocol.run",
              "SSPProtocol.run_stacked"),
    *_targets("protocols", "repro.protocols.base", "evaluate_mean_loss"),
    *_targets("metrics", "repro.metrics.timing_stats", "timing_stats"),
    *_targets("metrics", "repro.metrics.resource_usage", "run_resource_usage"),
    *_targets("metrics", "repro.metrics.convergence", "align_curves",
              "area_under_loss_curve"),
    *_targets("store", "repro.store", "FileRunStore.get", "FileRunStore.put"),
)

#: Counters and ratios the traced run reports beside the spans, with units.
COUNTERS: dict[str, str] = {
    "protocols.ssp.replay_s": "s",
    "simulation.kernel_cache.hit_frac": "ratio",
    "coding.decode_memo.hit_frac": "ratio",
    "store.cached.hit_frac": "ratio",
    "store.bytes_written": "bytes",
    "unattributed_frac": "ratio",
    "trace_overhead_frac": "ratio",
}


def metric_units(targets: Iterable[Target] = TARGETS) -> dict[str, str]:
    """Every per-layer metric name the traced run reports, with its unit."""
    units = {}
    for target in targets:
        units[f"{target.name}.self_s"] = "s"
        units[f"{target.name}.calls"] = "count"
    units.update(COUNTERS)
    return units


Span = list  # [name, start, end, parent index or -1]


class SpanRecorder:
    """Keeps the spans of the calls made through its wrappers, in memory."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []

    def call(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        open_spans = self._open
        spans = self.spans
        # An override calling its base implementation (super()) is one span.
        if open_spans and spans[open_spans[-1]][0] == name:
            return fn(*args, **kwargs)
        index = len(spans)
        spans.append([name, self.clock(), 0.0, open_spans[-1] if open_spans else -1])
        open_spans.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            spans[index][2] = self.clock()
            open_spans.pop()

    def drain(self) -> list[Span]:
        """Hand over the recorded spans and start afresh."""
        spans, self.spans = self.spans, []
        return spans


def self_times(spans: Iterable[Span]) -> dict[str, tuple[float, int]]:
    """Per span name: (total self time, number of calls)."""
    spans = list(spans)
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals: dict[str, tuple[float, int]] = {}
    for index, (name, start, end, _) in enumerate(spans):
        seconds, calls = totals.get(name, (0.0, 0))
        totals[name] = (seconds + (end - start) - covered[index], calls + 1)
    return totals


def _wrap(recorder: SpanRecorder, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        return recorder.call(name, fn, *args, **kwargs)

    return wrapper


def _repro_modules() -> list[Any]:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def _subclasses(cls: type) -> Iterator[type]:
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("repro."):
            yield sub
        yield from _subclasses(sub)


def _resolve(target: Target) -> Any:
    try:
        module = importlib.import_module(target.module)
    except ImportError:
        return None
    owner = module if target.owner is None else getattr(module, target.owner, None)
    if owner is None or not hasattr(owner, target.attr):
        return None
    return owner


class Tracing:
    """Wraps the targets on entry and restores the originals on exit."""

    def __init__(self, recorder: SpanRecorder, targets: Iterable[Target] = TARGETS) -> None:
        self.recorder = recorder
        self.targets = tuple(targets)
        self._restore: list[tuple[Any, str, Any]] = []

    def __enter__(self) -> Tracing:
        for target in self.targets:
            owner = _resolve(target)
            if owner is None:
                continue
            if isinstance(owner, type):
                self._wrap_method(owner, target)
            else:
                self._wrap_function(getattr(owner, target.attr), target)
        return self

    def __exit__(self, *exc: object) -> None:
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore.clear()

    def _wrap_method(self, cls: type, target: Target) -> None:
        for holder in dict.fromkeys([cls, *_subclasses(cls)]):
            raw = vars(holder).get(target.attr)
            if raw is None:
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped: Any = type(raw)(_wrap(self.recorder, target.name, raw.__func__))
            else:
                wrapped = _wrap(self.recorder, target.name, raw)
            self._restore.append((holder, target.attr, raw))
            setattr(holder, target.attr, wrapped)

    def _wrap_function(self, original: Callable[..., Any], target: Target) -> None:
        wrapped = _wrap(self.recorder, target.name, original)
        for module in _repro_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapped)
