"""Sweep executors: *what* runs is the engine's job, *where* runs execute
is an :class:`Executor`'s.

The engine plans a sweep into stacked groups plus a ragged remainder
(:meth:`repro.api.engine.Engine._run_sweep_specs`).  With ``executor=None``
it runs every unit in-process; that path is the reference.  An explicit
executor — a builtin name or an :class:`Executor` instance — is offered
the planned units instead::

    engine.sweep(spec, executor="process", seed=seeds)

The whole contract is **bit-identity**: every executor must return exactly
the results ``executor=None`` would, in the same order.  Each run draws all
randomness from its spec's seed, so an executor only moves results around —
it can never change them.

Builtin executors
-----------------
``process``
    A :class:`~concurrent.futures.ProcessPoolExecutor` returning pickled
    ``RunResult`` objects; one worker per available CPU.
``cached``
    Answers specs from a run store (:mod:`repro.store`) and computes the
    misses in-process or through an inner executor.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from collections.abc import Callable, Sequence
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import TYPE_CHECKING, Any, TypeVar

from .result import RunResult
from .spec import RunSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..store import FileRunStore
    from .engine import Engine

__all__ = [
    "CachedExecutor",
    "Executor",
    "ExecutorError",
    "ProcessExecutor",
    "resolve_executor",
]

_Payload = TypeVar("_Payload")
_Output = TypeVar("_Output")


class ExecutorError(ValueError):
    """Raised on invalid executor arguments, and when an executor's worker
    processes fail."""


class Executor(ABC):
    """Where a batch of independent runs executes.

    Subclasses implement :meth:`run_specs` (independent runs, e.g. the
    ragged sweep remainder or a plain :meth:`~repro.api.engine.Engine
    .run_many`) and may implement :meth:`run_groups` to take whole stacked
    sweep groups; returning ``None`` from the latter defers to the engine's
    in-process stacked path.  Implementations must preserve input order and
    return results bit-identical to ``executor=None``.
    """

    #: Builtin name (informational; set on the builtin subclasses).
    name: str = ""

    @abstractmethod
    def run_specs(self, engine: Engine, specs: Sequence[RunSpec]) -> list[RunResult]:
        """Execute independent specs, one result per spec, in order."""

    def run_groups(
        self, engine: Engine, groups: Sequence[list[RunSpec]]
    ) -> list[list[RunResult]] | None:
        """Execute whole stacked sweep groups (one unit per group).

        Return ``None`` to decline: the engine then runs its stacked
        kernels in-process exactly as ``executor=None`` would.
        """
        return None


def resolve_executor(executor: Executor | str | None) -> Executor | None:
    """Resolve ``executor=`` arguments: ``None``, a name, or an instance.

    A name builds a fresh instance of the builtin executor it names.
    """
    if executor is None:
        return None
    if isinstance(executor, Executor):
        return executor
    if isinstance(executor, str):
        named: dict[str, type[Executor]] = {
            "process": ProcessExecutor,
            "cached": CachedExecutor,
        }
        if executor not in named:
            raise ExecutorError(
                f"unknown executor {executor!r}; expected one of {list(named)}"
            )
        return named[executor]()
    raise ExecutorError(
        "executor must be None, a builtin name or an Executor instance; "
        f"got {type(executor).__name__}"
    )


# ---------------------------------------------------------------------------
# subprocess entry points (module-level so they pickle under every start
# method; each worker rebuilds a fresh Engine, and every
# run draws all randomness from its spec's seed — bit-identical by design)
# ---------------------------------------------------------------------------

def _run_spec_in_subprocess(spec_dict: dict[str, Any]) -> RunResult:
    """Execute one serialised spec in a worker process."""
    from .engine import Engine

    return Engine().run(RunSpec.from_dict(spec_dict))


def _run_group_in_subprocess(spec_dicts: list[dict[str, Any]]) -> list[RunResult]:
    """Execute one stacked sweep group in a worker process."""
    from .engine import Engine

    specs = [RunSpec.from_dict(spec_dict) for spec_dict in spec_dicts]
    return Engine()._run_sweep_specs(specs)


# ---------------------------------------------------------------------------
# builtin executors
# ---------------------------------------------------------------------------

class ProcessExecutor(Executor):
    """Process pool; workers pickle whole ``RunResult`` objects back.

    The pool has one worker per CPU available to this process, clamped to
    the number of dispatch units so it never spawns idle workers.

    A pool only pays off when per-unit work outweighs fork and pickle
    costs.  Measured on 2 vCPUs against the in-process path
    (``executor=None``), it wins on the 7-protocol softmax compare
    (1.21 s vs 1.7–2.1 s) and loses on the Fig. 2a sweep (1.53 vs 0.85 s)
    and the Table II sweep (0.83 vs 0.38 s).  On the 7-protocol MLP
    compare it takes 5.6–31 s from run to run against 3.3–3.5 s
    in-process, because of BLAS oversubscription: each forked worker
    keeps a full OpenBLAS thread pool.  With ``OPENBLAS_NUM_THREADS=1``
    the same compare takes 2.3–3.3 s under ``process`` against 4.0–4.6 s
    in-process.

    A worker that dies (a crash, ``os._exit``, the OOM killer) breaks the
    pool; the dispatch then raises :class:`ExecutorError` chained from the
    pool's ``BrokenProcessPool``, and no partial result is returned.
    """

    name = "process"

    @staticmethod
    def pool_size(num_units: int) -> int:
        """Workers for a batch of ``num_units`` dispatch units.

        ``os.process_cpu_count`` (3.13+) respects the scheduling affinity
        mask, so containers pinned to a CPU subset get the right pool size;
        ``os.cpu_count`` is the fallback on older interpreters.
        """
        process_cpu_count = getattr(os, "process_cpu_count", None)
        cpus = process_cpu_count() if process_cpu_count is not None else None
        return max(1, min(cpus or os.cpu_count() or 1, num_units))

    def run_specs(self, engine: Engine, specs: Sequence[RunSpec]) -> list[RunResult]:
        return self._map(
            _run_spec_in_subprocess, [spec.to_dict() for spec in specs]
        )

    def run_groups(
        self, engine: Engine, groups: Sequence[list[RunSpec]]
    ) -> list[list[RunResult]] | None:
        return self._map(
            _run_group_in_subprocess,
            [[spec.to_dict() for spec in group] for group in groups],
        )

    def _map(
        self, function: Callable[[_Payload], _Output], payloads: list[_Payload]
    ) -> list[_Output]:
        if not payloads:
            return []
        with ProcessPoolExecutor(max_workers=self.pool_size(len(payloads))) as pool:
            try:
                return list(pool.map(function, payloads))
            except BrokenProcessPool as exc:
                raise ExecutorError(
                    f"executor {self.name!r}: a worker process died before "
                    "returning its results"
                ) from exc


class CachedExecutor(Executor):
    """Answer specs from a :class:`~repro.store.FileRunStore`, compute the rest.

    Wraps any inner executor (default: the engine's normal in-process
    paths).  Every spec with an explicit seed is fingerprinted and looked
    up first; hits come back from disk (JSON-exact by the store contract),
    misses run through the inner executor — keeping its stacking
    behaviour — and are written back.  Re-running an identical sweep
    therefore performs zero recomputation: the sweep is *resumable*, and
    partial progress (e.g. an interrupted sweep's completed groups) is
    never repeated.  A dispatch whose inner executor raises writes none of
    its results.

    Specs with ``seed=None`` draw fresh OS entropy per run, so caching
    them would change semantics; they bypass the store entirely and are
    counted in :attr:`uncacheable`.

    The instance keeps :attr:`hits` / :attr:`misses` / :attr:`uncacheable`
    counters (cumulative across calls) so callers — tests, the sweep
    server's responses — can assert cache behaviour instead of inferring
    it from timing.
    """

    name = "cached"

    def __init__(
        self,
        inner: Executor | str | None = None,
        store: FileRunStore | None = None,
        store_path: str | None = None,
    ) -> None:
        self.inner = resolve_executor(inner)
        self._store = store
        self._store_path = store_path
        self.hits = 0
        self.misses = 0
        self.uncacheable = 0

    @property
    def store(self) -> FileRunStore:
        """The backing store, opened lazily (honours ``$REPRO_STORE_DIR``)."""
        if self._store is None:
            from ..store import FileRunStore

            self._store = FileRunStore(self._store_path)
        return self._store

    def _lookup(self, spec: RunSpec) -> tuple[str | None, RunResult | None]:
        """(fingerprint, stored result); fingerprint is None when uncacheable."""
        if spec.seed is None:
            return None, None
        fingerprint = spec.fingerprint()
        return fingerprint, self.store.get(fingerprint)

    def run_specs(self, engine: Engine, specs: Sequence[RunSpec]) -> list[RunResult]:
        results: list[RunResult | None] = [None] * len(specs)
        miss_indices: list[int] = []
        keys: list[str | None] = []
        for index, spec in enumerate(specs):
            fingerprint, stored = self._lookup(spec)
            keys.append(fingerprint)
            if stored is not None:
                self.hits += 1
                results[index] = stored
            else:
                if fingerprint is None:
                    self.uncacheable += 1
                else:
                    self.misses += 1
                miss_indices.append(index)
        if miss_indices:
            miss_specs = [specs[index] for index in miss_indices]
            if self.inner is not None:
                computed = self.inner.run_specs(engine, miss_specs)
            else:
                computed = [engine.run(spec) for spec in miss_specs]
            for index, result in zip(miss_indices, computed, strict=True):
                fingerprint = keys[index]
                if fingerprint is not None:
                    self.store.put(fingerprint, result)
                results[index] = result
        return [result for result in results if result is not None]

    def run_groups(
        self, engine: Engine, groups: Sequence[list[RunSpec]]
    ) -> list[list[RunResult]] | None:
        # Unlike the other executors this one never declines: returning
        # None would send every group — hits included — down the engine's
        # in-process path and bypass the cache.
        grouped: list[list[RunResult | None]] = []
        miss_groups: list[list[RunSpec]] = []
        miss_slots: list[tuple[int, int, str | None]] = []  # (group, pos, key)
        for group_index, group in enumerate(groups):
            slots: list[RunResult | None] = [None] * len(group)
            misses: list[RunSpec] = []
            for position, spec in enumerate(group):
                fingerprint, stored = self._lookup(spec)
                if stored is not None:
                    self.hits += 1
                    slots[position] = stored
                else:
                    if fingerprint is None:
                        self.uncacheable += 1
                    else:
                        self.misses += 1
                    miss_slots.append((group_index, position, fingerprint))
                    misses.append(spec)
            grouped.append(slots)
            if misses:
                miss_groups.append(misses)
        if miss_groups:
            computed: list[list[RunResult]] | None = None
            if self.inner is not None:
                computed = self.inner.run_groups(engine, miss_groups)
            if computed is None:
                # Inner declined (or no inner): the engine's in-process
                # stacked path.  A miss subset of a homogeneous group is
                # still homogeneous, so stacking is preserved.
                computed = [
                    engine._run_sweep_specs(miss_group) for miss_group in miss_groups
                ]
            flat = [result for unit in computed for result in unit]
            for (group_index, position, fingerprint), result in zip(
                miss_slots, flat, strict=True
            ):
                if fingerprint is not None:
                    self.store.put(fingerprint, result)
                grouped[group_index][position] = result
        return [
            [result for result in slots if result is not None] for slots in grouped
        ]
