"""Process-pool ``Engine.sweep`` / ``Engine.compare``: bit-identical to
in-process.

Every run derives all randomness from its spec's seed, so distributing the
runs over a :class:`ProcessExecutor` pool must change wall-clock time only.
The comparison serialises results to JSON (NaN-safe) and demands exact
textual equality — no tolerance.  The pool's size rule is pinned here too:
one worker per available CPU, clamped to the number of dispatch units.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.api import Engine, ProcessExecutor, RunSpec
from repro.api import executors as executors_module
from repro.api.engine import EngineError
from repro.api.executors import _run_spec_in_subprocess


def results_json(results) -> str:
    return json.dumps(
        [r.to_dict() for r in results], default=repr, sort_keys=True
    )


def set_cpus(monkeypatch, count: int | None) -> None:
    """Make this process see ``count`` available CPUs on every interpreter."""
    monkeypatch.setattr(os, "process_cpu_count", lambda: count, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: count)


@pytest.fixture(scope="module")
def engine() -> Engine:
    return Engine()


@pytest.fixture(scope="module")
def base_spec() -> RunSpec:
    return RunSpec(num_iterations=6, total_samples=512, seed=3)


class TestParallelSweep:
    def test_pooled_sweep_bit_identical_to_in_process(self, engine, base_spec):
        axes = {"scheme": ["naive", "cyclic", "heter_aware"], "seed": [0, 1]}
        in_process = engine.sweep(base_spec, **axes)
        pooled = engine.sweep(base_spec, executor="process", **axes)
        assert len(in_process) == len(pooled) == 6
        assert results_json(in_process) == results_json(pooled)

    def test_pooled_compare_bit_identical_to_in_process(self, engine, base_spec):
        schemes = ["naive", "heter_aware"]
        in_process = engine.compare(base_spec, schemes)
        pooled = engine.compare(base_spec, schemes, executor="process")
        assert list(in_process) == list(pooled) == schemes
        assert results_json(in_process.values()) == results_json(pooled.values())

    def test_sweep_without_axes_runs_once(self, engine, base_spec):
        results = engine.sweep(base_spec, executor="process")
        assert len(results) == 1
        assert results_json(results) == results_json([engine.run(base_spec)])

    @pytest.mark.parametrize("cpus", (1, 64))
    def test_any_pool_size_bit_identical(self, monkeypatch, engine, base_spec, cpus):
        specs = [base_spec, base_spec.replace(seed=4)]
        reference = engine.run_many(specs)
        set_cpus(monkeypatch, cpus)
        assert results_json(
            engine.run_many(specs, executor="process")
        ) == results_json(reference)

    def test_sweep_and_compare_agree_under_every_executor(self, engine, base_spec):
        for executor in (None, ProcessExecutor()):
            sweep = engine.sweep(
                base_spec, executor=executor, scheme=["naive", "cyclic"]
            )
            compare = engine.compare(
                base_spec, ["naive", "cyclic"], executor=executor
            )
            assert results_json(sweep) == results_json(list(compare.values()))

    def test_subprocess_worker_round_trips_spec(self, engine, base_spec):
        result = _run_spec_in_subprocess(base_spec.to_dict())
        assert results_json([result]) == results_json([engine.run(base_spec)])

    def test_invalid_spec_fails_fast_in_parent(self, engine, base_spec):
        bad = base_spec.replace(scheme="no_such_scheme")
        with pytest.raises(EngineError, match="unknown scheme"):
            engine.run_many([base_spec, bad], executor="process")


class TestPoolSize:
    @pytest.mark.parametrize(
        "cpus, units, expected",
        (
            (4, 1, 1),
            (4, 3, 3),
            (4, 16, 4),
            (64, 2, 2),
            (1, 5, 1),
            (None, 5, 1),
        ),
    )
    def test_one_worker_per_cpu_clamped_to_units(
        self, monkeypatch, cpus, units, expected
    ):
        # Never more workers than dispatch units, so no idle pool workers.
        set_cpus(monkeypatch, cpus)
        assert ProcessExecutor.pool_size(units) == expected

    def test_prefers_process_cpu_count(self, monkeypatch):
        monkeypatch.setattr(os, "process_cpu_count", lambda: 3, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert ProcessExecutor.pool_size(100) == 3

    def test_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "process_cpu_count", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert ProcessExecutor.pool_size(100) == 5


class _InlinePool:
    """Stands in for ``ProcessPoolExecutor``: records the requested pool
    size and maps in the calling process."""

    sizes: list[int] = []

    def __init__(self, max_workers: int) -> None:
        self.sizes.append(max_workers)

    def __enter__(self) -> _InlinePool:
        return self

    def __exit__(self, *exc_info) -> None:
        return None

    def map(self, function, payloads):
        return map(function, payloads)


class _NoPool:
    def __init__(self, max_workers: int) -> None:
        raise AssertionError("an empty dispatch must not start a pool")


class TestDispatch:
    def test_worker_count_capped_by_spec_count(self, monkeypatch, engine, base_spec):
        set_cpus(monkeypatch, 8)
        monkeypatch.setattr(_InlinePool, "sizes", [])
        monkeypatch.setattr(executors_module, "ProcessPoolExecutor", _InlinePool)
        specs = [base_spec.replace(seed=seed) for seed in (0, 1, 2)]
        results = ProcessExecutor().run_specs(engine, specs)
        assert _InlinePool.sizes == [3]
        assert results_json(results) == results_json(engine.run_many(specs))

    def test_group_dispatch_sizes_pool_by_groups(
        self, monkeypatch, engine, base_spec
    ):
        set_cpus(monkeypatch, 8)
        monkeypatch.setattr(_InlinePool, "sizes", [])
        monkeypatch.setattr(executors_module, "ProcessPoolExecutor", _InlinePool)
        stackable = base_spec.replace(rng_version=2)
        groups = [
            [stackable.replace(scheme=scheme, seed=seed) for seed in (0, 1)]
            for scheme in ("naive", "cyclic")
        ]
        grouped = ProcessExecutor().run_groups(engine, groups)
        assert _InlinePool.sizes == [2]
        assert grouped is not None
        assert [results_json(unit) for unit in grouped] == [
            results_json(engine.run_many(group)) for group in groups
        ]

    @pytest.mark.parametrize("method", ("run_specs", "run_groups"))
    def test_empty_dispatch_starts_no_pool(self, monkeypatch, engine, method):
        monkeypatch.setattr(executors_module, "ProcessPoolExecutor", _NoPool)
        assert getattr(ProcessExecutor(), method)(engine, []) == []
