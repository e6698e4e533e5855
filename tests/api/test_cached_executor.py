"""The ``cached`` executor: resumable sweeps with zero recomputation.

The wrapper's contract has three parts: results are bit-identical to a
plain serial sweep (store round-trips included), a warm store answers
every cacheable spec from disk (hits == specs, zero inner computation),
and specs with ``seed=None`` bypass the store entirely.
"""

from __future__ import annotations

import json

import pytest

from repro.api import CachedExecutor, Engine, RunSpec, StragglerSpec
from repro.store import FileRunStore


def results_json(results) -> str:
    # to_json (json_default) rather than default=repr: the store round-trip
    # normalises numpy scalars to Python ones, exactly as JSON does.
    return json.dumps([r.to_json() for r in results])


@pytest.fixture(scope="module")
def engine() -> Engine:
    return Engine()


@pytest.fixture()
def store(tmp_path) -> FileRunStore:
    return FileRunStore(tmp_path / "store")


@pytest.fixture(scope="module")
def timing_spec() -> RunSpec:
    # rng_version=2 + explicit seed: stackable, so the sweep planner hands
    # the executor whole groups and run_groups is exercised.
    return RunSpec(
        scheme="naive",
        num_iterations=6,
        total_samples=512,
        straggler=StragglerSpec(
            "artificial_delay", {"num_stragglers": 1, "delay_seconds": 1.0}
        ),
        rng_version=2,
        seed=3,
    )


@pytest.fixture(scope="module")
def training_spec() -> RunSpec:
    return RunSpec(
        mode="training",
        scheme="ssp",
        workload="blobs_softmax",
        total_samples=128,
        num_iterations=3,
        num_stragglers=0,
        loss_eval_samples=64,
        rng_version=2,
        seed=1,
    )


class TestSweepResume:
    def test_timing_sweep_cold_then_warm(self, engine, store, timing_spec):
        seeds = list(range(8))
        plain = engine.sweep(timing_spec, seed=seeds)

        cold = CachedExecutor(store=store)
        cold_results = engine.sweep(timing_spec, executor=cold, seed=seeds)
        assert (cold.hits, cold.misses, cold.uncacheable) == (0, 8, 0)
        assert results_json(cold_results) == results_json(plain)

        warm = CachedExecutor(store=store)
        warm_results = engine.sweep(timing_spec, executor=warm, seed=seeds)
        assert (warm.hits, warm.misses, warm.uncacheable) == (8, 0, 0)
        assert results_json(warm_results) == results_json(plain)

    def test_training_sweep_cold_then_warm(self, engine, store, training_spec):
        seeds = [1, 2, 3]
        plain = engine.sweep(training_spec, seed=seeds)

        cold = CachedExecutor(store=store)
        cold_results = engine.sweep(training_spec, executor=cold, seed=seeds)
        assert (cold.hits, cold.misses) == (0, 3)
        assert results_json(cold_results) == results_json(plain)

        warm = CachedExecutor(store=store)
        warm_results = engine.sweep(training_spec, executor=warm, seed=seeds)
        assert (warm.hits, warm.misses) == (3, 0)
        assert results_json(warm_results) == results_json(plain)

    def test_mixed_hit_miss_sweep(self, engine, store, timing_spec):
        first = CachedExecutor(store=store)
        engine.sweep(timing_spec, executor=first, seed=[0, 1, 2])

        second = CachedExecutor(store=store)
        results = engine.sweep(timing_spec, executor=second, seed=[0, 1, 2, 3, 4])
        assert (second.hits, second.misses) == (3, 2)
        plain = engine.sweep(timing_spec, seed=[0, 1, 2, 3, 4])
        assert results_json(results) == results_json(plain)

    def test_mixed_axes_sweep(self, engine, store, timing_spec):
        """Heterogeneous sweeps (several schemes) cache per-spec too."""
        axes = {"scheme": ["naive", "cyclic"], "seed": [0, 1]}
        cold = CachedExecutor(store=store)
        cold_results = engine.sweep(timing_spec, executor=cold, **axes)
        assert (cold.hits, cold.misses) == (0, 4)

        warm = CachedExecutor(store=store)
        warm_results = engine.sweep(timing_spec, executor=warm, **axes)
        assert (warm.hits, warm.misses) == (4, 0)
        assert results_json(warm_results) == results_json(cold_results)
        assert results_json(warm_results) == results_json(
            engine.sweep(timing_spec, **axes)
        )


class TestRunMany:
    def test_run_many_resumes(self, engine, store, timing_spec):
        specs = [timing_spec.replace(seed=s) for s in (10, 11)]
        cold = CachedExecutor(store=store)
        cold_results = engine.run_many(specs, executor=cold)
        assert (cold.hits, cold.misses) == (0, 2)

        warm = CachedExecutor(store=store)
        warm_results = engine.run_many(specs, executor=warm)
        assert (warm.hits, warm.misses) == (2, 0)
        assert results_json(warm_results) == results_json(cold_results)
        assert results_json(warm_results) == results_json(engine.run_many(specs))

    def test_named_executor_uses_env_store(
        self, engine, timing_spec, tmp_path, monkeypatch
    ):
        """``executor="cached"`` alone resolves the store from the env."""
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "env-store"))
        first = engine.sweep(timing_spec, executor="cached", seed=[0, 1])
        second = engine.sweep(timing_spec, executor="cached", seed=[0, 1])
        assert results_json(first) == results_json(second)
        assert FileRunStore(tmp_path / "env-store").stats()["entries"] == 2


class TestUncacheable:
    def test_seed_none_bypasses_store(self, engine, store):
        spec = RunSpec(scheme="naive", num_iterations=2, total_samples=256, seed=None)
        executor = CachedExecutor(store=store)
        engine.run_many([spec, spec], executor=executor)
        assert (executor.hits, executor.misses, executor.uncacheable) == (0, 0, 2)
        assert store.fingerprints() == ()


class TestInnerExecutor:
    def test_wraps_inner_transport(self, engine, store, timing_spec):
        seeds = [0, 1, 2, 3]
        cold = CachedExecutor(inner="process", store=store)
        assert cold.requires_subprocess
        cold_results = engine.sweep(timing_spec, executor=cold, seed=seeds)
        assert (cold.hits, cold.misses) == (0, 4)

        warm = CachedExecutor(inner="process", store=store)
        warm_results = engine.sweep(timing_spec, executor=warm, seed=seeds)
        assert (warm.hits, warm.misses) == (4, 0)
        assert results_json(warm_results) == results_json(cold_results)
        assert results_json(warm_results) == results_json(
            engine.sweep(timing_spec, seed=seeds)
        )

    def test_is_registered_executor(self):
        from repro.api import EXECUTORS
        from repro.api.executors import resolve_executor

        assert EXECUTORS.get("cached") is CachedExecutor
        assert isinstance(resolve_executor("cached"), CachedExecutor)
