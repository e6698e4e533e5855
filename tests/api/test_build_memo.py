"""Strategy and cluster builds are memoised on the process-wide kernel cache.

A timing run starts by building its cluster and its coding strategy, both
deterministic in their inputs.  The cache keeps one build per distinct
input, so Fig. 2's grid of 4 schemes x 6 delays x 10 seeds builds 40
strategies and 10 clusters, a resumable sweep does not build twice, runs
seeded from fresh entropy always build, and clearing the cache empties both
memos.
"""

from __future__ import annotations

import pytest

import repro.api.engine as engine_module
import repro.experiments.common as common_module
from repro.api import CachedExecutor, Engine, RunSpec, StragglerSpec
from repro.simulation.vectorized import TimingKernelCache
from repro.store import FileRunStore

SCHEMES = ("naive", "cyclic", "heter_aware", "group_based")
DELAYS = (0.0, 0.5, 1.0, 2.0, 4.0, float("inf"))


def straggler(delay: float) -> StragglerSpec:
    if delay == 0:
        return StragglerSpec("none")
    return StragglerSpec(
        "artificial_delay", {"num_stragglers": 1, "delay_seconds": delay}
    )


def base(seed: int | None = 0) -> RunSpec:
    return RunSpec(
        mode="timing",
        cluster="Cluster-A",
        num_stragglers=1,
        total_samples=2048,
        num_iterations=10,
        seed=seed,
        rng_version=2,
    )


@pytest.fixture()
def builds(monkeypatch):
    """Counts of strategy and cluster builds, from an empty memo."""
    Engine.clear_timing_kernel_cache()
    counts = {"strategy": 0, "cluster": 0}
    build_strategy = common_module.build_strategy
    build_cluster = engine_module.build_cluster

    def counting_strategy(*args, **kwargs):
        counts["strategy"] += 1
        return build_strategy(*args, **kwargs)

    def counting_cluster(*args, **kwargs):
        counts["cluster"] += 1
        return build_cluster(*args, **kwargs)

    monkeypatch.setattr(common_module, "build_strategy", counting_strategy)
    monkeypatch.setattr(engine_module, "build_cluster", counting_cluster)
    yield counts
    Engine.clear_timing_kernel_cache()


def test_fig2_grid_builds_each_strategy_and_cluster_once(builds):
    engine = Engine()
    for seed in range(10):
        for scheme in SCHEMES:
            for delay in DELAYS:
                spec = base(seed).replace(scheme=scheme, straggler=straggler(delay))
                engine.run(spec)
    assert builds == {"strategy": 40, "cluster": 10}


def test_cached_sweep_builds_each_strategy_once(builds, tmp_path):
    executor = CachedExecutor(store=FileRunStore(tmp_path / "store"))
    results = Engine().sweep(
        base(), executor=executor, scheme=["heter_aware", "group_based"], seed=[0, 1, 2]
    )
    assert executor.misses == len(results) == 6
    assert builds == {"strategy": 6, "cluster": 3}


def test_memoised_runs_equal_fresh_builds(builds):
    spec = base(3).replace(scheme="heter_aware", straggler=straggler(1.0))
    engine = Engine()
    first = engine.run(spec)
    memoised = engine.run(spec)
    Engine.clear_timing_kernel_cache()
    fresh = engine.run(spec)
    assert builds == {"strategy": 2, "cluster": 2}
    assert first.to_json() == memoised.to_json() == fresh.to_json()


def test_unseeded_runs_always_build(builds):
    engine = Engine()
    spec = base(seed=None).replace(scheme="heter_aware")
    engine.run(spec)
    engine.run(spec)
    assert builds == {"strategy": 2, "cluster": 2}


def test_clear_empties_both_memos(builds):
    engine = Engine()
    spec = base(5).replace(scheme="cyclic")
    engine.run(spec)
    engine.run(spec)
    assert builds == {"strategy": 1, "cluster": 1}
    Engine.clear_timing_kernel_cache()
    engine.run(spec)
    assert builds == {"strategy": 2, "cluster": 2}


class TestMemoised:
    def test_builds_once_per_key_and_kind(self):
        cache = TimingKernelCache(maxsize=1)
        calls = []

        def build(value):
            calls.append(value)
            return [value]

        first = cache.memoised("strategy", "a", lambda: build(1))
        assert cache.memoised("strategy", "a", lambda: build(2)) is first
        assert cache.memoised("cluster", "a", lambda: build(3)) == [3]
        assert calls == [1, 3]
        assert len(cache) == 0  # memo entries are not kernels

    def test_lru_bound_and_failed_builds(self):
        cache = TimingKernelCache(maxsize=1)
        bound = 16  # entries per kind at maxsize=1
        for key in range(bound + 1):
            cache.memoised("strategy", key, lambda key=key: key)
        rebuilt = []
        cache.memoised("strategy", bound, lambda: rebuilt.append("newest"))
        cache.memoised("strategy", 0, lambda: rebuilt.append("oldest"))
        assert rebuilt == ["oldest"]

        def failing():
            raise ValueError("no such scheme")

        with pytest.raises(ValueError):
            cache.memoised("strategy", "bad", failing)
        assert cache.memoised("strategy", "bad", lambda: "built") == "built"

    def test_clear_drops_memos(self):
        cache = TimingKernelCache()
        cache.memoised("cluster", "a", lambda: 1)
        cache.clear()
        assert cache.memoised("cluster", "a", lambda: 2) == 2
