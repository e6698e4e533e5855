"""The sweep planner: stacked dispatch is invisible except in wall-clock.

``Engine.sweep`` partitions its cartesian product into stackable groups and
routes each group through one run-stacked kernel call.  The contract pinned
here: every result is bit-identical (JSON-exact) to the per-run ``run_many``
path, regardless of how the planner grouped the specs — and everything the
planner cannot stack (coded-protocol training, singletons under an explicit
executor) silently falls back to the per-run path.
"""

from __future__ import annotations

import json

import pytest

import repro.experiments.common as common_module
from repro.api import CachedExecutor, Engine, RunSpec
from repro.api.engine import EngineError
from repro.api.spec import NetworkSpec, StragglerSpec
from repro.store import FileRunStore


def results_json(results) -> str:
    return json.dumps(
        [r.to_dict() for r in results], default=repr, sort_keys=True
    )


@pytest.fixture(scope="module")
def engine() -> Engine:
    return Engine()


def assert_sweep_matches_run_many(engine, base, **axes):
    swept = engine.sweep(base, **axes)
    specs = [r.spec for r in swept]
    reference = engine.run_many(specs)
    assert results_json(swept) == results_json(reference)
    return swept


class TestStackedTimingSweeps:
    def test_seed_sweep_pinned_cluster(self, engine):
        # One strategy (pinned cluster options), many seeds: the canonical
        # stackable group.
        base = RunSpec(
            num_iterations=12,
            total_samples=1024,
            cluster_options={"rng": 123},
            rng_version=2,
            seed=0,
        )
        assert_sweep_matches_run_many(engine, base, seed=list(range(6)))

    def test_seed_sweep_per_seed_clusters(self, engine):
        # Default cluster options derive the cluster from each seed; the
        # naive scheme is throughput-independent, so the specs still group
        # into one stack with per-run clusters.
        base = RunSpec(
            scheme="naive",
            num_iterations=12,
            total_samples=1024,
            rng_version=2,
            seed=0,
        )
        assert_sweep_matches_run_many(engine, base, seed=list(range(6)))

    def test_delay_axis_with_stochastic_network(self, engine):
        base = RunSpec(
            num_iterations=10,
            total_samples=1024,
            network=NetworkSpec("lognormal", {}),
            rng_version=2,
            seed=7,
        )
        assert_sweep_matches_run_many(
            engine,
            base,
            straggler=[
                StragglerSpec(
                    "artificial_delay",
                    {"num_stragglers": 1, "delay_seconds": delay},
                )
                for delay in (0.5, 1.0, 2.0)
            ],
            seed=[7, 8],
        )

    def test_fail_stop_rows_survive_stacking(self, engine):
        base = RunSpec(
            num_iterations=10,
            total_samples=1024,
            straggler=StragglerSpec("fail_stop", {"failures": {1: 4}}),
            rng_version=2,
            seed=0,
        )
        swept = assert_sweep_matches_run_many(engine, base, seed=[0, 1, 2])
        assert all(r.trace.metadata["rng_version"] == 2 for r in swept)


    def test_bursty_stack_matches_per_spec_runs(self, engine, monkeypatch):
        # BurstyStragglers carries per-run state: every stacked member owns
        # its injector, exactly as a standalone Engine.run builds one.
        from repro.simulation.vectorized import TimingTraceKernel

        stack_sizes = []
        run_stacked = TimingTraceKernel.run_stacked

        def recording(self, num_iterations, runs, *args, **kwargs):
            stack_sizes.append(len(runs))
            return run_stacked(self, num_iterations, runs, *args, **kwargs)

        monkeypatch.setattr(TimingTraceKernel, "run_stacked", recording)
        # group_based on a pinned cluster builds one strategy for every
        # seed, so the four seeds form one stack.
        base = RunSpec(
            scheme="group_based",
            num_iterations=30,
            total_samples=1024,
            cluster_options={"rng": 123},
            straggler=StragglerSpec(
                "bursty",
                {
                    "enter_probability": 0.2,
                    "exit_probability": 0.3,
                    "mean_delay_seconds": 1.0,
                },
            ),
            rng_version=2,
            seed=0,
        )
        swept = engine.sweep(base, seed=[0, 1, 2, 3])
        assert stack_sizes == [4]
        stack_sizes.clear()
        reference = [engine.run(result.spec) for result in swept]
        assert stack_sizes == [1, 1, 1, 1]
        assert results_json(swept) == results_json(reference)


class TestStackedTrainingSweeps:
    @pytest.mark.parametrize("scheme", ["ssp", "dyn_ssp", "async"])
    def test_event_driven_protocols_stack(self, engine, scheme):
        base = RunSpec(
            mode="training",
            scheme=scheme,
            num_iterations=6,
            total_samples=256,
            rng_version=2,
            seed=0,
        )
        assert_sweep_matches_run_many(engine, base, seed=[0, 1, 2])

    def test_coded_protocol_training_falls_back(self, engine):
        # Gradient-coded training has no stacked path; the planner must
        # route it through run_many unchanged.
        base = RunSpec(
            mode="training",
            scheme="heter_aware",
            num_iterations=4,
            total_samples=256,
            rng_version=2,
            seed=0,
        )
        assert_sweep_matches_run_many(engine, base, seed=[0, 1])


class TestPlannerFallbacks:
    def test_default_specs_stack_like_run_many(self, engine):
        base = RunSpec(num_iterations=6, total_samples=512, seed=0)
        assert_sweep_matches_run_many(
            engine, base, seed=[0, 1, 2], scheme=["naive", "cyclic"]
        )

    def test_mixed_timing_training_sweep(self, engine):
        # Timing members stack; coded-protocol training members fall back.
        base = RunSpec(num_iterations=4, total_samples=256, seed=0)
        assert_sweep_matches_run_many(
            engine, base, mode=["timing", "training"], seed=[0, 1, 2]
        )

    def test_process_pool_composes_with_stacking(self, engine):
        # The pool takes the stacked groups as units and the remainder as
        # single runs.  Either way the results are bit-identical.
        base = RunSpec(
            num_iterations=8,
            total_samples=512,
            cluster_options={"rng": 5},
            rng_version=2,
            seed=0,
        )
        axes = {"seed": [0, 1, 2, 3], "mode": ["timing", "training"]}
        serial = engine.sweep(base, **axes)
        pooled = engine.sweep(base, executor="process", **axes)
        assert results_json(serial) == results_json(pooled)

    def test_results_keep_sweep_order(self, engine):
        base = RunSpec(
            num_iterations=4,
            total_samples=512,
            cluster_options={"rng": 5},
            rng_version=2,
            seed=0,
        )
        results = engine.sweep(base, scheme=["naive", "cyclic"], seed=[3, 4])
        assert [(r.spec.scheme, r.spec.seed) for r in results] == [
            ("naive", 3),
            ("naive", 4),
            ("cyclic", 3),
            ("cyclic", 4),
        ]


class TestSweepValidation:
    def test_empty_axis_raises(self, engine):
        base = RunSpec(num_iterations=4, total_samples=512, seed=0)
        with pytest.raises(EngineError, match="has no values"):
            engine.sweep(base, seed=[])

    def test_empty_axis_names_the_axis(self, engine):
        base = RunSpec(num_iterations=4, total_samples=512, seed=0)
        with pytest.raises(EngineError, match="'scheme'"):
            engine.sweep(base, scheme=[], seed=[0, 1])


class TestSingletonTimingGroups:
    """A timing spec with no stack partner is a 1-run stack in-process."""

    @pytest.fixture()
    def strategy_builds(self, monkeypatch):
        # Stacked members and standalone runs both build their strategy in
        # experiments.common's shared timing set-up.  The process-wide
        # cache memoises those builds, so count from an empty memo.
        Engine.clear_timing_kernel_cache()
        calls = []
        build = common_module.build_strategy

        def counting(*args, **kwargs):
            calls.append(args[0])
            return build(*args, **kwargs)

        monkeypatch.setattr(common_module, "build_strategy", counting)
        return calls

    @staticmethod
    def ragged_base() -> RunSpec:
        # Seed-dependent clusters: heter_aware/group_based strategies differ
        # per seed, so those specs have no stack partner.
        return RunSpec(
            num_iterations=20,
            total_samples=1024,
            num_stragglers=1,
            straggler=StragglerSpec(
                "transient", {"probability": 0.2, "mean_delay_seconds": 1.0}
            ),
            rng_version=2,
            seed=0,
        )

    def test_each_strategy_is_built_once(self, engine, strategy_builds):
        base = self.ragged_base()
        swept = engine.sweep(
            base, cluster=["Cluster-A", "Cluster-B"], scheme=["cyclic", "heter_aware"]
        )
        assert len(strategy_builds) == 4
        strategy_builds.clear()
        Engine.clear_timing_kernel_cache()
        reference = [engine.run(result.spec) for result in swept]
        assert len(strategy_builds) == 4
        assert [r.to_json() for r in swept] == [r.to_json() for r in reference]

    def test_ragged_seed_sweep_matches_per_spec_runs(self, engine, strategy_builds):
        base = self.ragged_base()
        swept = engine.sweep(
            base, scheme=["naive", "heter_aware", "group_based"], seed=[0, 1, 2]
        )
        assert len(strategy_builds) == 9
        assert [r.to_json() for r in swept] == [
            engine.run(result.spec).to_json() for result in swept
        ]

    def test_explicit_executor_keeps_fallback_routing(
        self, engine, monkeypatch, tmp_path
    ):
        stacked_sizes = []
        run_stack = Engine._run_timing_stack

        def recording(self, members):
            stacked_sizes.append(len(members))
            return run_stack(self, members)

        monkeypatch.setattr(Engine, "_run_timing_stack", recording)
        base = self.ragged_base()
        axes = {
            "cluster": ["Cluster-A", "Cluster-B"],
            "scheme": ["cyclic", "heter_aware"],
        }
        serial = engine.sweep(base, **axes)
        assert stacked_sizes == [1, 1, 1, 1]
        stacked_sizes.clear()
        cached = CachedExecutor(store=FileRunStore(tmp_path / "store"))
        routed = engine.sweep(base, executor=cached, **axes)
        assert stacked_sizes == []
        pooled = engine.sweep(base, executor="process", **axes)
        assert stacked_sizes == []
        assert results_json(routed) == results_json(serial) == results_json(pooled)
