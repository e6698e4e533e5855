"""Engine: dispatch, validation errors, sweep/compare, direct-call equivalence.

The equivalence tests are the contract of the API: running a spec through
``Engine`` must reproduce the direct ``measure_timing_trace`` /
``run_scheme`` outputs seed-for-seed, because the figure experiments route
through the engine.  The ``rng_version=1`` comparisons run against the
oracle in ``repro._reference``, the only place that layout still runs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro._reference import run_spec_reference
from repro.api import (
    RUN_MODES,
    CachedExecutor,
    Engine,
    EngineError,
    RngVersionError,
    RunSpec,
    SpecError,
    StragglerSpec,
)
from repro.api import engine as engine_module
from repro.experiments.clusters import build_cluster
from repro.experiments.common import measure_timing_trace
from repro.experiments.workloads import get_workload
from repro.learning.optimizers import SGD
from repro.protocols.base import TrainingConfig
from repro.protocols.runner import run_scheme
from repro.simulation.network import SimpleNetwork
from repro.simulation.rng import RngStreams
from repro.simulation.stragglers import ArtificialDelay, TransientSlowdown


class TestValidation:
    def test_unknown_mode(self):
        with pytest.raises(EngineError, match="unknown mode"):
            Engine().run(RunSpec(mode="quantum"))

    def test_unknown_scheme(self):
        with pytest.raises(EngineError, match="unknown scheme"):
            Engine().run(RunSpec(scheme="bogus", num_iterations=1, total_samples=8))

    def test_unknown_protocol_in_training_mode(self):
        with pytest.raises(EngineError, match="unknown protocol"):
            Engine().run(RunSpec(mode="training", scheme="bogus"))

    def test_unknown_cluster(self):
        with pytest.raises(EngineError, match="unknown cluster"):
            Engine().run(RunSpec(cluster="Cluster-Z"))

    def test_unknown_workload(self):
        with pytest.raises(EngineError, match="unknown workload"):
            Engine().run(RunSpec(mode="training", scheme="naive", workload="bogus"))

    def test_rejects_non_spec(self):
        with pytest.raises(SpecError, match="expects a RunSpec"):
            Engine().run({"scheme": "naive"})

    def test_mode_table_covers_exactly_the_run_modes(self):
        assert tuple(engine_module._MODES) == RUN_MODES

    def test_ssp_is_a_protocol_not_a_scheme(self):
        with pytest.raises(EngineError, match="unknown scheme"):
            Engine().run(RunSpec(scheme="ssp", mode="timing"))

    def test_run_dispatches_through_mode_table(self, monkeypatch):
        sentinel_specs = []

        def fake_timing(spec):
            sentinel_specs.append(spec)
            return measure_timing_trace(
                "naive",
                build_cluster("Cluster-A", rng=0),
                num_stragglers=0,
                total_samples=64,
                num_iterations=1,
                seed=0,
            )

        monkeypatch.setitem(engine_module._MODES, "timing", fake_timing)
        spec = RunSpec(scheme="naive", num_iterations=1, total_samples=64)
        result = Engine().run(spec)
        assert sentinel_specs == [spec]
        assert result.metrics["num_iterations"] == 1


class TestTimingEquivalence:
    """Engine timing runs match the legacy direct calls seed-for-seed."""

    @pytest.mark.parametrize("scheme", ["naive", "cyclic", "heter_aware", "group_based"])
    def test_matches_measure_timing_trace(self, scheme):
        seed = 7
        cluster = build_cluster("Cluster-A", rng=seed)
        legacy = measure_timing_trace(
            scheme,
            cluster,
            num_stragglers=1,
            total_samples=1024,
            num_iterations=5,
            injector=ArtificialDelay(num_stragglers=1, delay_seconds=1.5),
            network=SimpleNetwork(),
            seed=seed,
        )
        result = Engine().run(
            RunSpec(
                scheme=scheme,
                cluster="Cluster-A",
                num_stragglers=1,
                total_samples=1024,
                num_iterations=5,
                straggler=StragglerSpec(
                    "artificial_delay",
                    {"num_stragglers": 1, "delay_seconds": 1.5},
                ),
                seed=seed,
            )
        )
        np.testing.assert_array_equal(result.trace.durations, legacy.durations)
        assert result.trace.metadata["loads"] == legacy.metadata["loads"]
        assert result.mean_iteration_time == pytest.approx(
            float(legacy.durations.mean())
        )

    def test_transient_model_matches(self):
        seed = 3
        cluster = build_cluster("Cluster-B", rng=seed)
        legacy = measure_timing_trace(
            "heter_aware",
            cluster,
            num_stragglers=1,
            total_samples=1024,
            num_iterations=4,
            injector=TransientSlowdown(probability=0.2, mean_delay_seconds=0.5),
            network=SimpleNetwork(),
            seed=seed,
        )
        result = Engine().run(
            RunSpec(
                scheme="heter_aware",
                cluster="Cluster-B",
                num_stragglers=1,
                total_samples=1024,
                num_iterations=4,
                straggler=StragglerSpec(
                    "transient", {"probability": 0.2, "mean_delay_seconds": 0.5}
                ),
                seed=seed,
            )
        )
        np.testing.assert_array_equal(result.trace.durations, legacy.durations)


class TestRngVersionAndKernelCache:
    """The v2 layout against the v1 oracle, and the process-wide
    timing-kernel cache."""

    def test_v2_timing_run_is_deterministic(self):
        spec = RunSpec(num_iterations=10, total_samples=1024, rng_version=2, seed=5)
        a = Engine().run(spec)
        b = Engine().run(spec)
        np.testing.assert_array_equal(a.trace.durations, b.trace.durations)
        assert a.trace.metadata["rng_version"] == 2

    def test_v2_differs_from_v1_but_is_statistically_close(self):
        base = RunSpec(num_iterations=400, total_samples=1024, seed=5)
        v1 = run_spec_reference(base.replace(rng_version=1))
        v2 = Engine().run(base)
        assert not np.array_equal(v1.trace.durations, v2.trace.durations)
        assert v2.mean_iteration_time == pytest.approx(
            v1.mean_iteration_time, rel=0.1
        )

    def test_v1_results_do_not_carry_rng_version_metadata(self):
        result = run_spec_reference(
            RunSpec(num_iterations=3, total_samples=512, rng_version=1)
        )
        assert "rng_version" not in result.trace.metadata

    def test_runs_reuse_kernels_across_delay_values(self):
        Engine.clear_timing_kernel_cache()
        cache = Engine.timing_kernel_cache()
        engine = Engine()
        spec = RunSpec(num_iterations=4, total_samples=1024, seed=0)
        for delay in (0.5, 1.0, 2.0, 4.0):
            engine.run(
                spec.replace(
                    straggler=StragglerSpec(
                        "artificial_delay",
                        {"num_stragglers": 1, "delay_seconds": delay},
                    )
                )
            )
        # One kernel build for the first delay value, cache hits after.
        assert cache.misses == 1
        assert cache.hits == 3

    def test_sweep_over_delay_values_is_one_kernel_call(self):
        Engine.clear_timing_kernel_cache()
        cache = Engine.timing_kernel_cache()
        spec = RunSpec(num_iterations=4, total_samples=1024, seed=0)
        Engine().sweep(
            spec,
            straggler=[
                StragglerSpec(
                    "artificial_delay",
                    {"num_stragglers": 1, "delay_seconds": delay},
                )
                for delay in (0.5, 1.0, 2.0, 4.0)
            ],
        )
        # The delays share one strategy, so the planner stacks all four.
        assert (cache.misses, cache.hits) == (1, 0)

    def test_cached_runs_bit_identical_to_cold_cache(self):
        spec = RunSpec(num_iterations=6, total_samples=1024, seed=9)
        Engine.clear_timing_kernel_cache()
        cold = Engine().run(spec)
        warm = Engine().run(spec)
        assert Engine.timing_kernel_cache().hits >= 1
        np.testing.assert_array_equal(cold.trace.durations, warm.trace.durations)

    def test_nearby_network_specs_get_correct_kernels(self):
        # Regression: the kernel cache must not serve a kernel built for a
        # different network latency (describe()-based keys rounded it away).
        def run(latency):
            return Engine().run(
                RunSpec(
                    num_iterations=4,
                    total_samples=1024,
                    network={"kind": "simple", "params": {"latency_seconds": latency}},
                    seed=0,
                )
            )

        warm_a, warm_b = run(0.005), run(0.00504)
        Engine.clear_timing_kernel_cache()
        cold_b = run(0.00504)
        np.testing.assert_array_equal(
            warm_b.trace.durations, cold_b.trace.durations
        )
        assert not np.array_equal(warm_a.trace.durations, warm_b.trace.durations)

    def test_v2_training_mode_runs_and_differs_from_v1(self):
        base = RunSpec(
            scheme="cyclic",
            mode="training",
            cluster="Cluster-A",
            num_iterations=3,
            total_samples=256,
            seed=2,
        )
        v1 = run_spec_reference(base.replace(rng_version=1))
        v2 = Engine().run(base)
        assert v2.trace.num_iterations == 3
        assert np.isfinite(v2.final_loss)
        assert not np.array_equal(v1.trace.durations, v2.trace.durations)


class TestRngVersionOneRejected:
    """The engine runs rng_version=2 only; a v1 spec fails before any work."""

    V1 = RunSpec(num_iterations=3, total_samples=512, seed=1, rng_version=1)

    def test_error_is_an_engine_error_naming_the_oracle(self):
        assert issubclass(RngVersionError, EngineError)
        with pytest.raises(RngVersionError, match=r"repro\._reference"):
            Engine().run(self.V1)

    def test_training_mode_rejected_too(self):
        with pytest.raises(RngVersionError):
            Engine().run(self.V1.replace(mode="training", scheme="ssp"))

    @pytest.mark.parametrize("executor", [None, "process"])
    def test_run_many_rejects_before_running_anything(self, executor):
        Engine.clear_timing_kernel_cache()
        with pytest.raises(RngVersionError):
            Engine().run_many(
                [self.V1.replace(rng_version=2), self.V1], executor=executor
            )
        # The valid spec ahead of the v1 one never ran.
        assert Engine.timing_kernel_cache().misses == 0

    def test_sweep_rejects_before_any_build(self):
        Engine.clear_timing_kernel_cache()
        with pytest.raises(RngVersionError):
            Engine().sweep(self.V1.replace(rng_version=2), rng_version=[2, 1])
        cache = Engine.timing_kernel_cache()
        assert cache.misses == 0
        assert not cache._memos  # no strategy or cluster was built

    def test_compare_rejects(self):
        with pytest.raises(RngVersionError):
            Engine().compare(self.V1, ["naive", "cyclic"])

    @pytest.mark.parametrize("entry", ["run_many", "sweep", "compare"])
    def test_cached_executor_writes_no_store_entry(self, tmp_path, entry):
        from repro.store import FileRunStore

        store = FileRunStore(tmp_path / "store")
        cached = CachedExecutor(store=store)
        engine = Engine()
        with pytest.raises(RngVersionError):
            if entry == "run_many":
                engine.run_many([self.V1], executor=cached)
            elif entry == "sweep":
                engine.sweep(self.V1, executor=cached, seed=[1, 2])
            else:
                engine.compare(self.V1, ["naive", "cyclic"], executor=cached)
        assert list(store.fingerprints()) == []
        assert (cached.hits, cached.misses) == (0, 0)


class TestTrainingEquivalence:
    @pytest.mark.parametrize("scheme", ["naive", "heter_aware", "ssp"])
    def test_matches_run_scheme(self, scheme):
        seed = 0
        preset = get_workload("blobs_softmax")
        cluster = build_cluster("Cluster-A", rng=seed)
        dataset = preset.make_dataset(256, seed=seed)
        # The engine's stream layout: per-component streams from the run
        # seed, and the integer config seed drawn from the training stream.
        streams = RngStreams.from_seed(seed)
        config = TrainingConfig(
            num_iterations=4,
            num_stragglers=1,
            optimizer_factory=lambda: SGD(learning_rate=0.5),
            straggler_injector=TransientSlowdown(
                probability=0.05, mean_delay_seconds=0.5
            ),
            network=SimpleNetwork(),
            seed=streams.training_seed(),
            loss_eval_samples=128,
            rng_streams=streams,
        )
        legacy = run_scheme(
            scheme,
            model_factory=lambda: preset.make_model(dataset, seed=seed),
            dataset=dataset,
            cluster=cluster,
            config=config,
            ssp_staleness=3,
            ssp_batch_size=8,
        )
        result = Engine().run(
            RunSpec(
                mode="training",
                scheme=scheme,
                cluster="Cluster-A",
                workload="blobs_softmax",
                total_samples=256,
                num_iterations=4,
                num_stragglers=1,
                straggler=StragglerSpec(
                    "transient", {"probability": 0.05, "mean_delay_seconds": 0.5}
                ),
                learning_rate=0.5,
                ssp_staleness=3,
                ssp_batch_size=8,
                loss_eval_samples=128,
                seed=seed,
            )
        )
        np.testing.assert_allclose(result.trace.durations, legacy.durations)
        np.testing.assert_allclose(result.trace.losses, legacy.losses)


class TestSweepAndCompare:
    def test_compare_runs_every_scheme(self):
        base = RunSpec(num_iterations=2, total_samples=64, num_stragglers=0, seed=0)
        runs = Engine().compare(base, ["naive", "heter_aware"])
        assert set(runs) == {"naive", "heter_aware"}
        assert all(r.completed for r in runs.values())

    def test_sweep_cartesian_product(self):
        base = RunSpec(num_iterations=2, total_samples=64, num_stragglers=0, seed=0)
        results = Engine().sweep(
            base, scheme=["naive", "heter_aware"], seed=[0, 1, 2]
        )
        assert len(results) == 6
        assert [r.spec.scheme for r in results] == ["naive"] * 3 + ["heter_aware"] * 3
        assert [r.spec.seed for r in results] == [0, 1, 2, 0, 1, 2]

    def test_sweep_without_axes_runs_once(self):
        base = RunSpec(num_iterations=2, total_samples=64, num_stragglers=0, seed=0)
        results = Engine().sweep(base)
        assert len(results) == 1

    def test_custom_vcpu_counts_cluster(self):
        """A spec with explicit vcpu_counts runs without registry lookup."""
        result = Engine().run(
            RunSpec(
                cluster="tiny",
                cluster_options={"vcpu_counts": {4: 2, 8: 1}},
                num_iterations=2,
                total_samples=60,
                num_stragglers=0,
                seed=0,
            )
        )
        assert result.trace.metadata["num_workers"] == 3

    def test_composite_straggler_accepts_kind_strings(self):
        from repro.api import build_injector

        injector = build_injector(
            StragglerSpec(
                "composite",
                {"parts": ["transient",
                           {"kind": "artificial_delay",
                            "params": {"delay_seconds": 1.0}}]},
            )
        )
        assert "Composite" in injector.describe()

    def test_paired_seeds_share_conditions(self):
        """Two schemes with the same seed see identical timing jitter."""
        base = RunSpec(num_iterations=3, total_samples=1024, seed=11)
        runs = Engine().compare(base, ["heter_aware", "group_based"])
        a = runs["heter_aware"].trace
        b = runs["group_based"].trace
        assert a.metadata["num_partitions"] == b.metadata["num_partitions"]
