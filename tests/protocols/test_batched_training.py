"""Tests for the batched fig4 training path.

Covers the pieces PR 4 added around the protocols: threading
:class:`RngStreams` through ``TrainingConfig.make_rng``, the vectorized
loss evaluation, the in-place optimiser updates, and the batched
``CodedBSPProtocol`` inner loop (reused partition-gradient stacks, fused
encode+decode, columnar trace assembly, stall handling).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro._reference import coded_bsp_run_reference
from repro.api import Engine, RunSpec, StragglerSpec
from repro.experiments.clusters import build_cluster
from repro.experiments.workloads import get_workload
from repro.learning.optimizers import SGD, Adam, MomentumSGD
from repro.learning.partition import partition_dataset
from repro.protocols.base import ProtocolError, TrainingConfig, evaluate_mean_loss
from repro.protocols.runner import _partition_for_scheme, make_protocol, run_scheme
from repro.simulation.rng import RngStreams
from repro.simulation.stragglers import FailStop, TransientSlowdown


def make_config(seed: int = 0, **overrides) -> TrainingConfig:
    defaults = dict(
        num_iterations=6,
        num_stragglers=1,
        optimizer_factory=lambda: SGD(learning_rate=0.5),
        straggler_injector=TransientSlowdown(probability=0.1, mean_delay_seconds=0.3),
        seed=seed,
        loss_eval_samples=128,
    )
    defaults.update(overrides)
    return TrainingConfig(**defaults)


def run_training(scheme: str, config: TrainingConfig, seed: int = 0):
    preset = get_workload("blobs_softmax")
    cluster = build_cluster("Cluster-A", rng=seed)
    dataset = preset.make_dataset(512, seed=seed)
    return run_scheme(
        scheme,
        model_factory=lambda: preset.make_model(dataset, seed=seed),
        dataset=dataset,
        cluster=cluster,
        config=config,
    )


def run_reference_training(scheme: str, config: TrainingConfig, seed: int = 0):
    """:func:`run_training` through the per-iteration v1 oracle loop."""
    preset = get_workload("blobs_softmax")
    cluster = build_cluster("Cluster-A", rng=seed)
    dataset = preset.make_dataset(512, seed=seed)
    return coded_bsp_run_reference(
        make_protocol(scheme),
        preset.make_model(dataset, seed=seed),
        _partition_for_scheme(scheme, dataset, cluster, config),
        cluster,
        config,
    )


class TestMakeRngComponents:
    def test_component_returns_live_stream(self):
        config = make_config()
        first = config.make_rng(component="training")
        second = config.make_rng(component="training")
        assert first is second  # one continuing lineage, not fresh streams
        assert first is config.rng_streams.training

    def test_streams_default_to_the_seed(self):
        filled = make_config(seed=5).make_rng(component="training").normal(size=4)
        spawned = RngStreams.from_seed(5).training.normal(size=4)
        assert np.array_equal(filled, spawned)

    def test_explicit_streams_are_kept(self):
        streams = RngStreams.from_seed(9)
        assert make_config(rng_streams=streams).rng_streams is streams

    def test_unknown_component_rejected(self):
        with pytest.raises(ProtocolError, match="rng component"):
            make_config().make_rng(component="entropy")

    def test_streams_are_mutually_independent(self):
        config = make_config()
        injector = config.make_rng(component="injector").normal(size=8)
        jitter = config.make_rng(component="jitter").normal(size=8)
        assert not np.allclose(injector, jitter)


class TestEvaluateMeanLoss:
    def historical_mean_loss(self, model, partitioned, max_samples, rng):
        """The pre-PR4 implementation, verbatim (concatenate per call)."""
        dataset = partitioned.dataset
        used = partitioned.samples_used
        indices = np.concatenate([p.sample_indices for p in partitioned.partitions])
        if max_samples and used > max_samples:
            generator = rng or np.random.default_rng(0)
            indices = generator.choice(indices, size=max_samples, replace=False)
        features = dataset.features[indices]
        labels = dataset.labels[indices]
        return model.loss(features, labels) / len(indices)

    @pytest.mark.parametrize("max_samples", [0, 64, 10_000])
    def test_bit_identical_to_historical_implementation(self, max_samples):
        preset = get_workload("blobs_softmax")
        dataset = preset.make_dataset(256, seed=0)
        partitioned = partition_dataset(dataset, num_partitions=8, rng=0)
        model = preset.make_model(dataset, seed=0)
        current = evaluate_mean_loss(
            model, partitioned, max_samples, np.random.default_rng(7)
        )
        historical = self.historical_mean_loss(
            model, partitioned, max_samples, np.random.default_rng(7)
        )
        assert current == historical  # exact: same values, same RNG stream

    def test_evaluation_data_cached(self):
        dataset = get_workload("blobs_softmax").make_dataset(128, seed=0)
        partitioned = partition_dataset(dataset, num_partitions=4, rng=0)
        first = partitioned.evaluation_data()
        assert partitioned.evaluation_data()[0] is first[0]
        assert not first[0].flags.writeable


class TestStepInplace:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: SGD(learning_rate=0.3),
            lambda: MomentumSGD(learning_rate=0.3, momentum=0.8),
            lambda: MomentumSGD(learning_rate=0.3, momentum=0.8, nesterov=True),
            lambda: Adam(learning_rate=0.01),
        ],
    )
    def test_matches_out_of_place_step(self, factory):
        rng = np.random.default_rng(0)
        reference, inplace = factory(), factory()
        params_ref = rng.normal(size=32)
        params_in = params_ref.copy()
        for _ in range(5):
            gradient = rng.normal(size=32)
            params_ref = reference.step(params_ref, gradient)
            returned = inplace.step_inplace(params_in, gradient)
            assert returned is params_in  # updated in place, no new buffer
            np.testing.assert_allclose(params_in, params_ref, rtol=1e-12)
        assert inplace.steps_taken == reference.steps_taken == 5

    def test_falls_back_for_non_float64_buffers(self):
        optimizer = SGD(learning_rate=0.5)
        params = [1.0, 2.0]
        updated = optimizer.step_inplace(params, np.array([1.0, 1.0]))
        assert isinstance(updated, np.ndarray)
        np.testing.assert_allclose(updated, [0.5, 1.5])


class TestBatchedCodedProtocol:
    @pytest.mark.parametrize("scheme", ["naive", "cyclic", "heter_aware", "group_based"])
    def test_learning_outcome_matches_per_iteration_path(self, scheme):
        """The decoded gradient equals the full-batch gradient on both
        paths, so at matched seeds the loss trajectories must agree."""
        batched = run_training(scheme, make_config())
        legacy = run_reference_training(scheme, make_config())
        assert batched.num_iterations == legacy.num_iterations
        # The batched path records the exact full-batch loss; the legacy
        # path a 128-sample estimate of it.
        np.testing.assert_allclose(
            batched.losses, legacy.losses, rtol=0.15, atol=0.02
        )
        assert batched.metadata["rng_version"] == 2
        assert "rng_version" not in legacy.metadata

    def test_batched_trace_is_columnar(self):
        trace = run_training("heter_aware", make_config())
        assert trace._records_cache is None  # assembled via from_arrays
        assert trace.columns().num_iterations == trace.num_iterations
        assert np.all(np.isfinite(trace.losses))

    def test_recorded_loss_is_exact_full_batch_loss(self):
        preset = get_workload("blobs_softmax")
        cluster = build_cluster("Cluster-A", rng=0)
        dataset = preset.make_dataset(512, seed=0)
        config = make_config(num_iterations=1)
        model = preset.make_model(dataset, seed=0)
        fresh = preset.make_model(dataset, seed=0)
        trace = run_scheme(
            "cyclic",
            model_factory=lambda: model,
            dataset=dataset,
            cluster=cluster,
            config=config,
        )
        partitioned = partition_dataset(
            dataset, config.resolve_partitions(cluster.num_workers, "cyclic"),
            rng=config.seed,
        )
        expected = evaluate_mean_loss(fresh, partitioned)
        assert trace.losses[0] == pytest.approx(expected, rel=1e-9)

    def test_stall_truncates_the_batched_trace(self):
        config = make_config(
            num_iterations=8,
            straggler_injector=FailStop({0: 3, 1: 3, 2: 3, 3: 3}),
            num_stragglers=1,
        )
        trace = run_training("cyclic", config)
        assert trace.num_iterations == 4  # iterations 0-2 decode, 3 stalls
        assert not np.isfinite(trace.durations[-1])
        assert trace.records[-1].workers_used == ()
        assert np.isfinite(trace.losses[-1])  # stall row still records a loss

    def test_record_loss_every_carries_last_loss(self):
        config = make_config(num_iterations=6, record_loss_every=3)
        trace = run_training("heter_aware", config)
        losses = trace.losses
        assert losses[0] == losses[1] == losses[2]
        assert losses[3] == losses[4] == losses[5]
        assert losses[0] != losses[3]

    def test_rng_version2_is_reproducible_through_the_engine(self):
        spec = RunSpec(
            mode="training",
            scheme="heter_aware",
            cluster="Cluster-A",
            num_iterations=4,
            total_samples=256,
            seed=11,
            rng_version=2,
            straggler=StragglerSpec(
                "transient", {"probability": 0.1, "mean_delay_seconds": 0.3}
            ),
        )
        a = Engine().run(spec)
        b = Engine().run(spec)
        np.testing.assert_array_equal(a.trace.durations, b.trace.durations)
        np.testing.assert_array_equal(a.trace.losses, b.trace.losses)

    def test_ssp_still_runs_under_rng_version2(self):
        result = Engine().run(
            RunSpec(
                mode="training",
                scheme="ssp",
                cluster="Cluster-A",
                num_iterations=3,
                total_samples=256,
                seed=2,
                rng_version=2,
            )
        )
        assert result.trace.num_iterations >= 1
        assert np.isfinite(result.final_loss)
