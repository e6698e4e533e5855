"""Tests for the stochastic LogNormalNetwork and the v2 ``network`` stream."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro._reference import (
    measure_timing_trace_reference,
    run_spec_reference,
    simulate_iteration_reference,
)
from repro.api import Engine, RunSpec
from repro.api.builders import build_network
from repro.api.registry import NETWORK_MODELS
from repro.api.spec import NetworkSpec
from repro.experiments.clusters import build_cluster
from repro.experiments.common import SampleCountDriftWarning, measure_timing_trace
from repro.simulation.network import (
    LogNormalNetwork,
    NetworkError,
    SimpleNetwork,
    ZeroCommunication,
)
from repro.simulation.timing import TimingError


class TestLogNormalNetworkModel:
    def test_median_matches_simple_network(self):
        lognormal = LogNormalNetwork(latency_seconds=0.01,
                                     bandwidth_bytes_per_second=1e8)
        simple = SimpleNetwork(latency_seconds=0.01,
                               bandwidth_bytes_per_second=1e8)
        assert lognormal.transfer_time(65536) == pytest.approx(
            simple.transfer_time(65536)
        )

    def test_samples_concentrate_around_typical_value(self):
        network = LogNormalNetwork(latency_sigma=0.2, bandwidth_sigma=0.1)
        rng = np.random.default_rng(0)
        samples = network.sample_transfer_times(8.0 * 65536, (4000,), rng)
        assert samples.shape == (4000,)
        assert np.all(samples > 0)
        typical = network.transfer_time(8.0 * 65536)
        assert np.median(samples) == pytest.approx(typical, rel=0.05)
        assert samples.std() > 0

    def test_zero_sigma_degenerates_to_deterministic_times(self):
        network = LogNormalNetwork(latency_sigma=0.0, bandwidth_sigma=0.0)
        samples = network.sample_transfer_times(
            1024.0, (3, 2), np.random.default_rng(0)
        )
        assert np.allclose(samples, network.transfer_time(1024.0))

    def test_validation(self):
        with pytest.raises(NetworkError):
            LogNormalNetwork(latency_seconds=-1)
        with pytest.raises(NetworkError):
            LogNormalNetwork(latency_sigma=-0.1)
        with pytest.raises(NetworkError):
            LogNormalNetwork().sample_transfer_times(
                -1.0, (2,), np.random.default_rng(0)
            )

    def test_stochastic_flags(self):
        assert LogNormalNetwork().is_stochastic
        assert not SimpleNetwork().is_stochastic
        assert not ZeroCommunication().is_stochastic

    def test_deterministic_models_sample_without_consuming_randomness(self):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        samples = SimpleNetwork().sample_transfer_times(1024.0, (5, 3), rng)
        assert rng.bit_generator.state == before
        assert np.allclose(samples, SimpleNetwork().transfer_time(1024.0))

    def test_fingerprints_distinguish_distributions(self):
        a = LogNormalNetwork(latency_sigma=0.25)
        b = LogNormalNetwork(latency_sigma=0.5)
        c = LogNormalNetwork(latency_sigma=0.25)
        assert a.fingerprint(1024.0) != b.fingerprint(1024.0)
        assert a.fingerprint(1024.0) == c.fingerprint(1024.0)
        # ...even when their medians collide with a deterministic model's.
        assert a.fingerprint(1024.0) != SimpleNetwork().fingerprint(1024.0)

    def test_registered_in_network_model_registry(self):
        assert "lognormal" in NETWORK_MODELS
        network = build_network(
            NetworkSpec("lognormal", {"latency_sigma": 0.4})
        )
        assert isinstance(network, LogNormalNetwork)
        assert network.latency_sigma == 0.4


class TestStochasticNetworkTiming:
    def kwargs(self) -> dict:
        return dict(
            num_stragglers=1,
            total_samples=2048,
            num_iterations=40,
            seed=5,
        )

    def test_v1_timing_raises_a_clear_error(self):
        cluster = build_cluster("Cluster-A", rng=0)
        with pytest.raises(TimingError, match="no slot for network draws"):
            measure_timing_trace_reference(
                "heter_aware", cluster, network=LogNormalNetwork(),
                **self.kwargs(),
            )

    def test_simulate_iteration_rejects_stochastic_networks(self):
        cluster = build_cluster("Cluster-A", rng=0)
        from repro.coding.registry import build_strategy

        strategy = build_strategy(
            "cyclic",
            throughputs=cluster.estimated_throughputs,
            num_partitions=cluster.num_workers,
            num_stragglers=1,
            rng=0,
        )
        with pytest.raises(TimingError, match="no slot for network draws"):
            simulate_iteration_reference(
                strategy, cluster, samples_per_partition=8,
                network=LogNormalNetwork(), rng=0,
            )

    def test_stacked_run_without_network_rng_raises(self):
        # Without its network stream a run's transfer times would come from
        # OS entropy while its other draws stay seeded: unreproducible.
        from repro.coding.registry import build_strategy
        from repro.simulation.rng import RngStreams
        from repro.simulation.vectorized import StackedRun, TimingTraceKernel

        cluster = build_cluster("Cluster-A", rng=0)
        strategy = build_strategy(
            "cyclic",
            throughputs=cluster.estimated_throughputs,
            num_partitions=cluster.num_workers,
            num_stragglers=1,
            rng=0,
        )

        def kernel_for(network):
            return TimingTraceKernel(
                strategy, cluster, samples_per_partition=8,
                network=network, gradient_bytes=1e6,
            )

        def runs(with_network_rng):
            out = []
            for seed, has_rng in zip((0, 1), with_network_rng):
                streams = RngStreams.from_seed(seed)
                out.append(
                    StackedRun(
                        injector_rng=streams.injector,
                        jitter_rng=streams.jitter,
                        network_rng=streams.network if has_rng else None,
                    )
                )
            return out

        with pytest.raises(TimingError, match="stacked run 1 has no network_rng"):
            kernel_for(LogNormalNetwork()).run_stacked(5, runs((True, False)))
        # Deterministic models draw nothing, so they need no network stream.
        (arrays, _) = kernel_for(SimpleNetwork()).run_stacked(5, runs((False, False)))
        assert np.isfinite(arrays.durations).all()

    def test_v2_run_is_deterministic_in_the_seed(self):
        cluster = build_cluster("Cluster-A", rng=0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SampleCountDriftWarning)
            a = measure_timing_trace(
                "heter_aware", cluster, network=LogNormalNetwork(),
                **self.kwargs(),
            )
            b = measure_timing_trace(
                "heter_aware", cluster, network=LogNormalNetwork(),
                **self.kwargs(),
            )
        np.testing.assert_array_equal(a.durations, b.durations)
        np.testing.assert_array_equal(
            a.columns().completion_times, b.columns().completion_times
        )

    def test_network_stream_actually_perturbs_the_run(self):
        """The reserved v2 ``network`` child stream is finally consumed."""
        cluster = build_cluster("Cluster-A", rng=0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SampleCountDriftWarning)
            stochastic = measure_timing_trace(
                "heter_aware", cluster,
                network=LogNormalNetwork(latency_sigma=0.5, bandwidth_sigma=0.3),
                **self.kwargs(),
            )
            deterministic = measure_timing_trace(
                "heter_aware", cluster, network=SimpleNetwork(),
                **self.kwargs(),
            )
        # Same injector/jitter streams, different comm: compute times agree,
        # completion times do not.
        np.testing.assert_array_equal(
            stochastic.columns().compute_times,
            deterministic.columns().compute_times,
        )
        assert not np.array_equal(
            stochastic.columns().completion_times,
            deterministic.columns().completion_times,
        )
        # Per-message variation: loaded workers see non-constant comm times.
        comm = (
            stochastic.columns().completion_times
            - stochastic.columns().compute_times
        )
        assert np.std(comm[np.isfinite(comm)]) > 0

    def test_engine_runs_lognormal_specs_end_to_end(self):
        result = Engine().run(
            RunSpec(
                num_iterations=10,
                total_samples=1024,
                rng_version=2,
                seed=3,
                network={"kind": "lognormal", "params": {"latency_sigma": 0.3}},
            )
        )
        assert result.trace.num_iterations == 10
        assert result.trace.metadata["rng_version"] == 2
        again = Engine().run(
            RunSpec(
                num_iterations=10,
                total_samples=1024,
                rng_version=2,
                seed=3,
                network={"kind": "lognormal", "params": {"latency_sigma": 0.3}},
            )
        )
        np.testing.assert_array_equal(
            result.trace.durations, again.trace.durations
        )

    def test_v1_oracle_lognormal_fails_loudly(self):
        with pytest.raises(TimingError, match="no slot for network draws"):
            run_spec_reference(
                RunSpec(
                    num_iterations=5,
                    total_samples=1024,
                    seed=3,
                    network={"kind": "lognormal"},
                    rng_version=1,
                )
            )


class TestStochasticNetworkTraining:
    def spec(self, scheme: str, rng_version: int) -> RunSpec:
        return RunSpec(
            mode="training", scheme=scheme, cluster="Cluster-A",
            num_iterations=3, total_samples=256, seed=4,
            rng_version=rng_version,
            network={"kind": "lognormal", "params": {"latency_sigma": 0.4}},
        )

    @pytest.mark.parametrize("scheme", ["ssp", "dyn_ssp", "async"])
    def test_ssp_family_samples_the_network_stream_under_v2(self, scheme):
        stochastic = Engine().run(self.spec(scheme, 2))
        deterministic = Engine().run(
            self.spec(scheme, 2).replace(network={"kind": "simple"})
        )
        assert stochastic.trace.num_iterations >= 1
        # The network stream actually perturbs the event timeline.
        assert not np.array_equal(
            stochastic.trace.durations, deterministic.trace.durations
        )
        # ...deterministically in the seed.
        again = Engine().run(self.spec(scheme, 2))
        np.testing.assert_array_equal(
            stochastic.trace.durations, again.trace.durations
        )

    @pytest.mark.parametrize("scheme", ["ssp", "heter_aware"])
    def test_training_v1_fails_loudly_instead_of_using_the_median(self, scheme):
        with pytest.raises(TimingError, match="no slot for network draws"):
            run_spec_reference(self.spec(scheme, 1))

    def test_coded_v2_training_consumes_network_stream(self):
        stochastic = Engine().run(self.spec("heter_aware", 2))
        deterministic = Engine().run(
            self.spec("heter_aware", 2).replace(network={"kind": "simple"})
        )
        assert not np.array_equal(
            stochastic.trace.durations, deterministic.trace.durations
        )


class TestRunTraceEquality:
    def test_round_trip_equality_restored(self):
        cluster = build_cluster("Cluster-A", rng=0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SampleCountDriftWarning)
            trace = measure_timing_trace(
                "heter_aware", cluster, num_stragglers=1,
                total_samples=2048, num_iterations=5, seed=0,
            )
        from repro.simulation.trace import RunTrace

        assert RunTrace.from_dict(trace.to_dict()) == trace
        other = RunTrace.from_dict(trace.to_dict())
        other.metadata["extra"] = 1
        assert other != trace
        assert trace != "not a trace"


class TestOverlappedStochasticBase:
    def overlapped(self) -> dict:
        return {
            "kind": "overlapped",
            "params": {
                "base": {"kind": "lognormal", "params": {"latency_sigma": 0.4}},
                "overlap_fraction": 0.5,
            },
        }

    def test_stochasticity_propagates_through_overlap(self):
        from repro.simulation.network import OverlappedNetwork

        stochastic = OverlappedNetwork(base=LogNormalNetwork())
        deterministic = OverlappedNetwork(base=SimpleNetwork())
        assert stochastic.is_stochastic
        assert not deterministic.is_stochastic
        samples = stochastic.sample_transfer_times(
            8.0 * 65536, (2000,), np.random.default_rng(0)
        )
        assert samples.std() > 0  # genuinely per-message, not a constant
        base_samples = LogNormalNetwork().sample_transfer_times(
            8.0 * 65536, (2000,), np.random.default_rng(0)
        )
        np.testing.assert_allclose(samples, 0.5 * base_samples)

    def test_fingerprint_distinguishes_overlap_and_base(self):
        from repro.simulation.network import OverlappedNetwork

        a = OverlappedNetwork(base=LogNormalNetwork(), overlap_fraction=0.5)
        b = OverlappedNetwork(base=LogNormalNetwork(), overlap_fraction=0.25)
        c = OverlappedNetwork(base=LogNormalNetwork(latency_sigma=0.5))
        assert a.fingerprint(1024.0) != b.fingerprint(1024.0)
        assert a.fingerprint(1024.0) != c.fingerprint(1024.0)
        deterministic = OverlappedNetwork(base=SimpleNetwork(), overlap_fraction=0.5)
        assert deterministic.fingerprint(1024.0)[0] == "deterministic"

    def test_v1_overlapped_lognormal_fails_loudly(self):
        with pytest.raises(TimingError, match="no slot for network draws"):
            run_spec_reference(
                RunSpec(
                    num_iterations=3, total_samples=1024, seed=0,
                    network=self.overlapped(), rng_version=1,
                )
            )

    def test_v2_overlapped_lognormal_draws_the_network_stream(self):
        result = Engine().run(
            RunSpec(
                num_iterations=8, total_samples=1024, seed=0, rng_version=2,
                network=self.overlapped(),
            )
        )
        plain = Engine().run(
            RunSpec(
                num_iterations=8, total_samples=1024, seed=0, rng_version=2,
                network={"kind": "simple"},
            )
        )
        assert not np.array_equal(result.trace.durations, plain.trace.durations)
