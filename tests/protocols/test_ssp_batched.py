"""Tests for the batched SSP/Async event engine.

The batched path replaces the per-event heap loop — kept as the oracle
``ssp_run_per_event_reference`` in ``repro._reference`` — with a numpy scan
over per-worker clocks plus a block-batched gradient replay.  Its contract
mirrors PR 3's v1/v2 timing contract:

* with **deterministic** timing (no jitter, no random delays, deterministic
  network) the schedule is a pure function of the duration matrix, so the
  batched path must reproduce the heap loop **exactly** — durations, losses
  and final parameters, stalls included;
* feeding both paths the *same* pre-drawn duration matrix (via a
  deterministic matrix injector) must agree exactly for arbitrary random
  matrices — the schedule scan is property-tested against the heap;
* with stochastic draws the paths consume different stream layouts and are
  only statistically equivalent at matched seeds.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro._reference import run_spec_reference, ssp_run_per_event_reference
from repro.api import Engine, NetworkSpec, RunSpec, StragglerSpec
from repro.learning.datasets import make_blobs
from repro.learning.models import MLPClassifier, SoftmaxClassifier
from repro.learning.optimizers import SGD
from repro.learning.partition import partition_dataset
from repro.protocols.base import TrainingConfig
from repro.protocols.ssp import AsyncProtocol, SSPProtocol
from repro.simulation.cluster import cluster_from_vcpu_counts, uniform_cluster
from repro.simulation.network import LogNormalNetwork, ZeroCommunication
from repro.simulation.rng import RngStreams
from repro.simulation.stragglers import FailStop, StragglerInjector


class MatrixDelays(StragglerInjector):
    """Deterministic injector: iteration ``c``'s delays are a fixed matrix row.

    Lets both execution paths consume the *identical* pre-drawn durations,
    isolating the schedule semantics from RNG stream layouts.
    """

    def __init__(self, matrix: np.ndarray) -> None:
        self.matrix = np.asarray(matrix, dtype=np.float64)

    def delays(self, iteration, num_workers, rng):
        if iteration >= self.matrix.shape[0]:
            return np.zeros(num_workers)
        return self.matrix[iteration].copy()

    def delays_batch(self, start_iteration, num_iterations, num_workers, rng):
        out = np.zeros((num_iterations, num_workers))
        for step in range(num_iterations):
            out[step] = self.delays(start_iteration + step, num_workers, rng)
        return out

    def describe(self):
        return "MatrixDelays"


@pytest.fixture
def dataset():
    return make_blobs(num_samples=64, num_features=4, num_classes=3, rng=0)


def deterministic_cluster():
    return cluster_from_vcpu_counts("det", {2: 2, 4: 2}, compute_noise=0.0, rng=0)


def make_config(streams, injector=None, iters=6, **kwargs):
    extra = {"straggler_injector": injector} if injector is not None else {}
    extra.update(kwargs)
    return TrainingConfig(
        num_iterations=iters,
        num_stragglers=0,
        optimizer_factory=lambda: SGD(0.05),
        network=extra.pop("network", ZeroCommunication()),
        seed=0,
        loss_eval_samples=0,
        rng_streams=streams,
        **extra,
    )


def run_pair(protocol_factory, dataset, cluster, partitioned, config_kwargs):
    """Run the heap-loop oracle and the batched path on identically seeded
    fresh models; return (trace_heap, trace_batched, m1, m2)."""
    m1 = SoftmaxClassifier(dataset.num_features, dataset.num_classes, rng=0)
    m2 = SoftmaxClassifier(dataset.num_features, dataset.num_classes, rng=0)
    t1 = ssp_run_per_event_reference(
        protocol_factory(), m1, partitioned, cluster, make_config(None, **config_kwargs)
    )
    t2 = protocol_factory().run(
        m2, partitioned, cluster, make_config(RngStreams.from_seed(0), **config_kwargs)
    )
    return t1, t2, m1, m2


def assert_exactly_equal(t1, t2, m1=None, m2=None):
    assert np.array_equal(t1.durations, t2.durations)
    assert np.array_equal(t1.losses, t2.losses, equal_nan=True)
    assert t1.num_iterations == t2.num_iterations
    if m1 is not None:
        assert np.array_equal(m1.parameters(), m2.parameters())


class TestDeterministicExactEquality:
    """No randomness in timing => heap loop and batched scan agree exactly."""

    @pytest.mark.parametrize("staleness", [0, 1, 3, float("inf")])
    def test_all_staleness_bounds(self, dataset, staleness):
        cluster = deterministic_cluster()
        partitioned = partition_dataset(dataset, cluster.num_workers, rng=0)
        t1, t2, m1, m2 = run_pair(
            lambda: SSPProtocol(staleness=staleness),
            dataset, cluster, partitioned, {},
        )
        assert_exactly_equal(t1, t2, m1, m2)

    def test_dyn_ssp_staleness_damping(self, dataset):
        cluster = deterministic_cluster()
        partitioned = partition_dataset(dataset, cluster.num_workers, rng=0)
        t1, t2, m1, m2 = run_pair(
            lambda: SSPProtocol(staleness=2, adaptive_learning_rate=True),
            dataset, cluster, partitioned, {"iters": 10},
        )
        assert_exactly_equal(t1, t2, m1, m2)

    def test_uneven_shards_mix_batch_shapes(self, dataset):
        """k not divisible by m gives mixed shard sizes: the block-batched
        gradient replay must group shapes correctly."""
        cluster = deterministic_cluster()
        partitioned = partition_dataset(dataset, cluster.num_workers + 2, rng=0)
        t1, t2, m1, m2 = run_pair(
            lambda: SSPProtocol(staleness=2),
            dataset, cluster, partitioned, {},
        )
        assert_exactly_equal(t1, t2, m1, m2)

    @pytest.mark.parametrize("staleness", [0, 1, 2])
    def test_fail_stop_stalls_identically(self, dataset, staleness):
        cluster = deterministic_cluster()
        partitioned = partition_dataset(dataset, cluster.num_workers, rng=0)
        t1, t2, m1, m2 = run_pair(
            lambda: SSPProtocol(staleness=staleness),
            dataset, cluster, partitioned,
            {"injector": FailStop({0: 2}), "iters": 12},
        )
        assert not t1.completed and not t2.completed
        assert np.isinf(t1.durations[-1]) and np.isinf(t2.durations[-1])
        assert t2.records[-1].workers_used == ()
        assert_exactly_equal(t1, t2, m1, m2)

    def test_async_survives_failed_worker(self, dataset):
        cluster = deterministic_cluster()
        partitioned = partition_dataset(dataset, cluster.num_workers, rng=0)
        t1, t2, m1, m2 = run_pair(
            lambda: AsyncProtocol(),
            dataset, cluster, partitioned,
            {"injector": FailStop({0: 0}), "iters": 5},
        )
        assert t1.completed and t2.completed
        assert_exactly_equal(t1, t2, m1, m2)

    def test_every_worker_failed_stalls_with_one_record(self, dataset):
        cluster = deterministic_cluster()
        partitioned = partition_dataset(dataset, cluster.num_workers, rng=0)
        failures = {w: 0 for w in range(cluster.num_workers)}
        t1, t2, m1, m2 = run_pair(
            lambda: SSPProtocol(staleness=1),
            dataset, cluster, partitioned,
            {"injector": FailStop(failures), "iters": 3},
        )
        assert t1.num_iterations == t2.num_iterations == 1
        assert np.isinf(t2.durations[0])
        assert_exactly_equal(t1, t2, m1, m2)


class TestScheduleProperty:
    """Random duration matrices through the heap and through the scan."""

    @pytest.mark.parametrize("seed", range(12))
    def test_same_duration_matrix_same_run(self, dataset, seed):
        rng = np.random.default_rng(seed)
        num_workers = int(rng.integers(2, 7))
        cluster = uniform_cluster(
            "u", num_workers, samples_per_second=1e9, compute_noise=0.0
        )
        partitioned = partition_dataset(dataset, num_workers, rng=0)
        iters = int(rng.integers(2, 9))
        staleness = float(rng.choice([0, 1, 2, 3, np.inf]))
        matrix = rng.uniform(0.1, 2.0, size=(iters * num_workers + 8, num_workers))
        if seed % 3 == 0:
            matrix[rng.random(matrix.shape) < 0.05] = np.inf
        t1, t2, m1, m2 = run_pair(
            lambda: SSPProtocol(staleness=staleness),
            dataset, cluster, partitioned,
            {"injector": MatrixDelays(matrix), "iters": iters},
        )
        assert_exactly_equal(t1, t2, m1, m2)


class TestLockstepAndDegenerateClusters:
    def test_staleness_zero_is_bsp_lockstep(self, dataset):
        """s=0: every round is a synchronisation barrier, so each round's
        duration equals the slowest worker's step duration that round."""
        num_workers = 4
        cluster = uniform_cluster(
            "u", num_workers, samples_per_second=1e9, compute_noise=0.0
        )
        partitioned = partition_dataset(dataset, num_workers, rng=0)
        iters = 5
        matrix = np.random.default_rng(3).uniform(0.2, 1.5, size=(iters, num_workers))
        model = SoftmaxClassifier(dataset.num_features, dataset.num_classes, rng=0)
        trace = SSPProtocol(staleness=0).run(
            model, partitioned, cluster,
            make_config(RngStreams.from_seed(0), injector=MatrixDelays(matrix),
                        iters=iters),
        )
        # compute time is ~0 (1e9 samples/s), comm is 0: durations are the
        # per-round maxima of the injected delays, like naive BSP.
        assert np.allclose(trace.durations, matrix.max(axis=1), atol=1e-6)

    def test_single_worker_cluster(self, dataset):
        cluster = uniform_cluster("single", 1, compute_noise=0.0)
        partitioned = partition_dataset(dataset, 1, rng=0)
        for staleness in (0, 3, float("inf")):
            t1, t2, m1, m2 = run_pair(
                lambda s=staleness: SSPProtocol(staleness=s),
                dataset, cluster, partitioned, {"iters": 6},
            )
            assert t1.num_iterations == t2.num_iterations == 6
            assert_exactly_equal(t1, t2, m1, m2)


class TestStatisticalEquivalence:
    """Random timing: different streams, matched-seed populations agree."""

    @pytest.mark.parametrize("scheme", ["ssp", "dyn_ssp", "async"])
    def test_mean_duration_and_loss_populations(self, scheme):
        engine = Engine()
        base = RunSpec(
            mode="training", scheme=scheme, cluster="Cluster-A",
            num_iterations=8, total_samples=256, ssp_staleness=3,
            ssp_batch_size=8, loss_eval_samples=64,
            straggler=StragglerSpec(
                "transient", {"probability": 0.05, "mean_delay_seconds": 0.5}
            ),
        )
        d1, d2, l1, l2 = [], [], [], []
        for seed in range(6):
            r1 = run_spec_reference(base.replace(seed=seed, rng_version=1))
            r2 = engine.run(base.replace(seed=seed, rng_version=2))
            assert r2.trace.metadata["rng_version"] == 2
            assert "rng_version" not in r1.trace.metadata
            d1.append(r1.trace.mean_iteration_time())
            d2.append(r2.trace.mean_iteration_time())
            l1.append(r1.final_loss)
            l2.append(r2.final_loss)
        mean1, mean2 = np.mean(d1), np.mean(d2)
        assert abs(mean1 - mean2) <= 0.25 * max(mean1, mean2)
        loss1, loss2 = np.mean(l1), np.mean(l2)
        assert abs(loss1 - loss2) <= 0.25 * max(abs(loss1), abs(loss2))

    def test_batched_trace_is_columnar(self):
        engine = Engine()
        result = engine.run(RunSpec(
            mode="training", scheme="ssp", cluster="Cluster-A",
            num_iterations=5, total_samples=256, seed=0, rng_version=2,
        ))
        trace = result.trace
        assert trace.num_iterations == 5
        assert trace._records_cache is None  # built via from_arrays, lazily

    def test_batched_run_is_deterministic(self):
        engine = Engine()
        spec = RunSpec(
            mode="training", scheme="ssp", cluster="Cluster-B",
            num_iterations=5, total_samples=256, seed=7, rng_version=2,
            ssp_batch_size=4,
            straggler=StragglerSpec(
                "transient", {"probability": 0.1, "mean_delay_seconds": 0.5}
            ),
        )
        first = engine.run(spec).trace
        second = engine.run(spec).trace
        assert np.array_equal(first.durations, second.durations)
        assert np.array_equal(first.losses, second.losses)


class TestStochasticNetworkStream:
    """SSP under a stochastic network consumes the v2 ``network`` stream in
    the batched path exactly like the per-event path does."""

    def network_config(self, streams):
        return make_config(
            streams,
            network=LogNormalNetwork(
                latency_seconds=0.05, latency_sigma=0.5, bandwidth_sigma=0.2
            ),
            iters=5,
        )

    def test_batched_path_consumes_the_network_stream(self, dataset):
        cluster = deterministic_cluster()
        partitioned = partition_dataset(dataset, cluster.num_workers, rng=0)
        streams = RngStreams.from_seed(0)
        model = SoftmaxClassifier(dataset.num_features, dataset.num_classes, rng=0)
        SSPProtocol(staleness=3).run(
            model, partitioned, cluster, self.network_config(streams)
        )
        fresh = RngStreams.from_seed(0)
        # network stream advanced...
        assert (
            streams.network.bit_generator.state
            != fresh.network.bit_generator.state
        )
        # ...and the injector/jitter streams consumed exactly what a
        # deterministic-network run consumes (the network draws are separate).
        deterministic = RngStreams.from_seed(0)
        model2 = SoftmaxClassifier(dataset.num_features, dataset.num_classes, rng=0)
        SSPProtocol(staleness=3).run(
            model2, partitioned, cluster,
            make_config(deterministic, iters=5),
        )
        assert (
            streams.injector.bit_generator.state
            == deterministic.injector.bit_generator.state
        )
        assert (
            streams.jitter.bit_generator.state
            == deterministic.jitter.bit_generator.state
        )

    def test_deterministic_network_leaves_network_stream_untouched(self, dataset):
        cluster = deterministic_cluster()
        partitioned = partition_dataset(dataset, cluster.num_workers, rng=0)
        streams = RngStreams.from_seed(0)
        model = SoftmaxClassifier(dataset.num_features, dataset.num_classes, rng=0)
        SSPProtocol(staleness=3).run(
            model, partitioned, cluster, make_config(streams, iters=5)
        )
        fresh = RngStreams.from_seed(0)
        assert (
            streams.network.bit_generator.state
            == fresh.network.bit_generator.state
        )

    def test_per_event_and_batched_populations_agree(self, dataset):
        """Same network model through both paths: total-time populations at
        matched seeds agree loosely (different stream layouts)."""
        cluster = deterministic_cluster()
        partitioned = partition_dataset(dataset, cluster.num_workers, rng=0)
        totals_event, totals_batched = [], []
        for seed in range(6):
            protocol = SSPProtocol(staleness=3)
            model = SoftmaxClassifier(
                dataset.num_features, dataset.num_classes, rng=0
            )
            trace = ssp_run_per_event_reference(
                protocol, model, partitioned, cluster,
                self.network_config(RngStreams.from_seed(seed)),
            )
            totals_event.append(trace.total_time)
            model = SoftmaxClassifier(
                dataset.num_features, dataset.num_classes, rng=0
            )
            trace = protocol.run(
                model, partitioned, cluster,
                self.network_config(RngStreams.from_seed(seed)),
            )
            assert trace.metadata["rng_version"] == 2
            totals_batched.append(trace.total_time)
        mean_event = np.mean(totals_event)
        mean_batched = np.mean(totals_batched)
        assert abs(mean_event - mean_batched) <= 0.3 * max(mean_event, mean_batched)

    def test_config_without_streams_uses_its_seed_network_stream(self, dataset):
        """A config given no streams spawns them from its seed, so the
        stochastic network draws come from that seed's network stream."""
        cluster = deterministic_cluster()
        partitioned = partition_dataset(dataset, cluster.num_workers, rng=0)
        traces = []
        for streams in (None, RngStreams.from_seed(0)):
            model = SoftmaxClassifier(dataset.num_features, dataset.num_classes, rng=0)
            traces.append(
                SSPProtocol(staleness=3).run(
                    model, partitioned, cluster, self.network_config(streams)
                )
            )
        assert_exactly_equal(*traces)

    def test_v1_oracle_refuses_stochastic_networks(self):
        from repro.simulation.timing import TimingError

        spec = RunSpec(
            mode="training", scheme="ssp", num_iterations=2, total_samples=128,
            network=NetworkSpec("lognormal", {"latency_sigma": 0.5}),
            rng_version=1,
        )
        with pytest.raises(TimingError, match="no slot for network draws"):
            run_spec_reference(spec)


class TestReplayDispatchEquivalence:
    """The two replay arms — version-grouped shared-parameter kernels vs
    per-pair parameter cubes — are bit-identical; the
    ``_GROUPED_PARAM_BYTES_MIN`` cutoff only picks the faster one."""

    def run_with_cutoff(self, monkeypatch, model_factory, cutoff):
        from repro.learning.datasets import make_blobs as _make_blobs

        monkeypatch.setattr(SSPProtocol, "_GROUPED_PARAM_BYTES_MIN", cutoff)
        data = _make_blobs(num_samples=96, num_features=6, num_classes=3, rng=1)
        cluster = deterministic_cluster()
        partitioned = partition_dataset(data, cluster.num_workers, rng=0)
        model = model_factory(data)
        trace = SSPProtocol(staleness=2).run(
            model,
            partitioned,
            cluster,
            make_config(RngStreams.from_seed(0), iters=8),
        )
        return trace, model

    @pytest.mark.parametrize(
        "model_factory",
        [
            pytest.param(
                lambda d: SoftmaxClassifier(d.num_features, d.num_classes, rng=0),
                id="softmax",
            ),
            pytest.param(
                lambda d: MLPClassifier(
                    d.num_features, d.num_classes, hidden_sizes=(16, 8), rng=0
                ),
                id="mlp",
            ),
        ],
    )
    def test_grouped_and_cube_replay_agree(self, monkeypatch, model_factory):
        grouped_trace, grouped_model = self.run_with_cutoff(
            monkeypatch, model_factory, 0
        )
        cube_trace, cube_model = self.run_with_cutoff(
            monkeypatch, model_factory, 1 << 60
        )
        assert_exactly_equal(grouped_trace, cube_trace, grouped_model, cube_model)
