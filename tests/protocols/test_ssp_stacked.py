"""Bit-identity of the stacked SSP/Async event scan against ``run``.

``SSPProtocol.run_stacked`` simulates many independent runs through one
chunked clock-recurrence scan plus a single cross-run lexsort; every run's
trace must stay JSON-identical to a standalone :meth:`SSPProtocol.run` at
the same seed — including adaptive (DynSSP) learning rates, stochastic
networks and full-cluster fail-stop stalls.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments.clusters import build_cluster
from repro.learning.datasets import make_linear_regression
from repro.learning.models.linear import LinearRegressionModel
from repro.learning.partition import partition_dataset
from repro.protocols.base import ProtocolError, TrainingConfig
from repro.protocols.ssp import AsyncProtocol, SSPProtocol
from repro.simulation.network import LogNormalNetwork, SimpleNetwork
from repro.simulation.rng import RngStreams
from repro.simulation.stragglers import ArtificialDelay, FailStop, NoStragglers

SEEDS = [11, 12, 13, 14]


def make_run(seed, injector, network, num_iterations=40):
    dataset = make_linear_regression(num_samples=240, num_features=6, rng=7)
    cluster = build_cluster("Cluster-A", rng=seed)
    partitioned = partition_dataset(
        dataset, num_partitions=cluster.num_workers, rng=3
    )
    model = LinearRegressionModel(dataset.features.shape[1], rng=seed)
    config = TrainingConfig(
        num_iterations=num_iterations,
        seed=seed,
        straggler_injector=injector,
        network=network,
        rng_streams=RngStreams.from_seed(seed),
    )
    return model, partitioned, cluster, config


def trace_json(trace):
    # NaN-safe comparison (timing-free fields may be NaN; nan != nan).
    return json.dumps(trace.to_dict(), sort_keys=True)


def assert_stack_matches_solo(proto_factory, injector_factory, network_factory,
                              seeds=SEEDS, num_iterations=40):
    runs = [
        make_run(s, injector_factory(), network_factory(), num_iterations)
        for s in seeds
    ]
    stacked = proto_factory().run_stacked(
        [r[0] for r in runs],
        [r[1] for r in runs],
        [r[2] for r in runs],
        [r[3] for r in runs],
    )
    assert len(stacked) == len(seeds)
    for index, seed in enumerate(seeds):
        model, partitioned, cluster, config = make_run(
            seed, injector_factory(), network_factory(), num_iterations
        )
        solo = proto_factory().run(model, partitioned, cluster, config)
        assert trace_json(stacked[index]) == trace_json(solo)


class TestRunStackedBitIdentity:
    def test_ssp_with_artificial_delay(self):
        assert_stack_matches_solo(
            lambda: SSPProtocol(staleness=3),
            lambda: ArtificialDelay(num_stragglers=1, delay_seconds=0.5),
            SimpleNetwork,
        )

    def test_async_protocol(self):
        assert_stack_matches_solo(
            AsyncProtocol,
            lambda: ArtificialDelay(num_stragglers=1, delay_seconds=0.5),
            SimpleNetwork,
        )

    def test_dyn_ssp_adaptive_learning_rate(self):
        assert_stack_matches_solo(
            lambda: SSPProtocol(staleness=2, adaptive_learning_rate=True),
            NoStragglers,
            SimpleNetwork,
        )

    def test_stochastic_network_draws_stay_per_run(self):
        assert_stack_matches_solo(
            lambda: SSPProtocol(staleness=3),
            NoStragglers,
            LogNormalNetwork,
        )

    def test_full_cluster_fail_stop_stall(self):
        # Every worker dies mid-run: settled runs must stop drawing from
        # their streams exactly where the standalone scan stopped.
        assert_stack_matches_solo(
            lambda: SSPProtocol(staleness=1),
            lambda: FailStop(failures={w: 5 for w in range(8)}),
            SimpleNetwork,
            seeds=[21, 22, 23],
        )

    def test_mixed_horizon_settling(self):
        # Short stack: runs settle on different scan chunks.
        assert_stack_matches_solo(
            lambda: SSPProtocol(staleness=0),
            lambda: ArtificialDelay(num_stragglers=2, delay_seconds=2.0),
            SimpleNetwork,
            seeds=[5, 6],
            num_iterations=7,
        )


class TestRunStackedValidation:
    def test_rejects_mismatched_lengths(self):
        a = make_run(0, NoStragglers(), SimpleNetwork())
        with pytest.raises(ProtocolError, match="same length"):
            SSPProtocol(staleness=1).run_stacked(
                [a[0]], [a[1], a[1]], [a[2]], [a[3]]
            )

    def test_rejects_empty_stack(self):
        with pytest.raises(ProtocolError, match="at least one run"):
            SSPProtocol(staleness=1).run_stacked([], [], [], [])
