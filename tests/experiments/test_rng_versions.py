"""Property tests for the ``rng_version`` contract.

Two guarantees are locked in here:

* **decode decisions match the scalar reference** — for *every*
  registered straggler model on *every* Table II cluster, each iteration
  of a timing trace decodes exactly where the pre-vectorization per-prefix
  search (``repro._reference``) decodes the same completion times: same
  duration, same workers used, same group.
* **v1/v2 statistical equivalence** — at matched seeds the historical
  single-stream layout (the ``repro._reference`` oracle) and the
  per-component layout the engine runs draw from identical marginal
  distributions; means of durations and per-worker compute times must
  agree within Monte-Carlo tolerance.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro._reference import decide_reference, measure_timing_trace_reference
from repro.api.builders import build_injector
from repro.api.registry import CLUSTERS, STRAGGLER_MODELS
from repro.api.spec import StragglerSpec
from repro.coding.decoding import Decoder
from repro.coding.registry import build_strategy
from repro.experiments.clusters import build_cluster
from repro.experiments.common import SampleCountDriftWarning, measure_timing_trace

#: (kind, params) for every registered straggler model, with parameters
#: chosen so each model actually fires.
INJECTOR_CASES = [
    ("none", {}),
    ("artificial_delay", {"num_stragglers": 1, "delay_seconds": 1.0}),
    ("transient", {"probability": 0.3, "mean_delay_seconds": 0.5}),
    (
        "bursty",
        {"enter_probability": 0.2, "exit_probability": 0.4, "mean_delay_seconds": 0.5},
    ),
    ("fail_stop", {"failures": {"0": 3}}),
    (
        "composite",
        {
            "parts": [
                {"kind": "artificial_delay",
                 "params": {"num_stragglers": 1, "delay_seconds": 0.5}},
                {"kind": "transient",
                 "params": {"probability": 0.2, "mean_delay_seconds": 0.3}},
            ]
        },
    ),
]

CLUSTER_NAMES = ("Cluster-A", "Cluster-B", "Cluster-C", "Cluster-D")


def test_cases_cover_every_registered_injector():
    assert {kind for kind, _ in INJECTOR_CASES} == set(STRAGGLER_MODELS.names())


def test_cases_cover_every_registered_cluster():
    assert set(CLUSTER_NAMES) == set(CLUSTERS.names())


def fresh_injector(kind: str, params: dict):
    """A fresh injector per run (stateful models must not share state)."""
    return build_injector(StragglerSpec(kind=kind, params=dict(params)))


def assert_decisions_match_reference(scheme, cluster, trace, num_stragglers, seed):
    """Re-decide every iteration of ``trace`` with the scalar per-prefix
    search over its own completion times."""
    strategy = build_strategy(
        scheme,
        throughputs=cluster.estimated_throughputs,
        num_partitions=trace.metadata["num_partitions"],
        num_stragglers=num_stragglers,
        rng=np.random.default_rng(seed),
    )
    assert list(strategy.loads) == trace.metadata["loads"]
    decoder = Decoder(strategy)
    columns = trace.columns()
    decisions = zip(
        columns.durations.tolist(), columns.workers_used, columns.used_groups
    )
    for completion, decision in zip(columns.completion_times, decisions, strict=True):
        assert decision == decide_reference(decoder, completion)


class TestDecisionsMatchScalarReference:
    @pytest.mark.parametrize("cluster_name", CLUSTER_NAMES)
    @pytest.mark.parametrize("kind,params", INJECTOR_CASES)
    def test_every_injector_and_cluster(self, cluster_name, kind, params):
        cluster = build_cluster(cluster_name, rng=0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SampleCountDriftWarning)
            trace = measure_timing_trace(
                "heter_aware", cluster,
                injector=fresh_injector(kind, params),
                num_stragglers=1,
                total_samples=2048,
                num_iterations=12,
                gradient_bytes=8.0 * 4096,
                seed=7,
            )
        assert_decisions_match_reference("heter_aware", cluster, trace, 1, seed=7)

    @pytest.mark.parametrize("scheme", ["naive", "cyclic", "group_based"])
    def test_across_schemes(self, scheme):
        cluster = build_cluster("Cluster-A", rng=0)
        num_stragglers = 0 if scheme == "naive" else 1
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SampleCountDriftWarning)
            trace = measure_timing_trace(
                scheme, cluster,
                injector=fresh_injector("artificial_delay",
                                        {"num_stragglers": 1, "delay_seconds": 2.0}),
                num_stragglers=num_stragglers,
                total_samples=2048,
                num_iterations=15,
                seed=3,
            )
        assert_decisions_match_reference(scheme, cluster, trace, num_stragglers, seed=3)


class TestV1V2StatisticalEquivalence:
    @pytest.mark.parametrize("kind,params", INJECTOR_CASES)
    def test_matched_seed_marginals_agree(self, kind, params):
        cluster = build_cluster("Cluster-A", rng=0)
        kwargs = dict(
            num_stragglers=1,
            total_samples=2048,
            num_iterations=600,
            seed=0,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SampleCountDriftWarning)
            v1 = measure_timing_trace_reference(
                "heter_aware", cluster,
                injector=fresh_injector(kind, params), **kwargs,
            )
            v2 = measure_timing_trace(
                "heter_aware", cluster,
                injector=fresh_injector(kind, params), **kwargs,
            )
        d1, d2 = v1.durations, v2.durations
        finite1, finite2 = np.isfinite(d1), np.isfinite(d2)
        assert abs(finite1.mean() - finite2.mean()) < 0.05
        assert d2[finite2].mean() == pytest.approx(d1[finite1].mean(), rel=0.10)
        compute1 = np.array([r.compute_times for r in v1.records])
        compute2 = np.array([r.compute_times for r in v2.records])
        assert compute2.mean(axis=0) == pytest.approx(
            compute1.mean(axis=0), rel=0.05
        )

    @pytest.mark.parametrize("scheme", ["naive", "cyclic", "group_based"])
    def test_matched_seed_means_agree_across_schemes(self, scheme):
        cluster = build_cluster("Cluster-A", rng=0)
        kwargs = dict(
            num_stragglers=1, total_samples=2048, num_iterations=300, seed=0,
        )
        v1, v2 = (
            measure(
                scheme, cluster,
                injector=fresh_injector("artificial_delay",
                                        {"num_stragglers": 1, "delay_seconds": 1.0}),
                **kwargs,
            )
            for measure in (measure_timing_trace_reference, measure_timing_trace)
        )
        assert v2.metadata["rng_version"] == 2
        assert v2.mean_iteration_time() == pytest.approx(
            v1.mean_iteration_time(), rel=0.15
        )

    def test_v2_is_deterministic_and_differs_from_v1(self):
        cluster = build_cluster("Cluster-A", rng=0)
        kwargs = dict(
            num_stragglers=1, total_samples=2048, num_iterations=25, seed=0,
            injector=None,
        )
        v2a = measure_timing_trace("heter_aware", cluster, **kwargs)
        v2b = measure_timing_trace("heter_aware", cluster, **kwargs)
        v1 = measure_timing_trace_reference("heter_aware", cluster, **kwargs)
        assert np.array_equal(v2a.durations, v2b.durations)
        assert not np.array_equal(v1.durations, v2a.durations)
        assert v2a.metadata["rng_version"] == 2
        assert "rng_version" not in v1.metadata
