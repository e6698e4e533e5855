"""Property tests for the ``rng_version`` contract.

Two guarantees are locked in here:

* **v1 bit-identity** — ``rng_version=1`` traces are bit-identical to the
  pre-vectorization reference implementation for *every* registered
  straggler model on *every* Table II cluster, so this PR (and any future
  one) cannot silently move the historical stream layout.
* **v1/v2 statistical equivalence** — at matched seeds the two layouts
  draw from identical marginal distributions; means of durations and
  per-worker compute times must agree within Monte-Carlo tolerance.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro._reference import measure_timing_trace_reference
from repro.api.builders import build_injector
from repro.api.registry import CLUSTERS, STRAGGLER_MODELS
from repro.api.spec import StragglerSpec
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


def traces_bit_identical(a, b) -> bool:
    if not np.array_equal(a.durations, b.durations):
        return False
    for ra, rb in zip(a.records, b.records):
        if ra.compute_times != rb.compute_times:
            return False
        if ra.completion_times != rb.completion_times:
            return False
        if ra.workers_used != rb.workers_used or ra.used_group != rb.used_group:
            return False
    return a.metadata == b.metadata


class TestV1BitIdentity:
    @pytest.mark.parametrize("cluster_name", CLUSTER_NAMES)
    @pytest.mark.parametrize("kind,params", INJECTOR_CASES)
    def test_v1_matches_pre_vectorization_reference(
        self, cluster_name, kind, params
    ):
        cluster = build_cluster(cluster_name, rng=0)
        kwargs = dict(
            num_stragglers=1,
            total_samples=2048,
            num_iterations=12,
            gradient_bytes=8.0 * 4096,
            seed=7,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SampleCountDriftWarning)
            reference = measure_timing_trace_reference(
                "heter_aware", cluster,
                injector=fresh_injector(kind, params), **kwargs,
            )
            current = measure_timing_trace(
                "heter_aware", cluster,
                injector=fresh_injector(kind, params), **kwargs,
            )
        assert traces_bit_identical(reference, current)

    @pytest.mark.parametrize("scheme", ["naive", "cyclic", "group_based"])
    def test_v1_matches_reference_across_schemes(self, scheme):
        cluster = build_cluster("Cluster-A", rng=0)
        kwargs = dict(
            num_stragglers=0 if scheme == "naive" else 1,
            total_samples=2048,
            num_iterations=15,
            seed=3,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SampleCountDriftWarning)
            reference = measure_timing_trace_reference(
                scheme, cluster,
                injector=fresh_injector("artificial_delay",
                                        {"num_stragglers": 1, "delay_seconds": 2.0}),
                **kwargs,
            )
            current = measure_timing_trace(
                scheme, cluster,
                injector=fresh_injector("artificial_delay",
                                        {"num_stragglers": 1, "delay_seconds": 2.0}),
                **kwargs,
            )
        assert traces_bit_identical(reference, current)


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
            v1 = measure_timing_trace(
                "heter_aware", cluster,
                injector=fresh_injector(kind, params), rng_version=1, **kwargs,
            )
            v2 = measure_timing_trace(
                "heter_aware", cluster,
                injector=fresh_injector(kind, params), rng_version=2, **kwargs,
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
            measure_timing_trace(
                scheme, cluster,
                injector=fresh_injector("artificial_delay",
                                        {"num_stragglers": 1, "delay_seconds": 1.0}),
                rng_version=version, **kwargs,
            )
            for version in (1, 2)
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
        v2a = measure_timing_trace("heter_aware", cluster, rng_version=2, **kwargs)
        v2b = measure_timing_trace("heter_aware", cluster, rng_version=2, **kwargs)
        v1 = measure_timing_trace("heter_aware", cluster, rng_version=1, **kwargs)
        assert np.array_equal(v2a.durations, v2b.durations)
        assert not np.array_equal(v1.durations, v2a.durations)
        assert v2a.metadata["rng_version"] == 2
        assert "rng_version" not in v1.metadata

    def test_unknown_rng_version_rejected(self):
        cluster = build_cluster("Cluster-A", rng=0)
        with pytest.raises(ValueError, match="rng_version"):
            measure_timing_trace(
                "heter_aware", cluster, num_stragglers=1,
                total_samples=2048, num_iterations=5, rng_version=3,
            )
