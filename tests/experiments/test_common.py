"""experiments.common satellites: partition-count dedup and sample drift."""

from __future__ import annotations

import warnings

import pytest

from repro.coding import CodingError, natural_partitions
from repro.experiments.clusters import build_cluster
from repro.experiments.common import (
    SampleCountDriftWarning,
    default_partitions,
    measure_timing_trace,
)


class TestDefaultPartitionsDeprecation:
    def test_delegates_to_natural_partitions(self):
        with pytest.deprecated_call():
            assert default_partitions(8) == natural_partitions("heter_aware", 8)
        with pytest.deprecated_call():
            assert default_partitions(5, multiplier=3) == natural_partitions(
                "heter_aware", 5, heter_multiplier=3
            )

    def test_still_validates_arguments(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            with pytest.raises(CodingError):
                default_partitions(0)
            with pytest.raises(CodingError):
                default_partitions(4, multiplier=0)


class TestSampleCountDrift:
    def test_divisible_total_is_silent(self):
        cluster = build_cluster("Cluster-A", rng=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", SampleCountDriftWarning)
            trace = measure_timing_trace(
                "heter_aware",
                cluster,
                num_stragglers=1,
                total_samples=1024,  # divisible by k = 16
                num_iterations=1,
                seed=0,
            )
        assert trace.metadata["effective_total_samples"] == 1024
        assert trace.metadata["total_samples"] == 1024

    def test_indivisible_total_warns_and_records_effective(self):
        cluster = build_cluster("Cluster-A", rng=0)
        with pytest.warns(SampleCountDriftWarning, match="1000"):
            trace = measure_timing_trace(
                "heter_aware",
                cluster,
                num_stragglers=1,
                total_samples=1000,  # k = 16 -> 62 * 16 = 992
                num_iterations=1,
                seed=0,
            )
        assert trace.metadata["total_samples"] == 1000
        assert trace.metadata["effective_total_samples"] == 992
        assert trace.metadata["effective_total_samples"] % 16 == 0

    def test_num_workers_recorded(self):
        cluster = build_cluster("Cluster-A", rng=0)
        trace = measure_timing_trace(
            "naive", cluster, num_stragglers=0, total_samples=64,
            num_iterations=1, seed=0,
        )
        assert trace.metadata["num_workers"] == cluster.num_workers


class TestKernelCacheRouting:
    """PR 4 bugfix: bare measure_timing_trace calls share the process cache."""

    def kwargs(self) -> dict:
        return dict(
            num_stragglers=1, total_samples=2048, num_iterations=8, seed=0
        )

    def test_default_routes_through_process_wide_cache(self):
        import numpy as np

        from repro.simulation.vectorized import default_timing_kernel_cache

        cache = default_timing_kernel_cache()
        cache.clear()
        cluster = build_cluster("Cluster-A", rng=0)
        first = measure_timing_trace("heter_aware", cluster, **self.kwargs())
        assert cache.misses == 1
        second = measure_timing_trace("heter_aware", cluster, **self.kwargs())
        assert cache.hits == 1  # the decoder and order cache were reused
        np.testing.assert_array_equal(first.durations, second.durations)
        cache.clear()

    def test_engine_and_bare_calls_share_one_cache(self):
        from repro.api import Engine
        from repro.simulation.vectorized import default_timing_kernel_cache

        assert Engine.timing_kernel_cache() is default_timing_kernel_cache()
