"""Tests for the per-figure experiment harnesses (small-scale runs).

These tests run every figure's ``run_*`` function at a deliberately small
scale and assert the *qualitative shape* the paper reports — who wins, what
grows, what stays flat — not absolute numbers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import (
    measure_timing_trace,
    report_estimation_error,
    report_fig2,
    report_fig3,
    report_fig4,
    report_fig5,
    report_optimality_sweep,
    report_table2,
    run_estimation_error_sweep,
    run_fig2,
    run_fig3,
    run_fig4,
    run_fig5,
    run_optimality_sweep,
    run_table2,
)
from repro.experiments.clusters import build_cluster


class TestMeasureTimingTrace:
    def test_trace_shape(self):
        cluster = build_cluster("Cluster-A", rng=0)
        trace = measure_timing_trace(
            "heter_aware",
            cluster,
            num_stragglers=1,
            total_samples=1024,
            num_iterations=5,
            seed=0,
        )
        assert trace.num_iterations == 5
        assert trace.metadata["mode"] == "timing_only"
        assert np.all(np.isfinite(trace.durations))

    def test_scheme_partition_conventions(self):
        cluster = build_cluster("Cluster-A", rng=0)
        cyclic = measure_timing_trace(
            "cyclic", cluster, 1, total_samples=1024, num_iterations=2, seed=0
        )
        heter = measure_timing_trace(
            "heter_aware", cluster, 1, total_samples=1024, num_iterations=2, seed=0
        )
        assert cyclic.metadata["num_partitions"] == cluster.num_workers
        assert heter.metadata["num_partitions"] == 2 * cluster.num_workers

    def test_rejects_bad_arguments(self):
        cluster = build_cluster("Cluster-A", rng=0)
        with pytest.raises(ValueError):
            measure_timing_trace("naive", cluster, 0, total_samples=0, num_iterations=2)
        with pytest.raises(ValueError):
            measure_timing_trace("naive", cluster, 0, total_samples=10, num_iterations=0)


class TestTable2:
    def test_report_contains_every_cluster(self):
        result = run_table2()
        text = report_table2(result)
        for name in ("Cluster-A", "Cluster-B", "Cluster-C", "Cluster-D"):
            assert name in text

    def test_worker_counts(self):
        # The text's "8 to 48 workers" disagrees with Table II for Cluster-D;
        # the table is implemented literally.
        result = run_table2()
        assert result.num_workers == {
            "Cluster-A": 8,
            "Cluster-B": 16,
            "Cluster-C": 32,
            "Cluster-D": 58,
        }

    def test_every_cluster_mixes_instance_sizes(self):
        result = run_table2()
        assert all(ratio > 1.5 for ratio in result.heterogeneity_ratio.values())


class TestFig2:
    @pytest.fixture(scope="class", params=(1, 2), ids=("fig2a", "fig2b"))
    def result(self, request):
        return run_fig2(
            num_stragglers=request.param,
            delays=(0.0, 2.0, float("inf")),
            num_iterations=6,
            total_samples=1024,
            seed=0,
        )

    def test_naive_grows_with_delay_and_stalls_on_fault(self, result):
        naive = result.mean_times["naive"]
        assert naive[1] > naive[0]
        assert np.isinf(naive[-1])

    def test_coded_schemes_stay_flat(self, result):
        for scheme in ("heter_aware", "group_based"):
            times = result.mean_times[scheme]
            assert np.isfinite(times[-1])
            assert times[-1] < 1.3 * times[0]

    def test_heter_family_beats_cyclic_at_fault(self, result):
        fault = len(result.delays) - 1
        assert np.isfinite(result.mean_times["cyclic"][fault])
        for scheme in ("heter_aware", "group_based"):
            assert result.speedup_over("cyclic", scheme, fault) > 1.5

    def test_report_renders(self, result):
        text = report_fig2(result)
        assert "Fig. 2" in text
        assert "fault" in text


# 4096 samples round to the same 4060 for every scheme on Cluster-D (k = 58
# or 116), so the schemes are compared on identical work.
@pytest.mark.filterwarnings("ignore::repro.experiments.common.SampleCountDriftWarning")
class TestFig3:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig3(
            clusters=("Cluster-A", "Cluster-B", "Cluster-C", "Cluster-D"),
            num_iterations=5,
            total_samples=4096,
            seed=0,
        )

    def test_heter_family_fastest_everywhere(self, result):
        for cluster in result.clusters:
            fastest = result.fastest_scheme(cluster)
            assert fastest in ("heter_aware", "group_based")

    def test_fastest_beats_uniform_baselines_by_margin(self, result):
        for cluster in result.clusters:
            times = result.mean_times[cluster]
            fastest = result.fastest_scheme(cluster)
            assert times[fastest] < 0.8 * min(times["naive"], times["cyclic"])

    def test_worker_counts_recorded(self, result):
        assert result.num_workers["Cluster-A"] == 8
        assert result.num_workers["Cluster-B"] == 16

    def test_report_renders(self, result):
        assert "Fig. 3" in report_fig3(result)


class TestFig4:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig4(
            schemes=("naive", "cyclic", "heter_aware", "group_based", "ssp"),
            cluster_name="Cluster-A",
            workload="blobs_softmax",
            num_samples=256,
            num_iterations=6,
            loss_eval_samples=128,
            num_grid_points=10,
            seed=0,
        )

    def test_all_schemes_have_curves(self, result):
        assert set(result.loss_curves) == set(result.schemes)
        for curve in result.loss_curves.values():
            assert curve.shape == result.time_grid.shape

    def test_losses_decrease_over_time(self, result):
        for scheme in ("naive", "heter_aware", "group_based"):
            curve = result.loss_curves[scheme]
            assert curve[-1] < curve[0]

    @pytest.fixture(scope="class")
    def nonseparable(self):
        """Overlapping classes: SSP's stale updates show in the final loss."""
        return run_fig4(
            schemes=("naive", "cyclic", "heter_aware", "group_based", "ssp"),
            cluster_name="Cluster-A",
            workload="nonseparable_blobs",
            num_samples=1024,
            num_iterations=12,
            loss_eval_samples=512,
            num_grid_points=15,
            seed=0,
        )

    def test_heter_family_auc_beats_uniform_baselines(self, result):
        auc = result.area_under_curve
        assert auc["heter_aware"] <= auc["naive"] + 1e-9
        assert auc["heter_aware"] <= auc["cyclic"] + 1e-9
        assert auc["group_based"] <= auc["naive"] + 1e-9

    def test_ssp_ends_above_heter_family(self, nonseparable):
        final = nonseparable.final_loss
        assert final["ssp"] > final["heter_aware"]
        assert final["ssp"] > final["group_based"]
        assert nonseparable.ranking()[0] in ("heter_aware", "group_based")

    def test_ranking_has_all_schemes(self, result):
        assert sorted(result.ranking()) == sorted(result.schemes)

    def test_report_renders(self, result):
        text = report_fig4(result)
        assert "Fig. 4" in text
        assert "ranking" in text


class TestFig5:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig5(num_iterations=8, total_samples=1024, seed=0)

    def test_naive_has_lowest_usage(self, result):
        naive = result.resource_usage["naive"]
        assert all(
            naive <= result.resource_usage[s] + 1e-9
            for s in result.schemes
            if s != "naive"
        )

    def test_heter_family_highest_usage(self, result):
        assert result.best_scheme() in ("heter_aware", "group_based")

    def test_max_usage_well_above_naive(self, result):
        usage = result.resource_usage
        assert max(usage.values()) > 1.5 * usage["naive"]

    def test_usages_are_fractions(self, result):
        for usage in result.resource_usage.values():
            assert 0.0 < usage <= 1.0

    def test_report_renders(self, result):
        assert "Fig. 5" in report_fig5(result)


class TestSweeps:
    def test_estimation_error_sweep_shape(self):
        result = run_estimation_error_sweep(
            error_levels=(0.0, 0.3),
            num_iterations=5,
            total_samples=1024,
            seed=0,
        )
        assert result.error_levels == (0.0, 0.3)
        for scheme in result.schemes:
            assert len(result.mean_times[scheme]) == 2
            assert all(np.isfinite(t) for t in result.mean_times[scheme])
        assert "ablation" in report_estimation_error(result)

    def test_estimation_error_sweep_paper_shape(self):
        result = run_estimation_error_sweep(
            error_levels=(0.0, 0.2, 0.4, 0.8),
            schemes=("cyclic", "heter_aware", "group_based"),
            num_iterations=20,
            total_samples=2048,
            transient_probability=0.15,
            transient_mean_delay=0.5,
            seed=0,
        )
        heter = result.mean_times["heter_aware"]
        group = result.mean_times["group_based"]
        cyclic = result.mean_times["cyclic"]
        # Exact estimates: the two proposed schemes are within 15%.
        assert abs(heter[0] - group[0]) < 0.15 * heter[0]
        # Largest error: group decoding absorbs part of the mis-allocation.
        assert group[-1] <= heter[-1] * 1.05
        # Cyclic ignores the estimates, so it is flat, and slower throughout.
        assert max(cyclic) - min(cyclic) < 0.1 * cyclic[0]
        assert all(c > h for c, h in zip(cyclic, heter))
        assert all(c > g for c, g in zip(cyclic, group))

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(num_trials=3, num_workers=6),
            dict(
                num_trials=12,
                num_workers=8,
                num_stragglers=1,
                partitions_multiplier=4,
                heterogeneity_spread=6.0,
            ),
        ],
        ids=("small", "spread6"),
    )
    def test_optimality_sweep(self, kwargs):
        result = run_optimality_sweep(seed=0, **kwargs)
        heter = result.mean_ratio("heter_aware")
        assert heter < 1.25
        assert result.mean_ratio("group_based") < 1.25
        assert result.mean_ratio("cyclic") > 1.5 * heter
        assert "Theorem 5" in report_optimality_sweep(result)

    def test_communication_overlap_sweep(self):
        from repro.experiments import (
            report_communication_overlap,
            run_communication_overlap_sweep,
        )

        result = run_communication_overlap_sweep(
            overlap_fractions=(0.0, 1.0),
            num_iterations=5,
            total_samples=1024,
            seed=0,
        )
        assert len(result.mean_iteration_time) == 2
        assert result.mean_iteration_time[1] < 0.9 * result.mean_iteration_time[0]
        assert result.resource_usage[1] >= result.resource_usage[0]
        assert "overlap" in report_communication_overlap(result)
