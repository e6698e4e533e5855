"""Unit tests for the metrics layer (resource usage, timing, convergence, report)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.metrics import (
    align_curves,
    area_under_loss_curve,
    format_mapping,
    format_table,
    iteration_resource_usage,
    loss_at_time,
    per_worker_resource_usage,
    run_resource_usage,
    speedup,
    speedup_table,
    time_to_loss,
    timing_stats,
    to_csv,
    worker_participation,
)
from repro.simulation.trace import IterationRecord, RunTrace


def record(iteration, duration, loss=1.0, compute=(0.5, 1.0)):
    return IterationRecord(
        iteration=iteration,
        duration=duration,
        train_loss=loss,
        compute_times=tuple(compute),
        completion_times=tuple(c + 0.1 for c in compute),
        workers_used=(0, 1),
    )


def make_trace(durations, losses=None, scheme="x"):
    losses = losses or [1.0] * len(durations)
    trace = RunTrace(scheme=scheme, cluster_name="c")
    for i, (duration, loss) in enumerate(zip(durations, losses)):
        trace.append(record(i, duration, loss))
    return trace


class TestResourceUsage:
    def test_full_utilisation(self):
        rec = record(0, duration=1.0, compute=(1.0, 1.0))
        assert iteration_resource_usage(rec) == pytest.approx(1.0)

    def test_half_utilisation(self):
        rec = record(0, duration=2.0, compute=(2.0, 2.0, 0.0, 0.0))
        assert iteration_resource_usage(rec) == pytest.approx(0.5)

    def test_compute_capped_at_duration(self):
        # A straggler computing long past the iteration end contributes at
        # most the iteration duration.
        rec = record(0, duration=1.0, compute=(5.0, 1.0))
        assert iteration_resource_usage(rec) == pytest.approx(1.0)

    def test_stalled_iteration_counts_zero(self):
        rec = record(0, duration=float("inf"), compute=(1.0, 1.0))
        assert iteration_resource_usage(rec) == 0.0

    def test_run_average(self):
        trace = make_trace([1.0, 1.0])
        usage = run_resource_usage(trace)
        assert 0.0 < usage <= 1.0

    def test_empty_trace_nan(self):
        assert np.isnan(run_resource_usage(RunTrace(scheme="x", cluster_name="c")))


class TestPerWorkerUsage:
    def trace(self) -> RunTrace:
        trace = RunTrace(scheme="x", cluster_name="c")
        trace.append(record(0, duration=2.0, compute=(1.0, 3.0)))
        trace.append(record(1, duration=float("inf"), compute=(1.0, 1.0)))
        trace.append(
            IterationRecord(
                iteration=2,
                duration=1.0,
                train_loss=1.0,
                compute_times=(0.5, 1.0),
                completion_times=(0.6, 1.1),
                workers_used=(1,),
            )
        )
        return trace

    def test_busy_fraction_per_worker(self):
        # Worker 1's 3.0 s is capped at the 2.0 s iteration; the stalled
        # iteration counts zero for everyone.
        usage = per_worker_resource_usage(self.trace())
        assert usage == pytest.approx([(0.5 + 0.5) / 3, (1.0 + 1.0) / 3])

    def test_mean_over_workers_is_the_run_usage(self):
        trace = self.trace()
        assert per_worker_resource_usage(trace).mean() == pytest.approx(
            run_resource_usage(trace)
        )

    def test_participation_counts_combined_results(self):
        assert worker_participation(self.trace()).tolist() == [2 / 3, 1.0]

    def test_empty_trace_has_no_workers(self):
        trace = RunTrace(scheme="x", cluster_name="c")
        assert per_worker_resource_usage(trace).size == 0
        assert worker_participation(trace).size == 0

    def test_participation_rejects_ids_outside_the_cluster(self):
        trace = RunTrace(scheme="x", cluster_name="c")
        trace.append(
            IterationRecord(
                iteration=0,
                duration=1.0,
                train_loss=1.0,
                compute_times=(1.0, 1.0),
                completion_times=(1.1, 1.1),
                workers_used=(0, 2),
            )
        )
        with pytest.raises(ValueError, match="max id 2, num_workers 2"):
            worker_participation(trace)


class TestTimingStats:
    def test_basic_statistics(self):
        trace = make_trace([1.0, 2.0, 3.0, 4.0])
        stats = timing_stats(trace)
        assert stats.mean == pytest.approx(2.5)
        assert stats.median == pytest.approx(2.5)
        assert stats.minimum == 1.0
        assert stats.maximum == 4.0
        assert stats.num_iterations == 4
        assert stats.stalled_iterations == 0

    def test_stalled_iterations_counted(self):
        trace = make_trace([1.0, float("inf"), 2.0])
        stats = timing_stats(trace)
        assert stats.stalled_iterations == 1
        assert stats.mean == pytest.approx(1.5)

    def test_all_stalled(self):
        trace = make_trace([float("inf")])
        stats = timing_stats(trace)
        assert stats.mean == float("inf")

    def test_speedup(self):
        slow = make_trace([4.0, 4.0], scheme="cyclic")
        fast = make_trace([1.0, 1.0], scheme="heter")
        assert speedup(slow, fast) == pytest.approx(4.0)
        assert speedup(fast, slow) == pytest.approx(0.25)

    def test_speedup_table(self):
        traces = {
            "cyclic": make_trace([4.0]),
            "heter_aware": make_trace([2.0]),
            "group_based": make_trace([1.0]),
        }
        table = speedup_table(traces, baseline="cyclic")
        assert table["cyclic"] == pytest.approx(1.0)
        assert table["heter_aware"] == pytest.approx(2.0)
        assert table["group_based"] == pytest.approx(4.0)

    def test_speedup_table_missing_baseline(self):
        with pytest.raises(KeyError):
            speedup_table({"a": make_trace([1.0])}, baseline="b")


class TestConvergence:
    def test_loss_at_time(self):
        trace = make_trace([1.0, 1.0, 1.0], losses=[3.0, 2.0, 1.0])
        assert loss_at_time(trace, 0.5) == 3.0
        assert loss_at_time(trace, 1.5) == 3.0
        assert loss_at_time(trace, 2.5) == 2.0
        assert loss_at_time(trace, 10.0) == 1.0

    def test_time_to_loss(self):
        trace = make_trace([1.0, 1.0, 1.0], losses=[3.0, 2.0, 1.0])
        assert time_to_loss(trace, 2.0) == pytest.approx(2.0)
        assert time_to_loss(trace, 0.5) == float("inf")

    def test_area_under_loss_curve_ordering(self):
        fast = make_trace([1.0, 1.0], losses=[2.0, 1.0])
        slow = make_trace([2.0, 2.0], losses=[2.0, 1.0])
        horizon = 4.0
        assert area_under_loss_curve(fast, horizon) < area_under_loss_curve(
            slow, horizon
        )

    def test_align_curves_grid(self):
        traces = {
            "a": make_trace([1.0, 1.0], losses=[2.0, 1.0]),
            "b": make_trace([2.0, 2.0], losses=[2.0, 1.5]),
        }
        grid, curves = align_curves(traces, num_points=5)
        assert grid.shape == (5,)
        assert set(curves.keys()) == {"a", "b"}
        assert grid[-1] == pytest.approx(2.0)  # shortest run's horizon

    def test_align_curves_rejects_empty(self):
        with pytest.raises(ValueError):
            align_curves({})


class TestReport:
    def test_format_table_alignment(self):
        text = format_table(
            ["scheme", "time"], [["naive", 1.23456], ["cyclic", 10.5]], precision=2
        )
        lines = text.splitlines()
        assert len(lines) == 4
        assert "1.23" in text and "10.50" in text

    def test_format_table_title_and_special_floats(self):
        text = format_table(
            ["a"], [[float("inf")], [float("nan")]], title="My table"
        )
        assert text.startswith("My table")
        assert "inf" in text and "nan" in text

    def test_format_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [["only-one"]])

    def test_to_csv(self):
        csv = to_csv(["a", "b"], [[1, 2.5], ["x", float("inf")]])
        lines = csv.strip().splitlines()
        assert lines[0] == "a,b"
        assert lines[1].startswith("1,2.5")
        assert "inf" in lines[2]

    def test_to_csv_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            to_csv(["a"], [[1, 2]])

    def test_format_mapping(self):
        text = format_mapping({"mean": 1.234567, "scheme": "naive"}, precision=2)
        assert "mean: 1.23" in text
        assert "scheme: naive" in text
