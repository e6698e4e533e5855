"""Unit tests for trace containers."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.simulation.trace import (
    IterationRecord,
    RaggedColumn,
    RunTrace,
    TraceColumns,
    TraceError,
    UnknownTraceFieldWarning,
)


def make_record(iteration: int, duration: float = 1.0, loss: float = 0.5):
    return IterationRecord(
        iteration=iteration,
        duration=duration,
        train_loss=loss,
        compute_times=(0.5, 0.8),
        completion_times=(0.6, 0.9),
        workers_used=(0, 1),
    )


class TestIterationRecord:
    def test_num_workers(self):
        assert make_record(0).num_workers == 2

    @pytest.mark.parametrize("used_group", (None, (1,)))
    def test_dict_round_trip(self, used_group):
        record = IterationRecord(
            iteration=4,
            duration=1.5,
            train_loss=0.25,
            compute_times=(0.5, 0.8),
            completion_times=(0.6, 0.9),
            workers_used=(1,),
            used_group=used_group,
        )
        data = record.to_dict()
        assert data["used_group"] == (None if used_group is None else [1])
        assert data["workers_used"] == [1]
        assert IterationRecord.from_dict(data) == record


class TestRunTrace:
    def test_append_and_accessors(self):
        trace = RunTrace(scheme="heter_aware", cluster_name="Cluster-A")
        trace.append(make_record(0, duration=1.0, loss=2.0))
        trace.append(make_record(1, duration=2.0, loss=1.0))
        assert trace.num_iterations == 2
        assert np.allclose(trace.durations, [1.0, 2.0])
        assert np.allclose(trace.losses, [2.0, 1.0])
        assert np.allclose(trace.elapsed_times, [1.0, 3.0])
        assert trace.total_time == pytest.approx(3.0)
        assert trace.mean_iteration_time() == pytest.approx(1.5)
        assert trace.completed

    def test_rejects_out_of_order_iterations(self):
        trace = RunTrace(scheme="x", cluster_name="y")
        trace.append(make_record(3))
        with pytest.raises(TraceError):
            trace.append(make_record(3))
        with pytest.raises(TraceError):
            trace.append(make_record(1))

    def test_extend_rejects_out_of_order_batch(self):
        trace = RunTrace(scheme="x", cluster_name="y", records=[make_record(0)])
        with pytest.raises(TraceError, match="2 after 2"):
            trace.extend([make_record(2), make_record(2)])
        assert trace.num_iterations == 1

    def test_repr_names_scheme_cluster_and_length(self):
        trace = RunTrace(
            scheme="cyclic",
            cluster_name="Cluster-B",
            records=[make_record(0), make_record(1)],
        )
        assert repr(trace) == (
            "RunTrace(scheme='cyclic', cluster_name='Cluster-B', num_iterations=2)"
        )

    def test_incomplete_run_detected(self):
        trace = RunTrace(scheme="naive", cluster_name="c")
        trace.append(make_record(0, duration=float("inf")))
        assert not trace.completed

    def test_empty_trace(self):
        trace = RunTrace(scheme="x", cluster_name="y")
        assert trace.total_time == 0.0
        assert np.isnan(trace.mean_iteration_time())

    def test_loss_curve(self):
        trace = RunTrace(scheme="x", cluster_name="y")
        trace.append(make_record(0, duration=1.0, loss=3.0))
        trace.append(make_record(1, duration=1.0, loss=2.0))
        times, losses = trace.loss_curve()
        assert np.allclose(times, [1.0, 2.0])
        assert np.allclose(losses, [3.0, 2.0])

    def test_summary_keys(self):
        trace = RunTrace(scheme="cyclic", cluster_name="Cluster-B")
        trace.append(make_record(0))
        summary = trace.summary()
        assert summary["scheme"] == "cyclic"
        assert summary["cluster"] == "Cluster-B"
        assert summary["iterations"] == 1
        assert summary["completed"] is True

    def test_summary_with_stall(self):
        trace = RunTrace(scheme="naive", cluster_name="c")
        trace.append(make_record(0, duration=float("inf")))
        summary = trace.summary()
        assert summary["completed"] is False


class TestRoundTrip:
    def make_trace(self) -> RunTrace:
        trace = RunTrace(
            scheme="heter_aware",
            cluster_name="Cluster-A",
            metadata={
                "mode": "timing_only",
                "num_workers": 2,
                "effective_total_samples": 2040,
                "total_samples": 2048,
                "custom_downstream_key": {"nested": [1, 2, 3]},
            },
        )
        trace.extend([make_record(0), make_record(1, duration=2.0)])
        return trace

    def test_every_metadata_key_survives(self):
        trace = self.make_trace()
        rebuilt = RunTrace.from_dict(trace.to_dict())
        assert rebuilt.metadata == trace.metadata
        # The SampleCountDriftWarning diagnostics specifically must survive.
        assert rebuilt.metadata["effective_total_samples"] == 2040
        assert rebuilt.metadata["num_workers"] == 2

    def test_records_survive(self):
        trace = self.make_trace()
        rebuilt = RunTrace.from_dict(trace.to_dict())
        assert rebuilt.num_iterations == trace.num_iterations
        assert rebuilt.records[1].duration == 2.0
        assert rebuilt.records[0].workers_used == (0, 1)

    def test_unknown_top_level_key_warns(self):
        data = self.make_trace().to_dict()
        data["telemetry"] = {"new": True}
        with pytest.warns(UnknownTraceFieldWarning, match="telemetry"):
            rebuilt = RunTrace.from_dict(data)
        assert rebuilt.metadata == self.make_trace().metadata

    def test_unknown_record_key_warns(self):
        data = self.make_trace().to_dict()
        data["records"][0]["queue_depth"] = 4
        with pytest.warns(UnknownTraceFieldWarning, match="queue_depth"):
            RunTrace.from_dict(data)

    def test_known_payload_round_trips_silently(self):
        data = self.make_trace().to_dict()
        with warnings.catch_warnings():
            warnings.simplefilter("error", UnknownTraceFieldWarning)
            RunTrace.from_dict(data)


class TestRaggedColumn:
    @pytest.mark.parametrize("offsets", ([], [[0, 1]]))
    def test_offsets_must_be_1d_and_non_empty(self, offsets):
        with pytest.raises(TraceError, match="offsets must be 1-d"):
            RaggedColumn(np.array(offsets, dtype=np.int64), np.zeros(0))

    def test_present_must_have_one_flag_per_row(self):
        with pytest.raises(TraceError, match=r"present has shape \(3,\)"):
            RaggedColumn(np.array([0, 1, 2]), np.array([4, 5]), np.ones(3))

    def test_absent_rows_read_as_none(self):
        column = RaggedColumn.from_rows([(0, 2), None, ()], nullable=True)
        assert column.row(1) is None
        assert column.row(0).tolist() == [0, 2]
        assert column.row(2).tolist() == []
        assert column.row_lengths().tolist() == [2, 0, 0]
        assert column[1] is None and column[2] == ()

    def test_equal_columns_hash_equal(self):
        rows = [(0, 1), (2,)]
        left = RaggedColumn.from_rows(rows)
        right = RaggedColumn(np.array([0, 2, 3]), np.array([0, 1, 2]))
        assert left == right
        assert hash(left) == hash(right)
        assert left != RaggedColumn.from_rows([(0, 1), (3,)])

    def test_concatenate_one_column_is_a_passthrough(self):
        column = RaggedColumn.from_rows([(0,), (1, 2)])
        assert RaggedColumn.concatenate([column]) is column

    def test_concatenate_mixes_nullable_and_plain_columns(self):
        plain = RaggedColumn.from_rows([(0, 1), (2,)])
        nullable = RaggedColumn.from_rows([None, (3, 4)], nullable=True)
        merged = RaggedColumn.concatenate([plain, nullable, plain])
        assert merged.tuples() == ((0, 1), (2,), None, (3, 4), (0, 1), (2,))
        assert merged.present is not None
        assert merged.present.tolist() == [True, True, False, True, True, True]
        assert merged.offsets.tolist() == [0, 2, 3, 3, 5, 7, 8]


def _columns(num_iterations: int = 2, **overrides) -> TraceColumns:
    fields = {
        "iterations": np.arange(num_iterations),
        "durations": np.ones(num_iterations),
        "train_losses": np.full(num_iterations, np.nan),
        "compute_times": np.ones((num_iterations, 2)),
        "completion_times": np.ones((num_iterations, 2)),
        "workers_used": [(0, 1)] * num_iterations,
        "used_groups": [None] * num_iterations,
    }
    fields.update(overrides)
    return TraceColumns(**fields)


class TestTraceColumnsValidation:
    def test_consistent_columns_construct(self):
        columns = _columns(3)
        assert columns.num_iterations == 3
        assert columns.num_workers == 2

    @pytest.mark.parametrize(
        "name, value, message",
        (
            ("iterations", np.arange(3), r"iterations has shape \(3,\)"),
            ("train_losses", np.zeros(1), r"train_losses has shape \(1,\)"),
            ("compute_times", np.ones(2), r"compute_times has shape \(2,\)"),
            ("completion_times", np.ones((3, 2)), r"completion_times has shape"),
            ("workers_used", [(0,)] * 3, "workers_used has 3 entries"),
            ("used_groups", [None], "used_groups has 1 entries"),
        ),
    )
    def test_every_column_must_match_the_iteration_count(self, name, value, message):
        with pytest.raises(TraceError, match=message):
            _columns(2, **{name: value})
