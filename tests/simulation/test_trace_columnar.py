"""Tests for the column-oriented RunTrace core (PR 4).

Locked-in guarantees:

* ``from_arrays`` → ``records`` view → ``to_dict`` round-trips losslessly,
  and the JSON is byte-identical to a trace built record by record;
* the ``records`` compatibility view is lazy and cached;
* ``durations``/``losses`` are served straight from the trace's one
  immutable column block (the PR 4 hot-path fix);
* the PR 3 unknown-key warning behaviour survives the columnar rewrite.
"""

from __future__ import annotations

import json
import warnings

import numpy as np
import pytest

from repro._reference import trace_from_arrays_records_reference
from repro.simulation.trace import (
    IterationRecord,
    RunTrace,
    TraceColumns,
    TraceError,
    UnknownTraceFieldWarning,
)
from repro.simulation.vectorized import TimingTraceArrays


def random_arrays(
    rng: np.random.Generator, n: int = 20, m: int = 5, stalled: bool = False
) -> TimingTraceArrays:
    durations = rng.uniform(0.5, 2.0, size=n)
    workers_used = []
    used_groups = []
    for step in range(n):
        used = tuple(
            int(w) for w in sorted(rng.choice(m, size=min(3, m), replace=False))
        )
        workers_used.append(used)
        used_groups.append(used[:2] if step % 3 == 0 else None)
    if stalled:
        durations[-1] = np.inf
        workers_used[-1] = ()
        used_groups[-1] = None
    return TimingTraceArrays(
        durations=durations,
        compute_times=rng.uniform(0.1, 1.0, size=(n, m)),
        completion_times=rng.uniform(0.2, 3.0, size=(n, m)),
        workers_used=tuple(workers_used),
        used_groups=tuple(used_groups),
    )


class TestFromArrays:
    def test_zero_record_construction(self):
        trace = RunTrace.from_arrays(
            "heter_aware", "Cluster-A", random_arrays(np.random.default_rng(0))
        )
        assert trace.num_iterations == 20
        assert trace._records_cache is None  # nothing materialized yet

    def test_records_view_is_lazy_and_cached(self):
        trace = RunTrace.from_arrays(
            "heter_aware", "Cluster-A", random_arrays(np.random.default_rng(1))
        )
        records = trace.records
        assert len(records) == 20
        assert all(isinstance(r, IterationRecord) for r in records)
        # Record objects are materialized once; only the list shell is new.
        assert trace.records[0] is records[0]

    def test_mutating_the_records_view_cannot_poison_the_trace(self):
        trace = RunTrace.from_arrays(
            "heter_aware", "Cluster-A",
            random_arrays(np.random.default_rng(14), n=4),
        )
        view = trace.records
        view.append(view[0])  # rogue external mutation
        view.pop(0)
        assert trace.num_iterations == 4
        assert len(trace.records) == 4
        assert len(trace.to_dict()["records"]) == 4

    def test_train_losses_column(self):
        arrays = random_arrays(np.random.default_rng(2), n=6)
        losses = np.linspace(2.0, 1.0, 6)
        trace = RunTrace.from_arrays(
            "cyclic", "c", arrays, train_losses=losses
        )
        assert np.allclose(trace.losses, losses)
        assert trace.records[3].train_loss == pytest.approx(losses[3])

    def test_train_losses_default_to_nan(self):
        trace = RunTrace.from_arrays(
            "cyclic", "c", random_arrays(np.random.default_rng(3), n=4)
        )
        assert np.all(np.isnan(trace.losses))

    def test_shape_mismatch_rejected(self):
        arrays = random_arrays(np.random.default_rng(4), n=5)
        with pytest.raises(TraceError):
            RunTrace.from_arrays("x", "y", arrays, train_losses=np.zeros(3))

    def test_start_iteration_offsets_indices(self):
        arrays = random_arrays(np.random.default_rng(5), n=4)
        trace = RunTrace.from_arrays("x", "y", arrays, start_iteration=10)
        assert [r.iteration for r in trace.records] == [10, 11, 12, 13]


class TestPropertyRoundTrip:
    """from_arrays -> records view -> to_dict round-trips losslessly."""

    @pytest.mark.parametrize("seed", range(8))
    def test_columnar_json_matches_record_built_json(self, seed):
        rng = np.random.default_rng(seed)
        arrays = random_arrays(rng, n=int(rng.integers(1, 40)), stalled=seed % 2 == 0)
        metadata = {"mode": "timing_only", "seed": seed, "nested": {"k": [1, 2]}}
        columnar = RunTrace.from_arrays(
            "heter_aware", "Cluster-A", arrays, metadata=dict(metadata)
        )
        record_built = trace_from_arrays_records_reference(
            "heter_aware", "Cluster-A", arrays, metadata=dict(metadata)
        )
        assert json.dumps(columnar.to_dict()) == json.dumps(record_built.to_dict())

    @pytest.mark.parametrize("seed", range(8))
    def test_round_trip_through_from_dict_is_lossless(self, seed):
        rng = np.random.default_rng(100 + seed)
        losses = rng.uniform(0.5, 3.0, size=12)
        trace = RunTrace.from_arrays(
            "group_based", "Cluster-B", random_arrays(rng, n=12),
            train_losses=losses, metadata={"custom": "survives"},
        )
        payload = trace.to_dict()
        with warnings.catch_warnings():
            warnings.simplefilter("error", UnknownTraceFieldWarning)
            rebuilt = RunTrace.from_dict(payload)
        assert json.dumps(rebuilt.to_dict()) == json.dumps(payload)
        assert rebuilt.metadata == trace.metadata
        # The record views agree field by field.
        for ours, theirs in zip(trace.records, rebuilt.records):
            assert ours == theirs

    def test_unknown_top_level_key_still_warns(self):
        trace = RunTrace.from_arrays(
            "naive", "c", random_arrays(np.random.default_rng(9), n=3)
        )
        payload = trace.to_dict()
        payload["telemetry"] = {"new": True}
        with pytest.warns(UnknownTraceFieldWarning, match="telemetry"):
            RunTrace.from_dict(payload)

    def test_unknown_record_key_still_warns(self):
        trace = RunTrace.from_arrays(
            "naive", "c", random_arrays(np.random.default_rng(10), n=3)
        )
        payload = trace.to_dict()
        payload["records"][0]["queue_depth"] = 4
        with pytest.warns(UnknownTraceFieldWarning, match="queue_depth"):
            RunTrace.from_dict(payload)

    def test_metadata_keys_are_exempt_from_warning(self):
        trace = RunTrace.from_arrays(
            "naive", "c", random_arrays(np.random.default_rng(11), n=3),
            metadata={"brand_new_diagnostic": 42},
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", UnknownTraceFieldWarning)
            rebuilt = RunTrace.from_dict(trace.to_dict())
        assert rebuilt.metadata["brand_new_diagnostic"] == 42


class TestColumnCaching:
    def test_durations_served_from_the_column_block(self):
        trace = RunTrace(
            scheme="x",
            cluster_name="y",
            records=[self.record(0, duration=1.0), self.record(1, duration=2.0)],
        )
        first = trace.durations
        assert trace.durations is first  # not rebuilt per access
        assert first is trace.columns().durations
        assert np.allclose(first, [1.0, 2.0])

    def test_elapsed_times_cached(self):
        trace = RunTrace(
            scheme="x", cluster_name="y", records=[self.record(0), self.record(1)]
        )
        elapsed = trace.elapsed_times
        assert trace.elapsed_times is elapsed
        assert elapsed.shape == (2,)

    def test_columns_arrays_are_read_only(self):
        trace = RunTrace(scheme="x", cluster_name="y", records=[self.record(0)])
        with pytest.raises(ValueError):
            trace.durations[0] = 99.0

    @staticmethod
    def record(iteration: int, duration: float = 1.0) -> IterationRecord:
        return IterationRecord(
            iteration=iteration,
            duration=duration,
            train_loss=0.5,
            compute_times=(0.4, 0.6),
            completion_times=(0.5, 0.7),
            workers_used=(0, 1),
        )


class TestTraceColumns:
    def test_from_records_round_trip(self):
        records = [TestColumnCaching.record(i, duration=float(i + 1)) for i in range(4)]
        columns = TraceColumns.from_records(records)
        assert columns.num_iterations == 4
        assert columns.num_workers == 2
        rebuilt = columns.materialize_records()
        assert rebuilt == records

    def test_empty_trace_columns(self):
        trace = RunTrace(scheme="x", cluster_name="y")
        columns = trace.columns()
        assert columns.num_iterations == 0
        assert trace.durations.size == 0
        assert trace.total_time == 0.0
