"""Byte packing of trace columns: the run store's on-disk format.

``TraceColumns.to_bytes`` returns a JSON descriptor (offsets, shapes, dtype
strings) and one binary payload; the run store persists both.  Round trips
are bit-exact across every shape the figure experiments produce — NaN
canonical losses (timing-only runs), ``inf`` fail-stop durations, nullable
``used_groups`` masks, empty traces.  The pin fixes the descriptor and the
payload's sha256 for a small block covering those shapes, so a refactor of
the packing code cannot silently change what older stores hold.  A change
there needs a ``STORE_SCHEMA_VERSION`` bump.
"""

from __future__ import annotations

import gc
import hashlib

import numpy as np
import pytest

from repro.simulation.trace import (
    BytesReader,
    BytesWriter,
    RaggedColumn,
    RunTrace,
    TraceColumns,
)

_NAN = float("nan")
_INF = float("inf")

PINNED_DESCRIPTOR = {
    "iterations": {"offset": 0, "shape": [4], "dtype": "<i8"},
    "durations": {"offset": 64, "shape": [4], "dtype": "<f8"},
    "train_losses": {"offset": 128, "shape": [4], "dtype": "<f8"},
    "compute_times": {"offset": 192, "shape": [4, 3], "dtype": "<f8"},
    "completion_times": {"offset": 320, "shape": [4, 3], "dtype": "<f8"},
    "workers_used": {
        "offsets": {"offset": 448, "shape": [5], "dtype": "<i8"},
        "values": {"offset": 512, "shape": [6], "dtype": "<i8"},
        "present": None,
    },
    "used_groups": {
        "offsets": {"offset": 576, "shape": [5], "dtype": "<i8"},
        "values": {"offset": 640, "shape": [3], "dtype": "<i8"},
        "present": {"offset": 704, "shape": [4], "dtype": "|b1"},
    },
}
PINNED_PAYLOAD_BYTES = 768
PINNED_PAYLOAD_SHA256 = (
    "be08a164728d9ddbc7491cc844813d98a2e237cf3d1dadae07850c388f849081"
)


def pinned_columns() -> TraceColumns:
    return TraceColumns(
        iterations=np.arange(3, 7, dtype=np.int64),
        durations=np.array([1.5, _INF, 0.25, 2.0]),
        train_losses=np.array([_NAN, 0.75, _NAN, 0.5]),
        compute_times=np.array(
            [
                [0.5, 1.0, 1.5],
                [0.25, 0.5, 0.75],
                [1.0, 2.0, 3.0],
                [0.125, 0.25, 0.375],
            ]
        ),
        completion_times=np.array(
            [
                [1.0, 2.0, _INF],
                [_INF, _INF, _INF],
                [1.5, 2.5, 3.5],
                [0.5, 1.0, 1.5],
            ]
        ),
        workers_used=((0, 1), (), (0, 1, 2), (2,)),
        used_groups=((0,), None, None, (1, 2)),
    )


def assert_columns_equal(a: TraceColumns, b: TraceColumns) -> None:
    assert np.array_equal(a.iterations, b.iterations)
    assert np.array_equal(a.durations, b.durations)  # inf == inf exactly
    assert np.array_equal(a.train_losses, b.train_losses, equal_nan=True)
    assert np.array_equal(a.compute_times, b.compute_times)
    assert np.array_equal(a.completion_times, b.completion_times)
    assert a.workers_used.tuples() == b.workers_used.tuples()
    assert a.used_groups.tuples() == b.used_groups.tuples()


class TestStoreFormatPin:
    def test_descriptor_is_pinned(self):
        descriptor, _ = pinned_columns().to_bytes()
        assert descriptor == PINNED_DESCRIPTOR

    def test_payload_is_pinned(self):
        _, payload = pinned_columns().to_bytes()
        assert len(payload) == PINNED_PAYLOAD_BYTES
        assert hashlib.sha256(payload).hexdigest() == PINNED_PAYLOAD_SHA256

    def test_pinned_bytes_read_back(self):
        columns = pinned_columns()
        descriptor, payload = columns.to_bytes()
        assert_columns_equal(TraceColumns.from_bytes(descriptor, payload), columns)


def figure_shape_columns() -> dict[str, TraceColumns]:
    """One ``TraceColumns`` per figure-experiment shape family."""
    rng = np.random.default_rng(7)
    n, m = 9, 4
    timing = TraceColumns(
        iterations=np.arange(n, dtype=np.int64),
        durations=rng.random(n),
        train_losses=np.full(n, np.nan),  # timing-only runs carry NaN losses
        compute_times=rng.random((n, m)),
        completion_times=rng.random((n, m)) + 1.0,
        workers_used=tuple(tuple(range(i % m + 1)) for i in range(n)),
        used_groups=tuple((i % 2,) for i in range(n)),
    )
    fail_stop = TraceColumns(
        iterations=np.arange(n, dtype=np.int64),
        durations=np.where(np.arange(n) % 3 == 0, np.inf, 2.0),
        train_losses=np.full(n, np.nan),
        compute_times=rng.random((n, m)),
        completion_times=np.where(rng.random((n, m)) < 0.3, np.inf, 1.0),
        workers_used=tuple(
            () if i % 3 == 0 else tuple(range(m)) for i in range(n)
        ),
        used_groups=tuple(None for _ in range(n)),
    )
    training = TraceColumns(
        iterations=np.arange(5, 5 + n, dtype=np.int64),  # offset start
        durations=rng.random(n),
        train_losses=rng.random(n),
        compute_times=rng.random((n, m)),
        completion_times=rng.random((n, m)),
        workers_used=tuple(tuple(range(m)) for _ in range(n)),
        used_groups=tuple((0,) if i % 2 else None for i in range(n)),  # nullable
    )
    return {
        "timing_nan_losses": timing,
        "fail_stop_inf": fail_stop,
        "training_nullable_groups": training,
        "empty": TraceColumns.empty(),
    }


def ragged_round_trip(column: RaggedColumn) -> RaggedColumn:
    writer = BytesWriter()
    descriptor = column.pack(writer)
    return RaggedColumn.unpack(BytesReader(writer.getvalue()), descriptor)


def bytes_round_trip(columns: TraceColumns) -> TraceColumns:
    return TraceColumns.from_bytes(*columns.to_bytes())


class TestBytesWriter:
    @pytest.mark.parametrize("dtype", ("<i8", "<f8", "|b1", "<i4", "<f4", "<u2"))
    def test_arrays_round_trip_on_aligned_offsets(self, dtype):
        rng = np.random.default_rng(1)
        arrays = [
            (rng.random(size) * 100).astype(dtype)
            for size in (0, 1, 7, 9, 65, (3, 5))
        ]
        writer = BytesWriter()
        specs = [writer.add(array) for array in arrays]
        reader = BytesReader(writer.getvalue())
        for array, spec in zip(arrays, specs, strict=True):
            assert spec["offset"] % 64 == 0
            restored = reader.array(spec)
            assert restored.dtype == array.dtype
            assert restored.shape == array.shape
            assert restored.tobytes() == array.tobytes()

    def test_non_contiguous_arrays_pack_by_value(self):
        base = np.arange(24, dtype=np.float64).reshape(4, 6)
        views = [base[:, ::2], base.T, base[::-1]]
        writer = BytesWriter()
        specs = [writer.add(view) for view in views]
        reader = BytesReader(writer.getvalue())
        for view, spec in zip(views, specs, strict=True):
            assert np.array_equal(reader.array(spec), view)


class TestRaggedColumnBytes:
    @pytest.mark.parametrize(
        "rows, nullable",
        [
            ([(0, 1, 2), (1,), (), (0, 1, 2)], False),
            ([(3,), None, (), None, (1, 2)], True),
            ([None, None], True),
            ([], False),
            ([()], False),
        ],
    )
    def test_round_trip_bit_identical(self, rows, nullable):
        column = RaggedColumn.from_rows(rows, nullable=nullable)
        restored = ragged_round_trip(column)
        assert restored.tuples() == column.tuples()
        assert np.array_equal(restored.offsets, column.offsets)
        assert np.array_equal(restored.values, column.values)
        if column.present is None:
            assert restored.present is None
        else:
            assert np.array_equal(restored.present, column.present)

    def test_unpacked_arrays_read_only(self):
        restored = ragged_round_trip(RaggedColumn.from_rows([(1, 2), (3,)]))
        assert not restored.offsets.flags.writeable
        assert not restored.values.flags.writeable


class TestTraceColumnsBytes:
    @pytest.mark.parametrize("shape", sorted(figure_shape_columns()))
    def test_round_trip_bit_identical(self, shape):
        columns = figure_shape_columns()[shape]
        assert_columns_equal(columns, bytes_round_trip(columns))

    def test_arrays_survive_payload_gc(self):
        columns = figure_shape_columns()["fail_stop_inf"]
        descriptor, payload = columns.to_bytes()
        restored = TraceColumns.from_bytes(descriptor, payload)
        del payload
        gc.collect()  # the views must keep their buffer alive
        assert_columns_equal(columns, restored)

    def test_unpacked_columns_read_only(self):
        restored = bytes_round_trip(figure_shape_columns()["timing_nan_losses"])
        for name in (
            "iterations",
            "durations",
            "train_losses",
            "compute_times",
            "completion_times",
        ):
            assert not getattr(restored, name).flags.writeable, name

    def test_shared_writer_packs_many_blocks_in_one_payload(self):
        blocks = [
            figure_shape_columns()["timing_nan_losses"],
            figure_shape_columns()["fail_stop_inf"],
            figure_shape_columns()["empty"],
        ]
        writer = BytesWriter()
        descriptors = [block.pack(writer) for block in blocks]
        reader = BytesReader(writer.getvalue())
        for block, descriptor in zip(blocks, descriptors, strict=True):
            assert_columns_equal(block, TraceColumns.unpack(reader, descriptor))

    def test_round_trip_preserves_json_serialisation(self):
        columns = figure_shape_columns()["training_nullable_groups"]
        trace = RunTrace.from_columns("ssp", "Cluster-A", columns, {"seed": 5})
        restored = RunTrace.from_columns(
            "ssp", "Cluster-A", bytes_round_trip(columns), {"seed": 5}
        )
        assert restored == trace
        assert restored.to_dict() == trace.to_dict()


class TestRunTraceFromColumns:
    def test_preserves_exact_iteration_numbering(self):
        columns = figure_shape_columns()["training_nullable_groups"]
        trace = RunTrace.from_columns("ssp", "Cluster-A", columns)
        assert trace.num_iterations == columns.num_iterations
        assert np.array_equal(trace.columns().iterations, columns.iterations)
        assert [r.iteration for r in trace.records] == columns.iterations.tolist()

    def test_empty_columns(self):
        trace = RunTrace.from_columns("naive", "Cluster-A", TraceColumns.empty())
        assert trace.num_iterations == 0
        assert trace.records == []
