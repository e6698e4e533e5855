"""Trace containers: column-oriented run traces with a record-view facade.

Protocols append an :class:`IterationRecord` per step; experiments and
metrics consume the resulting :class:`RunTrace`.  Keeping raw per-iteration
data (rather than pre-aggregated statistics) lets the metrics layer compute
everything the paper reports — average time per iteration (Figs. 2-3), loss
versus wall-clock time (Fig. 4) and resource usage (Fig. 5) — from the same
run.

Since PR 4 the storage is **column-oriented**: a :class:`RunTrace` holds one
:class:`TraceColumns` block (numpy arrays, one column per recorded quantity)
plus a small tail of freshly appended records.  The batched simulation
kernels feed whole traces in via :meth:`RunTrace.from_arrays` without ever
constructing a per-iteration Python object, and the metrics layer reads the
columns directly.  :attr:`RunTrace.records` survives as a *lazily
materialized* compatibility view — nothing is paid for it unless somebody
actually iterates records.  Serialization (`to_dict`/`from_dict`) is
unchanged and byte-identical to the record-based layout.
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BytesReader",
    "BytesWriter",
    "IterationRecord",
    "RaggedColumn",
    "RunTrace",
    "TraceColumns",
    "UnknownTraceFieldWarning",
]


class TraceError(ValueError):
    """Raised on inconsistent trace data."""


class UnknownTraceFieldWarning(UserWarning):
    """A serialized trace carried keys this version does not understand.

    Raised (as a warning, not an error) by :meth:`RunTrace.from_dict` and
    :meth:`IterationRecord.from_dict` so that data written by a newer
    version — or hand-edited payloads with typos — degrade loudly instead
    of silently dropping information.  ``metadata`` is exempt: it is
    free-form by design and every key round-trips verbatim.
    """


def _warn_unknown_keys(data: dict, known: set, what: str) -> None:
    unknown = sorted(set(data) - known)
    if unknown:
        warnings.warn(
            f"{what} carries unknown keys {unknown}; they are ignored "
            "(was this written by a newer version?)",
            UnknownTraceFieldWarning,
            stacklevel=3,
        )


@dataclass(frozen=True)
class IterationRecord:
    """Everything recorded about one training iteration.

    Attributes
    ----------
    iteration:
        Zero-based iteration index.
    duration:
        Simulated wall-clock duration of the iteration (seconds); ``inf``
        when the master could not decode (the run is then aborted).
    train_loss:
        Mean training loss *before* the update computed this iteration.
    compute_times:
        Per-worker pure computation time this iteration.
    completion_times:
        Per-worker completion times (``inf`` for failed workers).
    workers_used:
        Workers whose results the master combined.
    used_group:
        Group used for decoding, when the group fast path fired.
    """

    iteration: int
    duration: float
    train_loss: float
    compute_times: tuple[float, ...]
    completion_times: tuple[float, ...]
    workers_used: tuple[int, ...]
    used_group: tuple[int, ...] | None = None

    @property
    def num_workers(self) -> int:
        return len(self.compute_times)

    @classmethod
    def unchecked(
        cls,
        iteration: int,
        duration: float,
        train_loss: float,
        compute_times: tuple[float, ...],
        completion_times: tuple[float, ...],
        workers_used: tuple[int, ...],
        used_group: tuple[int, ...] | None,
    ) -> "IterationRecord":
        """Fast constructor for trace-scale loops.

        Bypasses the frozen-dataclass ``__init__`` (one ``object.__setattr__``
        per field) with a single ``__dict__`` update.  Semantically identical
        to the normal constructor — the dataclass performs no validation.
        """
        record = object.__new__(cls)
        record.__dict__.update(
            iteration=iteration,
            duration=duration,
            train_loss=train_loss,
            compute_times=compute_times,
            completion_times=completion_times,
            workers_used=workers_used,
            used_group=used_group,
        )
        return record

    def to_dict(self) -> dict:
        """Plain-data form (lists instead of tuples) for JSON serialization."""
        return {
            "iteration": self.iteration,
            "duration": self.duration,
            "train_loss": self.train_loss,
            "compute_times": list(self.compute_times),
            "completion_times": list(self.completion_times),
            "workers_used": list(self.workers_used),
            "used_group": None if self.used_group is None else list(self.used_group),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "IterationRecord":
        """Inverse of :meth:`to_dict` (unknown keys warn and are ignored)."""
        _warn_unknown_keys(
            data,
            {f.name for f in dataclasses.fields(cls)},
            "IterationRecord dict",
        )
        used_group = data.get("used_group")
        return cls(
            iteration=int(data["iteration"]),
            duration=float(data["duration"]),
            train_loss=float(data["train_loss"]),
            compute_times=tuple(float(t) for t in data["compute_times"]),
            completion_times=tuple(float(t) for t in data["completion_times"]),
            workers_used=tuple(int(w) for w in data["workers_used"]),
            used_group=None if used_group is None else tuple(int(w) for w in used_group),
        )


def _readonly(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


#: Shared NaN instance used when converting loss columns back to Python
#: floats.  Dict/list equality short-circuits on identity before ``==``, so
#: round-tripped payloads with NaN losses (timing-only runs) compare equal —
#: exactly as they did when every record carried the same ``float("nan")``.
_NAN = float("nan")


def _canonical_nans(values: list) -> list:
    return [value if value == value else _NAN for value in values]


class RaggedColumn:
    """Variable-length integer rows stored as flat ``offsets``/``values`` arrays.

    Row ``i`` is ``values[offsets[i]:offsets[i + 1]]``.  This is the
    numpy-native encoding of per-iteration worker lists (``workers_used``,
    ``used_groups``): metrics can run vectorized statistics (``bincount``
    over :attr:`values`, length histograms from ``diff(offsets)``) without
    touching a Python tuple, while :meth:`tuples` keeps the historical
    tuple-of-tuples view available **lazily** for the record-based
    compatibility layer.

    ``present`` distinguishes absent rows (``None`` — e.g. ``used_group``
    when the general decode ran) from genuinely empty rows; ``None`` means
    every row is present.  Rows repeat heavily across iterations (one
    distinct row per decode decision), so the lazy tuple view interns equal
    rows into shared tuple objects, matching the sharing the column-of-
    tuples layout had.
    """

    __slots__ = ("offsets", "values", "present", "_tuples")

    def __init__(
        self,
        offsets: np.ndarray,
        values: np.ndarray,
        present: np.ndarray | None = None,
    ) -> None:
        self.offsets = _readonly(np.asarray(offsets, dtype=np.int64))
        self.values = _readonly(np.asarray(values, dtype=np.int64))
        self.present = (
            None if present is None else _readonly(np.asarray(present, dtype=bool))
        )
        if self.offsets.ndim != 1 or self.offsets.shape[0] == 0:
            raise TraceError("RaggedColumn.offsets must be 1-d and non-empty")
        if self.present is not None and self.present.shape != (len(self),):
            raise TraceError(
                f"RaggedColumn.present has shape {self.present.shape}, "
                f"expected ({len(self)},)"
            )
        self._tuples: tuple | None = None

    @classmethod
    def from_rows(cls, rows, nullable: bool = False) -> "RaggedColumn":
        """Build a ragged column from per-iteration tuples (``None`` allowed
        when ``nullable``).

        Rows repeat heavily (the kernels emit one shared tuple per distinct
        decode decision), so construction interns each distinct row once and
        assembles the flat arrays with one vectorized table gather — the
        per-row Python cost is a single dict lookup.
        """
        rows = rows if isinstance(rows, (list, tuple)) else list(rows)
        n = len(rows)
        codes = np.empty(n, dtype=np.intp)
        code_of: dict[tuple[int, ...] | None, int] = {}
        distinct: list[tuple[int, ...] | None] = []
        for index, row in enumerate(rows):
            code = code_of.get(row, -1)
            if code < 0:
                code = len(distinct)
                code_of[row] = code
                distinct.append(row)
            codes[index] = code
        table_lengths = np.fromiter(
            (0 if row is None else len(row) for row in distinct),
            dtype=np.int64,
            count=len(distinct),
        )
        width = int(table_lengths.max()) if distinct else 0
        table = np.zeros((len(distinct), width), dtype=np.int64)
        for code, row in enumerate(distinct):
            if row:
                table[code, : len(row)] = row
        lengths = table_lengths[codes] if n else table_lengths[:0]
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        values = table[codes][np.arange(width) < lengths[:, np.newaxis]]
        present = None
        if nullable:
            none_code = code_of.get(None, -1)
            present = (
                codes != none_code if none_code >= 0 else np.ones(n, dtype=bool)
            )
        return cls(offsets, values, present)

    @classmethod
    def concatenate(cls, columns: "list[RaggedColumn]") -> "RaggedColumn":
        if len(columns) == 1:
            return columns[0]
        offsets = [columns[0].offsets]
        shift = int(columns[0].offsets[-1])
        for column in columns[1:]:
            offsets.append(column.offsets[1:] + shift)
            shift += int(column.offsets[-1])
        present = None
        if any(column.present is not None for column in columns):
            present = np.concatenate(
                [
                    np.ones(len(column), dtype=bool)
                    if column.present is None
                    else column.present
                    for column in columns
                ]
            )
        return cls(
            np.concatenate(offsets),
            np.concatenate([column.values for column in columns]),
            present,
        )

    def __len__(self) -> int:
        return self.offsets.shape[0] - 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RaggedColumn):
            return NotImplemented
        return self.tuples() == other.tuples()

    def __hash__(self) -> int:  # content-hashable like the former tuples
        return hash(self.tuples())

    def row(self, index: int) -> np.ndarray | None:
        """Row ``index`` as an array view (``None`` for absent rows)."""
        if self.present is not None and not self.present[index]:
            return None
        return self.values[self.offsets[index] : self.offsets[index + 1]]

    def row_lengths(self) -> np.ndarray:
        """Per-row lengths (absent rows count as 0)."""
        return np.diff(self.offsets)

    def pack(self, writer: "BytesWriter") -> dict:
        """Pack this column's arrays into ``writer``; returns its descriptor."""
        return {
            "offsets": writer.add(self.offsets),
            "values": writer.add(self.values),
            "present": None if self.present is None else writer.add(self.present),
        }

    @classmethod
    def unpack(cls, reader: "BytesReader", descriptor: dict) -> "RaggedColumn":
        """Rebuild a column zero-copy from a :meth:`pack` descriptor."""
        present = descriptor["present"]
        return cls(
            reader.array(descriptor["offsets"]),
            reader.array(descriptor["values"]),
            None if present is None else reader.array(present),
        )

    def tuples(self) -> tuple:
        """The historical tuple-of-tuples view (lazy, cached, row-interned)."""
        cached = self._tuples
        if cached is None:
            interned: dict[bytes, tuple[int, ...]] = {}
            values = self.values
            offsets = self.offsets.tolist()
            present = self.present
            rows = []
            for index in range(len(self)):
                if present is not None and not present[index]:
                    rows.append(None)
                    continue
                segment = values[offsets[index] : offsets[index + 1]]
                key = segment.tobytes()
                row = interned.get(key)
                if row is None:
                    row = tuple(segment.tolist())
                    interned[key] = row
                rows.append(row)
            cached = tuple(rows)
            self._tuples = cached
        return cached

    def __iter__(self):
        return iter(self.tuples())

    def __getitem__(self, index):
        return self.tuples()[index]


def _as_ragged(rows, nullable: bool) -> RaggedColumn:
    if isinstance(rows, RaggedColumn):
        return rows
    return RaggedColumn.from_rows(rows, nullable=nullable)


# ----------------------------------------------------------------------
# byte packing
# ----------------------------------------------------------------------
#
# Columns are flat numpy arrays, so a whole run packs into ONE byte payload
# plus a small JSON descriptor (offsets/shapes/dtypes).  The run store
# (:mod:`repro.store`) persists both; reading back builds zero-copy views.

#: Payload offsets are aligned so every packed array starts on a cache-line
#: boundary regardless of the dtypes packed before it.
_PACK_ALIGN = 64


class BytesWriter:
    """Pack read-only arrays into one plain ``bytes`` payload.

    Call :meth:`add` once per array — it returns the array's placement
    *spec* (offset/shape/dtype, a plain JSON-able dict) and defers the
    copy — then :meth:`getvalue` once.
    """

    def __init__(self) -> None:
        self._pending: list[tuple[dict, np.ndarray]] = []
        self._cursor = 0

    def add(self, array: np.ndarray) -> dict:
        """Reserve space for ``array``; returns its placement spec."""
        array = np.ascontiguousarray(array)
        spec = {
            "offset": self._cursor,
            "shape": list(array.shape),
            "dtype": array.dtype.str,
        }
        self._pending.append((spec, array))
        self._cursor += -(-array.nbytes // _PACK_ALIGN) * _PACK_ALIGN
        return spec

    def getvalue(self) -> bytes:
        """The packed payload for every added array."""
        buffer = bytearray(max(1, self._cursor))
        for spec, array in self._pending:
            if array.size:
                offset = spec["offset"]
                buffer[offset : offset + array.nbytes] = array.reshape(-1).tobytes()
        return bytes(buffer)


class BytesReader:
    """Read arrays back from a :class:`BytesWriter` payload.

    The returned arrays are read-only zero-copy views over the payload
    buffer.
    """

    def __init__(self, data: bytes) -> None:
        self._data = data

    def array(self, spec: dict) -> np.ndarray:
        """The array packed at ``spec``, as a read-only zero-copy view."""
        shape = tuple(spec["shape"])
        count = 1
        for dim in shape:
            count *= dim
        view = np.frombuffer(
            self._data,
            dtype=np.dtype(spec["dtype"]),
            count=count,
            offset=spec["offset"],
        )
        return _readonly(view.reshape(shape))


@dataclass(frozen=True)
class TraceColumns:
    """Column-oriented storage of a whole run: one array per quantity.

    Attributes
    ----------
    iterations:
        Iteration indices, shape ``(n,)`` (``int64``).
    durations:
        Per-iteration wall-clock durations, shape ``(n,)``; ``inf`` where
        the master could not decode.
    train_losses:
        Mean training loss before each iteration's update, shape ``(n,)``;
        ``nan`` for timing-only runs.
    compute_times:
        Per-worker pure compute times, shape ``(n, m)``.
    completion_times:
        Per-worker completion times, shape ``(n, m)``.
    workers_used:
        Per-iteration workers the master combined, as a
        :class:`RaggedColumn` (constructing with a sequence of tuples
        converts automatically; iterating yields the historical tuples).
    used_groups:
        Per-iteration group used by the decode fast path, as a *nullable*
        :class:`RaggedColumn` (``None`` rows where the general decode ran).
    """

    iterations: np.ndarray
    durations: np.ndarray
    train_losses: np.ndarray
    compute_times: np.ndarray
    completion_times: np.ndarray
    workers_used: RaggedColumn
    used_groups: RaggedColumn

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "workers_used", _as_ragged(self.workers_used, nullable=False)
        )
        object.__setattr__(
            self, "used_groups", _as_ragged(self.used_groups, nullable=True)
        )
        n = self.durations.shape[0]
        for name in ("iterations", "train_losses"):
            if getattr(self, name).shape != (n,):
                raise TraceError(
                    f"TraceColumns.{name} has shape {getattr(self, name).shape}, "
                    f"expected ({n},)"
                )
        for name in ("compute_times", "completion_times"):
            array = getattr(self, name)
            if array.ndim != 2 or array.shape[0] != n:
                raise TraceError(
                    f"TraceColumns.{name} has shape {array.shape}, "
                    f"expected ({n}, num_workers)"
                )
        for name in ("workers_used", "used_groups"):
            if len(getattr(self, name)) != n:
                raise TraceError(
                    f"TraceColumns.{name} has {len(getattr(self, name))} entries, "
                    f"expected {n}"
                )

    @property
    def num_iterations(self) -> int:
        return int(self.durations.shape[0])

    @property
    def num_workers(self) -> int:
        return int(self.compute_times.shape[1])

    @classmethod
    def empty(cls) -> "TraceColumns":
        return cls(
            iterations=_readonly(np.zeros(0, dtype=np.int64)),
            durations=_readonly(np.zeros(0)),
            train_losses=_readonly(np.zeros(0)),
            compute_times=_readonly(np.zeros((0, 0))),
            completion_times=_readonly(np.zeros((0, 0))),
            workers_used=(),
            used_groups=(),
        )

    @classmethod
    def from_records(cls, records: "list[IterationRecord]") -> "TraceColumns":
        """Consolidate a record list into one columnar block."""
        if not records:
            return cls.empty()
        return cls(
            iterations=_readonly(
                np.fromiter(
                    (r.iteration for r in records), dtype=np.int64, count=len(records)
                )
            ),
            durations=_readonly(
                np.fromiter(
                    (r.duration for r in records), dtype=np.float64, count=len(records)
                )
            ),
            train_losses=_readonly(
                np.fromiter(
                    (r.train_loss for r in records),
                    dtype=np.float64,
                    count=len(records),
                )
            ),
            compute_times=_readonly(
                np.array([r.compute_times for r in records], dtype=np.float64)
            ),
            completion_times=_readonly(
                np.array([r.completion_times for r in records], dtype=np.float64)
            ),
            workers_used=tuple(r.workers_used for r in records),
            used_groups=tuple(r.used_group for r in records),
        )

    @classmethod
    def concatenate(cls, blocks: "list[TraceColumns]") -> "TraceColumns":
        blocks = [b for b in blocks if b.num_iterations]
        if not blocks:
            return cls.empty()
        if len(blocks) == 1:
            return blocks[0]
        return cls(
            iterations=_readonly(np.concatenate([b.iterations for b in blocks])),
            durations=_readonly(np.concatenate([b.durations for b in blocks])),
            train_losses=_readonly(np.concatenate([b.train_losses for b in blocks])),
            compute_times=_readonly(
                np.concatenate([b.compute_times for b in blocks])
            ),
            completion_times=_readonly(
                np.concatenate([b.completion_times for b in blocks])
            ),
            workers_used=RaggedColumn.concatenate([b.workers_used for b in blocks]),
            used_groups=RaggedColumn.concatenate([b.used_groups for b in blocks]),
        )

    def pack(self, writer: BytesWriter) -> dict:
        """Pack every column into ``writer``; returns the block descriptor."""
        return {
            "iterations": writer.add(self.iterations),
            "durations": writer.add(self.durations),
            "train_losses": writer.add(self.train_losses),
            "compute_times": writer.add(self.compute_times),
            "completion_times": writer.add(self.completion_times),
            "workers_used": self.workers_used.pack(writer),
            "used_groups": self.used_groups.pack(writer),
        }

    @classmethod
    def unpack(cls, reader: BytesReader, descriptor: dict) -> "TraceColumns":
        """Rebuild a block zero-copy from a :meth:`pack` descriptor."""
        return cls(
            iterations=reader.array(descriptor["iterations"]),
            durations=reader.array(descriptor["durations"]),
            train_losses=reader.array(descriptor["train_losses"]),
            compute_times=reader.array(descriptor["compute_times"]),
            completion_times=reader.array(descriptor["completion_times"]),
            workers_used=RaggedColumn.unpack(reader, descriptor["workers_used"]),
            used_groups=RaggedColumn.unpack(reader, descriptor["used_groups"]),
        )

    def to_bytes(self) -> tuple[dict, bytes]:
        """Pack every column into one binary payload plus its descriptor.

        The descriptor is plain JSON data (offsets, shapes, dtype strings)
        and the payload is the :class:`BytesWriter` packing; the on-disk
        run store persists both.
        """
        writer = BytesWriter()
        descriptor = self.pack(writer)
        return descriptor, writer.getvalue()

    @classmethod
    def from_bytes(cls, descriptor: dict, data: bytes) -> "TraceColumns":
        """Rebuild a block from a :meth:`to_bytes` descriptor + payload.

        The columns are read-only zero-copy views over ``data``; the
        round-trip is bit-exact (the arrays are stored raw, never through
        a decimal representation).
        """
        return cls.unpack(BytesReader(data), descriptor)

    def materialize_records(self) -> "list[IterationRecord]":
        """Build the per-iteration record objects (the compatibility view)."""
        unchecked = IterationRecord.unchecked
        return [
            unchecked(
                iteration=iteration,
                duration=duration,
                train_loss=train_loss,
                compute_times=tuple(compute_row),
                completion_times=tuple(completion_row),
                workers_used=workers,
                used_group=group,
            )
            for (
                iteration,
                duration,
                train_loss,
                compute_row,
                completion_row,
                workers,
                group,
            ) in zip(
                self.iterations.tolist(),
                self.durations.tolist(),
                _canonical_nans(self.train_losses.tolist()),
                self.compute_times.tolist(),
                self.completion_times.tolist(),
                self.workers_used,
                self.used_groups,
            )
        ]

    def record_dicts(self) -> list[dict]:
        """The ``to_dict`` record payloads, straight from the columns.

        Byte-identical (under ``json.dumps``) to calling
        :meth:`IterationRecord.to_dict` on every materialized record, but
        without building any record object.
        """
        return [
            {
                "iteration": iteration,
                "duration": duration,
                "train_loss": train_loss,
                "compute_times": compute_row,
                "completion_times": completion_row,
                "workers_used": list(workers),
                "used_group": None if group is None else list(group),
            }
            for (
                iteration,
                duration,
                train_loss,
                compute_row,
                completion_row,
                workers,
                group,
            ) in zip(
                self.iterations.tolist(),
                self.durations.tolist(),
                _canonical_nans(self.train_losses.tolist()),
                self.compute_times.tolist(),
                self.completion_times.tolist(),
                self.workers_used,
                self.used_groups,
            )
        ]


class RunTrace:
    """The full record of one training run, stored column-first.

    Attributes
    ----------
    scheme:
        Scheme / protocol name (``"naive"``, ``"cyclic"``, ``"heter_aware"``,
        ``"group_based"``, ``"ssp"``, ...).
    cluster_name:
        Name of the cluster the run simulated.
    records:
        Per-iteration records, in order — a **lazily materialized** view
        over the columnar storage.  Iterating it is the slow path; metrics
        code should prefer :meth:`columns` / the array properties.
    metadata:
        Free-form run parameters (model, dataset, s, k, seed, ...).
    """

    __slots__ = (
        "scheme",
        "cluster_name",
        "metadata",
        "_base",
        "_tail",
        "_last_iteration",
        "_columns_cache",
        "_records_cache",
        "_elapsed_cache",
    )

    def __init__(
        self,
        scheme: str,
        cluster_name: str,
        records: "list[IterationRecord] | None" = None,
        metadata: dict | None = None,
    ) -> None:
        self.scheme = scheme
        self.cluster_name = cluster_name
        self.metadata = {} if metadata is None else metadata
        self._base: TraceColumns | None = None
        self._tail: list[IterationRecord] = []
        self._last_iteration: int | None = None
        self._columns_cache: TraceColumns | None = None
        self._records_cache: list[IterationRecord] | None = None
        self._elapsed_cache: np.ndarray | None = None
        if records:
            self.extend(list(records))

    def __repr__(self) -> str:
        return (
            f"RunTrace(scheme={self.scheme!r}, cluster_name={self.cluster_name!r}, "
            f"num_iterations={self.num_iterations})"
        )

    def __eq__(self, other: object) -> bool:
        # Structural equality over the same fields the former dataclass
        # compared (scheme, cluster_name, records, metadata) — round-trip
        # assertions like `RunTrace.from_dict(t.to_dict()) == t` keep
        # working regardless of columnar-vs-record storage.
        if not isinstance(other, RunTrace):
            return NotImplemented
        return (
            self.scheme == other.scheme
            and self.cluster_name == other.cluster_name
            and self.metadata == other.metadata
            and self.records == other.records
        )

    @classmethod
    def from_arrays(
        cls,
        scheme: str,
        cluster_name: str,
        arrays,
        train_losses: np.ndarray | None = None,
        metadata: dict | None = None,
        start_iteration: int = 0,
    ) -> "RunTrace":
        """Build a trace directly from batched-kernel output — zero
        per-iteration Python objects.

        Parameters
        ----------
        arrays:
            A :class:`~repro.simulation.vectorized.TimingTraceArrays` (or
            any object exposing ``durations``, ``compute_times``,
            ``completion_times``, ``workers_used`` and ``used_groups`` with
            the same shapes).  The trace takes ownership of the arrays and
            marks them read-only.
        train_losses:
            Optional per-iteration training-loss column, shape ``(n,)``;
            defaults to all-``nan`` (timing-only runs).
        start_iteration:
            Iteration index of the first row.
        """
        durations = np.asarray(arrays.durations, dtype=np.float64)
        n = durations.shape[0]
        if train_losses is None:
            losses = np.full(n, np.nan)
        else:
            losses = np.asarray(train_losses, dtype=np.float64)
            if losses.shape != (n,):
                raise TraceError(
                    f"train_losses has shape {losses.shape}, expected ({n},)"
                )
        columns = TraceColumns(
            iterations=_readonly(
                np.arange(start_iteration, start_iteration + n, dtype=np.int64)
            ),
            durations=_readonly(durations),
            train_losses=_readonly(losses),
            compute_times=_readonly(
                np.asarray(arrays.compute_times, dtype=np.float64)
            ),
            completion_times=_readonly(
                np.asarray(arrays.completion_times, dtype=np.float64)
            ),
            workers_used=arrays.workers_used,
            used_groups=arrays.used_groups,
        )
        trace = cls(scheme=scheme, cluster_name=cluster_name, metadata=metadata)
        trace._base = columns
        trace._columns_cache = columns
        trace._last_iteration = start_iteration + n - 1 if n else None
        return trace

    @classmethod
    def from_columns(
        cls,
        scheme: str,
        cluster_name: str,
        columns: TraceColumns,
        metadata: dict | None = None,
    ) -> "RunTrace":
        """Adopt an existing :class:`TraceColumns` block verbatim.

        Unlike :meth:`from_arrays` — which synthesizes the iteration index
        column — this preserves ``columns.iterations`` exactly, so a trace
        read back from the run store (:meth:`TraceColumns.from_bytes`) is
        bit-identical to its source whatever iteration numbering the
        source carried.
        """
        trace = cls(scheme=scheme, cluster_name=cluster_name, metadata=metadata)
        trace._base = columns
        trace._columns_cache = columns
        n = columns.num_iterations
        trace._last_iteration = int(columns.iterations[-1]) if n else None
        return trace

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def _invalidate(self) -> None:
        self._columns_cache = None
        self._records_cache = None
        self._elapsed_cache = None

    def append(self, record: IterationRecord) -> None:
        """Append an iteration record (iterations must arrive in order)."""
        if self._last_iteration is not None and (
            record.iteration <= self._last_iteration
        ):
            raise TraceError(
                "iteration records must be appended in increasing order: "
                f"{record.iteration} after {self._last_iteration}"
            )
        self._tail.append(record)
        self._last_iteration = record.iteration
        self._invalidate()

    def extend(self, records: "list[IterationRecord]") -> None:
        """Append many records; the ordering invariant is checked once."""
        if not records:
            return
        previous = self._last_iteration
        for record in records:
            if previous is not None and record.iteration <= previous:
                raise TraceError(
                    "iteration records must be appended in increasing order: "
                    f"{record.iteration} after {previous}"
                )
            previous = record.iteration
        self._tail.extend(records)
        self._last_iteration = previous
        self._invalidate()

    # ------------------------------------------------------------------
    # columnar accessors (the fast path)
    # ------------------------------------------------------------------
    def columns(self) -> TraceColumns:
        """The whole run as one columnar block (cached until mutation)."""
        cached = self._columns_cache
        if cached is not None:
            return cached
        blocks: list[TraceColumns] = []
        if self._base is not None:
            blocks.append(self._base)
        if self._tail:
            blocks.append(TraceColumns.from_records(self._tail))
        columns = TraceColumns.concatenate(blocks)
        self._columns_cache = columns
        return columns

    @property
    def records(self) -> "list[IterationRecord]":
        """Materialized per-iteration records (lazy compatibility view).

        The record objects are materialized once and cached; every access
        returns a fresh list shell over them, so mutating the returned list
        neither modifies the trace nor poisons later reads — use
        :meth:`append`/:meth:`extend` to grow a trace.
        """
        cached = self._records_cache
        if cached is None:
            base = [] if self._base is None else self._base.materialize_records()
            cached = base + list(self._tail)
            self._records_cache = cached
        return list(cached)

    # ------------------------------------------------------------------
    # convenience accessors used by metrics and experiments
    # ------------------------------------------------------------------
    @property
    def num_iterations(self) -> int:
        base = 0 if self._base is None else self._base.num_iterations
        return base + len(self._tail)

    @property
    def durations(self) -> np.ndarray:
        """Per-iteration wall-clock durations (seconds; cached, read-only)."""
        return self.columns().durations

    @property
    def losses(self) -> np.ndarray:
        """Per-iteration mean training losses (cached, read-only)."""
        return self.columns().train_losses

    @property
    def elapsed_times(self) -> np.ndarray:
        """Cumulative wall-clock time at the end of each iteration (cached)."""
        cached = self._elapsed_cache
        if cached is None:
            cached = _readonly(np.cumsum(self.durations))
            self._elapsed_cache = cached
        return cached

    @property
    def total_time(self) -> float:
        """Total simulated wall-clock time of the run."""
        durations = self.durations
        return float(durations.sum()) if durations.size else 0.0

    @property
    def completed(self) -> bool:
        """Whether every iteration decoded successfully (no ``inf`` durations)."""
        return bool(np.all(np.isfinite(self.durations)))

    def mean_iteration_time(self) -> float:
        """Average time per iteration (the paper's Fig. 2 / Fig. 3 metric)."""
        durations = self.durations
        if durations.size == 0:
            return float("nan")
        return float(durations.mean())

    def loss_curve(self) -> tuple[np.ndarray, np.ndarray]:
        """(elapsed time, loss) pairs for loss-versus-time plots (Fig. 4)."""
        return self.elapsed_times, self.losses

    def to_dict(self) -> dict:
        """Plain-data form for JSON serialization (see :meth:`from_dict`).

        Written straight from the columns — byte-identical to the historical
        record-based serialization without materializing any record.
        """
        return {
            "scheme": self.scheme,
            "cluster_name": self.cluster_name,
            "metadata": dict(self.metadata),
            "records": self.columns().record_dicts(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunTrace":
        """Rebuild a trace from :meth:`to_dict` output (JSON round-trip).

        Every ``metadata`` key is preserved verbatim — the free-form run
        parameters recorded by the backends (``effective_total_samples``,
        ``num_workers``, drift diagnostics, ...) survive the round-trip.
        Unknown *top-level* keys warn with
        :class:`UnknownTraceFieldWarning` instead of disappearing silently.
        """
        _warn_unknown_keys(
            data, {"scheme", "cluster_name", "metadata", "records"}, "RunTrace dict"
        )
        trace = cls(
            scheme=str(data["scheme"]),
            cluster_name=str(data["cluster_name"]),
            metadata=dict(data.get("metadata", {})),
        )
        trace.extend(
            [IterationRecord.from_dict(record) for record in data.get("records", ())]
        )
        return trace

    def summary(self) -> dict:
        """Aggregate statistics for quick textual reports."""
        durations = self.durations
        finite = durations[np.isfinite(durations)]
        return {
            "scheme": self.scheme,
            "cluster": self.cluster_name,
            "iterations": self.num_iterations,
            "mean_iteration_time": float(finite.mean()) if finite.size else float("inf"),
            "total_time": float(finite.sum()) if finite.size else float("inf"),
            "final_loss": float(self.losses[-1]) if self.num_iterations else float("nan"),
            "completed": self.completed,
        }
