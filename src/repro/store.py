"""Content-addressed persistence for run results: the run store.

:class:`~repro.api.spec.RunSpec` is frozen and losslessly
JSON-round-trippable, so every run has a stable identity —
:meth:`RunSpec.fingerprint() <repro.api.spec.RunSpec.fingerprint>`, a
sha256 over the spec's canonical JSON plus the identities of the registry
plugins it resolves to.  A :class:`FileRunStore` maps that fingerprint to
the full :class:`~repro.api.result.RunResult`, turning repeated identical
runs into lookups:

* the ``cached`` executor (:class:`repro.api.executors.CachedExecutor`)
  answers sweep specs from a store and computes only the misses, making
  ``Engine.sweep(..., executor="cached")`` resumable;
* the sweep server (:mod:`repro.serve`) serves ``POST /run`` / ``POST
  /sweep`` hits straight from disk.

The store is an append-only columnar run log: one
*segment* per result, stored as a small JSON descriptor
(``runs/<fingerprint>.json`` — spec, metrics, trace metadata, column
layout) plus a raw binary payload (``runs/<fingerprint>.bin`` — the
:meth:`TraceColumns.to_bytes <repro.simulation.trace.TraceColumns.to_bytes>`
packing of the per-iteration arrays).  Both files are written
temp-then-:func:`os.replace`, payload before descriptor, so a crash can
only ever leave an orphaned payload or a temp file — never a descriptor
pointing at missing or truncated data.  Readers treat any incomplete or
unparsable segment as a miss.
"""

from __future__ import annotations

import json
import os
import tempfile
from collections.abc import Iterable
from pathlib import Path
from typing import Any

from .api.result import RESULT_SCHEMA_VERSION, RunResult, json_default
from .api.spec import STORE_SCHEMA_VERSION, RunSpec
from .simulation.trace import RunTrace, TraceColumns

__all__ = [
    "StoreError",
    "FileRunStore",
    "default_store_path",
]

#: Environment variable overriding :func:`default_store_path`.
STORE_DIR_ENV = "REPRO_STORE_DIR"

#: Marker value in ``store.json`` identifying a store root directory.
_STORE_FORMAT = "repro-run-store"


class StoreError(RuntimeError):
    """Raised when a store root is unusable (wrong format or schema)."""


def default_store_path() -> Path:
    """The store root used when none is given.

    ``$REPRO_STORE_DIR`` if set, else ``~/.cache/repro/run_store``.
    """
    override = os.environ.get(STORE_DIR_ENV)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro" / "run_store"


def _write_atomic(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` via temp-file + fsync + :func:`os.replace`.

    Readers either see the complete old file or the complete new file;
    a crash mid-write leaves only a ``.tmp-*`` sibling, which scans skip.
    """
    fd, tmp_name = tempfile.mkstemp(
        dir=str(path.parent), prefix=f".tmp-{path.name}-"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


class FileRunStore:
    """Content-addressed ``fingerprint -> RunResult`` persistence on disk.

    The contract mirrors a dict keyed by
    :meth:`RunSpec.fingerprint() <repro.api.spec.RunSpec.fingerprint>`:
    :meth:`get` / :meth:`put` / :meth:`contains` plus :meth:`gc` for
    retention.  Results round-trip JSON-exactly —
    ``store.get(fp).to_json() == result.to_json()`` for every stored
    ``result`` — and partially written entries read as absent.

    The store is an append-only run log, one descriptor+payload pair per
    result.  Layout under the root directory (``None`` uses
    :func:`default_store_path`)::

        store.json                 # format marker + store schema version
        runs/<fingerprint>.json    # segment descriptor (spec, metrics, layout)
        runs/<fingerprint>.bin     # raw columnar payload (TraceColumns bytes)

    A segment *exists* only when its descriptor parses and references a
    payload of the recorded size; anything else (orphaned ``.bin``, temp
    files, truncated payloads) reads as a miss and is reclaimed by
    :meth:`gc`.
    """

    def __init__(self, root: str | os.PathLike[str] | None = None) -> None:
        self.root = Path(root) if root is not None else default_store_path()
        self._runs = self.root / "runs"
        self._runs.mkdir(parents=True, exist_ok=True)
        self._check_format()

    def _check_format(self) -> None:
        marker = self.root / "store.json"
        if marker.exists():
            try:
                meta = json.loads(marker.read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError) as exc:
                raise StoreError(f"unreadable store marker {marker}: {exc}") from exc
            if meta.get("format") != _STORE_FORMAT:
                raise StoreError(
                    f"{self.root} is not a repro run store "
                    f"(format={meta.get('format')!r})"
                )
            if meta.get("store_schema") != STORE_SCHEMA_VERSION:
                raise StoreError(
                    f"store schema mismatch at {self.root}: found "
                    f"{meta.get('store_schema')!r}, this build writes "
                    f"{STORE_SCHEMA_VERSION}; its entries can never hit, so "
                    f"point ${STORE_DIR_ENV} (or the store path) at a new "
                    "directory, or delete this root to start it afresh"
                )
            return
        payload = json.dumps(
            {"format": _STORE_FORMAT, "store_schema": STORE_SCHEMA_VERSION},
            indent=2,
        ).encode("utf-8")
        _write_atomic(marker, payload)

    # -- paths ----------------------------------------------------------
    def _descriptor_path(self, fingerprint: str) -> Path:
        return self._runs / f"{fingerprint}.json"

    def _payload_path(self, fingerprint: str) -> Path:
        return self._runs / f"{fingerprint}.bin"

    # -- fingerprint -> result -----------------------------------------
    def put(self, fingerprint: str, result: RunResult) -> None:
        """Persist ``result`` under ``fingerprint`` (idempotent)."""
        trace = result.trace
        layout, payload = trace.columns().to_bytes()
        descriptor = {
            "store_schema": STORE_SCHEMA_VERSION,
            "result_schema": RESULT_SCHEMA_VERSION,
            "fingerprint": fingerprint,
            "spec": result.spec.to_dict(),
            "metrics": dict(result.metrics),
            "trace": {
                "scheme": trace.scheme,
                "cluster_name": trace.cluster_name,
                "metadata": dict(trace.metadata),
                "columns": layout,
            },
            "payload_bytes": len(payload),
        }
        encoded = json.dumps(descriptor, default=json_default).encode("utf-8")
        # Payload first: a crash between the two writes leaves an orphaned
        # .bin, which get()/contains() ignore — never a descriptor whose
        # payload is missing or short.
        _write_atomic(self._payload_path(fingerprint), payload)
        _write_atomic(self._descriptor_path(fingerprint), encoded)

    def get(self, fingerprint: str) -> RunResult | None:
        """The stored result for ``fingerprint``, or ``None`` on a miss."""
        descriptor = self._load_descriptor(fingerprint)
        if descriptor is None:
            return None
        try:
            payload = self._payload_path(fingerprint).read_bytes()
        except OSError:
            return None
        if len(payload) != descriptor["payload_bytes"]:
            return None  # truncated payload: treat as a miss
        trace_meta = descriptor["trace"]
        columns = TraceColumns.from_bytes(trace_meta["columns"], payload)
        trace = RunTrace.from_columns(
            trace_meta["scheme"],
            trace_meta["cluster_name"],
            columns,
            metadata=trace_meta["metadata"],
        )
        return RunResult(
            spec=RunSpec.from_dict(descriptor["spec"]),
            trace=trace,
            metrics=dict(descriptor["metrics"]),
        )

    def contains(self, fingerprint: str) -> bool:
        """Whether a complete segment exists for ``fingerprint``."""
        descriptor = self._load_descriptor(fingerprint)
        if descriptor is None:
            return False
        try:
            size = self._payload_path(fingerprint).stat().st_size
        except OSError:
            return False
        return size == descriptor["payload_bytes"]

    def fingerprints(self) -> tuple[str, ...]:
        """Every fingerprint with a complete segment."""
        found = []
        for path in sorted(self._runs.glob("*.json")):
            fingerprint = path.stem
            if self.contains(fingerprint):
                found.append(fingerprint)
        return tuple(found)

    def gc(self, keep: Iterable[str]) -> int:
        """Drop segments not in ``keep``; also sweeps orphans and temp files.

        Returns the number of segments removed.
        """
        keep_set = set(keep)
        removed = 0
        complete = set(self.fingerprints())
        for path in sorted(self._runs.iterdir()):
            name = path.name
            if name.startswith(".tmp-"):
                path.unlink(missing_ok=True)
                continue
            fingerprint = path.stem
            if fingerprint in keep_set and fingerprint in complete:
                continue
            path.unlink(missing_ok=True)
            if name.endswith(".json"):
                removed += 1
        return removed

    def get_result(self, spec: RunSpec) -> RunResult | None:
        """Look up by spec (fingerprints it for you)."""
        return self.get(spec.fingerprint())

    def put_result(self, result: RunResult) -> str:
        """Store under the result's own spec fingerprint; returns the key."""
        fingerprint = result.spec.fingerprint()
        self.put(fingerprint, result)
        return fingerprint

    def __contains__(self, fingerprint: object) -> bool:
        return isinstance(fingerprint, str) and self.contains(fingerprint)

    # -- introspection --------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """Entry count and on-disk footprint (for ``repro serve`` logs)."""
        entries = self.fingerprints()
        total = 0
        for path in self._runs.iterdir():
            try:
                total += path.stat().st_size
            except OSError:
                continue
        return {
            "root": str(self.root),
            "entries": len(entries),
            "bytes": total,
        }

    def _load_descriptor(self, fingerprint: str) -> dict[str, Any] | None:
        try:
            raw = self._descriptor_path(fingerprint).read_text(encoding="utf-8")
        except OSError:
            return None
        try:
            descriptor = json.loads(raw)
        except json.JSONDecodeError:
            return None  # partial/corrupt descriptor: treat as a miss
        if not isinstance(descriptor, dict):
            return None
        if descriptor.get("store_schema") != STORE_SCHEMA_VERSION:
            return None
        if not isinstance(descriptor.get("payload_bytes"), int):
            return None
        return descriptor

    def __repr__(self) -> str:
        return f"FileRunStore({str(self.root)!r})"
