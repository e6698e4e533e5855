"""FileRunStore: JSON-exact persistence and crash safety.

The store's contract is dict-like (``fingerprint -> RunResult``) with two
teeth: every stored result round-trips JSON-exactly (``get(fp).to_json()
== result.to_json()``), and *any* incomplete segment — truncated payload,
corrupt descriptor, orphaned binary, leftover temp file — reads as a miss
rather than a wrong answer.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import store as store_module
from repro.api import Engine, RunSpec, StragglerSpec
from repro.api.spec import STORE_SCHEMA_VERSION
from repro.store import (
    STORE_DIR_ENV,
    FileRunStore,
    StoreError,
    default_store_path,
)


@pytest.fixture(scope="module")
def engine() -> Engine:
    return Engine()


@pytest.fixture(scope="module")
def timing_result(engine):
    return engine.run(
        RunSpec(
            scheme="heter_aware",
            num_iterations=5,
            total_samples=1024,
            straggler=StragglerSpec(
                "artificial_delay", {"num_stragglers": 1, "delay_seconds": 1.0}
            ),
            rng_version=2,
            seed=0,
        )
    )


@pytest.fixture(scope="module")
def training_result(engine):
    return engine.run(
        RunSpec(
            mode="training",
            scheme="naive",
            workload="blobs_softmax",
            total_samples=128,
            num_iterations=3,
            num_stragglers=0,
            loss_eval_samples=64,
            seed=0,
        )
    )


@pytest.fixture()
def store(tmp_path) -> FileRunStore:
    return FileRunStore(tmp_path / "store")


class TestRoundTrip:
    @pytest.mark.parametrize("which", ["timing", "training"])
    def test_json_exact(self, store, timing_result, training_result, which):
        result = timing_result if which == "timing" else training_result
        fingerprint = store.put_result(result)
        restored = store.get(fingerprint)
        assert restored is not None
        assert restored.to_json() == result.to_json()

    def test_get_result_by_spec(self, store, timing_result):
        store.put_result(timing_result)
        restored = store.get_result(timing_result.spec)
        assert restored is not None
        assert restored.spec == timing_result.spec

    def test_contains_and_fingerprints(self, store, timing_result):
        fingerprint = timing_result.spec.fingerprint()
        assert fingerprint not in store
        assert not store.contains(fingerprint)
        store.put(fingerprint, timing_result)
        assert fingerprint in store
        assert store.fingerprints() == (fingerprint,)

    def test_put_is_idempotent(self, store, timing_result):
        fingerprint = store.put_result(timing_result)
        store.put(fingerprint, timing_result)
        assert store.fingerprints() == (fingerprint,)
        assert store.get(fingerprint).to_json() == timing_result.to_json()

    def test_miss_returns_none(self, store):
        assert store.get("0" * 64) is None

    def test_stats(self, store, timing_result):
        store.put_result(timing_result)
        stats = store.stats()
        assert stats["entries"] == 1
        assert stats["bytes"] > 0
        assert stats["root"] == str(store.root)


class TestCrashSafety:
    def test_truncated_payload_is_a_miss(self, store, timing_result):
        fingerprint = store.put_result(timing_result)
        payload_path = store._payload_path(fingerprint)
        payload_path.write_bytes(payload_path.read_bytes()[:-8])
        assert store.get(fingerprint) is None
        assert not store.contains(fingerprint)
        assert store.fingerprints() == ()

    def test_corrupt_descriptor_is_a_miss(self, store, timing_result):
        fingerprint = store.put_result(timing_result)
        store._descriptor_path(fingerprint).write_text("{not json", "utf-8")
        assert store.get(fingerprint) is None
        assert not store.contains(fingerprint)

    @pytest.mark.parametrize(
        "mangle",
        (
            lambda descriptor: [descriptor],
            lambda descriptor: {**descriptor, "payload_bytes": "128"},
            lambda descriptor: {
                key: value
                for key, value in descriptor.items()
                if key != "payload_bytes"
            },
        ),
        ids=("not_an_object", "payload_bytes_not_int", "payload_bytes_missing"),
    )
    def test_malformed_descriptor_is_a_miss(self, store, timing_result, mangle):
        fingerprint = store.put_result(timing_result)
        descriptor_path = store._descriptor_path(fingerprint)
        descriptor = json.loads(descriptor_path.read_text("utf-8"))
        descriptor_path.write_text(json.dumps(mangle(descriptor)), "utf-8")
        assert store.get(fingerprint) is None
        assert not store.contains(fingerprint)

    def test_missing_payload_is_a_miss(self, store, timing_result):
        fingerprint = store.put_result(timing_result)
        store._payload_path(fingerprint).unlink()
        assert store.get(fingerprint) is None
        assert store.fingerprints() == ()

    def test_failed_write_leaves_no_temp_file(
        self, store, timing_result, monkeypatch
    ):
        def fail_replace(source, destination):
            raise OSError("disk full")

        monkeypatch.setattr(store_module.os, "replace", fail_replace)
        with pytest.raises(OSError, match="disk full"):
            store.put_result(timing_result)
        assert list(store._runs.iterdir()) == []

    def test_orphaned_payload_is_a_miss(self, store, timing_result):
        # A crash between the payload write and the descriptor write.
        fingerprint = timing_result.spec.fingerprint()
        store._payload_path(fingerprint).write_bytes(b"\x00" * 128)
        assert store.get(fingerprint) is None
        assert store.fingerprints() == ()

    def test_temp_files_are_invisible(self, store, timing_result):
        fingerprint = store.put_result(timing_result)
        (store._runs / ".tmp-crash-leftover").write_bytes(b"partial")
        assert store.fingerprints() == (fingerprint,)

    def test_gc_drops_unkept_and_sweeps_debris(
        self, store, timing_result, training_result
    ):
        kept = store.put_result(timing_result)
        dropped = store.put_result(training_result)
        (store._runs / ".tmp-crash-leftover").write_bytes(b"partial")
        store._payload_path("f" * 64).write_bytes(b"orphan")
        removed = store.gc(keep=[kept])
        assert removed == 1  # descriptors removed; debris doesn't count
        assert store.fingerprints() == (kept,)
        assert dropped not in store
        assert not (store._runs / ".tmp-crash-leftover").exists()
        assert not store._payload_path("f" * 64).exists()

    def test_incomplete_kept_segment_is_still_collected(
        self, store, timing_result
    ):
        fingerprint = store.put_result(timing_result)
        store._payload_path(fingerprint).unlink()
        store.gc(keep=[fingerprint])
        assert not store._descriptor_path(fingerprint).exists()


class TestFormatMarker:
    def test_marker_written_on_create(self, tmp_path):
        store = FileRunStore(tmp_path / "store")
        marker = json.loads((store.root / "store.json").read_text("utf-8"))
        assert marker == {
            "format": "repro-run-store",
            "store_schema": STORE_SCHEMA_VERSION,
        }

    def test_reopen_is_fine(self, tmp_path, timing_result):
        first = FileRunStore(tmp_path / "store")
        fingerprint = first.put_result(timing_result)
        second = FileRunStore(tmp_path / "store")
        assert second.get(fingerprint).to_json() == timing_result.to_json()

    def test_foreign_marker_raises(self, tmp_path):
        root = tmp_path / "store"
        root.mkdir()
        (root / "store.json").write_text('{"format": "something-else"}', "utf-8")
        with pytest.raises(StoreError, match="not a repro run store"):
            FileRunStore(root)

    def test_unreadable_marker_raises(self, tmp_path):
        root = tmp_path / "store"
        root.mkdir()
        (root / "store.json").write_text("{truncated", "utf-8")
        with pytest.raises(StoreError, match="unreadable store marker"):
            FileRunStore(root)

    @pytest.mark.parametrize("schema", (999, 1))
    def test_schema_mismatch_raises(self, tmp_path, schema):
        # Schema 1 is what builds before the array-backend removal wrote:
        # its fingerprints can never hit, so opening it is a named error
        # that says how to move on, not a store of silent misses.
        root = tmp_path / "store"
        root.mkdir()
        (root / "store.json").write_text(
            json.dumps({"format": "repro-run-store", "store_schema": schema}),
            "utf-8",
        )
        with pytest.raises(StoreError, match="store schema mismatch") as caught:
            FileRunStore(root)
        assert STORE_DIR_ENV in str(caught.value)
        assert "delete this root" in str(caught.value)

    def test_future_segment_schema_is_a_miss(self, store, timing_result):
        fingerprint = store.put_result(timing_result)
        descriptor_path = store._descriptor_path(fingerprint)
        descriptor = json.loads(descriptor_path.read_text("utf-8"))
        descriptor["store_schema"] = 999
        descriptor_path.write_text(json.dumps(descriptor), "utf-8")
        assert store.get(fingerprint) is None


class TestDefaultStore:
    def test_default_path_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv(STORE_DIR_ENV, str(tmp_path / "env-store"))
        assert default_store_path() == Path(tmp_path / "env-store")
        assert FileRunStore().root == tmp_path / "env-store"

    def test_default_path_without_env(self, monkeypatch):
        monkeypatch.delenv(STORE_DIR_ENV, raising=False)
        assert default_store_path() == Path.home() / ".cache" / "repro" / "run_store"

    def test_repr_names_the_root(self, tmp_path):
        store = FileRunStore(tmp_path / "shared")
        assert repr(store) == f"FileRunStore({str(tmp_path / 'shared')!r})"

    def test_store_names_importable_from_repro_api(self):
        import repro.api as api

        assert api.FileRunStore is FileRunStore
        assert api.StoreError is StoreError
        assert api.default_store_path is default_store_path
        with pytest.raises(AttributeError):
            api.NoSuchName
