"""RunSpec.fingerprint: the content address of a run.

The fingerprint is the cache key of the run store, so two properties are
load-bearing: *stability* (the digest never depends on construction
order, default-vs-explicit fields, or the process that computes it) and
*sensitivity* (anything the engine contract says may change results —
seed, rng_version, a swapped plugin registration — must change the key).
A pinned digest gates the payload itself: changing what a fingerprint
covers without bumping ``STORE_SCHEMA_VERSION`` fails here.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import subprocess
import sys

import pytest

from repro.api import RunSpec, StragglerSpec, fingerprint
from repro.api.registry import CLUSTERS, SCHEMES, STRAGGLER_MODELS
from repro.api.spec import STORE_SCHEMA_VERSION

def _cluster_factory(name, vcpu_counts, **knobs):  # pragma: no cover - never built
    raise AssertionError("fingerprinting must not build the cluster")


#: sha256 of the ``spec`` fixture below at store schema 3.  Update it only
#: together with a ``STORE_SCHEMA_VERSION`` bump: stores written by older
#: builds must never be served under a new payload.
PINNED_DIGEST = "b1ffa27ffe2325c9180fb1b6d914fa6a10c8b695e5cfd82d72ee11d9026abb93"


@pytest.fixture()
def spec() -> RunSpec:
    return RunSpec(
        scheme="heter_aware",
        num_iterations=10,
        total_samples=2048,
        straggler=StragglerSpec(
            "artificial_delay", {"num_stragglers": 1, "delay_seconds": 2.0}
        ),
        rng_version=2,
        seed=7,
    )


class TestStability:
    def test_deterministic(self, spec):
        assert spec.fingerprint() == spec.fingerprint()

    def test_is_sha256_hex(self, spec):
        digest = spec.fingerprint()
        assert len(digest) == 64
        int(digest, 16)  # raises ValueError if not hex

    def test_module_level_alias(self, spec):
        assert fingerprint(spec) == spec.fingerprint()

    def test_default_vs_explicit_construction(self):
        implicit = RunSpec(scheme="naive", seed=0)
        explicit = RunSpec(
            scheme="naive",
            mode=implicit.mode,
            cluster=implicit.cluster,
            workload=implicit.workload,
            num_iterations=implicit.num_iterations,
            total_samples=implicit.total_samples,
            seed=0,
        )
        assert implicit.fingerprint() == explicit.fingerprint()

    def test_field_order_does_not_matter(self, spec):
        payload = spec.to_dict()
        reordered = dict(reversed(list(payload.items())))
        assert RunSpec.from_dict(reordered).fingerprint() == spec.fingerprint()

    def test_round_trip_preserves_fingerprint(self, spec):
        assert RunSpec.from_json(spec.to_json()).fingerprint() == spec.fingerprint()

    def test_digest_is_canonical_json_sha256(self, spec):
        canonical = json.dumps(
            spec._fingerprint_payload(), sort_keys=True, separators=(",", ":")
        )
        expected = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
        assert spec.fingerprint() == expected
        assert spec._fingerprint_payload()["store_schema"] == STORE_SCHEMA_VERSION

    def test_cross_process_stability(self, spec):
        """A fresh interpreter must compute the identical digest."""
        program = (
            "import json, sys\n"
            "from repro.api import RunSpec\n"
            "spec = RunSpec.from_dict(json.loads(sys.argv[1]))\n"
            "print(spec.fingerprint())\n"
        )
        completed = subprocess.run(
            [sys.executable, "-c", program, spec.to_json()],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert completed.stdout.strip() == spec.fingerprint()


class TestPinned:
    def test_store_schema_version(self):
        assert STORE_SCHEMA_VERSION == 3

    def test_reference_spec_digest(self, spec):
        assert spec.fingerprint() == PINNED_DIGEST


class TestSensitivity:
    @pytest.mark.parametrize(
        "changes",
        [
            {"seed": 8},
            {"rng_version": 1},
            {"scheme": "cyclic"},
            {"num_iterations": 11},
            {"cluster": "Cluster-B"},
        ],
        ids=lambda changes: next(iter(changes)),
    )
    def test_field_changes_change_key(self, spec, changes):
        assert spec.replace(**changes).fingerprint() != spec.fingerprint()

    def test_seed_none_still_fingerprints(self, spec):
        digest = spec.replace(seed=None).fingerprint()
        assert len(digest) == 64
        assert digest != spec.fingerprint()

    def test_plugin_swap_changes_key(self, spec):
        """Re-registering the scheme's builder under the same name rekeys."""
        original = SCHEMES.get(spec.scheme)
        metadata = dict(SCHEMES.metadata(spec.scheme))
        before = spec.fingerprint()

        def replacement(*args, **kwargs):  # pragma: no cover - never called
            return original(*args, **kwargs)

        SCHEMES.add(spec.scheme, replacement, replace=True)
        try:
            assert spec.fingerprint() != before
        finally:
            SCHEMES.add(spec.scheme, original, replace=True, **metadata)
        assert spec.fingerprint() == before

    def test_lambda_swap_changes_key(self, spec):
        """Table II clusters are lambdas; re-registering one with another
        lambda rekeys, although both share one ``module:qualname``."""
        name = spec.cluster
        original = CLUSTERS.get(name)
        metadata = dict(CLUSTERS.metadata(name))
        before = spec.fingerprint()
        CLUSTERS.add(
            name,
            lambda _counts={2: 8}, **knobs: original(**knobs),
            replace=True,
            **metadata,
        )
        try:
            assert spec.fingerprint() != before
        finally:
            CLUSTERS.add(name, original, replace=True, **metadata)
        assert spec.fingerprint() == before

    def test_lambda_builders_have_distinct_identities(self, spec):
        """One lambda registered four times with different defaults, and
        the lambdas of the builtin straggler kinds, all key differently."""
        clusters = {
            spec.replace(cluster=name)._fingerprint_payload()["plugins"]["cluster"]
            for name in ("Cluster-A", "Cluster-B", "Cluster-C", "Cluster-D")
        }
        assert len(clusters) == 4
        kinds = ("none", "artificial_delay", "transient", "bursty")
        assert all(kind in STRAGGLER_MODELS for kind in kinds)
        stragglers = {
            spec.replace(straggler=StragglerSpec(kind))._fingerprint_payload()[
                "plugins"
            ]["straggler"]
            for kind in kinds
        }
        assert len(stragglers) == len(kinds)

    def test_partials_over_one_factory_have_distinct_identities(self, spec):
        """``functools.partial`` builders have no ``__qualname__``; their
        identity is the wrapped function's plus their bound arguments, so
        swapping one partial for another under a name rekeys the spec."""
        p1 = functools.partial(_cluster_factory, "p1", {2: 4})
        p2 = functools.partial(_cluster_factory, "p2", {16: 4})
        partial_spec = spec.replace(cluster="partial-cluster")
        try:
            CLUSTERS.add("partial-cluster", p1)
            first = partial_spec.fingerprint()
            first_identity = partial_spec._fingerprint_payload()["plugins"]["cluster"]
            CLUSTERS.add("partial-cluster", p2, replace=True)
            assert partial_spec.fingerprint() != first
            # An equal partial keeps the identity, so stores stay warm.
            CLUSTERS.add(
                "partial-cluster",
                functools.partial(_cluster_factory, "p1", {2: 4}),
                replace=True,
            )
            assert partial_spec.fingerprint() == first
        finally:
            CLUSTERS.unregister("partial-cluster")
        assert first_identity.startswith(f"{__name__}:_cluster_factory#partial:")

    def test_unknown_plugin_maps_to_none(self, spec):
        """Fingerprints stay computable before validation catches the name."""
        unknown = spec.replace(cluster="No-Such-Cluster")
        payload = unknown._fingerprint_payload()
        assert payload["plugins"]["cluster"] is None
        assert len(unknown.fingerprint()) == 64
