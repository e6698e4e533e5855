"""RunSpec: validation, coercion, immutability and JSON round-trips."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.api import NetworkSpec, RunSpec, SpecError, StragglerSpec


class TestValidation:
    def test_defaults_are_valid(self):
        spec = RunSpec()
        assert spec.scheme == "heter_aware"
        assert spec.mode == "timing"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_iterations": 0},
            {"num_iterations": -3},
            {"total_samples": 0},
            {"num_stragglers": -1},
            {"num_partitions": 0},
            {"partitions_multiplier": 0},
            {"gradient_bytes": -1.0},
            {"learning_rate": 0.0},
            {"ssp_batch_size": 0},
            {"loss_eval_samples": -1},
            {"record_loss_every": 0},
            {"scheme": ""},
            {"cluster": ""},
            {"mode": ""},
            {"rng_version": 0},
            {"rng_version": 3},
            {"rng_version": -1},
        ],
    )
    def test_rejects_invalid_fields(self, kwargs):
        with pytest.raises(SpecError):
            RunSpec(**kwargs)

    def test_rng_version_defaults_to_v2(self):
        assert RunSpec().rng_version == 2

    def test_rng_version_accepts_both_layouts(self):
        assert RunSpec(rng_version=1).rng_version == 1
        assert RunSpec(rng_version=2).rng_version == 2

    def test_rng_version_error_names_supported_versions(self):
        with pytest.raises(SpecError, match=r"supported versions: \[1, 2\]"):
            RunSpec(rng_version=7)

    @pytest.mark.parametrize("version", [1, 2])
    def test_rng_version_round_trips_through_json(self, version):
        spec = RunSpec(rng_version=version)
        assert RunSpec.from_json(spec.to_json()) == spec
        assert spec.to_dict()["rng_version"] == version

    def test_pre_rng_version_payloads_load_as_v1(self):
        # Spec JSON written before the field existed was a v1 run; it must
        # not silently take the v2 default.
        data = RunSpec().to_dict()
        del data["rng_version"]
        assert RunSpec.from_dict(data).rng_version == 1
        assert RunSpec.from_json(json.dumps(data)).rng_version == 1

    def test_engine_refuses_a_reloaded_pre_field_payload(self):
        from repro.api import Engine, RngVersionError

        data = RunSpec(num_iterations=2, total_samples=256).to_dict()
        del data["rng_version"]
        with pytest.raises(RngVersionError, match="rng_version=1"):
            Engine().run(RunSpec.from_dict(data))

    def test_straggler_mapping_requires_kind(self):
        with pytest.raises(SpecError, match="kind"):
            RunSpec(straggler={"params": {"delay_seconds": 1.0}})

    def test_straggler_mapping_rejects_unknown_keys(self):
        with pytest.raises(SpecError):
            RunSpec(straggler={"kind": "none", "bogus": 1})

    def test_frozen(self):
        spec = RunSpec()
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.scheme = "naive"


class TestCoercion:
    def test_straggler_from_string(self):
        spec = RunSpec(straggler="bursty")
        assert spec.straggler == StragglerSpec("bursty")

    def test_straggler_from_mapping(self):
        spec = RunSpec(
            straggler={"kind": "artificial_delay", "params": {"delay_seconds": 2.0}}
        )
        assert spec.straggler.kind == "artificial_delay"
        assert spec.straggler.params == {"delay_seconds": 2.0}

    def test_network_from_string(self):
        spec = RunSpec(network="zero")
        assert spec.network == NetworkSpec("zero")

    def test_replace_revalidates(self):
        spec = RunSpec()
        with pytest.raises(SpecError):
            spec.replace(num_iterations=-1)

    def test_replace_returns_new_spec(self):
        spec = RunSpec()
        other = spec.replace(scheme="cyclic")
        assert other.scheme == "cyclic"
        assert spec.scheme == "heter_aware"

    def test_resolved_total_samples(self):
        assert RunSpec(mode="timing").resolved_total_samples() == 2048
        assert RunSpec(mode="timing", total_samples=64).resolved_total_samples() == 64
        assert RunSpec(mode="training").resolved_total_samples() is None


class TestSerialization:
    def test_json_round_trip_defaults(self):
        spec = RunSpec()
        assert RunSpec.from_json(spec.to_json()) == spec

    def test_json_round_trip_full(self):
        spec = RunSpec(
            scheme="group_based",
            mode="training",
            cluster="Cluster-C",
            cluster_options={"samples_per_second_per_vcpu": 25.0},
            workload="cifar10_softmax",
            num_iterations=7,
            total_samples=512,
            num_stragglers=2,
            num_partitions=64,
            partitions_multiplier=3,
            straggler=StragglerSpec("transient", {"probability": 0.1}),
            network=NetworkSpec("overlapped", {"overlap_fraction": 0.25}),
            gradient_bytes=1024.0,
            learning_rate=0.3,
            ssp_staleness=5.0,
            ssp_batch_size=16,
            loss_eval_samples=128,
            record_loss_every=2,
            seed=42,
        )
        restored = RunSpec.from_json(spec.to_json())
        assert restored == spec

    @pytest.mark.parametrize(
        "extra",
        # The array-backend field was removed with its seam; payloads
        # that still carry it are rejected, not silently upgraded.
        [{"bogus_knob": 1}, {"array_backend": "numpy"}],
        ids=lambda extra: next(iter(extra)),
    )
    def test_from_dict_rejects_unknown_fields(self, extra):
        name = next(iter(extra))
        with pytest.raises(SpecError, match=rf"unknown RunSpec fields: \['{name}'\]"):
            RunSpec.from_dict({"scheme": "naive", **extra})

    def test_to_dict_is_plain_data(self):
        data = RunSpec(straggler="bursty").to_dict()
        assert data["straggler"] == {"kind": "bursty", "params": {}}
        assert data["network"] == {"kind": "simple", "params": {}}

    def test_vcpu_counts_round_trips_with_int_keys(self):
        spec = RunSpec(
            cluster="custom", cluster_options={"vcpu_counts": {8: 2, 4: 1}}
        )
        restored = RunSpec.from_json(spec.to_json())
        assert restored == spec
        assert restored.cluster_options["vcpu_counts"] == {8: 2, 4: 1}

    def test_bad_vcpu_counts_rejected(self):
        with pytest.raises(SpecError, match="vcpu_counts"):
            RunSpec(cluster_options={"vcpu_counts": {"eight": 2}})
