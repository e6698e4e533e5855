"""Plugin registries: decorator registration, lookups, error paths."""

from __future__ import annotations

import pytest

from repro import _registry
from repro.api import Engine, Registry, RegistryError, RunSpec
from repro.api.registry import CLUSTERS, PROTOCOLS, SCHEMES, WORKLOADS
from repro.coding import SCHEME_NAMES, CodingError, build_strategy
from repro.coding.registry import register_scheme, registered_schemes
from repro.coding.types import CodingStrategy
from repro.experiments.clusters import build_cluster, register_cluster
from repro.experiments.workloads import Workload, get_workload, register_workload
from repro.protocols import PROTOCOL_NAMES
from repro.protocols.base import ProtocolError
from repro.protocols.runner import make_protocol


class TestRegistryBasics:
    def test_register_and_get(self):
        registry = Registry("thing")

        @registry.register("alpha", flavour="sweet")
        def build_alpha():
            return "a"

        assert "alpha" in registry
        assert registry.get("alpha") is build_alpha
        assert registry.metadata("alpha") == {"flavour": "sweet"}
        assert registry.names() == ("alpha",)

    def test_register_infers_name(self):
        registry = Registry("thing")

        @registry.register()
        def my_builder():
            return None

        assert "my_builder" in registry

    def test_unknown_name_error_lists_choices(self):
        registry = Registry("thing")
        registry.add("alpha", object())
        with pytest.raises(RegistryError, match="unknown thing 'beta'.*alpha"):
            registry.get("beta")

    def test_registry_error_is_a_key_error(self):
        registry = Registry("thing")
        with pytest.raises(KeyError):
            registry.get("missing")

    def test_duplicate_registration_rejected(self):
        registry = Registry("thing")
        registry.add("alpha", 1)
        with pytest.raises(RegistryError, match="already registered"):
            registry.add("alpha", 2)
        registry.add("alpha", 2, replace=True)
        assert registry.get("alpha") == 2

    def test_unregister(self):
        registry = Registry("thing")
        registry.add("alpha", 1)
        registry.unregister("alpha")
        assert "alpha" not in registry


class TestBuiltinRegistrations:
    def test_only_the_paper_axes_have_registries(self):
        kinds = {
            value.kind
            for value in vars(_registry).values()
            if isinstance(value, Registry)
        }
        assert kinds == {
            "scheme",
            "protocol",
            "cluster",
            "workload",
            "straggler model",
            "network model",
        }

    def test_builtin_schemes_registered(self):
        assert set(SCHEME_NAMES) <= set(SCHEMES.names())
        assert registered_schemes() == SCHEMES.names()

    def test_builtin_protocols_registered(self):
        assert set(PROTOCOL_NAMES) <= set(PROTOCOLS.names())

    def test_builtin_clusters_registered(self):
        for name in ("Cluster-A", "Cluster-B", "Cluster-C", "Cluster-D"):
            assert name in CLUSTERS
        assert CLUSTERS.metadata("Cluster-D")["num_workers"] == 58

    def test_scheme_partitioning_metadata(self):
        assert SCHEMES.metadata("naive")["partitioning"] == "uniform"
        assert SCHEMES.metadata("heter_aware")["partitioning"] == "multiplier"

    def test_unknown_scheme_raises_coding_error(self):
        with pytest.raises(CodingError, match="unknown scheme"):
            build_strategy("bogus", [1.0, 2.0], 2, 1)

    def test_unknown_protocol_raises_protocol_error(self):
        with pytest.raises(ProtocolError, match="unknown protocol"):
            make_protocol("bogus")

    def test_unknown_cluster_raises_key_error(self):
        with pytest.raises(KeyError, match="unknown cluster"):
            build_cluster("Cluster-Z")

    def test_unknown_workload_raises_key_error(self):
        with pytest.raises(KeyError, match="unknown workload"):
            get_workload("bogus")


class TestPluginFlow:
    """A scheme/cluster/workload registered by a plugin works end to end."""

    def test_custom_scheme_through_engine(self):
        from repro.coding.naive import naive_strategy

        @register_scheme("test_uniform_clone", partitioning="uniform")
        def _build(throughputs, num_partitions, num_stragglers, rng=None) -> CodingStrategy:
            return naive_strategy(len(throughputs), num_partitions)

        try:
            result = Engine().run(
                RunSpec(
                    scheme="test_uniform_clone",
                    num_iterations=2,
                    total_samples=64,
                    num_stragglers=0,
                    seed=0,
                )
            )
            assert result.metrics["num_iterations"] == 2
            assert result.completed
        finally:
            SCHEMES.unregister("test_uniform_clone")

    def test_custom_cluster_through_engine(self):
        from repro.simulation.cluster import cluster_from_vcpu_counts

        @register_cluster("test-tiny-cluster")
        def _build(samples_per_second_per_vcpu=50.0, machine_spread=0.05,
                   compute_noise=0.02, rng=0):
            return cluster_from_vcpu_counts(
                "test-tiny-cluster",
                {2: 2, 4: 2},
                samples_per_second_per_vcpu=samples_per_second_per_vcpu,
                machine_spread=machine_spread,
                compute_noise=compute_noise,
                rng=rng,
            )

        try:
            result = Engine().run(
                RunSpec(cluster="test-tiny-cluster", num_iterations=2,
                        total_samples=64, seed=0)
            )
            assert result.trace.metadata["num_workers"] == 4
        finally:
            CLUSTERS.unregister("test-tiny-cluster")

    def test_custom_workload_registration(self):
        from repro.learning.datasets import make_blobs
        from repro.learning.models import SoftmaxClassifier

        workload = Workload(
            name="test_blobs",
            dataset_factory=lambda n, seed: make_blobs(
                num_samples=n, num_features=4, num_classes=2, rng=seed
            ),
            model_factory=lambda ds, seed: SoftmaxClassifier(
                ds.num_features, ds.num_classes, rng=seed
            ),
            default_samples=32,
            description="test workload",
        )
        register_workload(workload)
        try:
            assert get_workload("test_blobs") is workload
            result = Engine().run(
                RunSpec(
                    mode="training",
                    scheme="naive",
                    workload="test_blobs",
                    num_iterations=2,
                    total_samples=32,
                    num_stragglers=0,
                    seed=0,
                )
            )
            assert result.metrics["num_iterations"] == 2
        finally:
            WORKLOADS.unregister("test_blobs")
