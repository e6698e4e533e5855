"""Per-rule unit tests: each rule catches its seeded violation and stays
quiet on the sanctioned idioms it must not flag."""

from __future__ import annotations


def rule_ids(report) -> list[str]:
    return [finding.rule for finding in report.findings]


class TestRNG001:
    def test_flags_legacy_global_state_calls(self, lint_tree):
        report = lint_tree(
            {
                "pkg/mod.py": """
                import numpy as np

                def f():
                    np.random.seed(0)
                    return np.random.rand(3)
                """
            }
        )
        assert rule_ids(report) == ["RNG001", "RNG001"]
        assert "hidden global RandomState" in report.findings[0].message

    def test_flags_entropy_seeded_default_rng(self, lint_tree):
        report = lint_tree(
            {
                "pkg/mod.py": """
                from numpy.random import default_rng

                a = default_rng()
                b = default_rng(None)
                """
            }
        )
        assert rule_ids(report) == ["RNG001", "RNG001"]

    def test_flags_randomstate_reference(self, lint_tree):
        report = lint_tree(
            {
                "pkg/mod.py": """
                import numpy

                LEGACY = numpy.random.RandomState
                """
            }
        )
        assert rule_ids(report) == ["RNG001"]

    def test_seed_coercion_is_legal(self, lint_tree):
        """default_rng(seed) / default_rng(rng) is the package-wide idiom."""
        report = lint_tree(
            {
                "pkg/mod.py": """
                import numpy as np

                def f(seed, rng=None):
                    g = np.random.default_rng(seed)
                    h = np.random.default_rng(rng or 0)
                    return g.normal(size=3) + h.normal(size=3)
                """
            }
        )
        assert report.findings == []

    def test_rng_module_and_reference_are_exempt(self, lint_tree):
        source = """
        import numpy as np

        g = np.random.default_rng()
        """
        report = lint_tree(
            {"simulation/rng.py": source, "pkg/_reference.py": source}
        )
        assert report.findings == []


class TestRNG002:
    def test_flags_wall_clock_in_scoped_dirs(self, lint_tree):
        report = lint_tree(
            {
                "simulation/mod.py": """
                import time

                def stamp():
                    return time.time()
                """
            }
        )
        assert rule_ids(report) == ["RNG002"]
        assert "ambient nondeterminism" in report.findings[0].message

    def test_flags_datetime_now_and_urandom(self, lint_tree):
        report = lint_tree(
            {
                "api/mod.py": """
                import os
                from datetime import datetime

                def f():
                    return datetime.now(), os.urandom(8)
                """
            }
        )
        assert rule_ids(report) == ["RNG002", "RNG002"]

    def test_flags_set_iteration(self, lint_tree):
        report = lint_tree(
            {
                "coding/mod.py": """
                def f(items):
                    out = []
                    for x in set(items):
                        out.append(x)
                    return out, list({1, 2, 3})
                """
            }
        )
        assert rule_ids(report) == ["RNG002", "RNG002"]
        assert "hash-iteration order" in report.findings[0].message

    def test_sorted_set_is_legal(self, lint_tree):
        report = lint_tree(
            {
                "protocols/mod.py": """
                def f(items):
                    return [x for x in sorted(set(items))]
                """
            }
        )
        assert report.findings == []

    def test_out_of_scope_dirs_are_ignored(self, lint_tree):
        """The same code outside simulation/protocols/coding/api is fine."""
        report = lint_tree(
            {
                "experiments/mod.py": """
                import time

                def stamp():
                    return time.time()
                """
            }
        )
        assert report.findings == []


class TestREG001:
    def test_flags_unregistered_subclass(self, lint_tree):
        report = lint_tree(
            {
                "pkg/mod.py": """
                from repro.simulation.stragglers import StragglerInjector

                class OrphanInjector(StragglerInjector):
                    def delays(self, iteration, num_workers, rng):
                        return [0.0] * num_workers
                """
            }
        )
        assert rule_ids(report) == ["REG001"]
        assert "OrphanInjector" in report.findings[0].message

    def test_decorated_subclass_is_registered(self, lint_tree):
        report = lint_tree(
            {
                "pkg/mod.py": """
                from repro.simulation.stragglers import StragglerInjector
                from repro.api.builders import register_straggler_model

                @register_straggler_model("quiet")
                class QuietInjector(StragglerInjector):
                    def delays(self, iteration, num_workers, rng):
                        return [0.0] * num_workers
                """
            }
        )
        assert report.findings == []

    def test_registrar_module_reference_counts(self, lint_tree):
        """`REGISTRY.add("x", lambda: Cls())` in another module registers Cls."""
        report = lint_tree(
            {
                "pkg/mod.py": """
                from repro.simulation.network import CommunicationModel

                class LumpyNetwork(CommunicationModel):
                    def transfer_time(self, gradient_bytes):
                        return 1.0
                """,
                "pkg/builders.py": """
                from repro._registry import NETWORK_MODELS

                from .mod import LumpyNetwork

                NETWORK_MODELS.add("lumpy", lambda: LumpyNetwork())
                """,
            }
        )
        assert report.findings == []

    def test_abstract_and_private_subclasses_are_exempt(self, lint_tree):
        report = lint_tree(
            {
                "pkg/mod.py": """
                from abc import abstractmethod

                from repro.simulation.stragglers import StragglerInjector

                class IntermediateInjector(StragglerInjector):
                    @abstractmethod
                    def extra_hook(self):
                        ...

                class _LocalHelper(StragglerInjector):
                    def delays(self, iteration, num_workers, rng):
                        return [0.0] * num_workers
                """
            }
        )
        assert report.findings == []

    def test_transitive_subclasses_are_tracked(self, lint_tree):
        """Subclass-of-a-subclass of a root still needs registration."""
        report = lint_tree(
            {
                "pkg/mod.py": """
                from repro.simulation.network import CommunicationModel

                class _BaseNetwork(CommunicationModel):
                    pass

                class DeepOrphanNetwork(_BaseNetwork):
                    def transfer_time(self, gradient_bytes):
                        return 1.0
                """
            }
        )
        assert rule_ids(report) == ["REG001"]
        assert "DeepOrphanNetwork" in report.findings[0].message

    def test_only_paper_axis_roots_need_registration(self, lint_tree):
        """Executors are chosen by name or instance, not from a registry."""
        report = lint_tree(
            {
                "pkg/mod.py": """
                from repro.api.executors import Executor

                class InlineExecutor(Executor):
                    def run_specs(self, engine, specs):
                        return [engine.run(spec) for spec in specs]
                """
            }
        )
        assert report.findings == []


class TestSPEC001:
    def test_flags_attribute_assignment_on_constructed_spec(self, lint_tree):
        report = lint_tree(
            {
                "pkg/mod.py": """
                from repro.api.spec import RunSpec

                def tweak():
                    spec = RunSpec(scheme="heter_aware")
                    spec.seed = 7
                    return spec
                """
            }
        )
        assert rule_ids(report) == ["SPEC001"]
        assert "RunSpec.replace" in report.findings[0].message

    def test_flags_annotated_parameter_mutation(self, lint_tree):
        report = lint_tree(
            {
                "pkg/mod.py": """
                from repro.api.spec import RunSpec

                def tweak(spec: RunSpec) -> RunSpec:
                    spec.iterations += 1
                    return spec
                """
            }
        )
        assert rule_ids(report) == ["SPEC001"]

    def test_flags_setattr_and_object_setattr(self, lint_tree):
        report = lint_tree(
            {
                "pkg/mod.py": """
                from repro.api.spec import RunSpec

                def tweak(spec: RunSpec):
                    setattr(spec, "seed", 1)
                    object.__setattr__(spec, "seed", 2)
                """
            }
        )
        assert rule_ids(report) == ["SPEC001", "SPEC001"]

    def test_object_setattr_on_self_is_legal(self, lint_tree):
        """The frozen-dataclass __post_init__ idiom must stay allowed."""
        report = lint_tree(
            {
                "pkg/mod.py": """
                from dataclasses import dataclass

                @dataclass(frozen=True)
                class Other:
                    value: int

                    def __post_init__(self):
                        object.__setattr__(self, "value", int(self.value))
                """
            }
        )
        assert report.findings == []

    def test_replace_idiom_is_legal(self, lint_tree):
        report = lint_tree(
            {
                "pkg/mod.py": """
                from repro.api.spec import RunSpec

                def tweak(spec: RunSpec) -> RunSpec:
                    return spec.replace(seed=7)
                """
            }
        )
        assert report.findings == []

    def test_spec_module_itself_is_exempt(self, lint_tree):
        report = lint_tree(
            {
                "api/spec.py": """
                class RunSpec:
                    def __post_init__(self):
                        object.__setattr__(self, "seed", 0)
                """
            }
        )
        assert report.findings == []


class TestKER001:
    KERNEL = """
    def compute_batch(values):
        return [v * 2 for v in values]

    def compute(value):
        return value * 2
    """

    def test_flags_unpaired_kernel(self, lint_tree, tmp_path):
        tests_root = tmp_path / "paired_tests"
        tests_root.mkdir()
        (tests_root / "test_other.py").write_text(
            "def test_nothing():\n    assert True\n", encoding="utf-8"
        )
        report = lint_tree({"pkg/mod.py": self.KERNEL}, tests_root=tests_root)
        assert rule_ids(report) == ["KER001"]
        assert "compute_batch" in report.findings[0].message
        assert "'compute'" in report.findings[0].message

    def test_paired_kernel_is_clean(self, lint_tree, tmp_path):
        tests_root = tmp_path / "paired_tests"
        tests_root.mkdir()
        (tests_root / "test_pairing.py").write_text(
            "from pkg.mod import compute, compute_batch\n\n"
            "def test_pairs():\n"
            "    assert compute_batch([2]) == [compute(2)]\n",
            encoding="utf-8",
        )
        report = lint_tree({"pkg/mod.py": self.KERNEL}, tests_root=tests_root)
        assert report.findings == []

    def test_reference_pairing_counts(self, lint_tree, tmp_path):
        """Pairing against repro._reference instead of the scalar is enough."""
        tests_root = tmp_path / "paired_tests"
        tests_root.mkdir()
        (tests_root / "test_pairing.py").write_text(
            "from pkg.mod import compute_batch\n"
            "from repro import _reference\n\n"
            "def test_pairs():\n"
            "    assert compute_batch([2]) == [_reference.compute(2)]\n",
            encoding="utf-8",
        )
        report = lint_tree({"pkg/mod.py": self.KERNEL}, tests_root=tests_root)
        assert report.findings == []

    def test_private_kernels_are_exempt(self, lint_tree, tmp_path):
        tests_root = tmp_path / "paired_tests"
        tests_root.mkdir()
        report = lint_tree(
            {
                "pkg/mod.py": """
                def _compute_batch(values):
                    return [v * 2 for v in values]
                """
            },
            tests_root=tests_root,
        )
        assert report.findings == []

    def test_no_test_tree_skips_with_note(self, write_tree, monkeypatch, tmp_path):
        from repro.analysis import lint_paths

        root = write_tree({"pkg/mod.py": self.KERNEL}, root_name="isolated")
        # Auto-discovery checks cwd's tests/ first; run from the bare tmp
        # tree so there is genuinely nothing to find.
        monkeypatch.chdir(tmp_path)
        report = lint_paths([root])
        assert report.findings == []
        assert any("KER001 skipped" in note for note in report.notes)


class TestIMP001:
    def test_flags_reference_imports(self, lint_tree):
        report = lint_tree(
            {
                "pkg/mod.py": """
                from repro._reference import compute_times as ref_compute
                import repro._reference
                """
            }
        )
        assert rule_ids(report) == ["IMP001", "IMP001"]
        assert "rng_version=1 oracle" in report.findings[0].message

    def test_from_package_import_spelling_flagged(self, lint_tree):
        """`from repro import _reference` must not slip past the rule."""
        report = lint_tree(
            {
                "pkg/mod.py": """
                from repro import _reference as ref
                """
            }
        )
        assert rule_ids(report) == ["IMP001"]

    def test_tests_dirs_may_import_reference(self, lint_tree):
        report = lint_tree(
            {
                "tests/test_mod.py": """
                from repro._reference import compute_times
                """
            }
        )
        assert report.findings == []

    def test_golden_report_may_import_reference(self, lint_tree):
        """The golden report's v1 cells come from the oracle."""
        report = lint_tree(
            {
                "repro/experiments/golden.py": """
                from .._reference import run_spec_reference
                """
            }
        )
        assert report.findings == []

    def test_other_experiment_modules_may_not(self, lint_tree):
        """Only golden.py is exempt, not its package or a same-named file."""
        report = lint_tree(
            {
                "repro/experiments/fig2.py": """
                from .._reference import run_spec_reference
                """,
                "repro/other/golden.py": """
                from repro._reference import run_spec_reference
                """,
            }
        )
        assert rule_ids(report) == ["IMP001", "IMP001"]


class TestSuppression:
    def test_inline_disable(self, lint_tree):
        report = lint_tree(
            {
                "pkg/mod.py": """
                import numpy as np

                g = np.random.default_rng()  # repro-lint: disable=RNG001
                """
            }
        )
        assert report.findings == []

    def test_preceding_comment_line_disable(self, lint_tree):
        report = lint_tree(
            {
                "pkg/mod.py": """
                import numpy as np

                # this one is deliberate
                # repro-lint: disable=RNG001
                g = np.random.default_rng()
                """
            }
        )
        assert report.findings == []

    def test_disable_wrong_rule_does_not_suppress(self, lint_tree):
        report = lint_tree(
            {
                "pkg/mod.py": """
                import numpy as np

                g = np.random.default_rng()  # repro-lint: disable=KER001
                """
            }
        )
        assert rule_ids(report) == ["RNG001"]

    def test_disable_file(self, lint_tree):
        report = lint_tree(
            {
                "pkg/mod.py": """
                # repro-lint: disable-file=RNG001
                import numpy as np

                a = np.random.default_rng()
                b = np.random.default_rng(None)
                """
            }
        )
        assert report.findings == []

    def test_wildcard_disable(self, lint_tree):
        report = lint_tree(
            {
                "pkg/mod.py": """
                import numpy as np

                g = np.random.default_rng()  # repro-lint: disable=*
                """
            }
        )
        assert report.findings == []
