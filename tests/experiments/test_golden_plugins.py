"""``repro golden --include-plugins``: third-party registrations are gated.

A plugin scheme/protocol registered through the public registry decorators
must show up in the golden report when (and only when) plugin snapshots are
requested — at both RNG stream layouts, deterministically, and recorded by
name — so a stacked-path refactor that perturbs the generic fallbacks these
plugins run through fails the golden CI job instead of slipping by.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path

import pytest

from repro._registry import PROTOCOLS, SCHEMES
from repro.cli import main
from repro.coding.naive import naive_strategy
from repro.coding.registry import register_scheme
from repro.experiments.golden import (
    check_golden_report,
    compare_golden_reports,
    generate_golden_report,
    write_golden_report,
)
from repro.protocols.coded import NaiveBSPProtocol
from repro.protocols.runner import register_protocol

SCHEME_NAME = "golden_test_scheme"
PROTOCOL_NAME = "golden_test_protocol"

GOLDEN_PATH = str(Path(__file__).resolve().parents[2] / "goldens" / "experiments.json")


@pytest.fixture()
def plugin_registrations():
    @register_scheme(SCHEME_NAME, partitioning="uniform")
    def _build_scheme(throughputs, num_partitions, num_stragglers, rng=None):
        return naive_strategy(len(throughputs), num_partitions)

    @register_protocol(PROTOCOL_NAME)
    def _build_protocol(ssp_staleness, ssp_batch_size):
        return NaiveBSPProtocol()

    try:
        yield
    finally:
        SCHEMES.unregister(SCHEME_NAME)
        PROTOCOLS.unregister(PROTOCOL_NAME)


def quiet_report(**kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return json.loads(json.dumps(generate_golden_report(**kwargs)))


class TestIncludePlugins:
    def test_plugins_are_snapshotted_at_v2_only(self, plugin_registrations):
        # Plugins have no rng_version=1 history to pin.
        report = quiet_report(include_plugins=True)
        plugin_runs = sorted(name for name in report["runs"] if name.startswith("plugins/"))
        assert plugin_runs == [
            f"plugins/protocol/{PROTOCOL_NAME}/v2",
            f"plugins/scheme/{SCHEME_NAME}/v2",
        ]
        for name in plugin_runs:
            assert report["runs"][name]["spec"]["rng_version"] == 2
        assert report["plugins"] == {
            "schemes": [SCHEME_NAME],
            "protocols": [PROTOCOL_NAME],
        }

    def test_plugin_snapshots_are_deterministic(self, plugin_registrations):
        first = quiet_report(include_plugins=True)
        again = quiet_report(include_plugins=True)
        text, diffs = compare_golden_reports(first, again)
        assert diffs == [], text

    def test_builtins_are_never_treated_as_plugins(self):
        report = quiet_report(include_plugins=True)
        assert report["plugins"] == {"schemes": [], "protocols": []}
        assert not any(name.startswith("plugins/") for name in report["runs"])

    def test_default_report_omits_the_plugins_section(self, plugin_registrations):
        report = quiet_report()
        assert "plugins" not in report
        assert not any(name.startswith("plugins/") for name in report["runs"])

    def test_loaded_plugins_fail_a_pluginless_golden(self, plugin_registrations):
        # The recorded names make plugin drift structural: a report taken
        # with plugins loaded cannot silently pass against one without.
        without = quiet_report(include_plugins=True)
        SCHEMES.unregister(SCHEME_NAME)
        PROTOCOLS.unregister(PROTOCOL_NAME)
        try:
            baseline = quiet_report(include_plugins=True)
        finally:
            register_scheme(SCHEME_NAME, partitioning="uniform")(
                lambda throughputs, num_partitions, num_stragglers, rng=None: (
                    naive_strategy(len(throughputs), num_partitions)
                )
            )
            register_protocol(PROTOCOL_NAME)(
                lambda ssp_staleness, ssp_batch_size: NaiveBSPProtocol()
            )
        _, diffs = compare_golden_reports(baseline, without)
        assert diffs  # extra runs + changed plugin name lists


class TestGoldenCliFlag:
    def test_check_passes_against_checked_in_golden(self):
        # No plugins are loaded in this repo, so --include-plugins checks
        # clean against the committed report (which has the empty section).
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(
                ["golden", "--check", GOLDEN_PATH,
                 "--include-plugins"]
            )
        assert code == 0

    def test_check_flags_unsnapshotted_plugins(
        self, plugin_registrations, tmp_path, capsys
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(
                ["golden", "--check", GOLDEN_PATH,
                 "--include-plugins",
                 "--diff-output", str(tmp_path / "diff.txt")]
            )
        assert code == 1
        assert SCHEME_NAME in capsys.readouterr().out

    def test_check_without_the_flag_passes_against_checked_in_golden(self):
        # The committed golden has a plugins section, so the check
        # snapshots plugins whether or not the flag is given.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(["golden", "--check", GOLDEN_PATH])
        assert code == 0

    def test_pluginless_golden_is_checked_without_plugins(
        self, plugin_registrations, tmp_path
    ):
        path = str(tmp_path / "pluginless.json")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            write_golden_report(generate_golden_report(), path)
            text, diffs = check_golden_report(path)
        assert diffs == [], text
