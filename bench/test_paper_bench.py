"""Fast checks of the paper-workload benchmark's arithmetic, exit status and BENCHMARK.json."""

from __future__ import annotations

import importlib
import json
import re
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import compare
import run
from spans import TARGETS, SpanRecorder, Target, Tracing, metric_units, self_times

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


# -- self time ----------------------------------------------------------------


def test_self_times_subtract_direct_children_only():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["child", 1.0, 4.0, 0],
        ["leaf", 2.0, 3.0, 1],
        ["child", 5.0, 7.0, 0],
    ]
    totals = self_times(spans)
    assert totals["root"] == (5.0, 1)
    assert totals["child"] == (4.0, 2)
    assert totals["leaf"] == (1.0, 1)
    assert sum(seconds for seconds, _ in totals.values()) == 10.0


def test_recorder_nests_calls_and_merges_super_chains():
    ticks = iter(range(100))
    recorder = SpanRecorder(clock=lambda: float(next(ticks)))

    def leaf():
        return "leaf"

    def base():
        return recorder.call("leaf", leaf)

    def override():
        return recorder.call("method", base)  # same name: one span

    assert recorder.call("outer", lambda: recorder.call("method", override)) == "leaf"
    totals = self_times(recorder.drain())
    # outer [0, 5], method [1, 4], leaf [2, 3]
    assert totals == {"outer": (2.0, 1), "method": (2.0, 1), "leaf": (1.0, 1)}
    assert recorder.spans == []


# -- wrapping targets -----------------------------------------------------------


def test_missing_targets_are_skipped_and_report_zero_calls():
    missing = [
        Target("api", "repro.api.engine", "Engine", "no_such_method"),
        Target("api", "repro.api.engine", "NoSuchClass", "run"),
        Target("x", "repro.no_such_module", None, "f"),
    ]
    recorder = SpanRecorder()
    with Tracing(recorder, missing):
        pass
    assert recorder.spans == []
    report = {
        "spans": {},
        "counters": {},
        "passes": [{"wall_s": 1.0, "iterations": 10, "traced": True}],
    }
    layers = run.per_layer([report], untraced_wall=1.0)
    assert all(layers[f"{t.name}.calls"]["value"] == 0 for t in TARGETS)
    assert layers["unattributed_frac"]["value"] == 1.0


def test_tracing_wraps_from_imports_and_overrides_then_restores():
    import repro.api.result as result_module
    from repro.simulation.stragglers import NoStragglers, StragglerInjector

    # The package re-exports the function under the submodule's name.
    stats_module = importlib.import_module("repro.metrics.timing_stats")
    original = stats_module.timing_stats
    original_base = StragglerInjector.__dict__["delays_batch"]
    original_override = NoStragglers.__dict__["delays_batch"]
    targets = [
        Target("metrics", "repro.metrics.timing_stats", None, "timing_stats"),
        Target("simulation", "repro.simulation.stragglers", "StragglerInjector",
               "delays_batch"),
    ]
    recorder = SpanRecorder()
    with Tracing(recorder, targets):
        assert result_module.timing_stats is not original
        assert StragglerInjector.__dict__["delays_batch"] is not original_base
        NoStragglers().delays_batch(0, 3, 2, np.random.default_rng(0))
    assert result_module.timing_stats is original
    assert stats_module.timing_stats is original
    assert StragglerInjector.__dict__["delays_batch"] is original_base
    assert NoStragglers.__dict__["delays_batch"] is original_override
    assert self_times(recorder.drain())["simulation.StragglerInjector.delays_batch"][1] == 1


# -- the pass loop and exit status ------------------------------------------------


class FakeWorkload:
    def __init__(self, drift=False, check_failures=()):
        self.drift = drift
        self.check_failures = list(check_failures)
        self.passes = 0

    def before_pass(self):
        pass

    def run_pass(self):
        self.passes += 1
        value = float(self.passes) if self.drift else 1.0
        trace = SimpleNamespace(durations=np.array([value, 1.0]))
        return [SimpleNamespace(trace=trace, value=value), SimpleNamespace(trace=trace, value=1.0)]

    def after_pass(self):
        return []

    def check(self, results):
        return self.check_failures

    def counters(self):
        return {}


class FakeHooks:
    def reset(self):
        pass

    def counters(self):
        return {"kernel_hits": 1, "kernel_misses": 1, "replay_s": 0.0}


def _measure(workload, trace=False):
    return run.measure(workload, FakeHooks(), lambda r: repr(r.value), seconds=0.0,
                       trace=trace, final_checks=True, t0=time.monotonic())


def test_measure_counts_runs_that_differ_from_warm_up():
    report = _measure(FakeWorkload(drift=True))
    assert report["attempted"] == 4  # warm-up + one timed pass, two runs each
    assert report["failed"] == 1
    assert _measure(FakeWorkload())["failed"] == 0


def test_measure_counts_a_failing_check():
    report = _measure(FakeWorkload(check_failures=["broken"]))
    assert report["failed"] == 2 and "broken" in report["failures"]


def test_measure_traces_every_second_pass():
    report = _measure(FakeWorkload(), trace=True)
    assert [p["traced"] for p in report["passes"]] == [False, True]
    assert report["counters"]["iterations"] == 4


def _report(failed):
    return {
        "setup_s": 1.0,
        "peak_rss_mb": 50.0,
        "passes": [{"wall_s": 0.5, "iterations": 100, "traced": False}],
        "attempted": 10,
        "failed": failed,
        "failures": ["broken"] if failed else [],
        "spans": {},
        "counters": {},
    }


@pytest.mark.parametrize("failed, status", [(0, 0), (3, 1)])
def test_exit_status_follows_output_checks(monkeypatch, tmp_path, capsys, failed, status):
    for name in run.BLAS_ENV:
        monkeypatch.setenv(name, "1")
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(run, "spawn_child", lambda *args, **kwargs: _report(failed))
    out = tmp_path / "r.json"
    assert run.main(["--workload", "fig2_cells", "--out", str(out)]) == status
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert line["correct"] is (failed == 0)
    assert line["failed"] == failed * run.PROCESSES
    assert set(line["metrics"]) == {"wall_s", "iters_per_s", "setup_s", "peak_rss_mb"}
    document = json.loads(out.read_text())
    assert document["workloads"]["fig2_cells"]["metrics"]["wall_s"]["n"] == run.PROCESSES


# -- compare.py -----------------------------------------------------------------


def _summary(median, q1=None, q3=None):
    return {"unit": "s", "n": 5, "median": median,
            "q1": median if q1 is None else q1, "q3": median if q3 is None else q3}


@pytest.mark.parametrize(
    "a, b, better, expected",
    [
        (_summary(1.0), _summary(1.05), "lower", "within-bound"),
        (_summary(1.0), _summary(1.2), "lower", "regressed"),
        (_summary(1.0), _summary(0.8), "lower", "improved"),
        (_summary(1.0), _summary(0.8), "higher", "regressed"),
        (_summary(1.0, 0.8, 1.2), _summary(1.0), "lower", "unresolved"),
        (_summary(1.0), _summary(2.0, 1.5, 2.5), "lower", "unresolved"),
    ],
)
def test_compare_verdicts(a, b, better, expected):
    assert compare.verdict(a, b, better, 0.1) == expected


def test_failed_frac_regresses_on_any_increase():
    assert compare.verdict(_summary(0.0), _summary(0.001), "lower", None) == "regressed"
    assert compare.verdict(_summary(0.0), _summary(0.0), "lower", None) == "within-bound"


def test_compare_exits_one_on_regression(tmp_path, capsys):
    def document(wall):
        return {"workloads": {"w": {"metrics": {"wall_s": _summary(wall)}}}}

    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(document(1.0)))
    b.write_text(json.dumps(document(1.5)))
    assert compare.main([str(a), str(b)]) == 1
    assert "regressed" in capsys.readouterr().out
    assert compare.main([str(a), str(a)]) == 0


# -- BENCHMARK.json ---------------------------------------------------------------


def test_benchmark_json_matches_what_run_py_produces():
    from workloads import WORKLOADS

    spec = json.loads(BENCHMARK.read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    names = [w["name"] for w in spec["workloads"]]
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layers = {m["name"]: m for m in spec["per_layer"]}
    every = names + list(e2e) + list(layers)
    assert all(NAME.match(name) for name in every)
    assert len(set(every)) == len(every)
    assert 2 <= len(names) <= 8 and 1 <= len(e2e) <= 16 and 1 <= len(layers) <= 128
    assert names == list(WORKLOADS)
    assert all(w["why"] == WORKLOADS[w["name"]].why and len(w["why"]) <= 200
               for w in spec["workloads"])
    for name, metric in e2e.items():
        assert metric["unit"] == run.END_TO_END[name]
        assert 0 < metric["bound"] <= 0.25
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    assert {name: m["unit"] for name, m in layers.items()} == metric_units()
