"""Paper-workload benchmark: absolute wall time per workload, per-layer self time.

Usage (from the repository root)::

    python3 bench/run.py                      # every workload, tracing off
    python3 bench/run.py --trace              # every workload, per-layer spans
    python3 bench/run.py --workload fig2_cells --seed 3 --seconds 6 --trace 0

Each workload runs in fresh Python processes, one at a time, with the BLAS
pools pinned to one thread.  A process builds the inputs from the seed, runs
one untimed warm-up pass, then timed passes until its share of ``--seconds``
is spent.  Set-up time is measured in every process, so one invocation sets
up :data:`PROCESSES` times and reports the median.

The run prints every metric with its unit, sample count and quartiles, and
writes a results JSON (``bench/results/`` unless ``--out`` is given) that
``bench/compare.py`` reads.  With a single ``--workload``, the last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (the end-to-end metrics, or the per-layer ones with
``--trace 1``).  The exit status is 1 if any output check failed and 2 if
the benchmark itself could not run.

``repro`` is imported from the ``src/`` directory next to ``bench/``, unless
``PYTHONPATH`` provides one first (for measuring another checkout).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from spans import COUNTERS, TARGETS, SpanRecorder, Tracing, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: BLAS thread pools are sized when numpy loads, so this is set before that.
BLAS_ENV = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                   "MKL_NUM_THREADS")}
#: Fresh processes per workload; each one sets up once and times passes.
PROCESSES = 3
#: All processes of one workload must end within this; else the run fails.
WORKLOAD_TIMEOUT_S = 170.0

#: End-to-end metrics and their units; ``failed_frac`` must stay 0.
END_TO_END = {
    "wall_s": "s",
    "iters_per_s": "iterations/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "failed_frac": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summary(values: list[float], unit: str) -> dict:
    q1, median, q3 = quartiles(values)
    return {"unit": unit, "n": len(values), "median": median, "q1": q1, "q3": q3}


# ---------------------------------------------------------------------------
# one process: set up, warm up, time passes
# ---------------------------------------------------------------------------


class ReproHooks:
    """What the pass loop reads from and resets in ``repro`` between passes."""

    def __init__(self) -> None:
        from repro.api import Engine

        self.engine = Engine
        try:
            from repro.protocols.ssp import replay_clock
        except ImportError:
            replay_clock = None
        self.replay_clock = replay_clock

    def reset(self) -> None:
        """Every pass pays decoder builds and decode-order memoisation."""
        self.engine.clear_timing_kernel_cache()
        if self.replay_clock is not None:
            self.replay_clock.seconds = 0.0

    def counters(self) -> dict[str, float]:
        cache = self.engine.timing_kernel_cache()
        replay = self.replay_clock.seconds if self.replay_clock is not None else 0.0
        return {"kernel_hits": cache.hits, "kernel_misses": cache.misses, "replay_s": replay}


def _one_pass(workload, hooks, tracing=None):
    workload.before_pass()
    hooks.reset()
    gc.collect()
    with tracing if tracing is not None else contextlib.nullcontext():
        start = time.perf_counter()
        results = workload.run_pass()
        wall = time.perf_counter() - start
    return results, wall, workload.after_pass()


def measure(workload, hooks, digest, seconds: float, trace: bool, final_checks: bool,
            t0: float) -> dict:
    """Warm up, then time passes for about ``seconds``; returns the process report.

    ``digest`` maps a result to a string; every timed pass must reproduce the
    warm-up pass's digests run for run.  With ``trace`` every second pass is
    traced.  ``t0`` is the ``time.monotonic()`` reading taken when the
    process was started.
    """
    start = time.perf_counter()
    results, _, failures = _one_pass(workload, hooks)
    reference = [digest(result) for result in results]
    setup_s = time.monotonic() - t0
    # How long one loop step takes; a pass starts only if it should end in time.
    steps = [time.perf_counter() - start]
    attempted = len(reference)
    failed = pass_failed = len(reference) if failures else 0
    passes: list[dict] = []
    span_totals: dict[str, list[float]] = {}
    counter_totals: dict[str, float] = {}
    recorder = SpanRecorder()
    deadline = time.perf_counter() + seconds
    min_passes = 2 if trace else 1
    while (len(passes) < min_passes
           or time.perf_counter() + statistics.median(steps) <= deadline):
        start = time.perf_counter()
        traced = trace and len(passes) % 2 == 1
        results = None
        attempted += len(reference)
        try:
            results, wall, counter_failures = _one_pass(
                workload, hooks, Tracing(recorder) if traced else None
            )
        except Exception:
            failures.append(traceback.format_exc())
            failed += len(reference)
            break
        digests = [digest(result) for result in results]
        mismatched = len(reference) - sum(a == b for a, b in zip(digests, reference))
        if mismatched:
            failures.append(f"{mismatched} runs differ from the warm-up pass")
        failures.extend(counter_failures)
        pass_failed = len(reference) if counter_failures else mismatched
        failed += pass_failed
        iterations = sum(len(result.trace.durations) for result in results)
        passes.append({"wall_s": wall, "iterations": iterations, "traced": traced})
        if traced:
            for name, (span_s, calls) in self_times(recorder.drain()).items():
                total = span_totals.setdefault(name, [0.0, 0])
                total[0] += span_s
                total[1] += calls
            pass_counters = {**hooks.counters(), **workload.counters(),
                             "iterations": iterations, "wall_s": wall}
            for key, value in pass_counters.items():
                counter_totals[key] = counter_totals.get(key, 0.0) + value
        steps.append(time.perf_counter() - start)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if final_checks and results is not None:
        check_failures = workload.check(results)
        if check_failures:
            failures.extend(check_failures)
            failed += len(results) - pass_failed  # the last pass's runs
    return {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "passes": passes,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "spans": span_totals,
        "counters": counter_totals,
    }


def _git_sha(directory: Path) -> str:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(directory.parent)}
    try:
        out = subprocess.run(
            ["git", "-C", str(directory), "rev-parse", "HEAD"],
            capture_output=True, text=True, env=env, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment() -> dict:
    """What the numbers were measured on, and which ``repro`` was measured."""
    import numpy
    import repro

    package = Path(repro.__file__).resolve().parent
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": {name: os.environ.get(name) for name in BLAS_ENV},
        "git_sha": _git_sha(package.parents[1]),
        "repro": str(package),
    }


def child_main(args: argparse.Namespace) -> int:
    import warnings

    from repro.experiments.common import SampleCountDriftWarning
    from workloads import WORKLOADS, run_digest

    warnings.simplefilter("ignore", SampleCountDriftWarning)
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.child](args.seed, workdir)
    report = measure(workload, ReproHooks(), run_digest, args.seconds,
                     bool(args.trace), args.final_checks, args.t0)
    print(json.dumps(report))
    return 0


# ---------------------------------------------------------------------------
# the coordinator: one workload at a time, PROCESSES fresh processes each
# ---------------------------------------------------------------------------


def spawn_child(workload: str, seed: int, seconds: float, trace: bool,
                final_checks: bool, workdir: Path, timeout: float) -> dict:
    """Run one measuring process and return its report."""
    command = [
        sys.executable, str(HERE / "run.py"), "--child", workload,
        "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(int(trace)),
        "--workdir", str(workdir / workload),
    ]
    if final_checks:
        command.append("--final-checks")
    env = {**os.environ, "TMPDIR": str(workdir)}
    t0 = time.monotonic()
    try:
        done = subprocess.run(
            [*command, "--t0", repr(t0)], stdout=subprocess.PIPE, text=True,
            env=env, cwd=ROOT, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: ran out of its {WORKLOAD_TIMEOUT_S:.0f} s") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"{workload}: process exited with status {done.returncode}")
    return json.loads(lines[-1])


def per_layer(reports: list[dict], untraced_wall: float) -> dict[str, dict]:
    """Per-pass self time and calls of every span, plus the counters."""
    traced = sum(1 for r in reports for p in r["passes"] if p["traced"])
    spans: dict[str, list[float]] = {}
    counters: dict[str, float] = {}
    for report in reports:
        for name, (seconds, calls) in report["spans"].items():
            total = spans.setdefault(name, [0.0, 0])
            total[0] += seconds
            total[1] += calls
        for key, value in report["counters"].items():
            counters[key] = counters.get(key, 0.0) + value
    out: dict[str, dict] = {}
    for target in TARGETS:
        seconds, calls = spans.get(target.name, (0.0, 0))
        out[f"{target.name}.self_s"] = {"value": seconds / traced, "unit": "s"}
        out[f"{target.name}.calls"] = {"value": calls / traced, "unit": "count"}

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def count(key: str) -> float:
        return counters.get(key, 0.0)

    prefix_calls = spans.get("coding.Decoder.earliest_decodable_prefix", (0.0, 0))[1]
    traced_walls = [p["wall_s"] for r in reports for p in r["passes"] if p["traced"]]
    values = {
        "protocols.ssp.replay_s": count("replay_s") / traced,
        "simulation.kernel_cache.hit_frac": ratio(
            count("kernel_hits"), count("kernel_hits") + count("kernel_misses")),
        "coding.decode_memo.hit_frac": 1.0 - ratio(prefix_calls, count("iterations")),
        "store.cached.hit_frac": ratio(
            count("cached_hits"), count("cached_hits") + count("cached_misses")),
        "store.bytes_written": count("bytes_written") / traced,
        "unattributed_frac": 1.0 - ratio(sum(s for s, _ in spans.values()), count("wall_s")),
        "trace_overhead_frac": statistics.median(traced_walls) / untraced_wall - 1.0,
    }
    for name, value in values.items():
        out[name] = {"value": value, "unit": COUNTERS[name]}
    return out


def aggregate(reports: list[dict], trace: bool) -> dict:
    """One workload's metrics from its process reports."""
    untraced = [p for r in reports for p in r["passes"] if not p["traced"]]
    walls = [p["wall_s"] for p in untraced]
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    frac = failed / attempted
    metrics = {
        "wall_s": summary(walls, END_TO_END["wall_s"]),
        "iters_per_s": summary(
            [p["iterations"] / p["wall_s"] for p in untraced], END_TO_END["iters_per_s"]),
        "setup_s": summary([r["setup_s"] for r in reports], END_TO_END["setup_s"]),
        "peak_rss_mb": summary([r["peak_rss_mb"] for r in reports], END_TO_END["peak_rss_mb"]),
        "failed_frac": {"unit": "ratio", "n": attempted, "median": frac, "q1": frac, "q3": frac},
    }
    out = {
        "metrics": metrics,
        "wall_samples": walls,
        "attempted": attempted,
        "failed": failed,
        "failures": [f for r in reports for f in r["failures"]],
    }
    if trace:
        out["per_layer"] = per_layer(reports, metrics["wall_s"]["median"])
    return out


def print_workload(name: str, result: dict) -> None:
    print(f"== {name}  (attempted {result['attempted']}, failed {result['failed']})")
    for metric, s in result["metrics"].items():
        print(f"  {metric:<12} {s['median']:>14.6g} {s['unit']:<13} n={s['n']:<5} "
              f"q1={s['q1']:.6g} q3={s['q3']:.6g}")
    for failure in result["failures"]:
        print(f"  FAILED: {failure.strip()}")
    layers = result.get("per_layer")
    if layers:
        spans = sorted(
            (name[: -len(".self_s")] for name in layers if name.endswith(".self_s")),
            key=lambda span: -layers[f"{span}.self_s"]["value"],
        )
        print(f"  {'span':<52} {'self_s/pass':>12} {'calls/pass':>11}")
        for span in spans:
            calls = layers[f"{span}.calls"]["value"]
            if calls:
                print(f"  {span:<52} {layers[f'{span}.self_s']['value']:>12.6f} {calls:>11.1f}")
        for key, entry in layers.items():
            if not key.endswith((".self_s", ".calls")):
                print(f"  {key:<52} {entry['value']:>12.6g} {entry['unit']}")


def result_line(result: dict, trace: bool) -> str:
    """The last stdout line of a single-workload run."""
    if trace:
        metrics = result["per_layer"]
    else:
        metrics = {
            name: {"value": s["median"], "unit": s["unit"]}
            for name, s in result["metrics"].items()
            if name != "failed_frac"
        }
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0,
                        help="offset added to every workload seed")
    parser.add_argument("--seconds", type=float, default=6.0,
                        help="timed seconds per workload, split over the processes")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="report per-layer spans instead of end-to-end metrics")
    parser.add_argument("--out", help="results JSON path (default: bench/results/)")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    parser.add_argument("--final-checks", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.environ.update(BLAS_ENV)
    pythonpath = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    # After any PYTHONPATH entries, so those win; before site-packages.
    sys.path.insert(1 + len(pythonpath), str(ROOT / "src"))
    if args.child:
        return child_main(args)

    try:
        from workloads import WORKLOADS
    except ImportError as exc:
        print(f"cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    names = args.workload or list(WORKLOADS)
    unknown = sorted(set(names) - set(WORKLOADS))
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; choose from {list(WORKLOADS)}")
    trace = bool(args.trace)
    workdir = HERE / ".work" / str(os.getpid())
    results: dict[str, dict] = {}
    try:
        for name in names:
            deadline = time.monotonic() + WORKLOAD_TIMEOUT_S
            reports = [
                spawn_child(name, args.seed, args.seconds / PROCESSES, trace,
                            index == PROCESSES - 1, workdir,
                            timeout=max(1.0, deadline - time.monotonic()))
                for index in range(PROCESSES)
            ]
            results[name] = aggregate(reports, trace)
            print_workload(name, results[name])
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    document = {
        "env": environment(),
        "seed": args.seed,
        "seconds": args.seconds,
        "processes": PROCESSES,
        "trace": trace,
        "workloads": results,
    }
    if args.out:
        out = Path(args.out)
    else:
        label = names[0] if len(names) == 1 else "all"
        stamp = time.strftime("%Y%m%dT%H%M%S")
        out = HERE / "results" / f"{stamp}-{label}-seed{args.seed}{'-trace' if trace else ''}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(document, indent=2) + "\n")
    print(f"results: {out}")
    correct = all(result["failed"] == 0 for result in results.values())
    if len(names) == 1:
        print(result_line(results[names[0]], trace))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
