"""Compare two results files of ``bench/run.py``, metric by metric.

Usage::

    python3 bench/compare.py A.json B.json

``A`` is the baseline and ``B`` the candidate.  For every workload in both
files and every end-to-end metric, one row shows both medians, both
quartile ranges and a verdict against the metric's bound in
``BENCHMARK.json``:

``unresolved``
    either side's spread, ``(q3 - q1) / median``, is wider than the bound;
``regressed``
    B is worse than A by more than the bound;
``improved``
    B is better than A by more than the bound;
``within-bound``
    otherwise.

``failed_frac`` is not in ``BENCHMARK.json`` (it must be 0, and that file
lists only metrics that are never 0): any increase is a regression.  The
exit status is 1 if any row regressed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_bounds(path: Path = BENCHMARK) -> dict[str, tuple[str, float | None]]:
    """Metric name -> (which direction is better, bound as a share)."""
    spec = json.loads(path.read_text())
    bounds: dict[str, tuple[str, float | None]] = {
        metric["name"]: (metric["better"], metric["bound"]) for metric in spec["end_to_end"]
    }
    bounds["failed_frac"] = ("lower", None)
    return bounds


def spread(summary: dict) -> float:
    median = summary["median"]
    return (summary["q3"] - summary["q1"]) / median if median else 0.0


def verdict(a: dict, b: dict, better: str, bound: float | None) -> str:
    """Verdict for candidate summary ``b`` against baseline summary ``a``."""
    if bound is None:
        return "regressed" if b["median"] > a["median"] else "within-bound"
    if max(spread(a), spread(b)) > bound:
        return "unresolved"
    change = (b["median"] - a["median"]) / a["median"]
    worse = change if better == "lower" else -change
    if worse > bound:
        return "regressed"
    if worse < -bound:
        return "improved"
    return "within-bound"


def compare(a: dict, b: dict, bounds: dict[str, tuple[str, float | None]]) -> list[dict]:
    rows = []
    for workload, a_result in a["workloads"].items():
        b_result = b["workloads"].get(workload)
        if b_result is None:
            continue
        for metric, (better, bound) in bounds.items():
            a_summary = a_result["metrics"].get(metric)
            b_summary = b_result["metrics"].get(metric)
            if a_summary is None or b_summary is None:
                continue
            rows.append({
                "workload": workload,
                "metric": metric,
                "unit": a_summary["unit"],
                "a": a_summary,
                "b": b_summary,
                "bound": bound,
                "verdict": verdict(a_summary, b_summary, better, bound),
            })
    return rows


def _cell(summary: dict) -> str:
    return f"{summary['median']:.5g} [{summary['q1']:.5g}, {summary['q3']:.5g}]"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("baseline", type=Path)
    parser.add_argument("candidate", type=Path)
    args = parser.parse_args(argv)
    a = json.loads(args.baseline.read_text())
    b = json.loads(args.candidate.read_text())
    rows = compare(a, b, load_bounds())
    print(f"{'workload':<16} {'metric':<12} {'unit':<13} {'A median [q1, q3]':<34} "
          f"{'B median [q1, q3]':<34} {'change':>8} {'bound':>7}  verdict")
    for row in rows:
        a_median = row["a"]["median"]
        change = (row["b"]["median"] - a_median) / a_median if a_median else 0.0
        bound = "any" if row["bound"] is None else f"{row['bound']:.0%}"
        print(f"{row['workload']:<16} {row['metric']:<12} {row['unit']:<13} "
              f"{_cell(row['a']):<34} {_cell(row['b']):<34} {change:>+8.1%} {bound:>7}  "
              f"{row['verdict']}")
    return 1 if any(row["verdict"] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
