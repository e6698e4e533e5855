"""Golden fixed-seed experiment reports, gated in CI.

``repro golden`` regenerates a JSON report covering every figure experiment
of the paper — the Fig. 2/3/5 timing shapes, real Fig. 4 training runs
(coded BSP *and* the SSP family, both RNG versions) and the Table II
cluster statistics — at pinned seeds and CI-sized configurations, then
diffs it against the checked-in ``goldens/experiments.json``.  What PR
descriptions used to assert by hand ("fig2-fig5/table2 outputs verified
byte-identical at fixed seeds") is thereby *gated*: any change that
perturbs pinned outputs, or any nondeterminism in the batched paths, fails
the CI ``golden`` job with a structured diff.  The ``rng_version=2`` cells
run through the engine; the engine runs nothing else, so the historical
``rng_version=1`` cells come from the oracle in :mod:`repro._reference`
(:func:`~repro._reference.run_spec_reference`).  ``--include-plugins``
extends the grid to every registry-registered third-party scheme/protocol,
pinning plugin outputs the same way.

Numeric leaves are compared with a tight relative tolerance (default
``1e-9``) rather than textually: RNG streams are bit-stable across
platforms, but matmul-heavy training paths may differ in the last ulp
between BLAS builds, and the golden gate should catch real regressions —
changed schedules, changed stream layouts, changed metrics — not SIMD
dispatch.  Everything non-numeric (structure, iteration counts, metadata
strings, worker sets) must match exactly.
"""

from __future__ import annotations

import json
from typing import Any

from .._reference import run_spec_reference
from ..api import Engine, RunSpec, StragglerSpec

__all__ = [
    "GOLDEN_FORMAT_VERSION",
    "check_golden_report",
    "compare_golden_reports",
    "generate_golden_report",
    "write_golden_report",
]

GOLDEN_FORMAT_VERSION = 1

#: Schemes of the timing figures (Figs. 2/3/5).
_TIMING_SCHEMES: tuple[str, ...] = ("naive", "cyclic", "heter_aware", "group_based")

#: Schemes of the Fig. 4 training comparison (coded BSP + the SSP family).
_TRAINING_SCHEMES: tuple[str, ...] = (
    "naive",
    "cyclic",
    "heter_aware",
    "group_based",
    "ssp",
    "dyn_ssp",
    "async",
)


def _golden_specs() -> list[tuple[str, RunSpec]]:
    """The pinned (name, spec) grid the golden report covers.

    CI-sized on purpose: the report must regenerate in seconds, and the
    byte-level contract of every execution path is shape-independent.
    """
    specs: list[tuple[str, RunSpec]] = []
    for scheme in _TIMING_SCHEMES:
        # Fig. 2 shape: artificial delays on Cluster-A, fault cell included.
        for delay in (0.0, 1.0, float("inf")):
            for rng_version in (1, 2):
                specs.append(
                    (
                        f"fig2/{scheme}/delay={delay}/v{rng_version}",
                        RunSpec(
                            scheme=scheme, cluster="Cluster-A", num_iterations=5,
                            total_samples=2048, seed=0, rng_version=rng_version,
                            straggler=StragglerSpec(
                                "artificial_delay",
                                {"num_stragglers": 1, "delay_seconds": delay},
                            ),
                        ),
                    )
                )
        # Fig. 3 shape: transient slowdowns across clusters.
        for cluster in ("Cluster-A", "Cluster-B"):
            specs.append(
                (
                    f"fig3/{cluster}/{scheme}",
                    RunSpec(
                        scheme=scheme, cluster=cluster, num_iterations=5,
                        total_samples=4096, seed=0, rng_version=1,
                        straggler=StragglerSpec(
                            "transient",
                            {"probability": 0.05, "mean_delay_seconds": 0.5},
                        ),
                    ),
                )
            )
        # Fig. 5 shape: heavier interference, big payloads.
        specs.append(
            (
                f"fig5/{scheme}",
                RunSpec(
                    scheme=scheme, cluster="Cluster-A", num_iterations=5,
                    total_samples=2048, seed=0, gradient_bytes=8.0 * 65536,
                    rng_version=1,
                    straggler=StragglerSpec(
                        "transient", {"probability": 0.2, "mean_delay_seconds": 1.0}
                    ),
                ),
            )
        )
    # Fig. 4 shape: real training, both RNG stream layouts — the v1 cells
    # pin the oracle's per-iteration/per-event loops bit-for-bit, the v2
    # cells pin the batched coded and batched SSP/Async engines.
    for scheme in _TRAINING_SCHEMES:
        for rng_version in (1, 2):
            specs.append(
                (
                    f"fig4/{scheme}/v{rng_version}",
                    RunSpec(
                        mode="training", scheme=scheme, cluster="Cluster-A",
                        workload="nonseparable_blobs", total_samples=256,
                        num_iterations=4, seed=0, rng_version=rng_version,
                        learning_rate=0.5, ssp_staleness=3, ssp_batch_size=8,
                        loss_eval_samples=64,
                        straggler=StragglerSpec(
                            "transient",
                            {"probability": 0.05, "mean_delay_seconds": 0.5},
                        ),
                    ),
                )
            )
    return specs


def _plugin_names() -> tuple[list[str], list[str]]:
    """Registry-registered scheme/protocol names that are not builtins."""
    from ..coding.registry import SCHEME_NAMES, registered_schemes
    from ..protocols.runner import PROTOCOL_NAMES, registered_protocols

    schemes = [s for s in registered_schemes() if s not in SCHEME_NAMES]
    protocols = [p for p in registered_protocols() if p not in PROTOCOL_NAMES]
    return schemes, protocols


def _plugin_specs() -> list[tuple[str, RunSpec]]:
    """Pinned (name, spec) cells for third-party registry plugins.

    ``repro golden --include-plugins`` snapshots every scheme and protocol
    registered beyond the builtins: schemes through a Fig. 2-shaped timing
    run, protocols through a Fig. 4-shaped training run.  Plugins have no
    ``rng_version=1`` history to pin, so their cells run at v2 only,
    through the one timing path, the run-stacked kernel (a single run is a
    1-run stack), and its per-run ``delays_batch``/``compute_times_batch``
    draws, so a stacked-path refactor cannot silently change plugin
    outputs.
    """
    schemes, protocols = _plugin_names()
    specs: list[tuple[str, RunSpec]] = []
    for scheme in schemes:
        specs.append(
            (
                f"plugins/scheme/{scheme}/v2",
                RunSpec(
                    scheme=scheme, cluster="Cluster-A", num_iterations=5,
                    total_samples=2048, seed=0,
                    straggler=StragglerSpec(
                        "artificial_delay",
                        {"num_stragglers": 1, "delay_seconds": 1.0},
                    ),
                ),
            )
        )
    for protocol in protocols:
        specs.append(
            (
                f"plugins/protocol/{protocol}/v2",
                RunSpec(
                    mode="training", scheme=protocol, cluster="Cluster-A",
                    workload="nonseparable_blobs", total_samples=256,
                    num_iterations=4, seed=0,
                    learning_rate=0.5, ssp_staleness=3, ssp_batch_size=8,
                    loss_eval_samples=64,
                    straggler=StragglerSpec(
                        "transient",
                        {"probability": 0.05, "mean_delay_seconds": 0.5},
                    ),
                ),
            )
        )
    return specs


def generate_golden_report(include_plugins: bool = False) -> dict:
    """Run the pinned grid and return the JSON-ready report.

    With ``include_plugins=True`` the report also covers every
    registry-registered third-party scheme/protocol (see
    :func:`_plugin_specs`) and records which plugins were snapshotted under
    a ``"plugins"`` key, so a report generated with plugins loaded fails
    the check against one generated without them (and vice versa).
    """
    from .table2_clusters import run_table2

    # RNG layout -> runner: the engine runs v2, the oracle reproduces v1.
    runners = {1: run_spec_reference, 2: Engine().run}
    specs = _golden_specs()
    if include_plugins:
        specs = specs + _plugin_specs()
    runs: dict[str, dict] = {}
    for name, spec in specs:
        runs[name] = runners[spec.rng_version](spec).to_dict()
    table2 = run_table2(seed=0)
    payload: dict[str, Any] = {
        "format_version": GOLDEN_FORMAT_VERSION,
        "runs": runs,
        "table2": {
            "compositions": {
                name: {str(k): v for k, v in comp.items()}
                for name, comp in table2.compositions.items()
            },
            "num_workers": dict(table2.num_workers),
            "total_vcpus": dict(table2.total_vcpus),
            "heterogeneity_ratio": dict(table2.heterogeneity_ratio),
        },
    }
    if include_plugins:
        schemes, protocols = _plugin_names()
        payload["plugins"] = {"schemes": schemes, "protocols": protocols}
    return payload


def write_golden_report(payload: dict, path: str) -> None:
    """Serialize a golden report (non-finite floats as JSON tokens)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")


def _compare(path: str, golden: Any, current: Any, rtol: float, diffs: list[str]) -> None:
    if len(diffs) >= 200:  # enough signal; keep reports bounded
        return
    if isinstance(golden, dict) and isinstance(current, dict):
        for key in sorted(set(golden) | set(current)):
            if key not in golden:
                diffs.append(f"{path}/{key}: unexpected key (not in golden)")
            elif key not in current:
                diffs.append(f"{path}/{key}: missing key (in golden only)")
            else:
                _compare(f"{path}/{key}", golden[key], current[key], rtol, diffs)
        return
    if isinstance(golden, list) and isinstance(current, list):
        if len(golden) != len(current):
            diffs.append(
                f"{path}: length {len(current)} != golden {len(golden)}"
            )
            return
        for index, (g, c) in enumerate(zip(golden, current)):
            _compare(f"{path}[{index}]", g, c, rtol, diffs)
        return
    golden_num = isinstance(golden, (int, float)) and not isinstance(golden, bool)
    current_num = isinstance(current, (int, float)) and not isinstance(current, bool)
    if golden_num and current_num:
        g, c = float(golden), float(current)
        if g == c or (g != g and c != c):  # equal, or both NaN
            return
        if g != g or c != c:  # exactly one NaN: never silently equal
            diffs.append(f"{path}: {current!r} != golden {golden!r}")
            return
        scale = max(abs(g), abs(c))
        if scale == float("inf"):
            diffs.append(f"{path}: {current!r} != golden {golden!r}")
            return
        if abs(g - c) > rtol * max(scale, 1e-300):
            diffs.append(
                f"{path}: {current!r} != golden {golden!r} "
                f"(rel delta {abs(g - c) / max(scale, 1e-300):.3e})"
            )
        return
    if golden != current:
        diffs.append(f"{path}: {current!r} != golden {golden!r}")


def compare_golden_reports(
    golden: dict, current: dict, rtol: float = 1e-9
) -> tuple[str, list[str]]:
    """Diff two golden reports; return ``(report_text, diff_paths)``.

    Numeric leaves compare with relative tolerance ``rtol``; every other
    leaf (and the structure itself) must match exactly.  Callers exit
    non-zero when ``diff_paths`` is non-empty.
    """
    diffs: list[str] = []
    _compare("", golden, current, rtol, diffs)
    golden_runs = golden.get("runs", {})
    current_runs = current.get("runs", {})
    lines = [
        f"golden check: {len(current_runs)} runs regenerated, "
        f"{len(golden_runs)} in golden, rtol={rtol:g}",
    ]
    if diffs:
        lines.append(f"{len(diffs)} difference(s):")
        lines.extend(f"  {diff}" for diff in diffs[:200])
        if len(diffs) >= 200:
            lines.append("  ... (diff list truncated at 200 entries)")
    else:
        lines.append("no differences — outputs byte-stable at fixed seeds")
    return "\n".join(lines), diffs


def _roundtrip_through_json(payload: dict) -> dict:
    """Regenerated reports pass through JSON before comparing, so in-memory
    types (tuples, numpy scalars, Infinity) normalise exactly like the
    checked-in file's."""
    return json.loads(json.dumps(payload))


def check_golden_report(
    golden_path: str, rtol: float = 1e-9
) -> tuple[str, list[str]]:
    """Regenerate the report and diff it against ``golden_path``.

    The report is regenerated with plugin snapshots exactly when the
    golden file has a ``"plugins"`` section, so a golden checks clean
    against the form it was written in.
    """
    with open(golden_path, encoding="utf-8") as handle:
        golden = json.load(handle)
    current = _roundtrip_through_json(
        generate_golden_report(include_plugins="plugins" in golden)
    )
    return compare_golden_reports(golden, current, rtol=rtol)
