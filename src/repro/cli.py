"""Command-line interface: regenerate any paper experiment from the shell.

Usage (after ``pip install -e .`` or with ``PYTHONPATH`` set)::

    python -m repro table2
    python -m repro fig2 --stragglers 1 --iterations 20
    python -m repro fig3 --clusters Cluster-B Cluster-C
    python -m repro fig4 --cluster Cluster-A --iterations 12
    python -m repro fig5
    python -m repro optimality --trials 10
    python -m repro estimation-error --errors 0 0.2 0.4
    python -m repro analyze --cluster Cluster-A --stragglers 1
    python -m repro run --scheme heter_aware --iterations 20 --json
    python -m repro run --spec my_run.json
    python -m repro serve --port 8765
    python -m repro plugins

Each figure sub-command runs the corresponding experiment at a configurable
scale and prints its text table, so results can be regenerated without
going through pytest.  All of them, plus the generic
``run`` sub-command, are thin declarative layers over
:class:`repro.api.Engine`: ``run`` executes a single
:class:`repro.api.RunSpec` (from flags or a JSON file) and can emit the full
:class:`repro.api.RunResult` as JSON; ``plugins`` lists everything the
registries currently know.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence

from ._registry import RegistryError
from .api import Engine, RunSpec
from .api.result import json_default
from .api.spec import RUN_MODES
from .api.registry import (
    CLUSTERS,
    NETWORK_MODELS,
    PROTOCOLS,
    SCHEMES,
    STRAGGLER_MODELS,
    WORKLOADS,
)
from .coding.analysis import analyze_strategy
from .coding.registry import build_strategy, natural_partitions
from .experiments import (
    build_cluster,
    report_estimation_error,
    report_fig2,
    report_fig3,
    report_fig4,
    report_fig5,
    report_optimality_sweep,
    report_table2,
    run_estimation_error_sweep,
    run_fig2,
    run_fig3,
    run_fig4,
    run_fig5,
    run_optimality_sweep,
    run_table2,
)
from .metrics import format_table

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Heterogeneity-aware Gradient Coding for "
            "Straggler Tolerance' (ICDCS 2019): regenerate the paper's "
            "tables and figures."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("table2", help="Table II: cluster configurations")

    fig2 = subparsers.add_parser(
        "fig2", help="Fig. 2: straggler-delay sweep on Cluster-A"
    )
    fig2.add_argument("--stragglers", type=int, default=1, help="s (1 for Fig. 2a, 2 for 2b)")
    fig2.add_argument("--iterations", type=int, default=20)
    fig2.add_argument("--samples", type=int, default=2048, help="samples per iteration")
    fig2.add_argument("--cluster", default="Cluster-A")
    fig2.add_argument("--seed", type=int, default=0)

    fig3 = subparsers.add_parser(
        "fig3", help="Fig. 3: scheme comparison across clusters"
    )
    fig3.add_argument(
        "--clusters",
        nargs="+",
        default=["Cluster-B", "Cluster-C", "Cluster-D"],
    )
    fig3.add_argument("--iterations", type=int, default=20)
    fig3.add_argument("--samples", type=int, default=4096)
    fig3.add_argument("--seed", type=int, default=0)

    fig4 = subparsers.add_parser(
        "fig4", help="Fig. 4: loss vs wall-clock time (runs full training)"
    )
    fig4.add_argument("--cluster", default="Cluster-C")
    fig4.add_argument("--workload", default="nonseparable_blobs")
    fig4.add_argument("--samples", type=int, default=1024)
    fig4.add_argument("--iterations", type=int, default=15)
    fig4.add_argument("--learning-rate", type=float, default=0.5)
    fig4.add_argument("--seed", type=int, default=0)

    fig5 = subparsers.add_parser("fig5", help="Fig. 5: computing resource usage")
    fig5.add_argument("--cluster", default="Cluster-A")
    fig5.add_argument("--iterations", type=int, default=20)
    fig5.add_argument("--samples", type=int, default=2048)
    fig5.add_argument("--seed", type=int, default=0)

    optimality = subparsers.add_parser(
        "optimality", help="Theorem 5 ablation: makespan vs lower bound"
    )
    optimality.add_argument("--trials", type=int, default=10)
    optimality.add_argument("--workers", type=int, default=8)
    optimality.add_argument("--stragglers", type=int, default=1)
    optimality.add_argument("--seed", type=int, default=0)

    estimation = subparsers.add_parser(
        "estimation-error", help="Section V ablation: noisy throughput estimates"
    )
    estimation.add_argument(
        "--errors", nargs="+", type=float, default=[0.0, 0.1, 0.2, 0.4]
    )
    estimation.add_argument("--cluster", default="Cluster-A")
    estimation.add_argument("--iterations", type=int, default=20)
    estimation.add_argument("--seed", type=int, default=0)

    run = subparsers.add_parser(
        "run",
        help="execute one declarative RunSpec through the Engine",
        description=(
            "Execute a single run. Either load a full RunSpec from --spec "
            "(a JSON file produced by RunSpec.to_json) or assemble one from "
            "the flags below."
        ),
    )
    run.add_argument("--spec", help="path to a RunSpec JSON file ('-' for stdin)")
    run.add_argument("--scheme", default="heter_aware")
    run.add_argument("--mode", choices=("timing", "training"), default="timing")
    run.add_argument("--cluster", default="Cluster-A")
    run.add_argument("--workload", default="nonseparable_blobs")
    run.add_argument("--iterations", type=int, default=20)
    run.add_argument("--samples", type=int, default=None)
    run.add_argument("--stragglers", type=int, default=1)
    run.add_argument("--partitions", type=int, default=None, help="explicit k")
    run.add_argument("--multiplier", type=int, default=2,
                     help="k / m for the heterogeneity-aware family")
    run.add_argument("--straggler-model", default="none",
                     help="registered straggler kind (none, artificial_delay, ...)")
    run.add_argument("--straggler-params", default=None, metavar="JSON",
                     help="JSON object of parameters for --straggler-model, "
                          "e.g. '{\"probability\": 0.1}'")
    run.add_argument("--delay", type=float, default=None,
                     help="delay_seconds shortcut for --straggler-model artificial_delay")
    run.add_argument("--learning-rate", type=float, default=0.1)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--executor", default=None, metavar="NAME",
                     help="executor to route the run through "
                          "(process, cached); default runs in-process")
    run.add_argument("--store", default=None, metavar="DIR",
                     help="answer the run from this run-store directory when "
                          "cached, computing and writing back otherwise "
                          "(routes through the 'cached' executor)")
    run.add_argument("--json", action="store_true",
                     help="print the full RunResult as JSON (with the spec "
                          "fingerprint) instead of a summary table")

    subparsers.add_parser(
        "plugins", help="list every registered scheme, protocol, cluster, ..."
    )

    serve = subparsers.add_parser(
        "serve",
        help="run the sweep server: engine-as-a-service over the run store",
        description=(
            "Serve POST /run, POST /sweep and GET /result/<fingerprint> over "
            "HTTP.  Results are answered from the content-addressed run "
            "store when present and computed through the normal engine path "
            "(written back) otherwise, so resubmitting identical work is "
            "free.  See repro.api.client.ServiceClient for the programmatic "
            "side."
        ),
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8765,
                       help="TCP port (0 picks a free one; the bound address "
                            "is printed on startup)")
    serve.add_argument("--store", default=None, metavar="DIR",
                       help="run-store directory (default: $REPRO_STORE_DIR "
                            "or ~/.cache/repro/run_store)")

    golden = subparsers.add_parser(
        "golden",
        help="regenerate the fixed-seed golden experiment report (or check it)",
        description=(
            "Run the pinned fig2-fig5/table2 experiment grid at fixed seeds "
            "and either write the JSON report (--output) or diff it against "
            "a checked-in golden file (--check), exiting non-zero on any "
            "difference.  This gates the byte-stability of every execution "
            "path in CI; the rng_version=1 cells come from the "
            "repro._reference oracle."
        ),
    )
    golden.add_argument("--output", default=None, metavar="PATH",
                        help="write the regenerated report to this path")
    golden.add_argument("--check", default=None, metavar="GOLDEN_JSON",
                        help="diff the regenerated report against this file; "
                             "exit 1 on differences")
    golden.add_argument("--diff-output", default=None, metavar="PATH",
                        help="with --check: also write the diff report here "
                             "(uploaded as a CI artifact on failure)")
    golden.add_argument("--rtol", type=float, default=1e-9,
                        help="relative tolerance for numeric leaves "
                             "(default 1e-9; structure and non-numeric "
                             "leaves must match exactly)")
    golden.add_argument("--include-plugins", action="store_true",
                        help="also snapshot every registry-registered "
                             "third-party scheme/protocol (and record their "
                             "names), so plugin outputs are golden-gated too; "
                             "--check decides this from the golden file (it "
                             "snapshots plugins iff the file has a plugins "
                             "section), so the flag changes nothing there")

    lint = subparsers.add_parser(
        "lint",
        help="repro lint: AST checks enforcing the repo's determinism contracts",
        description=(
            "Run the static-analysis rules (RNG/registry/frozen-spec/"
            "batched-kernel contracts — see README 'Static analysis') over "
            "the given files or directories.  Exits 1 when findings remain "
            "after suppressions and the baseline, 0 on a clean tree."
        ),
    )
    lint.add_argument("paths", nargs="*", default=["src"],
                      help="files/directories to lint (default: src)")
    lint.add_argument("--select", default=None, metavar="RULES",
                      help="comma-separated rule ids to run (default: all)")
    lint.add_argument("--ignore", default=None, metavar="RULES",
                      help="comma-separated rule ids to skip")
    lint.add_argument("--format", choices=("text", "json"), default="text",
                      help="report format (default: text)")
    lint.add_argument("--output", default=None, metavar="PATH",
                      help="also write the report to this file "
                           "(uploaded as a CI artifact on failure)")
    lint.add_argument("--baseline", default=None, metavar="PATH",
                      help="ignore findings recorded in this baseline JSON")
    lint.add_argument("--update-baseline", default=None, metavar="PATH",
                      help="write the current findings to PATH as the new "
                           "baseline and exit 0")
    lint.add_argument("--tests-root", default=None, metavar="DIR",
                      help="test tree for KER001's kernel/reference pairing "
                           "(default: auto-discovered tests/)")
    lint.add_argument("--list-rules", action="store_true",
                      help="list the registered rules and exit")

    analyze = subparsers.add_parser(
        "analyze", help="static analysis of every scheme on one cluster"
    )
    analyze.add_argument("--cluster", default="Cluster-A")
    analyze.add_argument("--stragglers", type=int, default=1)
    analyze.add_argument("--multiplier", type=int, default=2,
                         help="k / m for the heterogeneity-aware family")
    analyze.add_argument("--seed", type=int, default=0)

    return parser


def _command_table2(_: argparse.Namespace) -> str:
    return report_table2(run_table2())


def _command_fig2(args: argparse.Namespace) -> str:
    result = run_fig2(
        num_stragglers=args.stragglers,
        cluster_name=args.cluster,
        num_iterations=args.iterations,
        total_samples=args.samples,
        seed=args.seed,
    )
    return report_fig2(result)


def _command_fig3(args: argparse.Namespace) -> str:
    result = run_fig3(
        clusters=tuple(args.clusters),
        num_iterations=args.iterations,
        total_samples=args.samples,
        seed=args.seed,
    )
    return report_fig3(result)


def _command_fig4(args: argparse.Namespace) -> str:
    result = run_fig4(
        cluster_name=args.cluster,
        workload=args.workload,
        num_samples=args.samples,
        num_iterations=args.iterations,
        learning_rate=args.learning_rate,
        seed=args.seed,
    )
    return report_fig4(result)


def _command_fig5(args: argparse.Namespace) -> str:
    result = run_fig5(
        cluster_name=args.cluster,
        num_iterations=args.iterations,
        total_samples=args.samples,
        seed=args.seed,
    )
    return report_fig5(result)


def _command_optimality(args: argparse.Namespace) -> str:
    result = run_optimality_sweep(
        num_trials=args.trials,
        num_workers=args.workers,
        num_stragglers=args.stragglers,
        seed=args.seed,
    )
    return report_optimality_sweep(result)


def _command_estimation_error(args: argparse.Namespace) -> str:
    result = run_estimation_error_sweep(
        error_levels=tuple(args.errors),
        cluster_name=args.cluster,
        num_iterations=args.iterations,
        seed=args.seed,
    )
    return report_estimation_error(result)


def _command_run(args: argparse.Namespace) -> str:
    if args.spec:
        if args.spec == "-":
            text = sys.stdin.read()
        else:
            with open(args.spec, encoding="utf-8") as handle:
                text = handle.read()
        spec = RunSpec.from_json(text)
    else:
        straggler_model = args.straggler_model
        straggler_params: dict = (
            json.loads(args.straggler_params) if args.straggler_params else {}
        )
        if args.delay is not None:
            straggler_model = "artificial_delay"
            straggler_params.setdefault("delay_seconds", args.delay)
        if straggler_model == "artificial_delay":
            # keep the injector consistent with the tolerance the coded
            # schemes are built for unless the user pinned it explicitly
            straggler_params.setdefault("num_stragglers", args.stragglers)
        spec = RunSpec(
            scheme=args.scheme,
            mode=args.mode,
            cluster=args.cluster,
            workload=args.workload,
            num_iterations=args.iterations,
            total_samples=args.samples,
            num_stragglers=args.stragglers,
            num_partitions=args.partitions,
            partitions_multiplier=args.multiplier,
            straggler={"kind": straggler_model, "params": straggler_params},
            learning_rate=args.learning_rate,
            seed=args.seed,
        )
    if args.store:
        from .api.executors import CachedExecutor

        cached = CachedExecutor(inner=args.executor, store_path=args.store)
        result = Engine().run_many([spec], executor=cached)[0]
    elif args.executor:
        result = Engine().run_many([spec], executor=args.executor)[0]
    else:
        result = Engine().run(spec)
    if args.json:
        # The fingerprint rides along as extra output metadata so CLI users
        # can correlate results with run-store entries; RunResult.from_dict
        # ignores it on the way back in.
        payload = result.to_dict()
        payload["fingerprint"] = spec.fingerprint()
        return json.dumps(payload, indent=2, default=json_default)
    summary = result.summary()
    rows = [[key, value] for key, value in summary.items()]
    return format_table(
        ["metric", "value"],
        rows,
        precision=4,
        title=f"RunSpec({spec.scheme}, {spec.mode}, {spec.cluster}, seed={spec.seed})",
    )


def _command_golden(args: argparse.Namespace):
    from .experiments.golden import (
        check_golden_report,
        generate_golden_report,
        write_golden_report,
    )

    if args.check:
        text, diffs = check_golden_report(args.check, rtol=args.rtol)
        if args.diff_output:
            with open(args.diff_output, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
            text += f"\nwrote diff report to {args.diff_output}"
        return text, (1 if diffs else 0)
    payload = generate_golden_report(include_plugins=args.include_plugins)
    text = (
        f"golden report: {len(payload['runs'])} runs + table2 "
        f"(format v{payload['format_version']})"
    )
    if args.output:
        write_golden_report(payload, args.output)
        text += f"\nwrote {args.output}"
    return text


def _command_lint(args: argparse.Namespace):
    from .analysis import LintError, format_json, format_text, lint_paths, list_rules
    from .analysis import write_baseline as write_lint_baseline

    if args.list_rules:
        return list_rules()
    def split(value: str | None) -> list[str] | None:
        if not value:
            return None
        return [part.strip() for part in value.split(",") if part.strip()]

    try:
        report = lint_paths(
            args.paths,
            select=split(args.select),
            ignore=split(args.ignore),
            tests_root=args.tests_root,
            baseline=args.baseline,
        )
    except (LintError, RegistryError) as exc:
        return f"repro lint: error: {exc}", 2
    if args.update_baseline:
        write_lint_baseline(report, args.update_baseline)
        return (
            f"wrote baseline with {len(report.findings)} finding(s) to "
            f"{args.update_baseline}"
        ), 0
    text = format_json(report) if args.format == "json" else format_text(report)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        if args.format == "json":
            text = format_text(report) + f"\nwrote {args.output}"
        else:
            text += f"\nwrote {args.output}"
    return text, report.exit_code


def _command_serve(args: argparse.Namespace) -> str:
    from .serve import make_server

    server = make_server(host=args.host, port=args.port, store_path=args.store)
    host, port = server.server_address[0], server.server_address[1]
    print(
        f"repro serve: listening on http://{host}:{port} "
        f"(store: {args.store or 'default'})",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return ""


def _command_plugins(_: argparse.Namespace) -> str:
    sections = [
        ("schemes", SCHEMES.names()),
        ("protocols", PROTOCOLS.names()),
        ("clusters", CLUSTERS.names()),
        ("workloads", WORKLOADS.names()),
        ("straggler models", STRAGGLER_MODELS.names()),
        ("network models", NETWORK_MODELS.names()),
        ("execution modes", RUN_MODES),
    ]
    lines = ["Registered plugins:"]
    for label, names in sections:
        lines.append(f"  {label:18s} {', '.join(names)}")
    return "\n".join(lines)


def _command_analyze(args: argparse.Namespace) -> str:
    cluster = build_cluster(args.cluster, rng=args.seed)
    rows = []
    for scheme in ("naive", "cyclic", "heter_aware", "group_based"):
        k = natural_partitions(scheme, cluster.num_workers, args.multiplier)
        strategy = build_strategy(
            scheme,
            throughputs=cluster.estimated_throughputs,
            num_partitions=k,
            num_stragglers=0 if scheme == "naive" else args.stragglers,
            rng=args.seed,
        )
        analysis = analyze_strategy(strategy, cluster.true_throughputs)
        rows.append(
            [
                scheme,
                analysis.num_partitions,
                analysis.replication_factor,
                analysis.load_balance,
                analysis.storage_fraction,
                analysis.workers_needed_worst_case,
                analysis.workers_needed_best_case,
                analysis.num_groups,
            ]
        )
    return format_table(
        [
            "scheme",
            "k",
            "replication",
            "load balance",
            "max storage",
            "workers (worst)",
            "workers (best)",
            "groups",
        ],
        rows,
        precision=3,
        title=f"Static strategy analysis on {cluster.name} (s={args.stragglers})",
    )


_COMMANDS = {
    "table2": _command_table2,
    "fig2": _command_fig2,
    "fig3": _command_fig3,
    "fig4": _command_fig4,
    "fig5": _command_fig5,
    "optimality": _command_optimality,
    "estimation-error": _command_estimation_error,
    "analyze": _command_analyze,
    "run": _command_run,
    "lint": _command_lint,
    "plugins": _command_plugins,
    "serve": _command_serve,
    "golden": _command_golden,
}


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code.

    Handlers return either the text to print or a ``(text, exit_code)``
    pair (used by ``golden --check`` to signal a diff and by ``lint`` to
    signal findings or a usage error).
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = _COMMANDS[args.command]
    outcome = handler(args)
    text, code = outcome if isinstance(outcome, tuple) else (outcome, 0)
    print(text)
    return code


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
