"""Lint driver: discover files, run rules, filter, format, baseline.

:func:`lint_paths` is the programmatic entry point (the CLI ``repro lint``
is a thin wrapper).  It parses every ``.py`` file under the given paths
once, builds the shared :class:`~repro.analysis.context.ProjectContext`
(including the identifier index of the sibling ``tests/`` tree used by
KER001), runs the selected rules, drops suppressed and baselined findings,
and returns a :class:`LintReport`.

Baselines let a new rule land before the tree is clean: ``--update-baseline``
writes the current findings' location-independent fingerprints to a JSON
file, and later runs with ``--baseline`` ignore exactly those.  The repo's
own policy is a clean tree (no checked-in baseline) — the mechanism exists
for downstream forks and for staging new rules.
"""

from __future__ import annotations

import ast
import json
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from .base import RULES, active_rules
from .context import FileContext, ProjectContext, collect_identifiers
from .findings import Finding

__all__ = [
    "LintError",
    "LintReport",
    "lint_paths",
    "format_text",
    "format_json",
    "write_baseline",
]

#: Format version of the JSON report and baseline payloads.
REPORT_FORMAT_VERSION = 1

#: Directories never descended into during file discovery.
_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", ".pytest_cache"}


class LintError(ValueError):
    """Raised on unusable inputs (missing paths, bad baseline files)."""


@dataclass
class LintReport:
    """Outcome of one lint invocation."""

    findings: list[Finding]
    files_scanned: int
    rules_run: tuple[str, ...]
    #: findings dropped via a ``--baseline`` file (count, for the summary)
    baselined: int = 0
    #: parse failures, reported as findings under the pseudo-rule ``PARSE``
    notes: list[str] = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        return 1 if self.findings else 0


def _iter_python_files(paths: Sequence[str | Path]) -> list[Path]:
    files: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if not path.exists():
            raise LintError(f"no such file or directory: {path}")
        if path.is_file():
            if path.suffix == ".py":
                files.append(path)
            continue
        for candidate in sorted(path.rglob("*.py")):
            if any(part in _SKIP_DIRS for part in candidate.parts):
                continue
            files.append(candidate)
    seen: dict[Path, None] = {}
    for path in files:
        seen.setdefault(path.resolve(), None)
    return list(seen)


def _display_path(path: Path) -> str:
    try:
        return path.relative_to(Path.cwd()).as_posix()
    except ValueError:
        return path.as_posix()


def _discover_tests_root(paths: Sequence[str | Path]) -> Path | None:
    """Locate the test tree KER001 cross-references.

    Checked in order: ``tests/`` in the current directory, then ``tests/``
    next to (or above) each linted path.  Returns ``None`` when nothing is
    found — KER001 then skips instead of flagging every kernel.
    """
    candidates = [Path("tests")]
    for raw in paths:
        path = Path(raw).resolve()
        base = path if path.is_dir() else path.parent
        for ancestor in [base, *base.parents]:
            candidates.append(ancestor / "tests")
    for candidate in candidates:
        if candidate.is_dir():
            return candidate
    return None


def _index_test_tree(tests_root: Path) -> dict[str, frozenset[str]]:
    index: dict[str, frozenset[str]] = {}
    for path in sorted(tests_root.rglob("*.py")):
        if any(part in _SKIP_DIRS for part in path.parts):
            continue
        try:
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        except SyntaxError:
            continue  # a broken test file is pytest's problem, not ours
        index[_display_path(path)] = collect_identifiers(tree)
    return index


def lint_paths(
    paths: Sequence[str | Path],
    *,
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
    tests_root: str | Path | None = None,
    baseline: str | Path | None = None,
) -> LintReport:
    """Run the selected rules over ``paths`` and return the report.

    Parameters
    ----------
    paths:
        Files and/or directories to lint (directories are walked for
        ``*.py``, skipping caches).
    select, ignore:
        Rule-id filters (see :func:`repro.analysis.base.active_rules`).
    tests_root:
        Test tree for KER001's kernel/reference pairing; auto-discovered
        (``tests/`` near the linted paths) when omitted.
    baseline:
        JSON baseline file whose fingerprints are subtracted from the
        findings.
    """
    rules = list(active_rules(select, ignore))
    files: list[FileContext] = []
    findings: list[Finding] = []
    notes: list[str] = []
    discovered = _iter_python_files(paths)
    for path in discovered:
        rel = _display_path(path)
        try:
            files.append(FileContext.parse(path, rel))
        except SyntaxError as exc:
            findings.append(
                Finding(
                    path=rel,
                    line=int(exc.lineno or 1),
                    col=int(exc.offset or 0),
                    rule="PARSE",
                    severity="error",
                    message=f"file does not parse: {exc.msg}",
                )
            )

    resolved_tests = Path(tests_root) if tests_root is not None else _discover_tests_root(paths)
    if resolved_tests is not None and not resolved_tests.is_dir():
        raise LintError(f"tests root {resolved_tests} is not a directory")
    test_identifiers = (
        _index_test_tree(resolved_tests) if resolved_tests is not None else None
    )
    if test_identifiers is None and any(
        rule.id == "KER001" for rule in rules
    ):
        notes.append("KER001 skipped: no tests/ tree found (pass --tests-root)")

    project = ProjectContext(files, test_identifiers)
    for ctx in files:
        for rule in rules:
            for finding in rule.check(ctx, project):
                if ctx.is_suppressed(finding.line, finding.rule):
                    continue
                findings.append(finding)

    findings.sort()
    baselined = 0
    if baseline is not None:
        known = _load_baseline(Path(baseline))
        kept: list[Finding] = []
        for finding in findings:
            if _baseline_key(finding.fingerprint()) in known:
                baselined += 1
            else:
                kept.append(finding)
        findings = kept

    return LintReport(
        findings=findings,
        files_scanned=len(discovered),
        rules_run=tuple(rule.id for rule in rules),
        baselined=baselined,
        notes=notes,
    )


# -- baseline ----------------------------------------------------------------

def _baseline_key(fingerprint: dict[str, str]) -> tuple[str, str, str]:
    return (fingerprint["rule"], fingerprint["path"], fingerprint["message"])


def _load_baseline(path: Path) -> set[tuple[str, str, str]]:
    if not path.is_file():
        raise LintError(f"baseline file {path} does not exist")
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
        entries = payload["findings"]
        return {_baseline_key(entry) for entry in entries}
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise LintError(f"baseline file {path} is not a lint baseline: {exc}") from exc


def write_baseline(report: LintReport, path: str | Path) -> None:
    """Write ``report``'s findings as a baseline file for later runs."""
    payload = {
        "format_version": REPORT_FORMAT_VERSION,
        "findings": [finding.fingerprint() for finding in report.findings],
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


# -- output ------------------------------------------------------------------

def format_text(report: LintReport) -> str:
    """Human-readable report: one finding per line plus a summary."""
    lines = [
        f"{finding.location()}: {finding.rule} [{finding.severity}] {finding.message}"
        for finding in report.findings
    ]
    lines.extend(f"note: {note}" for note in report.notes)
    summary = (
        f"{len(report.findings)} finding(s) in {report.files_scanned} file(s) "
        f"({len(report.rules_run)} rule(s): {', '.join(report.rules_run)})"
    )
    if report.baselined:
        summary += f"; {report.baselined} baselined"
    lines.append(summary)
    return "\n".join(lines)


def format_json(report: LintReport) -> str:
    """Machine-readable report (stable shape, ``format_version`` pinned)."""
    payload = {
        "format_version": REPORT_FORMAT_VERSION,
        "files_scanned": report.files_scanned,
        "rules": list(report.rules_run),
        "baselined": report.baselined,
        "notes": list(report.notes),
        "findings": [finding.to_dict() for finding in report.findings],
        "summary": {
            rule_id: sum(1 for f in report.findings if f.rule == rule_id)
            for rule_id in sorted({f.rule for f in report.findings})
        },
    }
    return json.dumps(payload, indent=2)


def list_rules() -> str:
    """Rule table for ``repro lint --list-rules``."""
    lines = ["Registered lint rules:"]
    for rule_id in RULES.names():
        summary = RULES.metadata(rule_id).get("summary", "")
        lines.append(f"  {rule_id:8s} {summary}")
    return "\n".join(lines)
