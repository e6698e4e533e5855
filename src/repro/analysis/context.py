"""Shared per-file and per-project state for the lint rules.

The runner parses every file exactly once into a :class:`FileContext`
(source, AST, suppression comments) and aggregates them into one
:class:`ProjectContext`.  Cross-file rules — registry reachability
(``REG001``) and batched-kernel test pairing (``KER001``) — read the
project-level indexes built here instead of re-walking trees themselves:

* :meth:`ProjectContext.classes` — every class defined in the linted files,
  with syntactic base names and decorator names;
* :meth:`ProjectContext.subclasses_of` — transitive closure over those base
  names;
* :meth:`ProjectContext.registrar_reference_names` — every identifier
  referenced in a *registrar* module (one that calls ``register_*`` or
  ``<REGISTRY>.add``), the set REG001 resolves "reachable from a registry"
  against;
* :attr:`ProjectContext.test_identifiers` — identifier sets per test file,
  parsed from the sibling ``tests/`` tree for KER001.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "ClassInfo",
    "FileContext",
    "ProjectContext",
    "collect_identifiers",
]

#: ``# repro-lint: disable=RULE1,RULE2`` (optionally followed by free text
#: explaining the suppression, conventionally after ``--``).
_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*(disable|disable-file)\s*=\s*([A-Za-z0-9_*]+(?:\s*,\s*[A-Za-z0-9_*]+)*)"
)


def collect_identifiers(tree: ast.AST) -> frozenset[str]:
    """Every identifier mentioned in ``tree``.

    Includes names, attribute names, function/class definition names and
    import targets — the union KER001 greps for kernel/scalar mentions in
    test files, so an identifier counts however the test spells the access
    (``kernel.run_stacked``, ``from x import run_stacked``, ...).
    """
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
            if node.asname:
                names.add(node.asname)
    return frozenset(names)


def _decorator_name(node: ast.expr) -> str:
    """Trailing identifier of a decorator expression (``a.b.c`` -> ``c``)."""
    target = node.func if isinstance(node, ast.Call) else node
    if isinstance(target, ast.Attribute):
        return target.attr
    if isinstance(target, ast.Name):
        return target.id
    return ""


def _base_name(node: ast.expr) -> str:
    """Trailing identifier of a class-base expression."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Subscript):  # Generic[...] style bases
        return _base_name(node.value)
    return ""


@dataclass(frozen=True)
class ClassInfo:
    """Syntactic summary of one class definition."""

    name: str
    bases: tuple[str, ...]
    decorators: tuple[str, ...]
    path: str
    line: int
    is_abstract: bool


@dataclass
class FileContext:
    """One parsed source file plus its suppression comments."""

    path: Path
    rel: str
    source: str
    tree: ast.Module
    #: line number -> rule ids suppressed on that line ("*" = all rules)
    suppressions: dict[int, frozenset[str]] = field(default_factory=dict)
    #: rule ids suppressed for the whole file
    file_suppressions: frozenset[str] = frozenset()

    @classmethod
    def parse(cls, path: Path, rel: str) -> "FileContext":
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
        suppressions: dict[int, set[str]] = {}
        file_rules: set[str] = set()
        lines = source.splitlines()
        for lineno, text in enumerate(lines, start=1):
            match = _SUPPRESS_RE.search(text)
            if not match:
                continue
            kind = match.group(1)
            rules = {part.strip() for part in match.group(2).split(",") if part.strip()}
            if kind == "disable-file":
                file_rules |= rules
            else:
                suppressions.setdefault(lineno, set()).update(rules)
                # A comment-only line suppresses the statement that follows.
                if text.strip().startswith("#"):
                    suppressions.setdefault(lineno + 1, set()).update(rules)
        return cls(
            path=path,
            rel=rel,
            source=source,
            tree=tree,
            suppressions={line: frozenset(rules) for line, rules in suppressions.items()},
            file_suppressions=frozenset(file_rules),
        )

    def is_suppressed(self, line: int, rule: str) -> bool:
        if rule in self.file_suppressions or "*" in self.file_suppressions:
            return True
        rules = self.suppressions.get(line, frozenset())
        return rule in rules or "*" in rules

    def matches(self, *suffixes: str) -> bool:
        """Whether this file's display path ends with any of ``suffixes``."""
        normalized = self.rel.replace("\\", "/")
        return any(normalized.endswith(suffix) for suffix in suffixes)

    def in_directory(self, *dirnames: str) -> bool:
        """Whether any path component equals one of ``dirnames``."""
        parts = Path(self.rel).parts
        return any(name in parts for name in dirnames)


#: Registry globals recognised by the registrar-module heuristic (the
#: imperative ``<REGISTRY>.add("name", builder)`` registration form).
_REGISTRY_GLOBALS = frozenset(
    {
        "SCHEMES",
        "PROTOCOLS",
        "CLUSTERS",
        "WORKLOADS",
        "STRAGGLER_MODELS",
        "NETWORK_MODELS",
        "RULES",
    }
)


def _is_register_name(name: str) -> bool:
    return name.startswith("register_")


class ProjectContext:
    """Project-wide indexes shared by all rules for one lint invocation."""

    def __init__(
        self,
        files: list[FileContext],
        test_identifiers: dict[str, frozenset[str]] | None = None,
    ) -> None:
        self.files = files
        #: test file display path -> identifiers referenced in it; ``None``
        #: when no test tree was found (KER001 then skips, see the rule).
        self.test_identifiers = test_identifiers
        self._classes: list[ClassInfo] | None = None
        self._registrar_refs: frozenset[str] | None = None

    # -- class table ----------------------------------------------------
    def classes(self) -> list[ClassInfo]:
        """Every class defined at any nesting level in the linted files."""
        if self._classes is None:
            table: list[ClassInfo] = []
            for ctx in self.files:
                for node in ast.walk(ctx.tree):
                    if not isinstance(node, ast.ClassDef):
                        continue
                    table.append(
                        ClassInfo(
                            name=node.name,
                            bases=tuple(
                                filter(None, (_base_name(b) for b in node.bases))
                            ),
                            decorators=tuple(
                                filter(
                                    None,
                                    (_decorator_name(d) for d in node.decorator_list),
                                )
                            ),
                            path=ctx.rel,
                            line=node.lineno,
                            is_abstract=_class_is_abstract(node),
                        )
                    )
            self._classes = table
        return self._classes

    def subclasses_of(self, *roots: str) -> list[ClassInfo]:
        """Transitive syntactic subclasses of any class named in ``roots``.

        Resolution is by class *name* project-wide, which matches how the
        repo names things (class names are unique across ``src/repro``).
        The root classes themselves are not returned.
        """
        names = set(roots)
        table = self.classes()
        grew = True
        members: list[ClassInfo] = []
        seen: set[str] = set()
        while grew:
            grew = False
            for info in table:
                if info.name in seen:
                    continue
                if any(base in names for base in info.bases):
                    members.append(info)
                    seen.add(info.name)
                    names.add(info.name)
                    grew = True
        return members

    # -- registrar reachability -----------------------------------------
    def registrar_reference_names(self) -> frozenset[str]:
        """Identifiers referenced anywhere inside a *registrar* module.

        A registrar module is one that performs registrations: it calls or
        applies a ``register_*`` decorator, or calls ``.add(...)`` on one of
        the well-known registry globals.  A class referenced in such a
        module is considered reachable from a registry — this covers all
        three registration idioms in the repo (decorated builders,
        ``REGISTRY.add("name", lambda: Cls())`` and module-level
        ``register_workload(workload)`` loops).
        """
        if self._registrar_refs is None:
            refs: set[str] = set()
            for ctx in self.files:
                if _is_registrar_module(ctx.tree):
                    refs |= collect_identifiers(ctx.tree)
            self._registrar_refs = frozenset(refs)
        return self._registrar_refs


def _class_is_abstract(node: ast.ClassDef) -> bool:
    """ABC base, ``abstractmethod``-decorated members, or a metaclass."""
    for base in node.bases:
        if _base_name(base) in {"ABC", "ABCMeta"}:
            return True
    for keyword in node.keywords:
        if keyword.arg == "metaclass":
            return True
    for member in node.body:
        if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for decorator in member.decorator_list:
                if _decorator_name(decorator) in {
                    "abstractmethod",
                    "abstractproperty",
                }:
                    return True
    return False


def _is_registrar_module(tree: ast.Module) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and _is_register_name(func.id):
                return True
            if isinstance(func, ast.Attribute):
                if _is_register_name(func.attr):
                    return True
                if func.attr == "add" and isinstance(func.value, ast.Name):
                    if func.value.id in _REGISTRY_GLOBALS:
                        return True
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for decorator in node.decorator_list:
                if _is_register_name(_decorator_name(decorator)):
                    return True
    return False
