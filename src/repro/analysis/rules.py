"""The builtin lint rules: the repo's determinism contracts, made executable.

Every rule here encodes an invariant the reproducibility story depends on
(see README "Static analysis" for the table).  Rules are deliberately
*syntactic*: they resolve import aliases but do no type inference beyond
local, obvious facts, so they stay fast, dependency-free and predictable.
Anything a rule cannot see (e.g. randomness smuggled through ``getattr``)
is out of scope by design — the runtime property tests remain the backstop.

Rule ids are stable API: suppression comments (``# repro-lint:
disable=RNG001``), baselines and CI reports all key on them.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterable, Iterator

from .base import LintRule, register_rule
from .context import FileContext, ProjectContext
from .findings import Finding

__all__ = [
    "RngSourceRule",
    "AmbientNondeterminismRule",
    "UnregisteredPluginRule",
    "FrozenSpecMutationRule",
    "UnpairedBatchKernelRule",
    "ReferenceImportRule",
]


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

class _ImportMap:
    """Resolve local names to dotted module paths using a file's imports."""

    def __init__(self, tree: ast.Module) -> None:
        self.aliases: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        self.aliases[alias.asname] = alias.name
                    else:
                        root = alias.name.split(".", 1)[0]
                        self.aliases[root] = root
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self.aliases[local] = f"{node.module}.{alias.name}"

    def resolve(self, node: ast.expr) -> str | None:
        """Dotted path of a ``Name``/``Attribute`` chain, alias-expanded."""
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.append(self.aliases.get(node.id, node.id))
        return ".".join(reversed(parts))


def _is_none(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


# ---------------------------------------------------------------------------
# RNG001 — randomness must flow through the seeded stream layer
# ---------------------------------------------------------------------------

#: Legacy ``numpy.random`` module-level samplers and global-state calls.
#: They draw from the hidden global ``RandomState``, which no component
#: stream controls, so a single call anywhere silently decouples a run from
#: its seed.
_LEGACY_NUMPY_RANDOM = frozenset(
    {
        "seed",
        "get_state",
        "set_state",
        "rand",
        "randn",
        "randint",
        "random_integers",
        "random",
        "random_sample",
        "ranf",
        "sample",
        "bytes",
        "choice",
        "shuffle",
        "permutation",
        "uniform",
        "normal",
        "standard_normal",
        "lognormal",
        "exponential",
        "poisson",
        "binomial",
        "beta",
        "gamma",
    }
)


@register_rule(
    "RNG001",
    summary=(
        "randomness only through seeded streams: no legacy numpy.random "
        "global-state calls, no RandomState, no entropy-seeded default_rng()"
    ),
)
class RngSourceRule(LintRule):
    """All randomness must flow through :class:`repro.simulation.rng.RngStreams`
    / ``make_rng(component=)`` lineages.

    Flags, everywhere except ``simulation/rng.py`` and ``_reference.py``:

    * calls to legacy ``numpy.random`` module-level functions
      (``np.random.rand``, ``np.random.seed``, ...) — they use the hidden
      global generator;
    * any reference to ``numpy.random.RandomState``;
    * ``default_rng()`` with no argument or an explicit ``None`` — fresh OS
      entropy, untraceable to any run seed.  Seed/stream *coercion*
      (``default_rng(seed)``, ``default_rng(seed_sequence)``) is the
      package-wide idiom and stays legal.
    """

    id = "RNG001"

    _EXEMPT = ("simulation/rng.py", "_reference.py")

    def check(self, ctx: FileContext, project: ProjectContext) -> Iterator[Finding]:
        if ctx.matches(*self._EXEMPT):
            return
        imports = _ImportMap(ctx.tree)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                dotted = imports.resolve(node.func)
                if dotted is None:
                    continue
                if dotted == "numpy.random.default_rng":
                    if not node.args and not node.keywords:
                        yield self.finding(
                            ctx,
                            node,
                            "default_rng() with no seed draws fresh OS entropy; "
                            "derive a generator from RngStreams / "
                            "make_rng(component=...) instead",
                        )
                    elif len(node.args) == 1 and _is_none(node.args[0]):
                        yield self.finding(
                            ctx,
                            node,
                            "default_rng(None) draws fresh OS entropy; derive a "
                            "generator from RngStreams / make_rng(component=...) "
                            "instead",
                        )
                elif (
                    dotted.startswith("numpy.random.")
                    and dotted.rsplit(".", 1)[-1] in _LEGACY_NUMPY_RANDOM
                ):
                    yield self.finding(
                        ctx,
                        node,
                        f"{dotted} samples from numpy's hidden global RandomState; "
                        "draw from an RngStreams component generator instead",
                    )
            elif isinstance(node, (ast.Attribute, ast.Name)):
                dotted = imports.resolve(node)
                if dotted == "numpy.random.RandomState" and isinstance(
                    getattr(node, "ctx", ast.Load()), ast.Load
                ):
                    # Attribute chains resolve from their outermost node, so
                    # only report the full RandomState reference (inner
                    # ``numpy.random`` nodes resolve to a different string).
                    yield self.finding(
                        ctx,
                        node,
                        "numpy.random.RandomState is the legacy global-state "
                        "generator API; use Generator streams spawned from "
                        "SeedSequence (repro.simulation.rng)",
                    )


# ---------------------------------------------------------------------------
# RNG002 — no ambient nondeterminism in fingerprinted modules
# ---------------------------------------------------------------------------

#: Calls whose result depends on the environment rather than the run spec.
_AMBIENT_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.clock_gettime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
        "os.urandom",
        "os.getrandom",
        "uuid.uuid1",
        "uuid.uuid4",
    }
)

#: Builtins whose output order leaks set iteration order (``sorted`` is
#: deliberately absent: it re-establishes a deterministic order).
_ORDER_SENSITIVE_BUILTINS = frozenset({"list", "tuple", "enumerate", "iter"})


@register_rule(
    "RNG002",
    summary=(
        "no wall-clock or ambient nondeterminism (time.time, datetime.now, "
        "os.urandom, set iteration) in fingerprinted modules"
    ),
)
class AmbientNondeterminismRule(LintRule):
    """Fingerprinted modules must be pure functions of spec + seed.

    ``simulation/``, ``protocols/``, ``coding/`` and ``api/`` feed the
    kernel-cache fingerprints and the golden reports; a wall-clock read or a
    hash-order-dependent iteration there makes two identical specs produce
    different traces.  Flags ambient calls (``time.time``,
    ``datetime.now``, ``os.urandom``, ``uuid.uuid4``, anything in
    ``secrets``) and direct iteration over ``set`` displays/constructors
    (``for x in {...}``, ``list(set(...))``; ``sorted(set(...))`` is fine).
    """

    id = "RNG002"

    _SCOPED_DIRS = ("simulation", "protocols", "coding", "api")

    def check(self, ctx: FileContext, project: ProjectContext) -> Iterator[Finding]:
        if not ctx.in_directory(*self._SCOPED_DIRS):
            return
        imports = _ImportMap(ctx.tree)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                dotted = imports.resolve(node.func)
                if dotted is not None and (
                    dotted in _AMBIENT_CALLS or dotted.startswith("secrets.")
                ):
                    yield self.finding(
                        ctx,
                        node,
                        f"{dotted}() is ambient nondeterminism; fingerprinted "
                        "modules must depend only on the spec and the seed",
                    )
                elif (
                    isinstance(node.func, ast.Name)
                    and node.func.id in _ORDER_SENSITIVE_BUILTINS
                    and node.args
                    and _is_set_expr(node.args[0])
                ):
                    yield self.finding(
                        ctx,
                        node,
                        f"{node.func.id}() over a set leaks hash-iteration "
                        "order; sort it (sorted(...)) or use an ordered "
                        "container",
                    )
            elif isinstance(node, (ast.For, ast.AsyncFor)) and _is_set_expr(node.iter):
                yield self.finding(
                    ctx,
                    node,
                    "iterating a set leaks hash-iteration order; sort it "
                    "(sorted(...)) or use an ordered container",
                )


def _is_set_expr(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in {"set", "frozenset"}
    )


# ---------------------------------------------------------------------------
# REG001 — plugin subclasses must be reachable from a registry
# ---------------------------------------------------------------------------

@register_rule(
    "REG001",
    summary=(
        "StragglerInjector/CommunicationModel/TrainingProtocol/Model "
        "subclasses must be registered (decorator, REGISTRY.add builder, "
        "or registrar-module reference)"
    ),
)
class UnregisteredPluginRule(LintRule):
    """Concrete plugin subclasses must be reachable from the registries.

    ``RunSpec`` can only name what a registry knows; a subclass nobody
    registered is dead weight at best and, at worst, a code path the golden
    / property gates never see.  A class counts as registered when it

    * carries a ``@register_*`` decorator directly, or
    * is referenced inside a *registrar module* — one that performs
      registrations via ``register_*(...)`` or ``<REGISTRY>.add(...)`` —
      which covers builder functions and ``lambda: Cls()`` factories.

    Abstract classes, underscore-private classes and ``_reference.py`` are
    exempt.  (``typing.Protocol`` structural types are not tracked; the
    protocol root here is :class:`repro.protocols.base.TrainingProtocol`.)
    """

    id = "REG001"

    _ROOTS = (
        "StragglerInjector",
        "CommunicationModel",
        "TrainingProtocol",
        "Model",
    )

    def check(self, ctx: FileContext, project: ProjectContext) -> Iterator[Finding]:
        if ctx.matches("_reference.py") or ctx.in_directory("tests"):
            return
        reachable = project.registrar_reference_names()
        for info in project.subclasses_of(*self._ROOTS):
            if info.path != ctx.rel:
                continue
            if info.name.startswith("_") or info.is_abstract:
                continue
            if any(dec.startswith("register_") or dec == "register" for dec in info.decorators):
                continue
            if info.name in reachable:
                continue
            node = _class_node_at(ctx, info.name, info.line)
            yield self.finding(
                ctx,
                node,
                f"class {info.name} subclasses {'/'.join(self._ROOTS)} but is "
                "not reachable from any plugin registry; add a @register_* "
                "decorator or a registered builder (see repro._registry)",
            )


def _class_node_at(ctx: FileContext, name: str, line: int) -> ast.AST | None:
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.ClassDef) and node.name == name and node.lineno == line:
            return node
    return None


# ---------------------------------------------------------------------------
# SPEC001 — RunSpec is frozen; nobody mutates it after construction
# ---------------------------------------------------------------------------

@register_rule(
    "SPEC001",
    summary=(
        "no attribute assignment to RunSpec instances outside api/spec.py "
        "(object.__setattr__ bypasses included)"
    ),
)
class FrozenSpecMutationRule(LintRule):
    """``RunSpec`` equality-as-identity underpins caching and goldens.

    The engine's kernel cache, the golden reports and the JSON round-trip
    all assume a spec never changes after ``__post_init__``.  Outside
    ``api/spec.py`` this rule flags

    * attribute assignment (plain, augmented, ``setattr``) on any local
      value known to be a ``RunSpec`` — from a ``RunSpec(...)`` /
      ``RunSpec.from_json`` / ``.replace`` construction or a ``RunSpec``
      annotation;
    * ``object.__setattr__(x, ...)`` on anything other than ``self`` — the
      frozen-dataclass bypass hammer (``self`` stays legal for
      ``__post_init__`` idioms in other frozen classes).

    Use :meth:`RunSpec.replace` for functional updates.
    """

    id = "SPEC001"

    def check(self, ctx: FileContext, project: ProjectContext) -> Iterator[Finding]:
        if ctx.matches("api/spec.py"):
            return
        visitor = _SpecMutationVisitor(self, ctx)
        visitor.visit(ctx.tree)
        yield from visitor.findings


class _SpecMutationVisitor(ast.NodeVisitor):
    """Scope-aware visitor tracking which locals hold ``RunSpec`` values."""

    def __init__(self, rule: FrozenSpecMutationRule, ctx: FileContext) -> None:
        self.rule = rule
        self.ctx = ctx
        self.findings: list[Finding] = []
        self._scopes: list[set[str]] = [set()]

    # -- scope management ----------------------------------------------
    def _known_spec(self, name: str) -> bool:
        return any(name in scope for scope in self._scopes)

    def _enter_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        scope: set[str] = set()
        args = node.args
        for arg in [
            *args.posonlyargs,
            *args.args,
            *args.kwonlyargs,
            *filter(None, [args.vararg, args.kwarg]),
        ]:
            if arg.annotation is not None and _mentions_runspec(arg.annotation):
                scope.add(arg.arg)
        self._scopes.append(scope)
        self.generic_visit(node)
        self._scopes.pop()

    visit_FunctionDef = _enter_function
    visit_AsyncFunctionDef = _enter_function

    # -- inference ------------------------------------------------------
    def _value_is_runspec(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id == "RunSpec":
                return True
            if isinstance(func, ast.Attribute):
                if func.attr in {"from_dict", "from_json"} and isinstance(
                    func.value, ast.Name
                ) and func.value.id == "RunSpec":
                    return True
                if func.attr == "replace" and isinstance(func.value, ast.Name):
                    return self._known_spec(func.value.id)
        if isinstance(node, ast.Name):
            return self._known_spec(node.id)
        return False

    def visit_Assign(self, node: ast.Assign) -> None:
        if self._value_is_runspec(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self._scopes[-1].add(target.id)
        for target in node.targets:
            self._check_target(target)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if isinstance(node.target, ast.Name) and _mentions_runspec(node.annotation):
            self._scopes[-1].add(node.target.id)
        self._check_target(node.target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_target(node.target)
        self.generic_visit(node)

    # -- checks ---------------------------------------------------------
    def _check_target(self, target: ast.expr) -> None:
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and self._known_spec(target.value.id)
        ):
            self.findings.append(
                self.rule.finding(
                    self.ctx,
                    target,
                    f"assignment to attribute {target.attr!r} of a frozen "
                    "RunSpec; build a new spec with RunSpec.replace(...) "
                    "instead",
                )
            )

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "__setattr__"
            and isinstance(func.value, ast.Name)
            and func.value.id == "object"
            and node.args
        ):
            first = node.args[0]
            if isinstance(first, ast.Name) and self._known_spec(first.id):
                self.findings.append(
                    self.rule.finding(
                        self.ctx,
                        node,
                        "object.__setattr__ on a frozen RunSpec; build a new "
                        "spec with RunSpec.replace(...) instead",
                    )
                )
            elif not (isinstance(first, ast.Name) and first.id == "self"):
                self.findings.append(
                    self.rule.finding(
                        self.ctx,
                        node,
                        "object.__setattr__ on a non-self target bypasses "
                        "frozen-instance protection; mutate state only "
                        "through the owning class",
                    )
                )
        elif (
            isinstance(func, ast.Name)
            and func.id == "setattr"
            and node.args
            and isinstance(node.args[0], ast.Name)
            and self._known_spec(node.args[0].id)
        ):
            self.findings.append(
                self.rule.finding(
                    self.ctx,
                    node,
                    "setattr on a frozen RunSpec; build a new spec with "
                    "RunSpec.replace(...) instead",
                )
            )
        self.generic_visit(node)


def _mentions_runspec(annotation: ast.expr) -> bool:
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        return bool(re.search(r"\bRunSpec\b", annotation.value))
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name) and node.id == "RunSpec":
            return True
        if isinstance(node, ast.Attribute) and node.attr == "RunSpec":
            return True
    return False


# ---------------------------------------------------------------------------
# KER001 — every public batched kernel is paired with a reference test
# ---------------------------------------------------------------------------

_KERNEL_NAME = re.compile(r"^(batch_|multi_|stacked_).+|.+_(batch|batched|stacked)$")


@register_rule(
    "KER001",
    summary=(
        "every public *_batch/*_stacked/batch_*/stacked_*/multi_* kernel "
        "needs a tests/** file pairing it against its scalar path or "
        "repro._reference"
    ),
)
class UnpairedBatchKernelRule(LintRule):
    """Batched kernels must be pinned against a scalar reference in tests.

    The repo's whole performance story is "batched kernel, pinned against
    the scalar path".  That only stays true while every public ``*_batch`` / ``*_batched`` /
    ``*_stacked`` / ``batch_*`` / ``stacked_*`` / ``multi_*`` definition
    has at least one test file that references both the kernel *and* its
    scalar counterpart (or ``repro._reference``).  The run-stacked kernels
    (one numpy sweep over many runs) follow the same contract: each is
    pinned bit-identical to its per-run counterpart at matched seeds.
    Coverage is resolved by name against the sibling ``tests/`` tree
    (``--tests-root`` overrides); underscore-private kernels are exempt —
    they are exercised through their public wrappers.  When no test tree
    can be located the rule is skipped entirely rather than flagging every
    kernel.
    """

    id = "KER001"

    def check(self, ctx: FileContext, project: ProjectContext) -> Iterator[Finding]:
        if project.test_identifiers is None:
            return
        if ctx.matches("_reference.py") or ctx.in_directory("tests"):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = node.name
            if name.startswith("_") or not _KERNEL_NAME.fullmatch(name):
                continue
            scalar = _scalar_counterpart(name)
            if _kernel_is_paired(name, scalar, project.test_identifiers):
                continue
            yield self.finding(
                ctx,
                node,
                f"batched kernel {name!r} has no tests/** file pairing it "
                f"against its scalar counterpart {scalar!r} or "
                "repro._reference; add an equivalence test",
            )


def _scalar_counterpart(name: str) -> str:
    if name.endswith("_batched"):
        return name[: -len("_batched")]
    if name.endswith("_batch"):
        return name[: -len("_batch")]
    if name.endswith("_stacked"):
        return name[: -len("_stacked")]
    if name.startswith(("batch_", "multi_", "stacked_")):
        return name.split("_", 1)[1]
    return name


def _kernel_is_paired(
    kernel: str, scalar: str, test_identifiers: dict[str, frozenset[str]]
) -> bool:
    for identifiers in test_identifiers.values():
        if kernel not in identifiers:
            continue
        if scalar in identifiers:
            return True
        if any("reference" in ident for ident in identifiers):
            return True
    return False


# ---------------------------------------------------------------------------
# IMP001 — reference implementations stay quarantined
# ---------------------------------------------------------------------------

@register_rule(
    "IMP001",
    summary=(
        "only tests/** and repro/experiments/golden.py may import "
        "repro._reference"
    ),
)
class ReferenceImportRule(LintRule):
    """``repro._reference`` is the tests' and the golden report's oracle.

    The reference implementations exist so property tests can pin the
    vectorized kernels, and so the golden report can reproduce its
    ``rng_version=1`` cells; production code importing them either
    reintroduces a per-iteration Python path or (worse) drifts the
    reference itself.  Only ``tests/**`` and
    ``repro/experiments/golden.py`` may import the module.
    """

    id = "IMP001"

    def check(self, ctx: FileContext, project: ProjectContext) -> Iterator[Finding]:
        if (
            ctx.matches("_reference.py", "repro/experiments/golden.py")
            or ctx.in_directory("tests")
        ):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if (
                    module == "_reference"
                    or module.endswith("._reference")
                    or any(alias.name == "_reference" for alias in node.names)
                ):
                    yield self._import_finding(ctx, node)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "_reference" or alias.name.endswith("._reference"):
                        yield self._import_finding(ctx, node)
                        break

    def _import_finding(self, ctx: FileContext, node: ast.AST) -> Finding:
        return self.finding(
            ctx,
            node,
            "repro._reference holds the reference implementations and the "
            "rng_version=1 oracle for tests and the golden report; other "
            "code must use the maintained kernels instead",
        )


def iter_rule_docs() -> Iterable[tuple[str, str]]:
    """(id, summary) pairs in registration order (for ``--list-rules``)."""
    from .base import RULES

    for rule_id in RULES.names():
        yield rule_id, RULES.metadata(rule_id).get("summary", "")
