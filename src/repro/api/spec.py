"""Declarative run specifications: one validated object per experiment run.

A :class:`RunSpec` captures *everything* that defines a run — scheme or
protocol, cluster, workload, straggler model, network, partitioning policy,
seed and execution mode — as a frozen, JSON-serialisable dataclass.  The
:class:`~repro.api.engine.Engine` consumes specs and produces
:class:`~repro.api.result.RunResult` objects; every figure experiment and
the CLI build specs instead of threading positional knobs around.

Only primitives (strings, numbers, plain dicts) appear in a spec, so specs
round-trip through JSON losslessly and can be stored next to results::

    spec = RunSpec(scheme="heter_aware", cluster="Cluster-A",
                   num_iterations=20, total_samples=2048)
    assert RunSpec.from_json(spec.to_json()) == spec

Component models (stragglers, networks) are referenced declaratively by
registry kind plus parameters (:class:`StragglerSpec`, :class:`NetworkSpec`)
and instantiated freshly for every run, so runs never share mutable state.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import inspect
import json
import weakref
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any

from .._registry import (
    CLUSTERS,
    NETWORK_MODELS,
    PROTOCOLS,
    SCHEMES,
    STRAGGLER_MODELS,
    WORKLOADS,
    Registry,
)
from ..simulation.rng import RNG_VERSIONS

__all__ = [
    "RunSpec",
    "StragglerSpec",
    "NetworkSpec",
    "SpecError",
    "RUN_MODES",
    "STORE_SCHEMA_VERSION",
    "fingerprint",
]

#: Execution modes the engine runs.
RUN_MODES: tuple[str, ...] = ("timing", "training")

#: Default per-iteration dataset size for timing-only runs.
DEFAULT_TIMING_SAMPLES = 2048

#: Version of the content-addressed store contract.  It is folded into
#: every :meth:`RunSpec.fingerprint`, so bumping it (when the segment
#: layout or the fingerprint coverage changes incompatibly) invalidates
#: every existing cache entry at once instead of serving stale payloads.
#: Version 2 dropped the array-backend field and the execution-backend
#: identity from the fingerprint payload.  Version 3 gives lambda and
#: ``<locals>`` builders identities that include their source, defaults and
#: closure contents.
STORE_SCHEMA_VERSION = 3

#: Identities of lambda and ``<locals>`` builders, computed once per object.
_CODE_IDENTITIES: weakref.WeakKeyDictionary[Any, str] = weakref.WeakKeyDictionary()


def _plugin_identity(registry: Registry[Any], name: str | None) -> str | None:
    """The code identity behind a registered name.

    Two registrations are "the same plugin" iff the same code services the
    name — swapping a builder (``replace=True``) changes the identity and
    therefore every fingerprint that references it.  Unknown names map to
    ``None``: the fingerprint stays computable (the engine rejects such
    specs at execution time anyway) and still differs from any registered
    identity.
    """
    if name is None or name not in registry:
        return None
    return _code_identity(registry.get(name))


def _code_identity(obj: Any) -> str:
    """``module:qualname``, plus a content digest for anonymous functions.

    Every lambda registered from one place shares its ``module:qualname``
    (all four Table II clusters come from one lambda), so lambda and
    ``<locals>`` functions also hash their source, defaults and closure
    contents — all stable across processes, unlike their bytecode, which
    changes between Python versions.  A :class:`functools.partial` is its
    function's identity plus a digest of its bound arguments, so two
    partials over one factory stay distinct.
    """
    if isinstance(obj, functools.partial):
        parts = [_value_identity(value) for value in obj.args]
        parts.extend(
            f"{key}={_value_identity(value)}"
            for key, value in sorted(obj.keywords.items())
        )
        digest = hashlib.sha256("\0".join(parts).encode("utf-8")).hexdigest()
        return f"{_code_identity(obj.func)}#partial:{digest[:16]}"
    module = getattr(obj, "__module__", None)
    qualname = getattr(obj, "__qualname__", None)
    if module is None or qualname is None:  # registered instances (workloads)
        return f"{type(obj).__module__}:{type(obj).__qualname__}"
    identity = f"{module}:{qualname}"
    if not inspect.isfunction(obj) or (
        "<lambda>" not in qualname and "<locals>" not in qualname
    ):
        return identity
    cached = _CODE_IDENTITIES.get(obj)
    if cached is None:
        try:
            source = inspect.getsource(obj)
        except (OSError, TypeError):  # defined where no source file exists
            source = repr(obj.__code__.co_code)
        parts = [source]
        parts.extend(_value_identity(value) for value in obj.__defaults__ or ())
        parts.extend(
            f"{key}={_value_identity(value)}"
            for key, value in sorted((obj.__kwdefaults__ or {}).items())
        )
        for cell in obj.__closure__ or ():
            try:
                parts.append(_value_identity(cell.cell_contents))
            except ValueError:  # a cell not yet bound
                parts.append("<empty cell>")
        digest = hashlib.sha256("\0".join(parts).encode("utf-8")).hexdigest()
        cached = _CODE_IDENTITIES[obj] = f"{identity}#{digest[:16]}"
    return cached


def _value_identity(value: Any) -> str:
    """A process-independent token for a default or closure value."""
    if inspect.isfunction(value) or inspect.isclass(value):
        return _code_identity(value)
    return repr(value)


class SpecError(ValueError):
    """Raised when a run specification is structurally invalid."""


def _component_spec(value: Any, cls: type, what: str) -> Any:
    """Coerce ``value`` (spec, kind string or mapping) into ``cls``."""
    if isinstance(value, cls):
        return value
    if isinstance(value, str):
        return cls(kind=value)
    if isinstance(value, Mapping):
        data = dict(value)
        kind = data.pop("kind", None)
        if kind is None:
            raise SpecError(f"{what} mapping needs a 'kind' key, got {value!r}")
        params = data.pop("params", None)
        if data:
            raise SpecError(
                f"unexpected {what} keys {sorted(data)}; "
                "use {'kind': ..., 'params': {...}}"
            )
        return cls(kind=str(kind), params=dict(params or {}))
    raise SpecError(f"cannot interpret {value!r} as a {what} spec")


@dataclass(frozen=True)
class StragglerSpec:
    """Declarative straggler model: registry kind + constructor params."""

    kind: str = "none"
    params: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "params": dict(self.params)}


@dataclass(frozen=True)
class NetworkSpec:
    """Declarative communication model: registry kind + constructor params."""

    kind: str = "simple"
    params: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "params": dict(self.params)}


@dataclass(frozen=True)
class RunSpec:
    """A fully-specified, validated, immutable experiment run.

    Attributes
    ----------
    scheme:
        Coding-scheme name (timing mode) or protocol name (training mode);
        resolved against the scheme / protocol plugin registries.
    mode:
        ``"timing"`` simulates iteration timing only (Figs. 2/3/5);
        ``"training"`` runs the full protocol with real numpy gradients
        (Fig. 4).
    cluster:
        Cluster name from the cluster registry (Table II builtins:
        ``"Cluster-A"`` ... ``"Cluster-D"``).
    cluster_options:
        Extra keyword arguments for the cluster factory
        (``samples_per_second_per_vcpu``, ``machine_spread``,
        ``compute_noise``, ``rng``, ``vcpu_counts``).  When ``rng`` is
        omitted the cluster is built from :attr:`seed`.
    workload:
        Workload preset name (training mode only).
    num_iterations:
        Number of simulated iterations.
    total_samples:
        Dataset size processed per iteration (timing mode; defaults to
        2048) or overall training-set size (training mode; ``None`` uses
        the workload's preset size).
    num_stragglers:
        ``s``, the straggler tolerance the coded schemes are built for.
    num_partitions:
        Explicit ``k`` override; ``None`` uses each scheme's natural count.
    partitions_multiplier:
        ``k / m`` for the heterogeneity-aware family when
        ``num_partitions`` is not pinned.
    straggler:
        Transient straggler model (:class:`StragglerSpec`, kind string or
        mapping).
    network:
        Communication model (:class:`NetworkSpec`, kind string or mapping).
    gradient_bytes:
        Coded-gradient payload size on the wire (timing mode).
    learning_rate:
        SGD learning rate (training mode).
    ssp_staleness, ssp_batch_size:
        Parameter-server baseline knobs (training mode; ignored by BSP).
    loss_eval_samples:
        Evaluate training loss on at most this many samples (0 = all).
    record_loss_every:
        Record the loss every this many iterations.
    seed:
        Seed for all randomness in the run; two specs sharing a seed see
        identical per-iteration conditions (paired comparisons).
    rng_version:
        RNG stream layout version.  ``2`` (default, and the only layout the
        engine runs) spawns one child stream per randomness component
        (injector, jitter, network, training sampling) from the seed via
        :class:`numpy.random.SeedSequence`, which lets the timing kernel
        draw whole traces in batched calls; see
        :mod:`repro.simulation.rng`.  ``1`` names the historical
        single-stream layout.  It stays a valid value so specs and
        fingerprints of v1 runs remain readable, but the engine rejects it;
        :func:`repro._reference.run_spec_reference` reproduces v1 results
        for the golden report.
    """

    scheme: str = "heter_aware"
    mode: str = "timing"
    cluster: str = "Cluster-A"
    cluster_options: dict[str, Any] = field(default_factory=dict)
    workload: str = "nonseparable_blobs"
    num_iterations: int = 20
    total_samples: int | None = None
    num_stragglers: int = 1
    num_partitions: int | None = None
    partitions_multiplier: int = 2
    straggler: StragglerSpec = field(default_factory=StragglerSpec)
    network: NetworkSpec = field(default_factory=NetworkSpec)
    gradient_bytes: float = 8.0 * 65536
    learning_rate: float = 0.1
    ssp_staleness: float = 3.0
    ssp_batch_size: int | None = None
    loss_eval_samples: int = 0
    record_loss_every: int = 1
    seed: int | None = 0
    rng_version: int = 2

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "straggler", _component_spec(self.straggler, StragglerSpec, "straggler")
        )
        object.__setattr__(
            self, "network", _component_spec(self.network, NetworkSpec, "network")
        )
        cluster_options = dict(self.cluster_options)
        # JSON turns the int keys of vcpu_counts into strings; normalise at
        # construction so to_json/from_json round-trips compare equal.
        counts = cluster_options.get("vcpu_counts")
        if isinstance(counts, Mapping):
            try:
                cluster_options["vcpu_counts"] = {
                    int(vcpus): int(count) for vcpus, count in counts.items()
                }
            except (TypeError, ValueError) as exc:
                raise SpecError(
                    f"vcpu_counts must map vCPU sizes to instance counts, "
                    f"got {counts!r}"
                ) from exc
        object.__setattr__(self, "cluster_options", cluster_options)
        if not self.scheme or not isinstance(self.scheme, str):
            raise SpecError(f"scheme must be a non-empty string, got {self.scheme!r}")
        if not self.mode or not isinstance(self.mode, str):
            raise SpecError(f"mode must be a non-empty string, got {self.mode!r}")
        if not self.cluster or not isinstance(self.cluster, str):
            raise SpecError(f"cluster must be a non-empty string, got {self.cluster!r}")
        if self.num_iterations <= 0:
            raise SpecError("num_iterations must be positive")
        if self.total_samples is not None and self.total_samples <= 0:
            raise SpecError("total_samples must be positive when given")
        if self.num_stragglers < 0:
            raise SpecError("num_stragglers must be non-negative")
        if self.num_partitions is not None and self.num_partitions <= 0:
            raise SpecError("num_partitions must be positive when given")
        if self.partitions_multiplier <= 0:
            raise SpecError("partitions_multiplier must be positive")
        if self.gradient_bytes < 0:
            raise SpecError("gradient_bytes must be non-negative")
        if self.learning_rate <= 0:
            raise SpecError("learning_rate must be positive")
        if self.ssp_batch_size is not None and self.ssp_batch_size <= 0:
            raise SpecError("ssp_batch_size must be positive when given")
        if self.loss_eval_samples < 0:
            raise SpecError("loss_eval_samples must be non-negative")
        if self.record_loss_every <= 0:
            raise SpecError("record_loss_every must be positive")
        if self.rng_version not in RNG_VERSIONS:
            raise SpecError(
                f"unknown rng_version {self.rng_version!r}; "
                f"supported versions: {list(RNG_VERSIONS)}"
            )

    # -- derived quantities --------------------------------------------
    def resolved_total_samples(self) -> int | None:
        """Per-iteration sample budget: the explicit value or the timing default."""
        if self.total_samples is not None:
            return self.total_samples
        return DEFAULT_TIMING_SAMPLES if self.mode == "timing" else None

    # -- functional updates --------------------------------------------
    def replace(self, **changes: Any) -> "RunSpec":
        """A copy of this spec with ``changes`` applied (re-validated)."""
        return dataclasses.replace(self, **changes)

    # -- serialization --------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-data form; inverse of :meth:`from_dict`."""
        data = dataclasses.asdict(self)
        data["straggler"] = self.straggler.to_dict()
        data["network"] = self.network.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunSpec":
        """Build a spec from :meth:`to_dict` output (unknown keys rejected).

        A payload without ``rng_version`` predates the field, so it was a
        v1 run: it loads as ``rng_version=1`` rather than taking the
        current default, and the engine then refuses to run it instead of
        silently changing its results.
        """
        fields = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - fields
        if unknown:
            raise SpecError(f"unknown RunSpec fields: {sorted(unknown)}")
        return cls(**{"rng_version": 1, **data})

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "RunSpec":
        return cls.from_dict(json.loads(text))

    # -- content addressing ---------------------------------------------
    def fingerprint(self) -> str:
        """Stable content hash of everything that determines this run.

        A sha256 hex digest over the canonical JSON form (sorted keys,
        no whitespace) of the full field set — including ``seed`` and
        ``rng_version`` — plus the *identities* (``module:qualname``, with
        a content digest for lambda and ``<locals>`` builders) of every
        registry plugin the spec names and
        :data:`STORE_SCHEMA_VERSION`.  Two specs share a fingerprint iff
        the engine is contractually bound to produce bit-identical results
        for them, which is what makes the fingerprint a safe cache key for
        the content-addressed run store (:mod:`repro.store`):

        * field order and default-vs-explicit construction never matter
          (``to_dict`` always emits the full field set);
        * the digest is stable across processes and machines;
        * changing ``rng_version``, the seed, or
          swapping any referenced plugin registration changes the key.

        Specs with ``seed=None`` still fingerprint (the digest is a pure
        function of the spec), but such runs are explicitly
        non-reproducible — cache layers must never serve them from a
        store.
        """
        canonical = json.dumps(
            self._fingerprint_payload(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def _fingerprint_payload(self) -> dict:
        return {
            "store_schema": STORE_SCHEMA_VERSION,
            "spec": self.to_dict(),
            "plugins": {
                "scheme": _plugin_identity(SCHEMES, self.scheme),
                "protocol": _plugin_identity(PROTOCOLS, self.scheme),
                "cluster": _plugin_identity(CLUSTERS, self.cluster),
                "workload": _plugin_identity(WORKLOADS, self.workload),
                "straggler": _plugin_identity(STRAGGLER_MODELS, self.straggler.kind),
                "network": _plugin_identity(NETWORK_MODELS, self.network.kind),
            },
        }


def fingerprint(spec: RunSpec) -> str:
    """Functional alias for :meth:`RunSpec.fingerprint` (re-exported by
    :mod:`repro.api` so the whole store surface imports from one place)."""
    return spec.fingerprint()
