"""Plugin registries shared by every layer of the package.

This module is a dependency *leaf*: it imports nothing from the rest of
:mod:`repro`, so the coding, protocol, simulation and experiment layers can
all register their building blocks here without creating import cycles.
The public face of the registries is :mod:`repro.api.registry`; domain
modules (:mod:`repro.coding.registry`, :mod:`repro.protocols.runner`,
:mod:`repro.experiments.clusters`, :mod:`repro.experiments.workloads`)
re-export the decorators relevant to them for backward compatibility.

Each :class:`Registry` maps a short string name to a builder (or, for
workloads, directly to the declarative object) plus free-form metadata.
Registration order is preserved, so ``names()`` doubles as the canonical
presentation order used by reports.

A registry exists only for an axis the paper varies: coding schemes,
training protocols, clusters, workloads, straggler models and network
models.  Everything else (execution modes, executors, the run store) is a
plain function or constant in the module that owns it.

Adding a new scheme, protocol, cluster, workload, straggler model or
network no longer requires editing hard-coded dicts — decorate a builder::

    from repro.api import register_scheme

    @register_scheme("my_scheme", partitioning="multiplier")
    def _build(throughputs, num_partitions, num_stragglers, rng=None):
        return ...  # a CodingStrategy

and ``RunSpec(scheme="my_scheme", ...)`` immediately works everywhere the
builtin schemes do (Engine, sweeps, figures, CLI).
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Mapping
from types import MappingProxyType
from typing import Any, Generic, TypeVar

__all__ = [
    "Registry",
    "RegistryError",
    "SCHEMES",
    "PROTOCOLS",
    "CLUSTERS",
    "WORKLOADS",
    "STRAGGLER_MODELS",
    "NETWORK_MODELS",
    "register_scheme",
    "register_protocol",
    "register_cluster",
    "register_workload",
    "register_straggler_model",
    "register_network_model",
]

T = TypeVar("T")


class RegistryError(KeyError):
    """Raised on unknown names or conflicting registrations.

    Subclasses :class:`KeyError` so legacy call sites (and tests) that
    expect lookup failures keep working unchanged.
    """

    def __str__(self) -> str:  # KeyError repr-quotes its argument; undo that
        return self.args[0] if self.args else ""


class Registry(Generic[T]):
    """An ordered name -> object mapping with decorator registration."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._entries: dict[str, T] = {}
        self._metadata: dict[str, dict[str, Any]] = {}

    # -- registration ---------------------------------------------------
    def register(
        self,
        name: str | None = None,
        *,
        replace: bool = False,
        **metadata: Any,
    ) -> Callable[[T], T]:
        """Decorator form: ``@registry.register("name", key=value)``."""

        def decorator(obj: T) -> T:
            key = name or getattr(obj, "name", None) or getattr(obj, "__name__", None)
            if not key:
                raise RegistryError(
                    f"cannot infer a {self.kind} name for {obj!r}; pass one explicitly"
                )
            self.add(str(key), obj, replace=replace, **metadata)
            return obj

        return decorator

    def add(self, name: str, obj: T, *, replace: bool = False, **metadata: Any) -> T:
        """Imperative form used for bulk/builtin registrations."""
        if name in self._entries and not replace:
            raise RegistryError(
                f"{self.kind} {name!r} is already registered; "
                "pass replace=True to override it"
            )
        self._entries[name] = obj
        self._metadata[name] = dict(metadata)
        return obj

    def unregister(self, name: str) -> None:
        """Remove an entry (mainly for test isolation)."""
        self._entries.pop(name, None)
        self._metadata.pop(name, None)

    # -- lookup ---------------------------------------------------------
    def get(self, name: str) -> T:
        try:
            return self._entries[name]
        except KeyError:
            raise RegistryError(
                f"unknown {self.kind} {name!r}; expected one of {list(self._entries)}"
            ) from None

    def metadata(self, name: str) -> dict[str, Any]:
        """Metadata recorded at registration time ({} for unknown names)."""
        return dict(self._metadata.get(name, {}))

    def names(self) -> tuple[str, ...]:
        return tuple(self._entries)

    def as_mapping(self) -> Mapping[str, T]:
        """A live read-only view of the registry contents."""
        return MappingProxyType(self._entries)

    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return f"Registry({self.kind!r}, {list(self._entries)})"


#: Coding schemes: name -> ``(throughputs, num_partitions, num_stragglers,
#: rng) -> CodingStrategy``.  Metadata key ``partitioning`` is either
#: ``"uniform"`` (``k = m``) or ``"multiplier"`` (``k = multiplier * m``).
SCHEMES: Registry[Callable[..., Any]] = Registry("scheme")

#: Training protocols: name -> ``(ssp_staleness, ssp_batch_size) ->
#: TrainingProtocol``.
PROTOCOLS: Registry[Callable[..., Any]] = Registry("protocol")

#: Clusters: name -> ``(**knobs) -> ClusterSpec``.
CLUSTERS: Registry[Callable[..., Any]] = Registry("cluster")

#: Workloads: name -> :class:`repro.experiments.workloads.Workload`.
WORKLOADS: Registry[Any] = Registry("workload")

#: Straggler models: kind -> ``(**params) -> StragglerInjector``.
STRAGGLER_MODELS: Registry[Callable[..., Any]] = Registry("straggler model")

#: Network models: kind -> ``(**params) -> CommunicationModel``.
NETWORK_MODELS: Registry[Callable[..., Any]] = Registry("network model")

register_scheme = SCHEMES.register
register_protocol = PROTOCOLS.register
register_cluster = CLUSTERS.register
register_straggler_model = STRAGGLER_MODELS.register
register_network_model = NETWORK_MODELS.register


def register_workload(workload: Any = None, *, replace: bool = False):
    """Register a workload, as a call or as a decorator.

    Accepts either a ready :class:`~repro.experiments.workloads.Workload`
    (``register_workload(my_workload)``) or decorates a zero-argument
    factory whose result is registered immediately::

        @register_workload
        def my_workload():
            return Workload(name="my_workload", ...)
    """
    if workload is None:
        return lambda factory: register_workload(factory, replace=replace)
    candidate = workload() if callable(workload) else workload
    name = getattr(candidate, "name", None)
    if not name:
        raise RegistryError(
            f"workload {candidate!r} has no usable .name attribute"
        )
    WORKLOADS.add(str(name), candidate, replace=replace)
    return candidate
