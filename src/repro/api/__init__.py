"""repro.api — the declarative front door to every experiment.

One code path serves every scheme, protocol, cluster and workload:

* :class:`RunSpec` — a frozen, validated, JSON-serialisable description of
  a run (scheme, cluster, workload, straggler model, network, partitioning
  policy, seed, execution mode);
* :class:`Engine` — validates specs against the plugin registries and
  runs them in one of two modes (``"timing"`` for the Figs. 2/3/5 path,
  ``"training"`` for the full Fig. 4 protocol path), plus
  :meth:`Engine.sweep` / :meth:`Engine.compare` for parameter grids;
* :class:`RunResult` — the uniform outcome (spec + raw trace + derived
  metrics) with a lossless JSON round-trip;
* the plugin registries (:mod:`repro.api.registry`), one per axis the
  paper varies, and their decorators — ``@register_scheme``,
  ``@register_protocol``, ``@register_cluster``, ``register_workload``,
  ``@register_straggler_model``, ``@register_network_model`` — through
  which new building blocks plug in without editing any dispatch table;
* the sweep executors (:mod:`repro.api.executors`) — ``process`` and
  ``cached`` — chosen by the one ``executor=`` argument of
  :meth:`Engine.run_many` / :meth:`Engine.sweep` / :meth:`Engine.compare`;
  ``executor=None`` (the default) runs in-process and is the reference
  every executor is bit-identical to;
* the engine-as-a-service layer: :func:`fingerprint` /
  :meth:`RunSpec.fingerprint` (the content address of a run),
  :class:`FileRunStore` (persistent fingerprint-addressed results,
  :mod:`repro.store`),
  :class:`CachedExecutor` (``executor="cached"`` — resumable sweeps) and
  :class:`~repro.api.client.ServiceClient` for the ``repro serve`` HTTP
  server (:mod:`repro.serve`).

Quickstart::

    from repro.api import Engine, RunSpec

    spec = RunSpec(
        scheme="heter_aware",
        mode="timing",
        cluster="Cluster-A",
        num_iterations=20,
        total_samples=2048,
        straggler={"kind": "artificial_delay",
                   "params": {"num_stragglers": 1, "delay_seconds": 2.0}},
        seed=0,
    )
    result = Engine().run(spec)
    print(result.mean_iteration_time, result.resource_usage)
    payload = result.to_json()              # store next to your plots
    restored = type(result).from_json(payload)
"""

from .builders import build_injector, build_network
from .client import ClientError, RunResponse, ServiceClient, SweepResponse
from .engine import Engine, EngineError, RngVersionError
from .executors import (
    CachedExecutor,
    Executor,
    ExecutorError,
    ProcessExecutor,
)
from .registry import (
    CLUSTERS,
    NETWORK_MODELS,
    PROTOCOLS,
    SCHEMES,
    STRAGGLER_MODELS,
    WORKLOADS,
    Registry,
    RegistryError,
    register_cluster,
    register_network_model,
    register_protocol,
    register_scheme,
    register_straggler_model,
    register_workload,
)
from .result import RESULT_SCHEMA_VERSION, ResultError, RunResult, json_default
from .spec import (
    RUN_MODES,
    STORE_SCHEMA_VERSION,
    NetworkSpec,
    RunSpec,
    SpecError,
    StragglerSpec,
    fingerprint,
)

# The store (repro.store) is a *consumer* of this package, not part of its
# dependency graph, yet its names belong on the public surface ("importable
# from repro.api alone").  A lazy PEP 562 attribute hook re-exports them
# without creating an import cycle, whichever module is imported first.
_STORE_EXPORTS = frozenset({"FileRunStore", "StoreError", "default_store_path"})


def __getattr__(name: str) -> object:
    if name in _STORE_EXPORTS:
        from .. import store

        return getattr(store, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Engine",
    "EngineError",
    "RngVersionError",
    "RunSpec",
    "RunResult",
    "ResultError",
    "RESULT_SCHEMA_VERSION",
    "STORE_SCHEMA_VERSION",
    "StragglerSpec",
    "NetworkSpec",
    "SpecError",
    "RUN_MODES",
    "fingerprint",
    "json_default",
    "Registry",
    "RegistryError",
    "SCHEMES",
    "PROTOCOLS",
    "CLUSTERS",
    "WORKLOADS",
    "STRAGGLER_MODELS",
    "NETWORK_MODELS",
    "Executor",
    "ExecutorError",
    "ProcessExecutor",
    "CachedExecutor",
    "FileRunStore",
    "StoreError",
    "default_store_path",
    "ServiceClient",
    "ClientError",
    "RunResponse",
    "SweepResponse",
    "register_scheme",
    "register_protocol",
    "register_cluster",
    "register_workload",
    "register_straggler_model",
    "register_network_model",
    "build_injector",
    "build_network",
]
