"""Builtin straggler-model and network-model registrations.

The simulation layer defines the injector and communication-model *classes*;
this module maps declarative spec kinds (the strings appearing in
:class:`~repro.api.spec.StragglerSpec` / :class:`~repro.api.spec.NetworkSpec`)
to those classes and exposes :func:`build_injector` / :func:`build_network`
for the engine's execution modes.  Every run gets a fresh instance, so stateful
injectors (e.g. ``bursty``) never leak state across runs.

New models plug in through the registries::

    from repro.api import register_straggler_model

    @register_straggler_model("diurnal")
    def _build(amplitude=1.0, period=100):
        return DiurnalInjector(amplitude, period)
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any

from .._registry import (
    NETWORK_MODELS,
    STRAGGLER_MODELS,
    register_network_model,
    register_straggler_model,
)
from ..simulation.network import (
    CommunicationModel,
    LogNormalNetwork,
    OverlappedNetwork,
    SimpleNetwork,
    ZeroCommunication,
)
from ..simulation.stragglers import (
    ArtificialDelay,
    BurstyStragglers,
    CompositeInjector,
    FailStop,
    NoStragglers,
    StragglerInjector,
    TransientSlowdown,
)
from .spec import NetworkSpec, SpecError, StragglerSpec, _component_spec

__all__ = ["build_injector", "build_network"]


# ---------------------------------------------------------------------------
# straggler models
# ---------------------------------------------------------------------------

STRAGGLER_MODELS.add("none", lambda: NoStragglers())
STRAGGLER_MODELS.add(
    "artificial_delay",
    lambda num_stragglers=1, delay_seconds=1.0, workers=None: ArtificialDelay(
        num_stragglers=num_stragglers,
        delay_seconds=float(delay_seconds),
        workers=workers,
    ),
)
STRAGGLER_MODELS.add(
    "transient",
    lambda probability=0.05, mean_delay_seconds=0.5: TransientSlowdown(
        probability=probability, mean_delay_seconds=mean_delay_seconds
    ),
)
STRAGGLER_MODELS.add(
    "bursty",
    lambda enter_probability=0.05, exit_probability=0.3, mean_delay_seconds=1.0: (
        BurstyStragglers(
            enter_probability=enter_probability,
            exit_probability=exit_probability,
            mean_delay_seconds=mean_delay_seconds,
        )
    ),
)


@register_straggler_model("fail_stop")
def _build_fail_stop(failures: Mapping[Any, Any] | None = None) -> StragglerInjector:
    # JSON object keys arrive as strings; coerce back to worker indices.
    failures = failures or {}
    return FailStop({int(w): int(start) for w, start in failures.items()})


@register_straggler_model("composite")
def _build_composite(parts: list | tuple = ()) -> StragglerInjector:
    # Parts follow the same coercion rules as RunSpec.straggler itself:
    # a kind string, a {"kind": ..., "params": ...} mapping, or a spec.
    return CompositeInjector(
        [
            build_injector(_component_spec(part, StragglerSpec, "straggler"))
            for part in parts
        ]
    )


# ---------------------------------------------------------------------------
# network models
# ---------------------------------------------------------------------------

NETWORK_MODELS.add("zero", lambda: ZeroCommunication())
NETWORK_MODELS.add(
    "simple",
    lambda latency_seconds=0.005, bandwidth_bytes_per_second=1.25e8: SimpleNetwork(
        latency_seconds=latency_seconds,
        bandwidth_bytes_per_second=bandwidth_bytes_per_second,
    ),
)


@register_network_model("lognormal")
def _build_lognormal(
    latency_seconds: float = 0.005,
    bandwidth_bytes_per_second: float = 1.25e8,
    latency_sigma: float = 0.25,
    bandwidth_sigma: float = 0.1,
) -> CommunicationModel:
    # Stochastic: samples per-message latency/bandwidth from the run's
    # dedicated "network" child stream.
    return LogNormalNetwork(
        latency_seconds=latency_seconds,
        bandwidth_bytes_per_second=bandwidth_bytes_per_second,
        latency_sigma=latency_sigma,
        bandwidth_sigma=bandwidth_sigma,
    )


@register_network_model("overlapped")
def _build_overlapped(
    base: Mapping[str, Any] | str | None = None, overlap_fraction: float = 0.5
) -> CommunicationModel:
    base_spec = (
        NetworkSpec()
        if base is None
        else _component_spec(base, NetworkSpec, "network")
    )
    return OverlappedNetwork(
        base=build_network(base_spec), overlap_fraction=overlap_fraction
    )


# ---------------------------------------------------------------------------
# builders used by the engine's execution modes
# ---------------------------------------------------------------------------

def build_injector(spec: StragglerSpec) -> StragglerInjector:
    """Instantiate a fresh straggler injector from a declarative spec."""
    factory = STRAGGLER_MODELS.get(spec.kind)
    try:
        return factory(**spec.params)
    except TypeError as exc:
        raise SpecError(
            f"invalid parameters {spec.params!r} for straggler model "
            f"{spec.kind!r}: {exc}"
        ) from exc


def build_network(spec: NetworkSpec) -> CommunicationModel:
    """Instantiate a fresh communication model from a declarative spec."""
    factory = NETWORK_MODELS.get(spec.kind)
    try:
        return factory(**spec.params)
    except TypeError as exc:
        raise SpecError(
            f"invalid parameters {spec.params!r} for network model "
            f"{spec.kind!r}: {exc}"
        ) from exc
