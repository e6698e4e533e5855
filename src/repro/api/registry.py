"""Public face of the plugin registries.

The actual registry instances live in the dependency-leaf module
:mod:`repro._registry` so that every layer (coding, protocols, simulation,
experiments) can register builders without import cycles; this module
re-exports them as the documented API surface::

    from repro.api.registry import SCHEMES, register_scheme

See :mod:`repro._registry` for the builder signatures each registry
expects.
"""

from __future__ import annotations

from .._registry import (
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
