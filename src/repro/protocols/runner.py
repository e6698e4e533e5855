"""High-level runner: train one model per scheme and collect traces.

Experiments typically want "run the same workload under schemes X, Y, Z on
cluster C and compare".  :func:`run_scheme` handles one scheme;
:func:`compare_schemes` loops over several, giving every scheme an identical
fresh model (same seed) so that loss curves differ only because of the time
axis and, for SSP, the update semantics.

Protocols are looked up in the shared plugin registry
(:data:`repro.api.registry.PROTOCOLS`): the builtins below are registered at
import time, and new protocols plug in with :func:`register_protocol`
instead of editing this module::

    from repro.protocols.runner import register_protocol

    @register_protocol("my_protocol")
    def _build(ssp_staleness, ssp_batch_size):
        return MyProtocol()

Fairness convention: every scheme trains on the *same dataset* but divides
it into its own natural number of partitions — ``k = m`` for the naive /
cyclic / fractional baselines and SSP, ``k = multiplier * m`` for the
heterogeneity-aware family (see :func:`repro.coding.natural_partitions`) —
unless :class:`~repro.protocols.base.TrainingConfig` pins ``num_partitions``
explicitly.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable, Mapping, Sequence

from .._registry import PROTOCOLS, register_protocol
from ..learning.datasets import Dataset
from ..learning.models.base import Model
from ..learning.partition import PartitionedDataset, partition_dataset
from ..simulation.cluster import ClusterSpec
from ..simulation.trace import RunTrace
from .base import ProtocolError, TrainingConfig, TrainingProtocol
from .coded import CodedBSPProtocol, NaiveBSPProtocol
from .ssp import AsyncProtocol, SSPProtocol

__all__ = [
    "PROTOCOL_NAMES",
    "make_protocol",
    "register_protocol",
    "registered_protocols",
    "run_scheme",
    "compare_schemes",
]

#: The builtin protocols, in presentation order.  Plugins registered later
#: extend :func:`registered_protocols` but not this tuple.
PROTOCOL_NAMES: tuple[str, ...] = (
    "naive",
    "cyclic",
    "fractional",
    "heter_aware",
    "group_based",
    "ssp",
    "dyn_ssp",
    "async",
)


def registered_protocols() -> tuple[str, ...]:
    """Every protocol currently registered (builtins plus plugins)."""
    return PROTOCOLS.names()


# ---------------------------------------------------------------------------
# builtin registrations
# ---------------------------------------------------------------------------

@register_protocol("naive")
def _build_naive(ssp_staleness: float, ssp_batch_size: int | None) -> TrainingProtocol:
    return NaiveBSPProtocol()


def _register_coded_protocols() -> None:
    for scheme in ("cyclic", "fractional", "heter_aware", "group_based"):
        PROTOCOLS.add(
            scheme,
            lambda ssp_staleness, ssp_batch_size, _scheme=scheme: CodedBSPProtocol(
                scheme=_scheme
            ),
            coded=True,
        )


_register_coded_protocols()


@register_protocol("ssp")
def _build_ssp(ssp_staleness: float, ssp_batch_size: int | None) -> TrainingProtocol:
    return SSPProtocol(staleness=ssp_staleness, batch_size=ssp_batch_size)


@register_protocol("dyn_ssp")
def _build_dyn_ssp(
    ssp_staleness: float, ssp_batch_size: int | None
) -> TrainingProtocol:
    return SSPProtocol(
        staleness=ssp_staleness,
        batch_size=ssp_batch_size,
        adaptive_learning_rate=True,
    )


@register_protocol("async")
def _build_async(ssp_staleness: float, ssp_batch_size: int | None) -> TrainingProtocol:
    return AsyncProtocol(batch_size=ssp_batch_size)


# ---------------------------------------------------------------------------
# public helpers
# ---------------------------------------------------------------------------

def make_protocol(
    name: str,
    ssp_staleness: float = 3,
    ssp_batch_size: int | None = None,
) -> TrainingProtocol:
    """Instantiate a protocol by name.

    ``"naive"``, ``"cyclic"``, ``"fractional"``, ``"heter_aware"`` and
    ``"group_based"`` are coded/uncoded BSP variants; ``"ssp"`` and
    ``"async"`` are the parameter-server baselines (``ssp_staleness`` and
    ``ssp_batch_size`` configure them and are ignored by the BSP variants).
    """
    if name not in PROTOCOLS:
        raise ProtocolError(
            f"unknown protocol {name!r}; expected one of {registered_protocols()}"
        )
    builder = PROTOCOLS.get(name)
    return builder(ssp_staleness, ssp_batch_size)


def _partition_for_scheme(
    scheme: str,
    dataset: Dataset,
    cluster: ClusterSpec,
    config: TrainingConfig,
) -> PartitionedDataset:
    """Split the dataset into the scheme's natural number of partitions."""
    num_partitions = config.resolve_partitions(cluster.num_workers, scheme)
    return partition_dataset(dataset, num_partitions, rng=config.seed)


def run_scheme(
    scheme: str,
    model_factory: Callable[[], Model],
    dataset: Dataset,
    cluster: ClusterSpec,
    config: TrainingConfig,
    ssp_staleness: float = 3,
    ssp_batch_size: int | None = None,
) -> RunTrace:
    """Run one scheme on a fresh model and return its trace.

    Parameters
    ----------
    scheme:
        Protocol name from :func:`registered_protocols` (builtins:
        :data:`PROTOCOL_NAMES`).
    model_factory:
        Builds a fresh model; every scheme gets its own, identically-seeded
        instance.
    dataset:
        The (unpartitioned) training set; it is split into the scheme's
        natural partition count.
    cluster, config:
        Cluster and shared training configuration.
    ssp_staleness, ssp_batch_size:
        SSP staleness bound and per-step mini-batch size (ignored by the
        BSP protocols).
    """
    protocol = make_protocol(
        scheme, ssp_staleness=ssp_staleness, ssp_batch_size=ssp_batch_size
    )
    partitioned = _partition_for_scheme(scheme, dataset, cluster, config)
    model = model_factory()
    return protocol.run(model, partitioned, cluster, config)


def compare_schemes(
    schemes: Sequence[str],
    model_factory: Callable[[], Model],
    dataset: Dataset,
    cluster: ClusterSpec,
    config: TrainingConfig,
    ssp_staleness: float = 3,
    ssp_batch_size: int | None = None,
) -> Mapping[str, RunTrace]:
    """Run several schemes on identical fresh models; return traces by name.

    Every scheme runs on its own copy of ``config`` whose RNG streams are
    spawned afresh from ``config.seed``, so all schemes face identical
    per-iteration conditions (explicit ``config.rng_streams`` are not
    shared between schemes).
    """
    traces: dict[str, RunTrace] = {}
    for scheme in schemes:
        traces[scheme] = run_scheme(
            scheme,
            model_factory,
            dataset,
            cluster,
            dataclasses.replace(config, rng_streams=None),
            ssp_staleness=ssp_staleness,
            ssp_batch_size=ssp_batch_size,
        )
    return traces
