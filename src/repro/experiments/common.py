"""Shared helpers for the per-figure experiment modules.

Two measurement modes are used by the experiments:

* **Timing-only** (:func:`measure_timing_trace`) — Figures 2, 3 and 5 report
  wall-clock quantities (average time per iteration, resource usage) that do
  not depend on the actual gradient values, so the experiments drive the
  timing engine directly and skip the numpy training.  This keeps large
  sweeps (58-worker Cluster-D, many delay values, many schemes) fast.
* **Full training** (Fig. 4, via :mod:`repro.protocols`) — the loss-versus-
  time comparison needs real learning, so it runs the complete protocols.

Fairness conventions shared by both modes:

* Every scheme processes the same *total* number of samples per iteration;
  the partition count ``k`` is the scheme's natural one (``k = m`` for the
  uniform baselines, ``k = multiplier * m`` for the heterogeneity-aware
  family — see :func:`repro.coding.natural_partitions`).
* The random stream that builds the coding matrix is separated from the one
  that drives timing jitter and straggler choice, so two schemes measured
  with the same seed see *identical* per-iteration conditions and their
  comparison is paired.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Any

import numpy as np

from .._registry import SCHEMES
from ..coding.registry import build_strategy, natural_partitions
from ..coding.types import CodingStrategy
from ..simulation.cluster import ClusterSpec
from ..simulation.network import CommunicationModel, SimpleNetwork
from ..simulation.rng import RngStreams
from ..simulation.stragglers import NoStragglers, StragglerInjector
from ..simulation.trace import RunTrace
from ..simulation.vectorized import StackedRun, default_timing_kernel_cache

__all__ = [
    "measure_timing_trace",
    "default_partitions",
    "SampleCountDriftWarning",
]


class SampleCountDriftWarning(UserWarning):
    """The effective per-iteration sample count differs from the request.

    ``measure_timing_trace`` rounds ``total_samples`` down to a multiple of
    the partition count ``k`` (at least one sample per partition), so two
    schemes with different natural ``k`` can process slightly different
    totals.  The trace metadata records the effective total; this warning
    makes the drift visible instead of silent.
    """


def default_partitions(num_workers: int, multiplier: int = 2) -> int:
    """Deprecated alias for the heterogeneity-aware partition count.

    .. deprecated::
        Use :func:`repro.coding.natural_partitions` with scheme
        ``"heter_aware"`` instead; this duplicate will be removed.
    """
    warnings.warn(
        "default_partitions is deprecated; use "
        "repro.coding.natural_partitions('heter_aware', num_workers, multiplier)",
        DeprecationWarning,
        stacklevel=2,
    )
    return natural_partitions("heter_aware", num_workers, heter_multiplier=multiplier)


@dataclass(frozen=True)
class _TimingSetup:
    """The per-run derivations of a timing-only run, before any draw.

    Shared by :func:`measure_timing_trace` and the engine's stacked sweep
    path, so a stacked member observes exactly the state a standalone run
    builds.
    """

    scheme: str
    strategy: CodingStrategy
    samples_per_partition: int
    effective_total_samples: int
    metadata: dict[str, Any]

    def warn_if_drifted(self, stacklevel: int) -> None:
        """Emit :class:`SampleCountDriftWarning` when the total was rounded.

        ``stacklevel`` counts from the caller, as for :func:`warnings.warn`.
        """
        total_samples = self.metadata["total_samples"]
        if self.effective_total_samples == total_samples:
            return
        warnings.warn(
            f"scheme {self.scheme!r} with k={self.metadata['num_partitions']} "
            f"partitions processes {self.effective_total_samples} samples per "
            f"iteration instead of the requested {total_samples} "
            "(total_samples is rounded to a multiple of the partition count); "
            "pass a total divisible by k to compare schemes on identical "
            "sample counts",
            SampleCountDriftWarning,
            stacklevel=stacklevel + 1,
        )


def _timing_setup(
    scheme: str,
    cluster: ClusterSpec,
    num_stragglers: int,
    total_samples: int,
    partitions_multiplier: int,
    num_partitions: int | None,
    injector: StragglerInjector,
    network: CommunicationModel,
    seed: int | None,
) -> _TimingSetup:
    """Partition count, samples per partition, strategy and trace metadata."""
    if total_samples <= 0:
        raise ValueError("total_samples must be positive")
    k = num_partitions or natural_partitions(
        scheme, cluster.num_workers, partitions_multiplier
    )
    samples_per_partition = max(1, total_samples // k)
    effective_total_samples = samples_per_partition * k
    throughputs = cluster.estimated_throughputs

    def build() -> CodingStrategy:
        return build_strategy(
            scheme,
            throughputs=throughputs,
            num_partitions=k,
            num_stragglers=num_stragglers,
            rng=np.random.default_rng(seed),
        )

    if not isinstance(seed, (int, np.integer)):
        strategy = build()  # fresh entropy is never memoised
    else:
        # The registered builder is part of the key, so re-registering a
        # scheme name never serves the old builder's strategy.
        key = (
            scheme,
            SCHEMES.get(scheme) if scheme in SCHEMES else None,
            throughputs.tobytes(),
            k,
            num_stragglers,
            int(seed),
        )
        strategy = default_timing_kernel_cache().memoised("strategy", key, build)
    metadata: dict[str, Any] = {
        "mode": "timing_only",
        "num_workers": cluster.num_workers,
        "num_partitions": k,
        "num_stragglers": num_stragglers,
        "total_samples": total_samples,
        "effective_total_samples": effective_total_samples,
        "samples_per_partition": samples_per_partition,
        "loads": list(strategy.loads),
        "num_groups": len(strategy.groups),
        "injector": injector.describe(),
        "network": network.describe(),
        "rng_version": 2,
    }
    return _TimingSetup(
        scheme=scheme,
        strategy=strategy,
        samples_per_partition=samples_per_partition,
        effective_total_samples=effective_total_samples,
        metadata=metadata,
    )


def measure_timing_trace(
    scheme: str,
    cluster: ClusterSpec,
    num_stragglers: int,
    total_samples: int,
    num_iterations: int,
    partitions_multiplier: int = 2,
    num_partitions: int | None = None,
    injector: StragglerInjector | None = None,
    network: CommunicationModel | None = None,
    gradient_bytes: float = 8.0 * 65536,
    seed: int | None = 0,
) -> RunTrace:
    """Simulate ``num_iterations`` of one scheme and return a timing trace.

    The returned :class:`~repro.simulation.trace.RunTrace` has ``nan``
    training losses (no learning is performed); durations, per-worker
    compute times and workers-used are all populated, which is exactly what
    the Figs. 2/3/5 metrics need.

    The pre-built :class:`~repro.simulation.vectorized.TimingTraceKernel`
    comes from the **process-wide** cache
    (:func:`~repro.simulation.vectorized.default_timing_kernel_cache`), the
    one the :class:`~repro.api.engine.Engine` uses too, so calls that differ
    only in the injector or RNG inputs reuse one kernel, its
    :class:`~repro.coding.decoding.Decoder` and its memoised decode-order
    decisions.  Results never depend on the cache: decode decisions are
    pure functions of the completion order.

    Parameters
    ----------
    scheme:
        Scheme name from :data:`repro.coding.SCHEME_NAMES`.
    cluster:
        The simulated cluster; the strategy is built from its *estimated*
        throughputs while timing uses the *true* ones.
    num_stragglers:
        ``s``, the straggler tolerance the coded schemes are built for.
    total_samples:
        Dataset size processed each iteration; split into the scheme's
        natural number of partitions.
    num_iterations:
        How many iterations to simulate.
    partitions_multiplier:
        ``k / m`` for the heterogeneity-aware family.
    num_partitions:
        Explicit override of ``k`` (all schemes then use it).
    injector, network, gradient_bytes:
        The straggler model, the communication model and the coded
        gradient's payload size on the wire.
    seed:
        Seeds the coding-matrix construction and, through the
        per-component child streams of
        :class:`~repro.simulation.rng.RngStreams`, the injector, jitter and
        network draws; the whole trace runs as a 1-run stack of batched
        draws.
    """
    if num_iterations <= 0:
        raise ValueError("num_iterations must be positive")
    injector = injector or NoStragglers()
    network = network or SimpleNetwork()
    setup = _timing_setup(
        scheme,
        cluster,
        num_stragglers,
        total_samples,
        partitions_multiplier,
        num_partitions,
        injector,
        network,
        seed,
    )
    setup.warn_if_drifted(stacklevel=2)
    kernel = default_timing_kernel_cache().get_or_build(
        setup.strategy,
        cluster,
        samples_per_partition=setup.samples_per_partition,
        network=network,
        gradient_bytes=gradient_bytes,
    )
    streams = RngStreams.from_seed(seed)
    run = StackedRun(
        injector_rng=streams.injector,
        jitter_rng=streams.jitter,
        network_rng=streams.network,
        injector=injector,
    )
    arrays = kernel.run_stacked(num_iterations, [run])[0]
    # Columnar hand-off: the kernel arrays become the trace's storage as-is;
    # no per-iteration record object is ever constructed.
    return RunTrace.from_arrays(
        scheme=scheme,
        cluster_name=cluster.name,
        arrays=arrays,
        metadata=setup.metadata,
    )
