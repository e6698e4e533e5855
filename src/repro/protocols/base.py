"""Common infrastructure for distributed training protocols.

A *protocol* combines the three lower layers: it asks the cluster simulator
how long an iteration takes, runs the corresponding real numpy gradient
computation, applies the optimiser, and records everything in a
:class:`~repro.simulation.trace.RunTrace`.

:class:`TrainingConfig` gathers the knobs shared by all protocols so that
experiments can sweep a single object.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from ..learning.models.base import Model
from ..learning.optimizers import SGD, Optimizer
from ..learning.partition import PartitionedDataset
from ..simulation.cluster import ClusterSpec
from ..simulation.network import CommunicationModel, SimpleNetwork
from ..simulation.rng import RNG_COMPONENTS, RngStreams
from ..simulation.stragglers import NoStragglers, StragglerInjector
from ..simulation.trace import RunTrace

__all__ = ["TrainingConfig", "TrainingProtocol", "evaluate_mean_loss"]


class ProtocolError(ValueError):
    """Raised on invalid protocol configuration."""


@dataclass
class TrainingConfig:
    """Knobs shared by every training protocol.

    Attributes
    ----------
    num_iterations:
        Number of BSP iterations (or, for asynchronous protocols, the number
        of *equivalent* passes used to derive a time budget).
    num_stragglers:
        ``s``, the straggler tolerance the coded schemes are built for.
    num_partitions:
        ``k``; when ``None`` every scheme uses its natural partition count
        (``k = m`` for the uniform baselines and SSP,
        ``k = partitions_multiplier * m`` for the heterogeneity-aware
        family — see :func:`repro.coding.natural_partitions`).
    partitions_multiplier:
        ``k / m`` used for the heterogeneity-aware family when
        ``num_partitions`` is not given.
    optimizer_factory:
        Callable returning a fresh optimiser for each run.
    straggler_injector:
        Transient straggler model applied on top of cluster heterogeneity.
    network:
        Communication model for the worker -> master gradient push.
    bytes_per_parameter:
        Size of one gradient entry on the wire (8 for float64).
    seed:
        Seed for all randomness inside the run (timing jitter, straggler
        choice, coding matrix construction, partitioning, loss-evaluation
        and mini-batch sampling).
    record_loss_every:
        Evaluate and record the training loss every this many iterations
        (loss evaluation is the most expensive part of a simulated step).
    loss_eval_samples:
        Evaluate the loss on at most this many samples (0 = all).
    rng_streams:
        Per-component :class:`~repro.simulation.rng.RngStreams`.  Protocols
        draw their timing randomness from the ``injector``/``jitter``/
        ``network`` child streams — which is what lets the whole-trace
        batched timing kernel run — and their coding-matrix construction
        from the ``training`` stream (via :meth:`make_rng` with
        ``component=``).  When not given, the streams are spawned from
        :attr:`seed`.  The streams are live generators that a run consumes,
        so give every run its own config (or its own streams) when runs
        must be paired.
    """

    num_iterations: int = 20
    num_stragglers: int = 1
    num_partitions: int | None = None
    partitions_multiplier: int = 2
    optimizer_factory: Callable[[], Optimizer] = field(
        default_factory=lambda: (lambda: SGD(learning_rate=0.1))
    )
    straggler_injector: StragglerInjector = field(default_factory=NoStragglers)
    network: CommunicationModel = field(default_factory=SimpleNetwork)
    bytes_per_parameter: int = 8
    seed: int | None = 0
    record_loss_every: int = 1
    loss_eval_samples: int = 0
    rng_streams: RngStreams | None = None

    def __post_init__(self) -> None:
        if self.num_iterations <= 0:
            raise ProtocolError("num_iterations must be positive")
        if self.num_stragglers < 0:
            raise ProtocolError("num_stragglers must be non-negative")
        if self.num_partitions is not None and self.num_partitions <= 0:
            raise ProtocolError("num_partitions must be positive when given")
        if self.partitions_multiplier <= 0:
            raise ProtocolError("partitions_multiplier must be positive")
        if self.bytes_per_parameter <= 0:
            raise ProtocolError("bytes_per_parameter must be positive")
        if self.record_loss_every <= 0:
            raise ProtocolError("record_loss_every must be positive")
        if self.loss_eval_samples < 0:
            raise ProtocolError("loss_eval_samples must be non-negative")
        self.rng_streams = self.rng_streams or RngStreams.from_seed(self.seed)

    def resolve_partitions(self, num_workers: int, scheme: str = "heter_aware") -> int:
        """Pick ``k`` for a scheme: the explicit override or the natural count."""
        if self.num_partitions is not None:
            return self.num_partitions
        from ..coding.registry import natural_partitions

        return natural_partitions(
            scheme, num_workers, heter_multiplier=self.partitions_multiplier
        )

    def make_rng(
        self, stream_offset: int = 0, component: str | None = None
    ) -> np.random.Generator:
        """Generator for one randomness component of the run.

        With ``component`` given (one of
        :data:`~repro.simulation.rng.RNG_COMPONENTS`), the *live* child
        generator of that component in :attr:`rng_streams` is returned —
        repeated calls continue the same stream.

        Without it, this returns a fresh generator seeded from
        ``seed + stream_offset``; different offsets yield independent
        streams (e.g. one for loss evaluation, one for mini-batch choice),
        and every call with one offset restarts the same stream.
        """
        if component is not None:
            if component not in RNG_COMPONENTS:
                raise ProtocolError(
                    f"unknown rng component {component!r}; expected one of "
                    f"{RNG_COMPONENTS}"
                )
            return getattr(self.rng_streams, component)
        if self.seed is None:
            # seed=None is the documented "explicitly non-reproducible run"
            # escape hatch (mirrors default_rng(None) semantics).
            return np.random.default_rng(None)  # repro-lint: disable=RNG001
        return np.random.default_rng(self.seed + stream_offset)


def evaluate_mean_loss(
    model: Model,
    partitioned: PartitionedDataset,
    max_samples: int = 0,
    rng: np.random.Generator | None = None,
) -> float:
    """Mean training loss over the (optionally subsampled) dataset.

    One stacked evaluation over the dataset's cached evaluation view
    (:meth:`~repro.learning.partition.PartitionedDataset.evaluation_data`):
    the per-call index concatenation and double fancy-indexing the original
    implementation paid every iteration are gone, and the RNG stream of the
    subsample is unchanged (``Generator.choice`` consumes the stream as a
    function of the population *size* only), so recorded loss curves are
    bit-identical to the historical path.

    Parameters
    ----------
    model:
        The current model.
    partitioned:
        The partitioned training set.
    max_samples:
        When positive, evaluate on a random subset of this size — loss
        evaluation is for reporting only and need not touch every sample.
    rng:
        Random source for the subsample.
    """
    features, labels = partitioned.evaluation_data()
    used = features.shape[0]
    if max_samples and used > max_samples:
        generator = rng or np.random.default_rng(0)
        picked = generator.choice(used, size=max_samples, replace=False)
        features = features[picked]
        labels = labels[picked]
    return model.loss(features, labels) / features.shape[0]


class TrainingProtocol(ABC):
    """Base class for all training protocols."""

    name: str = "protocol"

    @abstractmethod
    def run(
        self,
        model: Model,
        partitioned: PartitionedDataset,
        cluster: ClusterSpec,
        config: TrainingConfig,
    ) -> RunTrace:
        """Train ``model`` in place and return the run trace."""

    def describe(self) -> str:
        """Short human-readable description for reports."""
        return self.name
