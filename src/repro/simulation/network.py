"""Communication-time models for the worker -> master gradient push.

The paper's resource-usage discussion (Fig. 5) attributes roughly half of
the iteration time to communication overhead, so the simulator models the
time to ship a coded gradient explicitly:

``comm_time = latency + gradient_bytes / bandwidth``

per worker, optionally serialised at the master (``master_serialization``)
to capture in-cast congestion when many workers report at once.

Deterministic models (every builtin before PR 4) return one scalar per
payload size.  *Stochastic* models (``is_stochastic = True``, e.g.
:class:`LogNormalNetwork`) additionally sample per-message transfer times
via :meth:`CommunicationModel.sample_transfer_times`; they draw from the
dedicated ``network`` child stream of a run's per-component streams (see
:mod:`repro.simulation.rng`).  The historical single-stream layout, kept as
the oracle in :mod:`repro._reference`, has no slot for network draws and
refuses them.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CommunicationModel",
    "ZeroCommunication",
    "SimpleNetwork",
    "OverlappedNetwork",
    "LogNormalNetwork",
]


class NetworkError(ValueError):
    """Raised on invalid network configurations."""


class CommunicationModel(ABC):
    """Base class: time for one worker to deliver its coded gradient."""

    #: Whether transfer times are random per message.  Stochastic models
    #: must override :meth:`sample_transfer_times`; deterministic models
    #: keep the broadcast default.
    is_stochastic: bool = False

    @abstractmethod
    def transfer_time(self, gradient_bytes: float) -> float:
        """Seconds to transfer a payload of ``gradient_bytes`` bytes.

        For stochastic models this is the *typical* (median) transfer time,
        used for reporting.
        """

    def sample_transfer_times(
        self,
        gradient_bytes: float,
        shape: tuple[int, ...],
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Per-message transfer times of the given shape.

        The deterministic default broadcasts :meth:`transfer_time` and
        consumes no randomness; stochastic models override it with batched
        draws from ``rng`` (a run's ``network`` child stream).
        """
        return np.full(shape, self.transfer_time(gradient_bytes))

    def fingerprint(self, gradient_bytes: float) -> tuple:
        """Hashable identity of this model's timing behaviour for a payload.

        Two models with equal fingerprints produce identical transfer-time
        distributions for the payload, so kernels built against them are
        interchangeable (the :class:`~repro.simulation.vectorized
        .TimingKernelCache` keys on this).  The deterministic default is the
        exact scalar; stochastic models must include every distribution
        parameter.
        """
        return ("deterministic", float(self.transfer_time(gradient_bytes)))

    def describe(self) -> str:
        return type(self).__name__


class ZeroCommunication(CommunicationModel):
    """Idealised network: transfers are instantaneous."""

    def transfer_time(self, gradient_bytes: float) -> float:
        if gradient_bytes < 0:
            raise NetworkError("gradient_bytes must be non-negative")
        return 0.0


@dataclass(frozen=True)
class SimpleNetwork(CommunicationModel):
    """Latency + bandwidth model.

    Attributes
    ----------
    latency_seconds:
        Fixed per-message latency.
    bandwidth_bytes_per_second:
        Link bandwidth from a worker to the master.
    """

    latency_seconds: float = 0.005
    bandwidth_bytes_per_second: float = 1.25e8  # ~1 Gbit/s

    def __post_init__(self) -> None:
        if self.latency_seconds < 0:
            raise NetworkError("latency_seconds must be non-negative")
        if self.bandwidth_bytes_per_second <= 0:
            raise NetworkError("bandwidth_bytes_per_second must be positive")

    def transfer_time(self, gradient_bytes: float) -> float:
        if gradient_bytes < 0:
            raise NetworkError("gradient_bytes must be non-negative")
        return self.latency_seconds + gradient_bytes / self.bandwidth_bytes_per_second

    def describe(self) -> str:
        return (
            f"SimpleNetwork(latency={self.latency_seconds * 1e3:.1f} ms, "
            f"bandwidth={self.bandwidth_bytes_per_second / 1.25e8:.2f} Gbit/s)"
        )


@dataclass(frozen=True)
class OverlappedNetwork(CommunicationModel):
    """Communication partially hidden behind computation.

    The paper's conclusion points at Poseidon-style layer-by-layer gradient
    coding (reference [42]) as the way to recover the roughly 50 % of
    iteration time Fig. 5 attributes to communication: once a layer's
    gradient is ready it can be encoded and pushed while the next layer is
    still computing.  This model captures that effect abstractly: only a
    fraction ``1 - overlap_fraction`` of the underlying transfer time
    remains on the critical path.

    Attributes
    ----------
    base:
        The underlying network model whose transfer time is being hidden.
    overlap_fraction:
        Fraction of the transfer hidden behind computation, in ``[0, 1]``.
        0 reproduces ``base`` exactly; 1 hides communication entirely.
    """

    base: CommunicationModel
    overlap_fraction: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.overlap_fraction <= 1.0:
            raise NetworkError("overlap_fraction must lie in [0, 1]")

    @property
    def is_stochastic(self) -> bool:
        # Overlap is a deterministic scaling; randomness comes (only) from
        # the base model, so stochasticity — and with it the rng_version=2
        # requirement and the network-stream draws — must pass through.
        return self.base.is_stochastic

    def transfer_time(self, gradient_bytes: float) -> float:
        return (1.0 - self.overlap_fraction) * self.base.transfer_time(
            gradient_bytes
        )

    def sample_transfer_times(
        self,
        gradient_bytes: float,
        shape: tuple[int, ...],
        rng: np.random.Generator,
    ) -> np.ndarray:
        return (1.0 - self.overlap_fraction) * self.base.sample_transfer_times(
            gradient_bytes, shape, rng
        )

    def fingerprint(self, gradient_bytes: float) -> tuple:
        if not self.base.is_stochastic:
            # Deterministic composition reduces to one exact scalar, keeping
            # kernel-cache reuse across equivalent deterministic stacks.
            return super().fingerprint(gradient_bytes)
        return (
            "overlapped",
            self.overlap_fraction,
            self.base.fingerprint(gradient_bytes),
        )

    def describe(self) -> str:
        return (
            f"OverlappedNetwork({self.base.describe()}, "
            f"overlap={self.overlap_fraction:.0%})"
        )


@dataclass(frozen=True)
class LogNormalNetwork(CommunicationModel):
    """Stochastic latency + bandwidth model with per-message lognormal noise.

    Real cluster networks are not deterministic: per-message latency varies
    with switch queueing and kernel scheduling, and the achieved bandwidth
    fluctuates with cross-traffic.  This model samples both per message::

        latency   ~ latency_seconds   * LogNormal(0, latency_sigma)
        bandwidth ~ bandwidth_bytes_per_second * LogNormal(0, bandwidth_sigma)
        comm_time = latency + gradient_bytes / bandwidth

    so the *medians* match :class:`SimpleNetwork` with the same parameters.
    Sampling consumes the dedicated ``network`` child stream of a run's
    per-component streams — this is the first model to exercise it; the
    single-stream oracle in :mod:`repro._reference` raises a clear error
    rather than silently collapsing to the median.

    Attributes
    ----------
    latency_seconds:
        Median per-message latency.
    bandwidth_bytes_per_second:
        Median worker-to-master bandwidth.
    latency_sigma:
        Lognormal sigma of the latency noise (0 = deterministic latency).
    bandwidth_sigma:
        Lognormal sigma of the bandwidth noise (0 = deterministic bandwidth).
    """

    latency_seconds: float = 0.005
    bandwidth_bytes_per_second: float = 1.25e8
    latency_sigma: float = 0.25
    bandwidth_sigma: float = 0.1

    is_stochastic = True

    def __post_init__(self) -> None:
        if self.latency_seconds < 0:
            raise NetworkError("latency_seconds must be non-negative")
        if self.bandwidth_bytes_per_second <= 0:
            raise NetworkError("bandwidth_bytes_per_second must be positive")
        if self.latency_sigma < 0 or self.bandwidth_sigma < 0:
            raise NetworkError("sigma parameters must be non-negative")

    def transfer_time(self, gradient_bytes: float) -> float:
        """Median transfer time (the lognormal noise has median 1)."""
        if gradient_bytes < 0:
            raise NetworkError("gradient_bytes must be non-negative")
        return self.latency_seconds + gradient_bytes / self.bandwidth_bytes_per_second

    def sample_transfer_times(
        self,
        gradient_bytes: float,
        shape: tuple[int, ...],
        rng: np.random.Generator,
    ) -> np.ndarray:
        if gradient_bytes < 0:
            raise NetworkError("gradient_bytes must be non-negative")
        latency = self.latency_seconds * rng.lognormal(
            mean=0.0, sigma=self.latency_sigma, size=shape
        )
        bandwidth = self.bandwidth_bytes_per_second * rng.lognormal(
            mean=0.0, sigma=self.bandwidth_sigma, size=shape
        )
        return latency + gradient_bytes / bandwidth

    def fingerprint(self, gradient_bytes: float) -> tuple:
        return (
            "lognormal",
            self.latency_seconds,
            self.bandwidth_bytes_per_second,
            self.latency_sigma,
            self.bandwidth_sigma,
        )

    def describe(self) -> str:
        return (
            f"LogNormalNetwork(latency={self.latency_seconds * 1e3:.1f} ms "
            f"sigma={self.latency_sigma}, "
            f"bandwidth={self.bandwidth_bytes_per_second / 1.25e8:.2f} Gbit/s "
            f"sigma={self.bandwidth_sigma})"
        )
