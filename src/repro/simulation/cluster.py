"""Cluster specifications: collections of heterogeneous workers.

The paper evaluates on four QingCloud clusters (Table II) whose workers mix
2-, 4-, 8-, 12- and 16-vCPU instances.  :class:`ClusterSpec` models such a
cluster; :func:`cluster_from_vcpu_counts` builds one from a Table II-style
``{vcpus: count}`` mapping, assuming throughput proportional to vCPU count
with a configurable per-machine spread (no two "identical" VMs are ever
exactly equal in practice).

The concrete Table II configurations live in
:mod:`repro.experiments.clusters`; this module provides the generic
machinery.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .workers import WorkerSpec

__all__ = ["ClusterSpec", "cluster_from_vcpu_counts", "uniform_cluster"]


class ClusterError(ValueError):
    """Raised on invalid cluster configurations."""


@dataclass(frozen=True)
class ClusterSpec:
    """A named, ordered collection of workers.

    Attributes
    ----------
    name:
        Cluster name (e.g. ``"Cluster-A"``).
    workers:
        Tuple of :class:`~repro.simulation.workers.WorkerSpec`, whose
        ``worker_id`` fields must equal their positions.
    """

    name: str
    workers: tuple[WorkerSpec, ...]

    def __post_init__(self) -> None:
        if not self.workers:
            raise ClusterError("a cluster must contain at least one worker")
        for index, worker in enumerate(self.workers):
            if worker.worker_id != index:
                raise ClusterError(
                    f"worker at position {index} has worker_id "
                    f"{worker.worker_id}; ids must match positions"
                )

    @property
    def num_workers(self) -> int:
        return len(self.workers)

    @property
    def true_throughputs(self) -> np.ndarray:
        """True per-worker throughputs (samples per second)."""
        return np.array([w.true_throughput for w in self.workers])

    @property
    def estimated_throughputs(self) -> np.ndarray:
        """Estimated per-worker throughputs (what the allocator sees)."""
        return np.array([float(w.estimated_throughput) for w in self.workers])

    @cached_property
    def _true_throughput_array(self) -> np.ndarray:
        """Read-only cached throughputs for the vectorized timing kernels."""
        speeds = np.array([w.true_throughput for w in self.workers])
        speeds.flags.writeable = False
        return speeds

    @cached_property
    def _compute_noise_array(self) -> np.ndarray:
        """Read-only cached per-worker jitter widths."""
        noise = np.array([w.compute_noise for w in self.workers])
        noise.flags.writeable = False
        return noise

    def compute_times(
        self,
        workloads: Sequence[float],
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        """Array-valued :meth:`WorkerSpec.compute_time` over the whole cluster.

        Draws the lognormal jitter of every noisy, loaded worker in one batch
        (same RNG stream, hence bit-identical to per-worker scalar draws in
        worker order) and returns the per-worker compute times.
        """
        workloads = np.asarray(workloads, dtype=np.float64)
        if workloads.shape != (self.num_workers,):
            raise ClusterError(
                f"expected {self.num_workers} workloads, got shape {workloads.shape}"
            )
        if np.any(workloads < 0):
            raise ClusterError("workloads must be non-negative")
        base = workloads / self._true_throughput_array
        if rng is None:
            return base
        noise = self._compute_noise_array
        drawn = (noise > 0.0) & (workloads > 0.0)
        count = int(drawn.sum())
        if count:
            sigma = noise[drawn]
            # A scalar sigma draw consumes the identical RNG stream but runs
            # through the fast fixed-parameter path in the generator.
            if count == 1 or (sigma == sigma[0]).all():
                values = rng.lognormal(mean=0.0, sigma=float(sigma[0]), size=count)
            else:
                values = rng.lognormal(mean=0.0, sigma=sigma)
            if count == self.num_workers:
                base = base * values
            else:
                jitter = np.ones(self.num_workers)
                jitter[drawn] = values
                base = base * jitter
        return base

    def compute_times_batch(
        self,
        workloads: Sequence[float],
        num_iterations: int,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        """Compute times of ``num_iterations`` iterations in one batched draw.

        Returns shape ``(num_iterations, num_workers)``.  All lognormal
        jitter is drawn in a single generator call, so simulating a whole
        trace costs one RNG entry instead of one per iteration.  The draws
        fill the matrix row by row, so they consume ``rng`` exactly as
        ``num_iterations`` successive :meth:`compute_times` calls would and
        are bit-identical to them.
        """
        if num_iterations <= 0:
            raise ClusterError("num_iterations must be positive")
        workloads = np.asarray(workloads, dtype=np.float64)
        if workloads.shape != (self.num_workers,):
            raise ClusterError(
                f"expected {self.num_workers} workloads, got shape {workloads.shape}"
            )
        if np.any(workloads < 0):
            raise ClusterError("workloads must be non-negative")
        base = workloads / self._true_throughput_array
        if rng is None:
            return np.broadcast_to(base, (num_iterations, self.num_workers)).copy()
        noise = self._compute_noise_array
        drawn = (noise > 0.0) & (workloads > 0.0)
        count = int(drawn.sum())
        if not count:
            return np.broadcast_to(base, (num_iterations, self.num_workers)).copy()
        sigma = noise[drawn]
        if count == 1 or (sigma == sigma[0]).all():
            values = rng.lognormal(
                mean=0.0, sigma=float(sigma[0]), size=(num_iterations, count)
            )
        else:
            values = rng.lognormal(mean=0.0, sigma=sigma, size=(num_iterations, count))
        if count == self.num_workers:
            return base * values
        jitter = np.ones((num_iterations, self.num_workers))
        jitter[:, drawn] = values
        return base * jitter

    @property
    def vcpu_counts(self) -> tuple[int, ...]:
        return tuple(w.vcpus for w in self.workers)

    @property
    def heterogeneity_ratio(self) -> float:
        """Ratio of the fastest to the slowest true throughput."""
        speeds = self.true_throughputs
        return float(speeds.max() / speeds.min())

    def with_workers(self, workers: Sequence[WorkerSpec]) -> "ClusterSpec":
        """Return a cluster with the same name but different workers."""
        return ClusterSpec(name=self.name, workers=tuple(workers))

    def describe(self) -> str:
        """Multi-line human-readable summary used by experiment reports."""
        lines = [
            f"{self.name}: {self.num_workers} workers, "
            f"heterogeneity {self.heterogeneity_ratio:.1f}x"
        ]
        by_vcpu: dict[int, int] = {}
        for worker in self.workers:
            by_vcpu[worker.vcpus] = by_vcpu.get(worker.vcpus, 0) + 1
        for vcpus in sorted(by_vcpu):
            lines.append(f"  {by_vcpu[vcpus]} x {vcpus}-vCPU")
        return "\n".join(lines)


def cluster_from_vcpu_counts(
    name: str,
    vcpu_counts: Mapping[int, int],
    samples_per_second_per_vcpu: float = 50.0,
    machine_spread: float = 0.05,
    compute_noise: float = 0.02,
    rng: np.random.Generator | int | None = None,
) -> ClusterSpec:
    """Build a cluster from a Table II-style ``{vcpus: how many}`` mapping.

    Parameters
    ----------
    name:
        Cluster name.
    vcpu_counts:
        Mapping from vCPU size to the number of instances of that size, e.g.
        ``{2: 2, 4: 2, 8: 3, 12: 1}`` for Cluster-A.
    samples_per_second_per_vcpu:
        Base throughput of a single vCPU; a ``v``-vCPU machine gets
        ``v * samples_per_second_per_vcpu`` before the spread is applied.
    machine_spread:
        Relative lognormal spread between nominally identical machines.
    compute_noise:
        Per-iteration runtime jitter passed to every worker.
    rng:
        Random source for the spread.

    Returns
    -------
    ClusterSpec
        Workers are ordered from smallest to largest instance type.
    """
    if not vcpu_counts:
        raise ClusterError("vcpu_counts must not be empty")
    generator = np.random.default_rng(rng)
    workers: list[WorkerSpec] = []
    worker_id = 0
    for vcpus in sorted(vcpu_counts):
        count = vcpu_counts[vcpus]
        if count < 0:
            raise ClusterError(f"negative instance count for {vcpus}-vCPU machines")
        for _ in range(count):
            spread = (
                1.0
                if machine_spread == 0
                else float(generator.lognormal(mean=0.0, sigma=machine_spread))
            )
            throughput = vcpus * samples_per_second_per_vcpu * spread
            workers.append(
                WorkerSpec(
                    worker_id=worker_id,
                    vcpus=int(vcpus),
                    true_throughput=throughput,
                    compute_noise=compute_noise,
                )
            )
            worker_id += 1
    if not workers:
        raise ClusterError("cluster has zero workers")
    return ClusterSpec(name=name, workers=tuple(workers))


def uniform_cluster(
    name: str,
    num_workers: int,
    samples_per_second: float = 200.0,
    compute_noise: float = 0.02,
) -> ClusterSpec:
    """Build a homogeneous cluster (every worker identical).

    Useful as a control: on a homogeneous cluster the heter-aware scheme
    degenerates to the cyclic scheme, which several tests assert.
    """
    if num_workers <= 0:
        raise ClusterError("num_workers must be positive")
    if samples_per_second <= 0:
        raise ClusterError("samples_per_second must be positive")
    workers = tuple(
        WorkerSpec(
            worker_id=i,
            vcpus=1,
            true_throughput=samples_per_second,
            compute_noise=compute_noise,
        )
        for i in range(num_workers)
    )
    return ClusterSpec(name=name, workers=workers)
