"""Iteration timing model: per-worker workloads and the timing error type.

Given a coding strategy, a cluster and a straggler injector, the timing
kernel (:class:`~repro.simulation.vectorized.TimingTraceKernel`) computes
*when* each worker would deliver its coded gradient and when the master can
decode — the quantities behind every figure in the paper's evaluation.
The protocols first ask the kernel for a run's timing, then run the
corresponding real gradient computation, so simulated wall-clock time and
real learning progress stay consistent.

Timing model per worker ``i``::

    compute_i = (assigned samples_i / true_throughput_i) * jitter
    total_i   = compute_i + injected_delay_i + comm_time_i

The master finishes the iteration at the earliest time ``t`` such that the
workers that have reported by ``t`` can decode the aggregated gradient
(:meth:`repro.coding.Decoder.earliest_decodable_prefix`).  ``inf`` means the
iteration can never complete (e.g. the naive scheme with a failed worker).
"""

from __future__ import annotations

import numpy as np

from ..coding.types import CodingStrategy

__all__ = ["TimingError", "worker_workloads"]


class TimingError(ValueError):
    """Raised on inconsistent timing inputs."""


def worker_workloads(
    strategy: CodingStrategy, samples_per_partition: int
) -> np.ndarray:
    """Per-worker workload in samples: ``n_i * |D_j|``."""
    if samples_per_partition < 0:
        raise TimingError("samples_per_partition must be non-negative")
    return np.asarray(strategy.loads, dtype=np.float64) * samples_per_partition
