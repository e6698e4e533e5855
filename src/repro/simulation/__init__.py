"""Heterogeneous-cluster simulator.

The simulator replaces the paper's QingCloud testbed: workers have true and
estimated throughputs, per-iteration jitter, injectable transient delays and
failures, and a simple latency/bandwidth network.  The timing engine decides
when the master can decode each iteration; the protocols layer combines that
with real numpy gradient computation.
"""

from .cluster import ClusterSpec, cluster_from_vcpu_counts, uniform_cluster
from .network import (
    CommunicationModel,
    LogNormalNetwork,
    OverlappedNetwork,
    SimpleNetwork,
    ZeroCommunication,
)
from .stragglers import (
    ArtificialDelay,
    BurstyStragglers,
    CompositeInjector,
    FailStop,
    NoStragglers,
    StragglerInjector,
    TransientSlowdown,
)
from .rng import RNG_COMPONENTS, RNG_VERSIONS, RngStreams, component_seed_sequences
from .timing import worker_workloads
from .trace import IterationRecord, RunTrace, TraceColumns, UnknownTraceFieldWarning
from .vectorized import (
    StackedRun,
    TimingKernelCache,
    TimingTraceArrays,
    TimingTraceKernel,
    default_timing_kernel_cache,
    simulate_worker_timing_arrays_stacked,
)
from .workers import WorkerSpec, perturb_estimates

__all__ = [
    # workers / cluster
    "WorkerSpec",
    "perturb_estimates",
    "ClusterSpec",
    "cluster_from_vcpu_counts",
    "uniform_cluster",
    # stragglers
    "StragglerInjector",
    "NoStragglers",
    "ArtificialDelay",
    "TransientSlowdown",
    "BurstyStragglers",
    "FailStop",
    "CompositeInjector",
    # network
    "CommunicationModel",
    "ZeroCommunication",
    "SimpleNetwork",
    "OverlappedNetwork",
    "LogNormalNetwork",
    # timing
    "worker_workloads",
    "simulate_worker_timing_arrays_stacked",
    "StackedRun",
    "TimingTraceKernel",
    "TimingTraceArrays",
    "TimingKernelCache",
    "default_timing_kernel_cache",
    # rng streams
    "RNG_COMPONENTS",
    "RNG_VERSIONS",
    "RngStreams",
    "component_seed_sequences",
    # traces
    "IterationRecord",
    "RunTrace",
    "TraceColumns",
    "UnknownTraceFieldWarning",
]
