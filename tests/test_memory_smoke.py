"""Memory smoke check: columnar traces must not regress to record objects.

A 10k-iteration timing trace stored column-first costs a handful of numpy
arrays (~2 MB for an 8-worker cluster); materializing one
``IterationRecord`` per iteration costs several times that in Python-object
overhead.  This test pins the peak allocation of the end-to-end
``measure_timing_trace`` path so a regression that sneaks per-iteration
record construction back into the hot path fails loudly in CI.
"""

from __future__ import annotations

import tracemalloc
import warnings

import numpy as np
import pytest

from repro.api import Engine
from repro.experiments.clusters import build_cluster
from repro.experiments.common import SampleCountDriftWarning, measure_timing_trace
from repro.learning.optimizers import SGD, Adam, MomentumSGD

NUM_ITERATIONS = 10_000

#: Peak-allocation budget for the 10k-iteration run below.  The columnar
#: trace plus the kernel's transient batch arrays measure ~4.5 MB on an
#: 8-worker cluster; the budget leaves headroom for allocator noise while
#: staying far below what 10k materialized records would add (~10+ MB).
PEAK_BUDGET_BYTES = 12 * 1024 * 1024


class TestTraceMemorySmoke:
    def test_10k_iteration_trace_stays_columnar(self):
        cluster = build_cluster("Cluster-A", rng=0)
        # Start from an empty process-wide kernel cache, so the warm-up below
        # builds this test's kernel rather than reusing an earlier test's.
        Engine.clear_timing_kernel_cache()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SampleCountDriftWarning)
            # Warm imports/caches outside the measurement window.
            measure_timing_trace(
                "heter_aware", cluster, num_stragglers=1, total_samples=2048,
                num_iterations=10, seed=0,
            )
            tracemalloc.start()
            try:
                trace = measure_timing_trace(
                    "heter_aware", cluster, num_stragglers=1, total_samples=2048,
                    num_iterations=NUM_ITERATIONS, seed=0,
                )
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert trace.num_iterations == NUM_ITERATIONS
        # The records view must stay unmaterialized: nothing in the
        # measurement path may have touched trace.records.
        assert trace._records_cache is None
        assert peak < PEAK_BUDGET_BYTES, (
            f"peak allocation {peak / 1e6:.1f} MB exceeds the "
            f"{PEAK_BUDGET_BYTES / 1e6:.1f} MB budget — did per-iteration "
            "record objects sneak back into the timing path?"
        )

    def test_records_view_still_materializes_on_demand(self):
        cluster = build_cluster("Cluster-A", rng=0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SampleCountDriftWarning)
            trace = measure_timing_trace(
                "heter_aware", cluster, num_stragglers=1, total_samples=2048,
                num_iterations=50, seed=0,
            )
        records = trace.records
        assert len(records) == 50
        assert trace._records_cache is not None
        assert trace.records[0] is records[0]  # materialized once


class TestOptimizerStepInplaceAllocations:
    """The fused in-place kernels must not allocate in steady state.

    Each optimiser is warmed for two steps (the first step builds the moment
    and scratch buffers), then 50 further ``step_inplace`` calls run under
    ``tracemalloc``.  A copy-on-write fallback — or any per-step temporary of
    parameter size — would allocate ``O(steps * nbytes)``; the budget below
    is a small fraction of ONE parameter buffer, so even a single full-size
    temporary per step fails loudly.
    """

    NUM_PARAMETERS = 1 << 18  # 2 MB of float64 parameters
    STEPS = 50

    @pytest.mark.parametrize(
        "factory, budget_fraction",
        [
            # SGD documents exactly one transient temporary (lr * g) per
            # step; the stateful optimisers reuse scratch buffers and must
            # stay strictly allocation-free.
            (lambda: SGD(learning_rate=0.1), 1.5),
            (lambda: MomentumSGD(learning_rate=0.05, momentum=0.9), 0.25),
            (
                lambda: MomentumSGD(
                    learning_rate=0.05, momentum=0.9, nesterov=True
                ),
                0.25,
            ),
            (lambda: Adam(learning_rate=0.01), 0.25),
        ],
        ids=["sgd", "momentum", "nesterov", "adam"],
    )
    def test_steady_state_step_is_allocation_free(self, factory, budget_fraction):
        optimizer = factory()
        parameters = np.zeros(self.NUM_PARAMETERS)
        gradient = np.random.default_rng(0).normal(size=self.NUM_PARAMETERS)
        buffer_bytes = parameters.nbytes
        for _ in range(2):  # build moment/scratch buffers outside the window
            optimizer.step_inplace(parameters, gradient)
        tracemalloc.start()
        try:
            for _ in range(self.STEPS):
                returned = optimizer.step_inplace(parameters, gradient)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert returned is parameters
        assert peak < buffer_bytes * budget_fraction, (
            f"step_inplace allocated {peak / 1e6:.2f} MB peak over "
            f"{self.STEPS} steps on a {buffer_bytes / 1e6:.2f} MB parameter "
            "vector — did the copy-on-write fallback sneak back in?"
        )
