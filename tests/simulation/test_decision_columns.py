"""Trace columns gathered from the kernel's table of distinct decisions.

``TimingTraceKernel._decide`` returns one code per iteration into its table
of distinct decode decisions, and the kernels build ``workers_used`` and
``used_groups`` with one :meth:`RaggedColumn.take` over that table.  The
columns must equal ``RaggedColumn.from_rows`` of the per-row scalar
decisions array for array — offsets, values, ``present`` and dtypes — so
traces, store payloads and goldens cannot tell the two apart.  Covered:
undecodable (all-``inf``) rows, rows with fewer than ``m`` finite times,
the group fast path (``group_based``) and a 16-worker cluster, above the
limit for packing a whole order into one 64-bit key.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding import Decoder
from repro.coding.registry import build_strategy, natural_partitions
from repro.simulation.cluster import cluster_from_vcpu_counts
from repro.simulation.rng import RngStreams
from repro.simulation.stragglers import (
    CompositeInjector,
    FailStop,
    StragglerInjector,
    TransientSlowdown,
)
from repro.simulation.trace import RaggedColumn
from repro.simulation.vectorized import (
    StackedRun,
    TimingTraceKernel,
    simulate_worker_timing_arrays_stacked,
)

#: 8 workers pack an (order, count) row into one integer; 16 do not.
COMPOSITIONS = {
    8: {2: 2, 4: 2, 8: 3, 12: 1},
    16: {2: 4, 4: 4, 8: 6, 16: 2},
}
SCHEMES = ("naive", "cyclic", "heter_aware", "group_based")


def make_kernel(num_workers: int, scheme: str) -> TimingTraceKernel:
    cluster = cluster_from_vcpu_counts(
        f"mixed-{num_workers}", COMPOSITIONS[num_workers], rng=0
    )
    strategy = build_strategy(
        scheme,
        throughputs=cluster.estimated_throughputs,
        num_partitions=natural_partitions(scheme, num_workers, 2),
        num_stragglers=1 if scheme == "naive" else 2,
        rng=np.random.default_rng(0),
    )
    return TimingTraceKernel(strategy, cluster, samples_per_partition=16)


KERNELS = {
    (m, scheme): make_kernel(m, scheme) for m in COMPOSITIONS for scheme in SCHEMES
}


def scalar_rows(strategy, completion: np.ndarray):
    """Workers used and group used per row, from the scalar search."""
    decoder = Decoder(strategy)
    workers_used, used_groups = [], []
    for row in completion:
        order = row.argsort(kind="stable")[: int(np.isfinite(row).sum())].tolist()
        prefix = decoder.earliest_decodable_prefix(order)
        if prefix is None:
            workers_used.append(())
            used_groups.append(None)
            continue
        result = decoder.decoding_vector(order[:prefix])
        workers_used.append(result.workers_used)
        used_groups.append(result.used_group)
    return workers_used, used_groups


def assert_same_arrays(gathered: RaggedColumn, built: RaggedColumn) -> None:
    for name in ("offsets", "values", "present"):
        got, want = getattr(gathered, name), getattr(built, name)
        if want is None:
            assert got is None, name
            continue
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name


@st.composite
def completion_matrices(draw):
    m = draw(st.sampled_from(sorted(COMPOSITIONS)))
    scheme = draw(st.sampled_from(SCHEMES))
    rows = draw(st.integers(min_value=1, max_value=40))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    failed = draw(st.sampled_from((0.0, 0.1, 0.3)))
    rng = np.random.default_rng(seed)
    # Rounding makes ties, which the stable argsort breaks by worker id.
    completion = np.round(rng.exponential(size=(rows, m)), 1)
    completion[rng.random((rows, m)) < failed] = np.inf
    if draw(st.booleans()):
        completion[rng.integers(rows)] = np.inf  # an undecodable row
    return KERNELS[(m, scheme)], completion


class TestGatheredColumns:
    @settings(max_examples=60, deadline=None)
    @given(completion_matrices())
    def test_gather_equals_from_rows_of_scalar_decisions(self, case):
        kernel, completion = case
        durations, codes, workers_table, groups_table = kernel._decide(completion)
        assert codes.dtype == np.intp
        workers_used, used_groups = scalar_rows(kernel.strategy, completion)
        assert_same_arrays(
            workers_table.take(codes), RaggedColumn.from_rows(workers_used)
        )
        assert_same_arrays(
            groups_table.take(codes),
            RaggedColumn.from_rows(used_groups, nullable=True),
        )
        assert np.isinf(durations).tolist() == [not row for row in workers_used]

    def test_group_fast_path_fills_used_groups(self):
        kernel = KERNELS[(16, "group_based")]
        completion = np.random.default_rng(3).exponential(size=(200, 16))
        _, codes, _, groups_table = kernel._decide(completion)
        assert groups_table.take(codes).present.any()

    def test_codes_index_a_table_of_distinct_decisions(self):
        kernel = make_kernel(8, "cyclic")
        completion = np.random.default_rng(0).exponential(size=(500, 8))
        _, first, workers_table, _ = kernel._decide(completion)
        rows = workers_table.tuples()
        assert len(set(rows)) == len(rows)  # one row per decision
        assert rows[0] == ()  # code 0 is the undecodable decision
        # Seen orders come back with the same codes from the order memo.
        _, again, _, _ = kernel._decide(completion)
        assert np.array_equal(first, again)


def stacked_runs(seeds, injectors):
    runs = []
    for seed, injector in zip(seeds, injectors, strict=True):
        streams = RngStreams.from_seed(seed)
        runs.append(
            StackedRun(
                injector_rng=streams.injector,
                jitter_rng=streams.jitter,
                injector=injector,
            )
        )
    return runs


TRANSIENT = TransientSlowdown(probability=0.3, mean_delay_seconds=1.0)
FAILING = CompositeInjector([TRANSIENT, FailStop({2: 4, 5: 9})])


class TestStackSlices:
    @pytest.mark.parametrize("m", sorted(COMPOSITIONS))
    @pytest.mark.parametrize("scheme", ("naive", "group_based"))
    def test_each_slice_equals_its_one_run_stack(self, m, scheme):
        seeds = (0, 1, 2)
        injectors = (FAILING, TRANSIENT, FAILING)
        stacked = KERNELS[(m, scheme)].run_stacked(
            30, stacked_runs(seeds, injectors)
        )
        for seed, injector, arrays in zip(seeds, injectors, stacked, strict=True):
            (alone,) = make_kernel(m, scheme).run_stacked(
                30, stacked_runs((seed,), (injector,))
            )
            assert np.array_equal(arrays.durations, alone.durations)
            assert_same_arrays(arrays.workers_used, alone.workers_used)
            assert_same_arrays(arrays.used_groups, alone.used_groups)


class _FixedDelays(StragglerInjector):
    """Hands out one pre-drawn delay block, to observe copies."""

    def __init__(self, block: np.ndarray) -> None:
        self.block = block

    def delays(self, iteration, num_workers, rng):
        return self.block[iteration]

    def delays_batch(self, start, num_iterations, num_workers, rng):
        return self.block

    def describe(self) -> str:
        return "fixed"


class TestOneRunStackViews:
    def test_one_run_stack_does_not_copy_its_blocks(self):
        kernel = make_kernel(8, "cyclic")
        block = np.random.default_rng(0).exponential(size=(25, 8))
        (run,) = stacked_runs((0,), (_FixedDelays(block),))
        compute, delays, _ = simulate_worker_timing_arrays_stacked(
            kernel.cluster, kernel.workloads, 25, [run]
        )
        assert delays.shape == (1, 25, 8)
        assert np.shares_memory(delays, block)
        assert compute.base is not None  # a view of the run's own draw

    def test_one_run_stack_equals_its_slice_of_a_larger_stack(self):
        kernel = make_kernel(8, "cyclic")
        injectors = (FAILING, TRANSIENT)
        together = simulate_worker_timing_arrays_stacked(
            kernel.cluster, kernel.workloads, 25, stacked_runs((4, 5), injectors)
        )
        alone = simulate_worker_timing_arrays_stacked(
            kernel.cluster, kernel.workloads, 25, stacked_runs((4,), injectors[:1])
        )
        for stacked, single in zip(together[:2], alone[:2], strict=True):
            assert np.array_equal(stacked[0], single[0])
        assert np.array_equal(together[2], alone[2])


class TestSharedKernel:
    def test_threads_sharing_a_kernel_get_their_own_columns(self):
        # Serve's request threads share cached kernels; assigning decision
        # codes is check-then-act on the kernel's tables.  Each round races
        # 16 threads on a fresh kernel, so every decision is new to it.
        seeds = range(16)
        expected = {
            seed: make_kernel(16, "heter_aware").run_stacked(
                80, stacked_runs((seed,), (FAILING,))
            )[0]
            for seed in seeds
        }
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(4):
                shared = make_kernel(16, "heter_aware")
                results: dict[int, object] = {}

                def run(seed: int, shared=shared, results=results) -> None:
                    (results[seed],) = shared.run_stacked(
                        80, stacked_runs((seed,), (FAILING,))
                    )

                threads = [
                    threading.Thread(target=run, args=(seed,)) for seed in seeds
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert sorted(results) == list(seeds)
                for seed, arrays in results.items():
                    want = expected[seed]
                    assert np.array_equal(arrays.durations, want.durations)
                    assert_same_arrays(arrays.workers_used, want.workers_used)
                    assert_same_arrays(arrays.used_groups, want.used_groups)
        finally:
            sys.setswitchinterval(interval)
