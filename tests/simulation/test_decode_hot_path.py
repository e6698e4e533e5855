"""The timing kernel decides through the batched prefix search only.

``run_stacked`` (where a single run is a 1-run stack) hands every
completion order the order memo has not seen to
``Decoder.earliest_decodable_prefix_batched``.
These tests pin that the per-order search is never called on that path, and
that the arrays equal one-order-at-a-time decisions made with the scalar
search: across several basis chunks, with failed (truncated) workers, and
with a full order memo.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.coding import Decoder
from repro.coding.registry import build_strategy, natural_partitions
from repro.experiments.clusters import build_cluster
from repro.simulation.rng import RngStreams
from repro.simulation.stragglers import CompositeInjector, FailStop, TransientSlowdown
from repro.simulation.vectorized import StackedRun, TimingTraceKernel

TRANSIENT = TransientSlowdown(probability=0.2, mean_delay_seconds=1.0)
FAILING = CompositeInjector([TRANSIENT, FailStop({3: 5, 11: 20})])


def make_kernel(cluster_name: str = "Cluster-D", scheme: str = "cyclic"):
    cluster = build_cluster(cluster_name, rng=0)
    k = natural_partitions(scheme, cluster.num_workers, 1)
    strategy = build_strategy(
        scheme,
        throughputs=cluster.estimated_throughputs,
        num_partitions=k,
        num_stragglers=2,
        rng=np.random.default_rng(0),
    )
    return TimingTraceKernel(strategy, cluster, samples_per_partition=64)


def one_at_a_time(strategy, completion: np.ndarray):
    """Durations, workers used and groups from the scalar search, per row."""
    decoder = Decoder(strategy)
    durations, workers_used, used_groups = [], [], []
    for row in completion:
        order = row.argsort(kind="stable")[: int(np.isfinite(row).sum())].tolist()
        prefix = decoder.earliest_decodable_prefix(order)
        if prefix is None:
            durations.append(np.inf)
            workers_used.append(())
            used_groups.append(None)
            continue
        result = decoder.decoding_vector(order[:prefix])
        durations.append(row[order[prefix - 1]])
        workers_used.append(result.workers_used)
        used_groups.append(result.used_group)
    return np.array(durations), tuple(workers_used), tuple(used_groups)


def assert_matches_scalar(strategy, arrays):
    durations, workers_used, used_groups = one_at_a_time(
        strategy, arrays.completion_times
    )
    assert np.array_equal(arrays.durations, durations)
    assert arrays.workers_used.tuples() == workers_used
    assert arrays.used_groups.tuples() == used_groups


def stacked_runs(seeds, injectors):
    runs = []
    for seed, injector in zip(seeds, injectors):
        streams = RngStreams.from_seed(seed)
        runs.append(
            StackedRun(
                injector_rng=streams.injector,
                jitter_rng=streams.jitter,
                injector=injector,
            )
        )
    return runs


@pytest.fixture()
def scalar_calls(monkeypatch):
    calls = []
    scalar = Decoder.earliest_decodable_prefix

    def counting(self, completion_order):
        calls.append(len(completion_order))
        return scalar(self, completion_order)

    monkeypatch.setattr(Decoder, "earliest_decodable_prefix", counting)
    return calls


class TestKernelsNeverCallTheScalarSearch:
    def test_one_run_stack(self, scalar_calls):
        kernel = make_kernel()
        (arrays,) = kernel.run_stacked(40, stacked_runs((0,), (FAILING,)))
        assert scalar_calls == []
        assert_matches_scalar(kernel.strategy, arrays)

    def test_run_stacked_across_several_chunks(self, scalar_calls):
        # 58 workers: a 1 MiB basis block holds 38 orders, and this stack
        # has 150 distinct orders to decide.
        kernel = make_kernel()
        out = kernel.run_stacked(
            50, stacked_runs((0, 1, 2), (TRANSIENT, FAILING, TRANSIENT))
        )
        assert scalar_calls == []
        assert len(kernel._order_cache) > 3 * 38
        for arrays in out:
            assert_matches_scalar(kernel.strategy, arrays)
        assert np.isinf(out[1].completion_times[20:, 11]).all()

    @pytest.mark.parametrize("scheme", ("naive", "group_based"))
    def test_small_cluster_stack(self, scalar_calls, scheme):
        # Cluster-A packs each order into one integer for deduplication.
        kernel = make_kernel("Cluster-A", scheme)
        out = kernel.run_stacked(
            200, stacked_runs((0, 1), (FAILING, TRANSIENT))
        )
        assert scalar_calls == []
        for arrays in out:
            assert_matches_scalar(kernel.strategy, arrays)


class TestFullOrderCache:
    def test_full_cache_still_decides_correctly(self):
        kernel = make_kernel("Cluster-C", "heter_aware")
        kernel.order_cache_limit = 5
        (first,) = kernel.run_stacked(60, stacked_runs((0,), (FAILING,)))
        assert len(kernel._order_cache) == 5
        (second,) = kernel.run_stacked(60, stacked_runs((1,), (FAILING,)))
        assert len(kernel._order_cache) == 5
        fresh = make_kernel("Cluster-C", "heter_aware")
        for arrays, seed in ((first, 0), (second, 1)):
            (expected,) = fresh.run_stacked(60, stacked_runs((seed,), (FAILING,)))
            assert np.array_equal(arrays.durations, expected.durations)
            assert arrays.workers_used == expected.workers_used
            assert arrays.used_groups == expected.used_groups
            assert_matches_scalar(kernel.strategy, arrays)
