"""The batched prefix search vs the scalar one, on every Table II cluster.

``Decoder.earliest_decodable_prefix_batched`` steps many completion orders
together; it must make the scalar ``earliest_decodable_prefix`` decision for
every row, and hand back the decode result ``decoding_vector`` gives at that
prefix (same workers used, same group).  Orders are random full permutations
plus truncated ones (failed workers cut off), including counts too short for
any straggler-tolerant decode.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro._reference import earliest_decodable_prefix_reference
from repro.coding import Decoder
from repro.coding import decoding as decoding_module
from repro.coding.registry import build_strategy, natural_partitions
from repro.coding.types import CodingStrategy, DecodingError, PartitionAssignment
from repro.experiments.clusters import build_cluster

CLUSTERS = ("Cluster-A", "Cluster-B", "Cluster-C", "Cluster-D")
SCHEMES = ("naive", "cyclic", "heter_aware", "group_based")


@functools.lru_cache(maxsize=None)
def table2_strategy(cluster_name: str, scheme: str, stragglers: int):
    cluster = build_cluster(cluster_name, rng=0)
    k = natural_partitions(scheme, cluster.num_workers, 1)
    return build_strategy(
        scheme,
        throughputs=cluster.estimated_throughputs,
        num_partitions=k,
        num_stragglers=stragglers,
        rng=np.random.default_rng(0),
    )


def random_rows(m: int, stragglers: int, rng: np.random.Generator, full: int):
    """Full permutations, then truncations to m-1 and below m - s."""
    orders = np.array([rng.permutation(m) for _ in range(full + 6)])
    counts = np.full(len(orders), m)
    counts[full : full + 3] = m - 1
    counts[full + 3 :] = rng.integers(0, m - stragglers, size=3)
    return orders, counts


def scalar_decisions(strategy, orders, counts):
    decoder = Decoder(strategy)
    out = []
    for order, count in zip(orders.tolist(), counts.tolist()):
        prefix = decoder.earliest_decodable_prefix(order[:count])
        result = None if prefix is None else decoder.decoding_vector(order[:prefix])
        out.append((prefix, result))
    return out


def assert_same_decisions(batched, scalar):
    assert len(batched) == len(scalar)
    for row, ((prefix, result), (want_prefix, want)) in enumerate(
        zip(batched, scalar)
    ):
        assert prefix == want_prefix, f"row {row}: prefix {prefix} != {want_prefix}"
        if want is None:
            assert result is None
            continue
        assert result.workers_used == want.workers_used, f"row {row}"
        assert result.used_group == want.used_group, f"row {row}"
        assert np.array_equal(result.coefficients, want.coefficients), f"row {row}"


class TestBatchedMatchesScalar:
    @pytest.mark.parametrize("stragglers", (1, 2))
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("cluster_name", CLUSTERS)
    def test_table2_grid(self, cluster_name, scheme, stragglers):
        strategy = table2_strategy(cluster_name, scheme, stragglers)
        m = strategy.num_workers
        rng = np.random.default_rng([m, stragglers, SCHEMES.index(scheme)])
        orders, counts = random_rows(m, stragglers, rng, full=10 if m > 20 else 24)
        batched = Decoder(strategy).earliest_decodable_prefix_batched(orders, counts)
        scalar = scalar_decisions(strategy, orders, counts)
        assert_same_decisions(batched, scalar)
        if scheme == "naive":
            assert all(prefix is None for prefix, _ in batched[-6:])

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_matches_reference_on_small_clusters(self, scheme):
        for cluster_name in ("Cluster-A", "Cluster-B"):
            strategy = table2_strategy(cluster_name, scheme, 1)
            m = strategy.num_workers
            orders, counts = random_rows(m, 1, np.random.default_rng(m), full=6)
            batched = Decoder(strategy).earliest_decodable_prefix_batched(
                orders, counts
            )
            reference_decoder = Decoder(strategy)
            for order, count, (prefix, _) in zip(
                orders.tolist(), counts.tolist(), batched
            ):
                assert prefix == earliest_decodable_prefix_reference(
                    reference_decoder, order[:count]
                )

    def test_several_chunks_match_one(self, monkeypatch):
        strategy = table2_strategy("Cluster-B", "group_based", 1)
        orders, counts = random_rows(16, 1, np.random.default_rng(7), full=60)
        whole = Decoder(strategy).earliest_decodable_prefix_batched(orders, counts)
        # A basis block of one order per chunk: 66 chunks of one row each.
        monkeypatch.setattr(decoding_module, "_BASIS_CHUNK_BYTES", 1)
        chunked = Decoder(strategy).earliest_decodable_prefix_batched(orders, counts)
        assert_same_decisions(chunked, whole)

    def test_cyclic_rejects_then_resumes(self, monkeypatch):
        # The residual band is wider than the solver tolerance, so some
        # cyclic prefixes enter it, fail the least-squares confirmation and
        # must keep stepping to a longer prefix.
        rejected: list[frozenset[int]] = []
        general_decode = Decoder._general_decode

        def recording(self, finished):
            result = general_decode(self, finished)
            if result is None:
                rejected.append(finished)
            return result

        monkeypatch.setattr(Decoder, "_general_decode", recording)
        strategy = table2_strategy("Cluster-D", "cyclic", 2)
        m = strategy.num_workers
        orders = np.array(
            [np.random.default_rng([m, i]).permutation(m) for i in range(100)]
        )
        counts = np.full(len(orders), m)
        batched = Decoder(strategy).earliest_decodable_prefix_batched(orders, counts)
        resumed = 0
        for order, (prefix, _) in zip(orders.tolist(), batched):
            assert prefix is not None  # any m - s finishers decode
            resumed += any(
                frozenset(order[:length]) in rejected for length in range(1, prefix)
            )
        assert_same_decisions(batched, scalar_decisions(strategy, orders, counts))
        assert resumed > 0


    def test_simultaneous_groups_pick_the_first_in_strategy_order(self):
        # Workers 0 and 2 hold the same partition, so finishing worker 1
        # last completes both groups at once; the scalar search keeps the
        # group listed first.
        strategy = CodingStrategy(
            matrix=np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]),
            assignment=PartitionAssignment(
                num_workers=3,
                num_partitions=2,
                partitions_per_worker=((0,), (1,), (0,)),
            ),
            num_stragglers=1,
            scheme="synthetic",
            groups=((2, 1), (0, 1)),
        )
        orders = np.array([[0, 2, 1], [2, 0, 1], [1, 0, 2]])
        batched = Decoder(strategy).earliest_decodable_prefix_batched(orders, [3] * 3)
        assert [result.used_group for _, result in batched] == [(1, 2), (1, 2), (0, 1)]
        assert_same_decisions(
            batched, scalar_decisions(strategy, orders, np.full(3, 3))
        )


class TestBatchedInputs:
    def test_out_of_range_worker_raises_like_scalar(self):
        strategy = table2_strategy("Cluster-A", "heter_aware", 1)
        decoder = Decoder(strategy)
        with pytest.raises(DecodingError) as scalar:
            decoder.earliest_decodable_prefix([99, 0])
        with pytest.raises(DecodingError) as batched:
            decoder.earliest_decodable_prefix_batched(np.array([[99, 0]]), [2])
        assert str(batched.value) == str(scalar.value)

    def test_entries_past_the_count_are_ignored(self):
        strategy = table2_strategy("Cluster-A", "cyclic", 1)
        decoder = Decoder(strategy)
        orders = np.array([[0, 1, 2, 3, 4, 5, 6, -1]])
        [(prefix, result)] = decoder.earliest_decodable_prefix_batched(orders, [7])
        assert prefix == decoder.earliest_decodable_prefix([0, 1, 2, 3, 4, 5, 6])
        assert result is decoder.decoding_vector([0, 1, 2, 3, 4, 5, 6][:prefix])

    def test_repeated_worker_raises(self):
        decoder = Decoder(table2_strategy("Cluster-A", "cyclic", 1))
        with pytest.raises(DecodingError, match="repeats a worker"):
            decoder.earliest_decodable_prefix_batched(np.array([[0, 1, 0]]), [3])

    def test_bad_shapes_and_counts_raise(self):
        decoder = Decoder(table2_strategy("Cluster-A", "cyclic", 1))
        with pytest.raises(DecodingError, match="one count per row"):
            decoder.earliest_decodable_prefix_batched(np.arange(8), [8])
        with pytest.raises(DecodingError, match="counts must lie"):
            decoder.earliest_decodable_prefix_batched(np.arange(8)[None, :], [9])

    def test_empty_batch(self):
        decoder = Decoder(table2_strategy("Cluster-A", "cyclic", 1))
        assert decoder.earliest_decodable_prefix_batched(
            np.empty((0, 8), dtype=int), []
        ) == []
