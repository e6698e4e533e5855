"""Property tests: the incremental prefix search vs the per-prefix reference.

``Decoder.earliest_decodable_prefix`` replaced a linear walk (one full decode
attempt per prefix) with group-completion counters plus an incremental span
test.  These tests assert exact equivalence — same prefix index, same decode
result at that prefix — on randomized strategies and completion orders, and
cover the construction-time group verification satellite.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro._reference import earliest_decodable_prefix_reference
from repro.coding import (
    Decoder,
    cyclic_strategy,
    fractional_repetition_strategy,
    group_based_strategy,
    heterogeneity_aware_strategy,
    naive_strategy,
)
from repro.coding.types import CodingStrategy, DecodingError, PartitionAssignment


def random_strategies(seed: int):
    """A grid of strategies across schemes / sizes / straggler budgets."""
    rng = np.random.default_rng(seed)
    num_workers = int(rng.integers(4, 10))
    throughputs = rng.uniform(50.0, 400.0, size=num_workers)
    strategies = [naive_strategy(num_workers)]
    for s in (1, 2):
        if s >= num_workers:
            continue
        strategies.append(cyclic_strategy(num_workers, s, rng=seed))
        strategies.append(
            heterogeneity_aware_strategy(
                throughputs,
                num_partitions=2 * num_workers,
                num_stragglers=s,
                rng=seed,
            )
        )
        strategies.append(
            group_based_strategy(
                throughputs,
                num_partitions=2 * num_workers,
                num_stragglers=s,
                rng=seed,
            )
        )
        if num_workers % (s + 1) == 0:
            strategies.append(fractional_repetition_strategy(num_workers, s))
    return strategies


def random_orders(strategy: CodingStrategy, rng: np.random.Generator, count: int):
    """Random completion orders: full permutations and truncated subsets."""
    m = strategy.num_workers
    orders = []
    for _ in range(count):
        permutation = rng.permutation(m).tolist()
        keep = int(rng.integers(1, m + 1))
        orders.append(permutation[:keep])
    orders.append([])  # degenerate: nobody finished
    orders.append(list(range(m)))
    orders.append(list(range(m - 1, -1, -1)))
    return orders


class TestIncrementalPrefixEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_reference_on_random_orders(self, seed):
        rng = np.random.default_rng(1000 + seed)
        for strategy in random_strategies(seed):
            incremental_decoder = Decoder(strategy)
            reference_decoder = Decoder(strategy)
            for order in random_orders(strategy, rng, count=12):
                incremental = incremental_decoder.earliest_decodable_prefix(order)
                reference = earliest_decodable_prefix_reference(
                    reference_decoder, order
                )
                assert incremental == reference, (
                    f"{strategy.scheme}: prefix mismatch on order {order}"
                )
                if incremental is not None:
                    finished = order[:incremental]
                    a = incremental_decoder.decoding_vector(finished)
                    b = reference_decoder.decoding_vector(finished)
                    assert a is not None and b is not None
                    assert np.array_equal(a.coefficients, b.coefficients)
                    assert a.workers_used == b.workers_used
                    assert a.used_group == b.used_group

    def test_matches_reference_on_cluster_b_cyclic(self):
        # Larger than the random grid: 16 workers, s=2, full permutations.
        strategy = cyclic_strategy(16, 2, rng=0)
        rng = np.random.default_rng(0)
        orders = [rng.permutation(16).tolist() for _ in range(200)]
        decoder = Decoder(strategy)
        reference_decoder = Decoder(strategy)
        for order in orders:
            assert decoder.earliest_decodable_prefix(
                order
            ) == earliest_decodable_prefix_reference(reference_decoder, order)

    @pytest.mark.parametrize("seed", range(4))
    def test_repeated_workers_in_order_are_harmless(self, seed):
        rng = np.random.default_rng(seed)
        for strategy in random_strategies(seed)[:3]:
            m = strategy.num_workers
            order = rng.integers(0, m, size=2 * m).tolist()  # duplicates likely
            incremental = Decoder(strategy).earliest_decodable_prefix(order)
            reference = earliest_decodable_prefix_reference(
                Decoder(strategy), order
            )
            assert incremental == reference

    def test_out_of_range_worker_raises(self, example_throughputs):
        strategy = heterogeneity_aware_strategy(
            example_throughputs, num_partitions=7, num_stragglers=1, rng=0
        )
        with pytest.raises(DecodingError, match="out of range"):
            Decoder(strategy).earliest_decodable_prefix([0, 99])

    def test_prefix_result_lands_in_decoder_cache(self, example_throughputs):
        strategy = heterogeneity_aware_strategy(
            example_throughputs, num_partitions=7, num_stragglers=1, rng=0
        )
        decoder = Decoder(strategy)
        order = list(range(strategy.num_workers))
        prefix = decoder.earliest_decodable_prefix(order)
        assert prefix is not None
        # The follow-up decoding_vector call is a cache hit (same object).
        first = decoder.decoding_vector(order[:prefix])
        second = decoder.decoding_vector(order[:prefix])
        assert first is second


class TestGroupVerificationAtConstruction:
    def test_groups_verified_once(self, example_throughputs):
        strategy = group_based_strategy(
            example_throughputs, num_partitions=7, num_stragglers=1, rng=0
        )
        assert strategy.groups
        decoder = Decoder(strategy)
        assert len(decoder._verified_groups) == len(strategy.groups)

    def test_invalid_group_is_skipped(self):
        """A declared group whose rows do not sum to all-ones never decodes."""
        matrix = np.array(
            [
                [1.0, 0.0, 1.0],
                [0.0, 2.0, 0.0],  # pair sums to [1, 2, 1] != all-ones
                [1.0, 1.0, 1.0],
            ]
        )
        assignment = PartitionAssignment(
            num_workers=3,
            num_partitions=3,
            partitions_per_worker=((0, 2), (1,), (0, 1, 2)),
        )
        strategy = CodingStrategy(
            matrix=matrix,
            assignment=assignment,
            num_stragglers=0,
            scheme="synthetic",
            groups=((0, 1), (2,)),
        )
        decoder = Decoder(strategy)
        assert len(decoder._verified_groups) == 1  # only the singleton survives
        result = decoder.decoding_vector([0, 1])
        assert result is None or result.used_group != (0, 1)
        full = decoder.decoding_vector([2])
        assert full is not None and full.used_group == (2,)
        # The incremental walk must agree with the reference on this edge.
        for order in ([0, 1, 2], [1, 0, 2], [2, 0, 1]):
            assert Decoder(strategy).earliest_decodable_prefix(
                order
            ) == earliest_decodable_prefix_reference(Decoder(strategy), order)

    def test_group_fast_path_matches_scan_order(self, example_throughputs):
        strategy = group_based_strategy(
            example_throughputs, num_partitions=7, num_stragglers=1, rng=0
        )
        if len(strategy.groups) < 2:
            pytest.skip("needs at least two groups")
        decoder = Decoder(strategy)
        # Finish every worker: the first group in strategy order must win.
        result = decoder.decoding_vector(list(range(strategy.num_workers)))
        assert result is not None
        assert result.used_group == tuple(sorted(strategy.groups[0]))


class TestDecodeMatrix:
    def test_matches_dict_decode(self, example_throughputs, rng):
        strategy = heterogeneity_aware_strategy(
            example_throughputs, num_partitions=7, num_stragglers=1, rng=0
        )
        decoder = Decoder(strategy)
        gradients = rng.normal(size=(7, 13))
        from repro.learning.gradients import encode_all_workers_matrix

        coded = encode_all_workers_matrix(strategy, gradients)
        workers = list(range(1, strategy.num_workers))  # drop worker 0
        stacked = decoder.decode_matrix(coded[workers], workers)
        mapping = {w: coded[w] for w in workers}
        assert np.allclose(stacked, decoder.decode(mapping), rtol=1e-12, atol=1e-12)
        assert np.allclose(stacked, gradients.sum(axis=0), atol=1e-8)

    def test_full_stack_defaults_to_all_workers(self, example_throughputs, rng):
        strategy = heterogeneity_aware_strategy(
            example_throughputs, num_partitions=7, num_stragglers=1, rng=0
        )
        gradients = rng.normal(size=(7, 5))
        from repro.learning.gradients import encode_all_workers_matrix

        coded = encode_all_workers_matrix(strategy, gradients)
        decoded = Decoder(strategy).decode_matrix(coded)
        assert np.allclose(decoded, gradients.sum(axis=0), atol=1e-8)

    def test_scalar_gradients_round_trip(self, example_throughputs, rng):
        """A (k,) gradient stack encodes to (m,) and decodes to a scalar."""
        strategy = heterogeneity_aware_strategy(
            example_throughputs, num_partitions=7, num_stragglers=1, rng=0
        )
        from repro.learning.gradients import encode_all_workers_matrix

        gradients = rng.normal(size=7)
        coded = encode_all_workers_matrix(strategy, gradients)
        assert coded.shape == (strategy.num_workers,)
        decoded = Decoder(strategy).decode_matrix(coded)
        assert decoded.shape == ()
        assert np.allclose(decoded, gradients.sum(), atol=1e-8)

    def test_duplicate_workers_rejected(self, example_throughputs):
        strategy = heterogeneity_aware_strategy(
            example_throughputs, num_partitions=7, num_stragglers=1, rng=0
        )
        with pytest.raises(DecodingError, match="duplicate"):
            Decoder(strategy).decode_matrix(np.zeros((2, 3)), [1, 1])

    def test_undecodable_stack_raises(self, example_throughputs):
        strategy = heterogeneity_aware_strategy(
            example_throughputs, num_partitions=7, num_stragglers=1, rng=0
        )
        with pytest.raises(DecodingError, match="cannot recover"):
            Decoder(strategy).decode_matrix(np.zeros((1, 3)), [0])
