"""Unit tests for group detection (Algorithm 2) and the group-based scheme."""

from __future__ import annotations

import numpy as np

from repro.coding import (
    certify_robustness,
    find_all_groups,
    group_based_strategy,
    heterogeneity_aware_allocation,
    prune_groups,
)
from repro.coding.types import PartitionAssignment


def paper_example_2_assignment() -> PartitionAssignment:
    """The support structure of the paper's Example 2 (7 workers, 4 partitions)."""
    return PartitionAssignment(
        num_workers=7,
        num_partitions=4,
        partitions_per_worker=(
            (0, 1),      # W1
            (2,),        # W2
            (3,),        # W3
            (0, 1, 2),   # W4
            (0, 1, 3),   # W5
            (0, 2, 3),   # W6
            (1, 2, 3),   # W7
        ),
    )


class TestFindAllGroups:
    def test_paper_example_2_groups(self):
        groups = find_all_groups(paper_example_2_assignment())
        as_sets = {frozenset(g) for g in groups}
        # Example 2 lists G1 = {W1,W2,W3}, G2 = {W3,W4}, G3 = {W2,W5}
        # (0-indexed: {0,1,2}, {2,3}, {1,4}).
        assert frozenset({0, 1, 2}) in as_sets
        assert frozenset({2, 3}) in as_sets
        assert frozenset({1, 4}) in as_sets

    def test_every_group_tiles_the_dataset(self):
        assignment = paper_example_2_assignment()
        for group in find_all_groups(assignment):
            covered: list[int] = []
            for worker in group:
                covered.extend(assignment.partitions_per_worker[worker])
            assert sorted(covered) == list(range(assignment.num_partitions))

    def test_no_groups_when_no_tiling_exists(self):
        assignment = PartitionAssignment(
            num_workers=2,
            num_partitions=3,
            partitions_per_worker=((0, 1), (1, 2)),
        )
        assert find_all_groups(assignment) == []

    def test_single_worker_group(self):
        assignment = PartitionAssignment(
            num_workers=2,
            num_partitions=2,
            partitions_per_worker=((0, 1), (0,)),
        )
        groups = find_all_groups(assignment)
        assert (0,) in groups

    def test_empty_support_workers_excluded(self):
        assignment = PartitionAssignment(
            num_workers=3,
            num_partitions=2,
            partitions_per_worker=((0, 1), (), (0, 1)),
        )
        groups = find_all_groups(assignment)
        assert all(1 not in group for group in groups)

    def test_max_groups_bound_respected(self):
        assignment = heterogeneity_aware_allocation(
            [1.0] * 8, num_partitions=16, num_stragglers=3
        )
        groups = find_all_groups(assignment, max_groups=5)
        assert len(groups) <= 5

    def test_max_nodes_bound_terminates_large_instances(self):
        # 40 equal workers, s = 3: astronomically many tilings exist; the
        # node budget must keep this fast and still return some groups.
        assignment = heterogeneity_aware_allocation(
            [1.0] * 40, num_partitions=40, num_stragglers=3
        )
        groups = find_all_groups(assignment, max_groups=64, max_nodes=20_000)
        assert len(groups) <= 64


class TestPruneGroups:
    def test_paper_example_2_prunes_the_overlapping_group(self):
        groups = [(0, 1, 2), (2, 3), (1, 4)]
        pruned = prune_groups(groups)
        # G1 = (0,1,2) intersects both others and must go.
        assert (0, 1, 2) not in pruned
        assert set(pruned) == {(2, 3), (1, 4)}

    def test_disjoint_groups_untouched(self):
        groups = [(0, 1), (2, 3), (4,)]
        assert prune_groups(groups) == [(0, 1), (2, 3), (4,)]

    def test_result_is_pairwise_disjoint(self):
        groups = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]
        pruned = prune_groups(groups)
        seen: set[int] = set()
        for group in pruned:
            assert not (seen & set(group))
            seen |= set(group)

    def test_duplicates_removed(self):
        assert prune_groups([(0, 1), (1, 0)]) == [(0, 1)]

    def test_empty_input(self):
        assert prune_groups([]) == []


class TestGroupBasedStrategy:
    def test_paper_example_1_groups_detected(self, example_throughputs):
        strategy = group_based_strategy(
            example_throughputs, num_partitions=7, num_stragglers=1, rng=0
        )
        assert strategy.scheme == "group_based"
        assert len(strategy.groups) >= 1
        # Groups are pairwise disjoint.
        seen: set[int] = set()
        for group in strategy.groups:
            assert not (seen & set(group))
            seen |= set(group)

    def test_group_rows_are_indicators(self, example_throughputs):
        strategy = group_based_strategy(
            example_throughputs, num_partitions=7, num_stragglers=1, rng=0
        )
        for group in strategy.groups:
            for worker in group:
                support = list(strategy.support(worker))
                assert np.allclose(strategy.row(worker)[support], 1.0)

    def test_group_rows_sum_to_all_ones(self, example_throughputs):
        strategy = group_based_strategy(
            example_throughputs, num_partitions=7, num_stragglers=1, rng=0
        )
        for group in strategy.groups:
            combined = strategy.matrix[list(group)].sum(axis=0)
            assert np.allclose(combined, 1.0)

    def test_robustness_s1(self, example_throughputs):
        strategy = group_based_strategy(
            example_throughputs, num_partitions=7, num_stragglers=1, rng=0
        )
        assert certify_robustness(strategy).robust

    def test_robustness_s2(self):
        throughputs = [1.0, 1.0, 2.0, 3.0, 3.0, 4.0]
        strategy = group_based_strategy(
            throughputs, num_partitions=12, num_stragglers=2, rng=0
        )
        assert certify_robustness(strategy).robust

    def test_robustness_s3_heterogeneous(self):
        throughputs = [1.0, 2.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        strategy = group_based_strategy(
            throughputs, num_partitions=14, num_stragglers=3, rng=1
        )
        assert certify_robustness(strategy).robust

    def test_loads_match_heter_aware_allocation(self, example_throughputs):
        strategy = group_based_strategy(
            example_throughputs, num_partitions=7, num_stragglers=1, rng=0
        )
        assert strategy.loads == (1, 2, 3, 4, 4)

    def test_degenerates_gracefully_without_groups(self):
        # A support where no tiling exists: 3 workers, k = 3, s = 1, loads 2
        # each -> every pair of workers overlaps, no groups.
        throughputs = [1.0, 1.0, 1.0]
        strategy = group_based_strategy(
            throughputs, num_partitions=3, num_stragglers=1, rng=0
        )
        assert strategy.groups == ()
        assert certify_robustness(strategy).robust

    def test_metadata_counts_groups(self, example_throughputs):
        strategy = group_based_strategy(
            example_throughputs, num_partitions=7, num_stragglers=1, rng=0
        )
        assert strategy.metadata["num_groups"] == len(strategy.groups)
