"""Optimality analysis of coding strategies (Theorem 5 and problem (4)).

The paper's objective (problem (4)) is the worst-case completion time of the
whole task over all straggler patterns of size at most ``s``:

``T(B) = max_{|S| <= s} t_{j*}``  where ``t_i = ||b_i||_0 / c_i`` and ``j*``
is the first index (in the order of per-worker completion) at which the
active rows span the all-ones vector.

Theorem 5 shows that ``T(B) >= (s + 1) k / sum_i c_i`` for every strategy
robust to ``s`` stragglers, and that the heter-aware construction meets the
bound with equality when throughput estimates are exact.

This module computes the lower bound, the exact worst-case completion time
of an arbitrary strategy (by enumerating or sampling straggler patterns),
and an optimality-gap report used by the Theorem 5 ablation.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .decoding import Decoder
from .types import CodingError, CodingStrategy
from .verification import iter_straggler_patterns

__all__ = [
    "makespan_lower_bound",
    "completion_time",
    "worst_case_completion_time",
    "OptimalityReport",
    "optimality_report",
]


def makespan_lower_bound(
    throughputs: Sequence[float],
    num_partitions: int,
    num_stragglers: int,
) -> float:
    """Theorem 5 lower bound ``(s + 1) k / sum_i c_i``."""
    c = np.asarray(throughputs, dtype=np.float64)
    if np.any(c <= 0):
        raise CodingError("throughputs must be strictly positive")
    if num_partitions <= 0:
        raise CodingError("num_partitions must be positive")
    if num_stragglers < 0:
        raise CodingError("num_stragglers must be non-negative")
    return (num_stragglers + 1) * num_partitions / float(c.sum())


def completion_time(
    strategy: CodingStrategy,
    throughputs: Sequence[float],
    stragglers: Sequence[int] = (),
) -> float:
    """Completion time ``T(B, S)`` for one straggler pattern.

    Full stragglers never finish, so the master waits until the earliest
    moment the set of finished non-straggler workers spans the all-ones
    vector.  Workers are ordered by their computation times
    ``t_i = n_i / c_i``.

    Raises
    ------
    CodingError
        If the non-straggler workers cannot decode at all (the pattern
        exceeds what the strategy tolerates).
    """
    times = strategy.computation_times(throughputs)
    straggler_set = set(int(w) for w in stragglers)
    active = [w for w in range(strategy.num_workers) if w not in straggler_set]
    order = sorted(active, key=lambda w: (times[w], w))
    decoder = Decoder(strategy)
    prefix = decoder.earliest_decodable_prefix(order)
    if prefix is None:
        raise CodingError(
            f"straggler pattern {sorted(straggler_set)} is not decodable for "
            f"scheme {strategy.scheme!r}"
        )
    return float(times[order[prefix - 1]])


def worst_case_completion_time(
    strategy: CodingStrategy,
    throughputs: Sequence[float],
    num_stragglers: int | None = None,
    max_patterns: int | None = None,
    rng: np.random.Generator | int | None = None,
) -> float:
    """Worst-case completion time ``T(B)`` over straggler patterns (Eq. 3).

    Parameters
    ----------
    strategy, throughputs:
        Strategy and per-worker throughputs ``c_i``.
    num_stragglers:
        The ``s`` in ``max_{|S| <= s}``; defaults to
        ``strategy.num_stragglers``.
    max_patterns:
        Sample this many random patterns instead of enumerating all
        ``(m choose s)`` when the count would exceed the bound.
    rng:
        Random source for sampling.
    """
    s = strategy.num_stragglers if num_stragglers is None else num_stragglers
    m = strategy.num_workers
    total = 1
    for i in range(s):
        total = total * (m - i) // (i + 1)
    worst = 0.0
    if max_patterns is not None and total > max_patterns:
        generator = np.random.default_rng(rng)
        for _ in range(int(max_patterns)):
            pattern = tuple(
                generator.choice(m, size=s, replace=False).tolist()
            )
            worst = max(worst, completion_time(strategy, throughputs, pattern))
        return worst
    for pattern in iter_straggler_patterns(m, s):
        worst = max(
            worst, completion_time(strategy, throughputs, pattern.stragglers)
        )
    return worst


@dataclass(frozen=True)
class OptimalityReport:
    """Comparison of a strategy's worst-case makespan against Theorem 5.

    Attributes
    ----------
    lower_bound:
        ``(s + 1) k / sum_i c_i``.
    worst_case:
        Measured ``T(B)``.
    ratio:
        ``worst_case / lower_bound``; 1.0 means the strategy is optimal.
    is_optimal:
        Whether the ratio is within ``tolerance`` of 1.
    """

    lower_bound: float
    worst_case: float
    ratio: float
    is_optimal: bool


def optimality_report(
    strategy: CodingStrategy,
    throughputs: Sequence[float],
    tolerance: float = 1e-9,
    max_patterns: int | None = None,
    rng: np.random.Generator | int | None = None,
) -> OptimalityReport:
    """Build an :class:`OptimalityReport` for a strategy.

    A relative ``tolerance`` absorbs both floating-point error and the
    quantisation introduced by rounding ``n_i`` to integers; callers that
    want to study the rounding gap can pass ``tolerance=0`` and inspect the
    ratio directly.
    """
    bound = makespan_lower_bound(
        throughputs, strategy.num_partitions, strategy.num_stragglers
    )
    worst = worst_case_completion_time(
        strategy, throughputs, max_patterns=max_patterns, rng=rng
    )
    ratio = worst / bound if bound > 0 else float("inf")
    return OptimalityReport(
        lower_bound=bound,
        worst_case=worst,
        ratio=ratio,
        is_optimal=bool(ratio <= 1.0 + tolerance),
    )
