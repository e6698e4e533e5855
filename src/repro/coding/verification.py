"""Verification of gradient coding strategies (Condition 1, Lemma 1).

A coding strategy ``B`` is robust to any ``s`` full stragglers if and only if
for every subset ``I`` of ``m - s`` workers the all-ones vector lies in the
span of the corresponding rows of ``B`` (Condition 1).  This module provides:

* :func:`spans_all_ones` — does a given set of rows span ``1_{1 x k}``?
* :func:`is_robust` / :func:`certify_robustness` — exhaustive or sampled
  verification of Condition 1 over straggler patterns.
* :func:`decodable_active_sets` — enumerate the minimal active sets that the
  master can decode from, used by the simulator to decide when an iteration
  finishes.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .types import CodingError, CodingStrategy, StragglerPattern

__all__ = [
    "spans_all_ones",
    "solve_decoding_vector",
    "is_robust",
    "certify_robustness",
    "RobustnessReport",
    "iter_straggler_patterns",
]

#: Relative residual below which a least-squares reconstruction of the
#: all-ones vector is accepted as exact.
_RESIDUAL_TOLERANCE = 1e-6


def solve_decoding_vector(
    rows: np.ndarray,
    tolerance: float = _RESIDUAL_TOLERANCE,
) -> np.ndarray | None:
    """Find coefficients ``a`` with ``a @ rows == 1`` if they exist.

    Parameters
    ----------
    rows:
        Matrix of shape ``(r, k)`` whose rows are candidate coding vectors
        (the rows of ``B`` belonging to finished workers).
    tolerance:
        Maximum allowed infinity-norm residual of ``a @ rows - 1``.

    Returns
    -------
    numpy.ndarray | None
        The coefficient vector of shape ``(r,)``, or ``None`` when the
        all-ones vector is not in the row span.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    if rows.size == 0:
        return None
    k = rows.shape[1]
    target = np.ones(k, dtype=np.float64)
    solution, *_ = np.linalg.lstsq(rows.T, target, rcond=None)
    residual = np.abs(rows.T @ solution - target).max()
    if residual > tolerance:
        return None
    return solution


def spans_all_ones(
    rows: np.ndarray,
    tolerance: float = _RESIDUAL_TOLERANCE,
) -> bool:
    """Return ``True`` when the all-ones vector lies in the span of ``rows``."""
    return solve_decoding_vector(rows, tolerance=tolerance) is not None


def iter_straggler_patterns(
    num_workers: int,
    num_stragglers: int,
    exact: bool = True,
) -> Iterable[StragglerPattern]:
    """Yield straggler patterns of size ``num_stragglers`` (or up to it).

    Parameters
    ----------
    num_workers:
        ``m``.
    num_stragglers:
        ``s``.
    exact:
        When ``True`` (default) only patterns with exactly ``s`` stragglers
        are produced — Condition 1 for exactly ``s`` stragglers implies
        robustness to any smaller number.  When ``False`` all sizes from 0 to
        ``s`` are yielded.
    """
    sizes = [num_stragglers] if exact else list(range(num_stragglers + 1))
    for size in sizes:
        for combo in itertools.combinations(range(num_workers), size):
            yield StragglerPattern(stragglers=combo, num_workers=num_workers)


@dataclass(frozen=True)
class RobustnessReport:
    """Outcome of a robustness certification run.

    Attributes
    ----------
    robust:
        ``True`` when every checked straggler pattern was decodable.
    patterns_checked:
        Number of straggler patterns examined.
    exhaustive:
        ``True`` when every ``(m choose s)`` pattern was examined, ``False``
        when patterns were sampled.
    failing_pattern:
        The first pattern found to be undecodable, or ``None``.
    """

    robust: bool
    patterns_checked: int
    exhaustive: bool
    failing_pattern: StragglerPattern | None = None


def is_robust(
    strategy: CodingStrategy,
    num_stragglers: int | None = None,
    max_patterns: int | None = None,
    rng: np.random.Generator | int | None = None,
) -> bool:
    """Convenience wrapper around :func:`certify_robustness`."""
    return certify_robustness(
        strategy,
        num_stragglers=num_stragglers,
        max_patterns=max_patterns,
        rng=rng,
    ).robust


def certify_robustness(
    strategy: CodingStrategy,
    num_stragglers: int | None = None,
    max_patterns: int | None = None,
    rng: np.random.Generator | int | None = None,
) -> RobustnessReport:
    """Verify Condition 1 for a strategy.

    Parameters
    ----------
    strategy:
        The coding strategy to certify.
    num_stragglers:
        The straggler count to verify against; defaults to
        ``strategy.num_stragglers``.
    max_patterns:
        When the number of ``(m choose s)`` patterns exceeds this bound the
        verification samples ``max_patterns`` random patterns instead of
        enumerating all of them.  ``None`` (default) always enumerates.
    rng:
        Random source used only when sampling patterns.

    Returns
    -------
    RobustnessReport
    """
    s = strategy.num_stragglers if num_stragglers is None else num_stragglers
    m = strategy.num_workers
    if s < 0:
        raise CodingError("num_stragglers must be non-negative")
    if s >= m:
        return RobustnessReport(
            robust=False,
            patterns_checked=0,
            exhaustive=True,
            failing_pattern=StragglerPattern(tuple(range(s)), num_workers=max(m, s + 1))
            if m > 0
            else None,
        )

    total_patterns = _binomial(m, s)
    exhaustive = max_patterns is None or total_patterns <= max_patterns

    if exhaustive:
        patterns: Iterable[StragglerPattern] = iter_straggler_patterns(m, s)
    else:
        generator = np.random.default_rng(rng)
        patterns = (
            StragglerPattern(
                stragglers=tuple(
                    generator.choice(m, size=s, replace=False).tolist()
                ),
                num_workers=m,
            )
            for _ in range(int(max_patterns))
        )

    checked = 0
    for pattern in patterns:
        checked += 1
        active_rows = strategy.matrix[list(pattern.active)]
        if not spans_all_ones(active_rows):
            return RobustnessReport(
                robust=False,
                patterns_checked=checked,
                exhaustive=exhaustive,
                failing_pattern=pattern,
            )
    return RobustnessReport(
        robust=True,
        patterns_checked=checked,
        exhaustive=exhaustive,
        failing_pattern=None,
    )


def _binomial(n: int, r: int) -> int:
    if r < 0 or r > n:
        return 0
    result = 1
    for i in range(min(r, n - r)):
        result = result * (n - i) // (i + 1)
    return result
