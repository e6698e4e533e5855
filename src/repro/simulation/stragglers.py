"""Straggler injection models.

The paper distinguishes two straggler causes (Section I):

1. *transient fluctuation* — faults, resource contention between processes —
   modelled here by :class:`ArtificialDelay` (the paper's Fig. 2 experiment
   adds a fixed extra delay to ``s`` random workers, up to an infinite delay
   meaning a fault) and :class:`TransientSlowdown` (random per-iteration
   slowdowns);
2. *consistent heterogeneity* — modelled by the cluster's throughputs, not
   by an injector.

An injector maps ``(iteration, num_workers, rng)`` to a vector of extra
per-worker delays in seconds; ``numpy.inf`` means the worker never reports
this iteration (a full straggler / failure).

Injectors additionally expose :meth:`StragglerInjector.delays_batch`, which
produces the delays of *many consecutive iterations* in one call — the API
the ``rng_version=2`` timing kernel uses to amortise per-iteration Python
overhead.  The base class provides a generic fallback that stacks
per-iteration :meth:`~StragglerInjector.delays` calls (bit-identical to the
loop, so third-party injectors keep working unmodified); the builtins
override it with fully vectorized draws.  A run-stacked simulation calls
:meth:`~StragglerInjector.delays_batch` once per run, on that run's own
injector instance and generator, so stateful injectors such as
:class:`BurstyStragglers` never leak state between the runs of a stack.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Sequence

import numpy as np

__all__ = [
    "StragglerInjector",
    "NoStragglers",
    "ArtificialDelay",
    "TransientSlowdown",
    "BurstyStragglers",
    "FailStop",
    "CompositeInjector",
]


class StragglerError(ValueError):
    """Raised on invalid injector configurations."""


class StragglerInjector(ABC):
    """Base class: produce per-worker extra delays for one iteration."""

    @abstractmethod
    def delays(
        self,
        iteration: int,
        num_workers: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Extra delay (seconds) per worker; ``inf`` means a full straggler."""

    def delays_batch(
        self,
        start_iteration: int,
        num_iterations: int,
        num_workers: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Delays of ``num_iterations`` consecutive iterations, shape ``(n, m)``.

        Row ``i`` holds the delays of iteration ``start_iteration + i``.
        This generic fallback stacks per-iteration :meth:`delays` calls and
        is bit-identical to the loop; vectorizable injectors override it
        with batched draws (same distribution, different stream layout).
        """
        if num_iterations < 0:
            raise StragglerError("num_iterations must be non-negative")
        out = np.empty((num_iterations, num_workers))
        for step in range(num_iterations):
            row = np.asarray(
                self.delays(start_iteration + step, num_workers, rng),
                dtype=np.float64,
            )
            if row.shape != (num_workers,):
                raise StragglerError(
                    f"{type(self).__name__}.delays returned shape {row.shape}, "
                    f"expected ({num_workers},)"
                )
            out[step] = row
        return out

    def describe(self) -> str:
        """Short human-readable description for experiment reports."""
        return type(self).__name__


class NoStragglers(StragglerInjector):
    """No transient stragglers: all extra delays are zero."""

    def delays(
        self, iteration: int, num_workers: int, rng: np.random.Generator
    ) -> np.ndarray:
        return np.zeros(num_workers)

    def delays_batch(
        self,
        start_iteration: int,
        num_iterations: int,
        num_workers: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        return np.zeros((num_iterations, num_workers))


class ArtificialDelay(StragglerInjector):
    """Add a fixed delay to ``num_stragglers`` workers each iteration.

    This reproduces the paper's Fig. 2 setup: "the stragglers are created
    artificially by adding delay to the workers".  ``delay_seconds=inf``
    turns the chosen workers into full faults.

    Parameters
    ----------
    num_stragglers:
        How many workers are delayed per iteration.
    delay_seconds:
        The extra delay; ``numpy.inf`` means the worker fails outright.
    workers:
        Optional fixed set of workers to delay.  When ``None`` (default) a
        fresh random subset is drawn every iteration, as in the paper.
    """

    def __init__(
        self,
        num_stragglers: int,
        delay_seconds: float,
        workers: Sequence[int] | None = None,
    ) -> None:
        if num_stragglers < 0:
            raise StragglerError("num_stragglers must be non-negative")
        if delay_seconds < 0:
            raise StragglerError("delay_seconds must be non-negative")
        if workers is not None and len(set(workers)) < num_stragglers:
            raise StragglerError(
                "the fixed worker set must contain at least num_stragglers workers"
            )
        self.num_stragglers = int(num_stragglers)
        self.delay_seconds = float(delay_seconds)
        self.workers = None if workers is None else tuple(int(w) for w in workers)

    def _checked_count(self, num_workers: int) -> int:
        if self.num_stragglers > num_workers:
            raise StragglerError(
                f"cannot delay {self.num_stragglers} distinct workers in a "
                f"cluster of {num_workers}; num_stragglers must not exceed "
                "the worker count"
            )
        return self.num_stragglers

    def delays(
        self, iteration: int, num_workers: int, rng: np.random.Generator
    ) -> np.ndarray:
        delays = np.zeros(num_workers)
        count = self._checked_count(num_workers)
        if count == 0 or self.delay_seconds == 0:
            return delays
        if self.workers is not None:
            candidates = [w for w in self.workers if w < num_workers]
            chosen = np.asarray(candidates[:count], dtype=np.int64)
        elif count == 1:
            # Bit-stream-identical to choice(n, size=1, replace=False) but
            # avoids the generic sampling machinery on the hot path.
            chosen = rng.integers(0, num_workers)
        else:
            chosen = rng.choice(num_workers, size=count, replace=False)
        delays[chosen] = self.delay_seconds
        return delays

    def delays_batch(
        self,
        start_iteration: int,
        num_iterations: int,
        num_workers: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        delays = np.zeros((num_iterations, num_workers))
        count = self._checked_count(num_workers)
        if count == 0 or self.delay_seconds == 0:
            return delays
        if self.workers is not None:
            candidates = [w for w in self.workers if w < num_workers]
            delays[:, np.asarray(candidates[:count], dtype=np.int64)] = (
                self.delay_seconds
            )
            return delays
        if count == 1:
            chosen = rng.integers(0, num_workers, size=num_iterations)
            delays[np.arange(num_iterations), chosen] = self.delay_seconds
            return delays
        # One uniform matrix, argsorted per row: the first `count` columns of
        # each row are a uniform random `count`-subset of the workers — the
        # same distribution as per-iteration choice(..., replace=False) at a
        # fraction of the per-call overhead (~7 us each).
        ranks = np.argsort(rng.random((num_iterations, num_workers)), axis=1)
        rows = np.repeat(np.arange(num_iterations), count)
        delays[rows, ranks[:, :count].ravel()] = self.delay_seconds
        return delays

    def describe(self) -> str:
        delay = "fault" if np.isinf(self.delay_seconds) else f"{self.delay_seconds}s"
        return f"ArtificialDelay({self.num_stragglers} workers, {delay})"


class TransientSlowdown(StragglerInjector):
    """Each worker independently suffers a random slowdown with some probability.

    Models background interference: with probability ``probability`` a worker
    is delayed by an exponentially distributed extra time with mean
    ``mean_delay_seconds``.
    """

    def __init__(self, probability: float, mean_delay_seconds: float) -> None:
        if not 0.0 <= probability <= 1.0:
            raise StragglerError("probability must lie in [0, 1]")
        if mean_delay_seconds < 0:
            raise StragglerError("mean_delay_seconds must be non-negative")
        self.probability = float(probability)
        self.mean_delay_seconds = float(mean_delay_seconds)

    def delays(
        self, iteration: int, num_workers: int, rng: np.random.Generator
    ) -> np.ndarray:
        hit = rng.random(num_workers) < self.probability
        extra = rng.exponential(self.mean_delay_seconds, size=num_workers)
        return np.where(hit, extra, 0.0)

    def delays_batch(
        self,
        start_iteration: int,
        num_iterations: int,
        num_workers: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        shape = (num_iterations, num_workers)
        hit = rng.random(shape) < self.probability
        extra = rng.exponential(self.mean_delay_seconds, size=shape)
        return np.where(hit, extra, 0.0)

    def describe(self) -> str:
        return (
            f"TransientSlowdown(p={self.probability}, "
            f"mean={self.mean_delay_seconds}s)"
        )


class BurstyStragglers(StragglerInjector):
    """Two-state (Gilbert-Elliott style) bursty interference model.

    Each worker independently alternates between a *healthy* state (no extra
    delay) and a *degraded* state (exponential extra delay) according to a
    two-state Markov chain evaluated once per iteration.  This captures the
    temporally correlated slowdowns real clusters exhibit — a co-located
    batch job or a noisy neighbour that lingers for many iterations — which
    the memoryless :class:`TransientSlowdown` cannot.

    Parameters
    ----------
    enter_probability:
        Per-iteration probability that a healthy worker becomes degraded.
    exit_probability:
        Per-iteration probability that a degraded worker recovers.
    mean_delay_seconds:
        Mean of the exponential extra delay while degraded.
    """

    def __init__(
        self,
        enter_probability: float = 0.05,
        exit_probability: float = 0.3,
        mean_delay_seconds: float = 1.0,
    ) -> None:
        for name, value in (
            ("enter_probability", enter_probability),
            ("exit_probability", exit_probability),
        ):
            if not 0.0 <= value <= 1.0:
                raise StragglerError(f"{name} must lie in [0, 1]")
        if mean_delay_seconds < 0:
            raise StragglerError("mean_delay_seconds must be non-negative")
        self.enter_probability = float(enter_probability)
        self.exit_probability = float(exit_probability)
        self.mean_delay_seconds = float(mean_delay_seconds)
        self._degraded: np.ndarray | None = None

    def reset(self) -> None:
        """Forget the per-worker state (start the next run healthy)."""
        self._degraded = None

    def delays(
        self, iteration: int, num_workers: int, rng: np.random.Generator
    ) -> np.ndarray:
        if self._degraded is None or self._degraded.shape != (num_workers,):
            self._degraded = np.zeros(num_workers, dtype=bool)
        transitions = rng.random(num_workers)
        entering = ~self._degraded & (transitions < self.enter_probability)
        leaving = self._degraded & (transitions < self.exit_probability)
        self._degraded = (self._degraded | entering) & ~leaving
        extra = rng.exponential(self.mean_delay_seconds, size=num_workers)
        return np.where(self._degraded, extra, 0.0)

    def describe(self) -> str:
        return (
            f"BurstyStragglers(enter={self.enter_probability}, "
            f"exit={self.exit_probability}, mean={self.mean_delay_seconds}s)"
        )


class FailStop(StragglerInjector):
    """Permanently fail specific workers from a given iteration onward.

    Models the paper's "virtual machine breaks down" scenario: once failed, a
    worker never reports again.
    """

    def __init__(self, failures: dict[int, int]) -> None:
        """``failures`` maps worker index -> first iteration at which it is down."""
        for worker, start in failures.items():
            if worker < 0:
                raise StragglerError("worker indices must be non-negative")
            if start < 0:
                raise StragglerError("failure iterations must be non-negative")
        self.failures = dict(failures)

    def delays(
        self, iteration: int, num_workers: int, rng: np.random.Generator
    ) -> np.ndarray:
        delays = np.zeros(num_workers)
        for worker, start in self.failures.items():
            if worker < num_workers and iteration >= start:
                delays[worker] = np.inf
        return delays

    def delays_batch(
        self,
        start_iteration: int,
        num_iterations: int,
        num_workers: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        delays = np.zeros((num_iterations, num_workers))
        iterations = np.arange(start_iteration, start_iteration + num_iterations)
        for worker, start in self.failures.items():
            if worker < num_workers:
                delays[iterations >= start, worker] = np.inf
        return delays

    def describe(self) -> str:
        return f"FailStop({self.failures})"


class CompositeInjector(StragglerInjector):
    """Sum the delays of several injectors (``inf`` dominates)."""

    def __init__(self, injectors: Sequence[StragglerInjector]) -> None:
        self.injectors = tuple(injectors)

    def delays(
        self, iteration: int, num_workers: int, rng: np.random.Generator
    ) -> np.ndarray:
        total = np.zeros(num_workers)
        for injector in self.injectors:
            total = total + injector.delays(iteration, num_workers, rng)
        return total

    def delays_batch(
        self,
        start_iteration: int,
        num_iterations: int,
        num_workers: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        total = np.zeros((num_iterations, num_workers))
        for injector in self.injectors:
            total = total + injector.delays_batch(
                start_iteration, num_iterations, num_workers, rng
            )
        return total

    def describe(self) -> str:
        parts = ", ".join(injector.describe() for injector in self.injectors)
        return f"Composite[{parts}]"
