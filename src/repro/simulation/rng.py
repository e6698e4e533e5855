"""Per-component RNG streams (``rng_version=2``, the one layout the engine runs).

Under the historical ``rng_version=1`` layout every source of randomness in
a timing run — the straggler injector's worker choice and the per-worker
compute jitter — interleaved on a *single* generator, one injector draw
then one jitter draw per iteration.  That forced the timing kernel back
into Python once per iteration: neither component can draw ahead without
consuming numbers the other one expects.  The layout survives only as the
golden oracle in :mod:`repro._reference`.

``rng_version=2`` assigns every component its own child stream, spawned
deterministically from the run seed via :class:`numpy.random.SeedSequence`.
Spawned children are statistically independent and their identity depends
only on ``(seed, component index)``, so

* the injector can draw **all iterations** of straggler choices in one
  batched call,
* the jitter stream can draw **all iterations** of lognormal noise in one
  batched call,

and the whole trace runs without re-entering Python per iteration (see
:meth:`repro.simulation.vectorized.TimingTraceKernel.run_stacked`).

v2 traces are *statistically* equivalent to v1 traces at matched seeds
(identical marginal distributions; asserted property-style against the
oracle in ``tests/experiments/test_rng_versions.py``) but not
bit-identical — which is why the version lives on
:class:`repro.api.spec.RunSpec`, and why the engine refuses a v1 spec
instead of silently running it under v2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "RNG_COMPONENTS",
    "RNG_VERSIONS",
    "RngStreams",
    "component_seed_sequences",
]

#: The named randomness components, in spawn order.  The order is part of
#: the v2 reproducibility contract: component ``i`` always receives child
#: ``i`` of ``SeedSequence(seed)``, so adding new components must append.
RNG_COMPONENTS: tuple[str, ...] = ("injector", "jitter", "network", "training")

#: RunSpec-level RNG stream layouts a spec may name: the engine runs 2, and
#: 1 is reproduced by the oracle in :mod:`repro._reference`.
RNG_VERSIONS: tuple[int, ...] = (1, 2)


def component_seed_sequences(
    seed: int | None,
) -> dict[str, np.random.SeedSequence]:
    """Deterministically spawn one child :class:`~numpy.random.SeedSequence`
    per component in :data:`RNG_COMPONENTS` from ``seed``.

    ``seed=None`` draws fresh OS entropy (a non-reproducible run, matching
    ``default_rng(None)`` semantics).
    """
    root = np.random.SeedSequence(seed)
    children = root.spawn(len(RNG_COMPONENTS))
    return dict(zip(RNG_COMPONENTS, children))


@dataclass(frozen=True)
class RngStreams:
    """One generator per randomness component of a run (``rng_version=2``).

    Attributes
    ----------
    injector:
        Stream consumed by the straggler injector (worker choice, delay
        magnitudes).
    jitter:
        Stream consumed by the per-worker compute-time jitter.
    network:
        Stream reserved for stochastic communication models.
    training:
        Stream reserved for training-mode sampling (loss-evaluation
        subsets, mini-batch choice).
    """

    injector: np.random.Generator
    jitter: np.random.Generator
    network: np.random.Generator
    training: np.random.Generator

    @classmethod
    def from_seed(cls, seed: int | None) -> "RngStreams":
        """Spawn all component streams from one run seed."""
        sequences = component_seed_sequences(seed)
        return cls(
            **{name: np.random.default_rng(sequences[name]) for name in RNG_COMPONENTS}
        )

    def training_seed(self) -> int:
        """A plain integer seed derived from the ``training`` stream.

        Training-mode code predates per-component streams and derives its
        internal streams from one integer seed
        (:meth:`repro.protocols.base.TrainingConfig.make_rng`); this gives
        that code a v2 seed with an independent lineage from the timing
        components without rewiring every protocol.
        """
        return int(self.training.integers(0, 2**63 - 1))
