"""Scheme registry: build any coding strategy by name.

The experiment harness, the tests and the examples all select schemes
by a short string (``"naive"``, ``"cyclic"``, ``"fractional"``,
``"heter_aware"``, ``"group_based"``).  The mapping lives in the shared
plugin registry (:data:`repro.api.registry.SCHEMES`); this module registers
the builtin schemes and keeps the long-standing helpers
(:func:`build_strategy`, :func:`natural_partitions`) as thin wrappers, so
new schemes can be added from anywhere with :func:`register_scheme` instead
of editing a hard-coded dict here::

    from repro.coding.registry import register_scheme

    @register_scheme("my_scheme", partitioning="multiplier")
    def _build_my_scheme(throughputs, num_partitions, num_stragglers, rng=None):
        return ...  # a CodingStrategy
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .._registry import SCHEMES, register_scheme
from .cyclic import cyclic_strategy
from .fractional import fractional_repetition_strategy
from .group_based import group_based_strategy
from .heter_aware import heterogeneity_aware_strategy
from .naive import naive_strategy
from .types import CodingError, CodingStrategy

__all__ = [
    "SCHEME_NAMES",
    "build_strategy",
    "natural_partitions",
    "register_scheme",
    "registered_schemes",
]

#: The builtin schemes, in canonical presentation order (the order used by
#: the paper's figures).  Plugins registered later extend
#: :func:`registered_schemes` but not this tuple.
SCHEME_NAMES: tuple[str, ...] = (
    "naive",
    "cyclic",
    "fractional",
    "heter_aware",
    "group_based",
)


def registered_schemes() -> tuple[str, ...]:
    """Every scheme currently registered (builtins plus plugins)."""
    return SCHEMES.names()


# ---------------------------------------------------------------------------
# builtin registrations
# ---------------------------------------------------------------------------

@register_scheme("naive", partitioning="uniform")
def _build_naive(
    throughputs: Sequence[float],
    num_partitions: int,
    num_stragglers: int,
    rng: np.random.Generator | int | None = None,
) -> CodingStrategy:
    return naive_strategy(len(throughputs), num_partitions)


@register_scheme("cyclic", partitioning="uniform")
def _build_cyclic(
    throughputs: Sequence[float],
    num_partitions: int,
    num_stragglers: int,
    rng: np.random.Generator | int | None = None,
) -> CodingStrategy:
    return cyclic_strategy(len(throughputs), num_stragglers, num_partitions, rng=rng)


@register_scheme("fractional", partitioning="uniform")
def _build_fractional(
    throughputs: Sequence[float],
    num_partitions: int,
    num_stragglers: int,
    rng: np.random.Generator | int | None = None,
) -> CodingStrategy:
    return fractional_repetition_strategy(
        len(throughputs), num_stragglers, num_partitions
    )


@register_scheme("heter_aware", partitioning="multiplier")
def _build_heter_aware(
    throughputs: Sequence[float],
    num_partitions: int,
    num_stragglers: int,
    rng: np.random.Generator | int | None = None,
) -> CodingStrategy:
    return heterogeneity_aware_strategy(
        throughputs, num_partitions, num_stragglers, rng=rng
    )


@register_scheme("group_based", partitioning="multiplier")
def _build_group_based(
    throughputs: Sequence[float],
    num_partitions: int,
    num_stragglers: int,
    rng: np.random.Generator | int | None = None,
) -> CodingStrategy:
    return group_based_strategy(throughputs, num_partitions, num_stragglers, rng=rng)


# ---------------------------------------------------------------------------
# public helpers
# ---------------------------------------------------------------------------

def natural_partitions(
    scheme: str,
    num_workers: int,
    heter_multiplier: int = 2,
) -> int:
    """The partition count ``k`` each scheme naturally uses in the paper.

    The naive, cyclic and fractional baselines divide the dataset uniformly
    into ``k = m`` partitions (Section VI: "cyclic coding scheme uniformly
    divides the dataset into m data partitions").  The heterogeneity-aware
    and group-based schemes are free to choose ``k``; a small multiple of
    ``m`` (default 2) gives the proportional allocation enough granularity.
    SSP-style protocols also shard uniformly, i.e. ``k = m``.

    A registered scheme declares its convention through the ``partitioning``
    registry metadata (``"uniform"`` or ``"multiplier"``); names not in the
    registry (e.g. the SSP protocols) shard uniformly.

    Parameters
    ----------
    scheme:
        Scheme or protocol name.
    num_workers:
        ``m``.
    heter_multiplier:
        ``k / m`` for schemes with ``"multiplier"`` partitioning.
    """
    if num_workers <= 0:
        raise CodingError("num_workers must be positive")
    if heter_multiplier <= 0:
        raise CodingError("heter_multiplier must be positive")
    if SCHEMES.metadata(scheme).get("partitioning") == "multiplier":
        return heter_multiplier * num_workers
    return num_workers


def build_strategy(
    scheme: str,
    throughputs: Sequence[float],
    num_partitions: int,
    num_stragglers: int,
    rng: np.random.Generator | int | None = None,
) -> CodingStrategy:
    """Build a coding strategy by scheme name.

    Parameters
    ----------
    scheme:
        Any name in :func:`registered_schemes` (builtins:
        :data:`SCHEME_NAMES`).
    throughputs:
        Estimated per-worker throughputs.  Heterogeneity-oblivious schemes
        (naive, cyclic, fractional) only use the length of this sequence.
    num_partitions:
        ``k``.  The naive/cyclic/fractional baselines require divisibility
        constraints documented on their factories; pass ``k`` equal to a
        multiple of ``m`` to satisfy all of them.
    num_stragglers:
        ``s``.  Ignored by the naive scheme (which tolerates none).
    rng:
        Seed or generator for the randomised constructions.
    """
    if scheme not in SCHEMES:
        raise CodingError(
            f"unknown scheme {scheme!r}; expected one of {registered_schemes()}"
        )
    builder = SCHEMES.get(scheme)
    return builder(
        list(throughputs),
        num_partitions=num_partitions,
        num_stragglers=num_stragglers,
        rng=rng,
    )
