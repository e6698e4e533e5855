"""Decoding of coded gradients at the master (Section III-B and Eq. 2, 8).

The master receives coded gradients ``g~_i = b_i @ [g_1, ..., g_k]^T`` from a
subset of workers and must recover the aggregated gradient
``g = sum_i g_i``.  Decoding is a linear combination: find coefficients
``a`` supported on the finished workers with ``a @ B = 1_{1 x k}``, then
``g = sum_j a_j g~_j``.

Two paths are implemented, mirroring the paper:

* **General decoding** (Eq. 2): solve the linear system restricted to the
  rows of finished workers.  The offline decoding matrix ``A`` — one row per
  straggler pattern — can be precomputed with
  :func:`build_decoding_matrix`; unseen patterns are solved on-line in
  ``O(m k^2)`` as the paper notes.
* **Group decoding** (Eq. 8): for group-based strategies, a complete group
  ``G`` decodes by simply summing the coded gradients of its members because
  their partition sets tile the dataset and their coding rows are indicator
  vectors.

The :class:`Decoder` class caches decoding vectors per finished-set so
repeated iterations with the same straggler pattern pay the solve cost once.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .types import CodingStrategy, DecodingError, StragglerPattern
from .verification import iter_straggler_patterns, solve_decoding_vector

__all__ = [
    "DecodeResult",
    "Decoder",
    "build_decoding_matrix",
    "decode_gradient",
]

#: Sentinel distinguishing "not cached" from a cached ``None`` (undecodable).
_CACHE_MISS = object()

#: Upper bound on the ``(rows, basis, k)`` float64 block that
#: :meth:`Decoder.earliest_decodable_prefix_batched` steps at once; longer
#: batches are processed in chunks so the working set stays bounded.
_BASIS_CHUNK_BYTES = 1 << 20


@dataclass(frozen=True)
class DecodeResult:
    """Result of a decoding attempt.

    Attributes
    ----------
    coefficients:
        Dense decoding vector ``a`` of shape ``(m,)``; zero outside the
        workers actually used.
    workers_used:
        The workers whose coded gradients carry non-zero weight.
    used_group:
        The group that produced the decoding when the group fast path fired,
        otherwise ``None``.
    """

    coefficients: np.ndarray
    workers_used: tuple[int, ...]
    used_group: tuple[int, ...] | None = None


class Decoder:
    """Decoder for a fixed :class:`CodingStrategy`.

    Parameters
    ----------
    strategy:
        The coding strategy whose matrix ``B`` the workers used for encoding.
    tolerance:
        Numerical tolerance on the reconstruction residual.
    """

    def __init__(self, strategy: CodingStrategy, tolerance: float = 1e-6) -> None:
        self._strategy = strategy
        self._tolerance = float(tolerance)
        self._cache: dict[frozenset[int], DecodeResult | None] = {}
        # Verify each group's all-ones residual once, here, instead of on
        # every cache miss: a group decodes iff the sum of its rows is the
        # all-ones vector, which is a static property of B.
        matrix = strategy.matrix
        self._row_norm_floor = np.maximum(
            1.0, np.sqrt((matrix * matrix).sum(axis=1))
        )
        self._verified_groups: list[tuple[int, frozenset[int], tuple[int, ...]]] = []
        self._worker_groups: dict[int, list[int]] = {}
        self._group_sizes: list[int] = []
        for position, group in enumerate(strategy.groups):
            members = frozenset(int(w) for w in group)
            residual = np.abs(matrix[sorted(members)].sum(axis=0) - 1.0).max()
            if residual > self._tolerance:
                continue
            index = len(self._verified_groups)
            self._verified_groups.append(
                (position, members, tuple(sorted(members)))
            )
            self._group_sizes.append(len(members))
            for worker in members:
                self._worker_groups.setdefault(worker, []).append(index)
        # The batched search's form of the same bookkeeping: worker-by-group
        # membership counts, subtracted from per-order remaining counters.
        self._group_membership = np.zeros(
            (strategy.num_workers, len(self._group_sizes)), dtype=np.int64
        )
        for worker, indices in self._worker_groups.items():
            self._group_membership[worker, indices] = 1

    @property
    def strategy(self) -> CodingStrategy:
        return self._strategy

    def can_decode(self, finished_workers: Sequence[int]) -> bool:
        """Return ``True`` when the finished set suffices to recover ``g``."""
        return self.decoding_vector(finished_workers) is not None

    def decoding_vector(
        self, finished_workers: Sequence[int]
    ) -> DecodeResult | None:
        """Return the decoding coefficients for a finished set, or ``None``.

        The group fast path is tried first (Eq. 8): if any group of the
        strategy is entirely contained in the finished set, the decoding
        vector is simply the indicator of that group.  Otherwise the general
        least-squares solve over the finished rows of ``B`` is used (Eq. 2).
        """
        finished = frozenset(int(w) for w in finished_workers)
        for worker in finished:
            if not 0 <= worker < self._strategy.num_workers:
                raise DecodingError(
                    f"finished worker index {worker} out of range "
                    f"[0, {self._strategy.num_workers})"
                )
        if finished in self._cache:
            return self._cache[finished]

        result = self._group_decode(finished)
        if result is None:
            result = self._general_decode(finished)
        self._cache[finished] = result
        return result

    def decode(
        self,
        coded_gradients: Mapping[int, np.ndarray],
    ) -> np.ndarray:
        """Recover the aggregated gradient from coded worker results.

        Parameters
        ----------
        coded_gradients:
            Mapping from worker index to that worker's coded gradient
            ``g~_i`` (an arbitrary-shape array; all must share one shape).

        Returns
        -------
        numpy.ndarray
            The aggregated gradient ``g = sum_i g_i``.

        Raises
        ------
        DecodingError
            When the finished workers cannot decode (too many stragglers) or
            the input mapping is empty / inconsistent.
        """
        if not coded_gradients:
            raise DecodingError("no coded gradients were provided")
        result = self.decoding_vector(tuple(coded_gradients.keys()))
        if result is None:
            raise DecodingError(
                "the finished workers "
                f"{sorted(coded_gradients.keys())} cannot recover the "
                "aggregated gradient; too many stragglers for scheme "
                f"{self._strategy.scheme!r} (s={self._strategy.num_stragglers})"
            )
        shapes = {np.asarray(g).shape for g in coded_gradients.values()}
        if len(shapes) != 1:
            raise DecodingError(
                f"coded gradients have inconsistent shapes: {sorted(shapes)}"
            )
        aggregated: np.ndarray | None = None
        for worker in result.workers_used:
            weight = result.coefficients[worker]
            if worker not in coded_gradients:
                raise DecodingError(
                    f"decoding vector uses worker {worker} but no coded "
                    "gradient was provided for it"
                )
            term = weight * np.asarray(coded_gradients[worker], dtype=np.float64)
            aggregated = term if aggregated is None else aggregated + term
        assert aggregated is not None  # workers_used is never empty here
        return aggregated

    def decode_matrix(
        self,
        coded: np.ndarray,
        workers: Sequence[int] | None = None,
    ) -> np.ndarray:
        """Matrix-form decode ``g = a @ G~`` from stacked coded gradients.

        Parameters
        ----------
        coded:
            Array of shape ``(r, ...)``: row ``j`` is the coded gradient of
            ``workers[j]``.  With ``workers=None`` the rows must cover every
            worker in index order (``r == m``), e.g. the output of
            :func:`repro.learning.gradients.encode_all_workers_matrix`.
        workers:
            The worker indices the rows correspond to.

        Returns
        -------
        numpy.ndarray
            The aggregated gradient, same trailing shape as one coded row.
            Equal to :meth:`decode` up to floating-point summation order.
        """
        coded = np.asarray(coded, dtype=np.float64)
        if coded.ndim == 0:
            raise DecodingError("coded gradients must be a stacked array")
        worker_list = (
            list(range(self._strategy.num_workers))
            if workers is None
            else [int(w) for w in workers]
        )
        if coded.shape[0] != len(worker_list):
            raise DecodingError(
                f"coded gradients have {coded.shape[0]} rows but "
                f"{len(worker_list)} workers were named"
            )
        if len(set(worker_list)) != len(worker_list):
            raise DecodingError("duplicate workers in the coded gradient stack")
        result = self.decoding_vector(worker_list)
        if result is None:
            raise DecodingError(
                f"the finished workers {sorted(set(worker_list))} cannot "
                "recover the aggregated gradient; too many stragglers for "
                f"scheme {self._strategy.scheme!r} "
                f"(s={self._strategy.num_stragglers})"
            )
        weights = result.coefficients[worker_list]
        flat = coded.reshape(len(worker_list), -1)
        return (weights @ flat).reshape(coded.shape[1:])

    def earliest_decodable_prefix(
        self, completion_order: Sequence[int]
    ) -> int | None:
        """Smallest prefix length of ``completion_order`` that can decode.

        The simulator sorts workers by completion time and uses this to find
        the moment the master can recover the gradient.  Returns ``None``
        when even the full ordering cannot decode (e.g. failed workers are
        excluded from the ordering and too many failed).

        The search is incremental: group completion is tracked with per-group
        counters (the Eq. 8 fast path becomes O(1) amortised per worker) and
        the general path maintains an orthonormal basis of the finished rows
        so the all-ones membership test costs one projection update per
        worker instead of a fresh least-squares solve per prefix.  The
        authoritative least-squares solve only runs at the prefix where the
        projection residual enters the decodable band, so results are
        identical to the per-prefix reference implementation.
        """
        strategy = self._strategy
        num_workers = strategy.num_workers
        matrix = strategy.matrix
        k = strategy.num_partitions
        # The tracked residual norm follows the true distance from the
        # all-ones vector to the row span up to ~1e-12 rounding, so any
        # prefix whose residual exceeds this band is certainly undecodable
        # at the solver's tolerance; anything inside the band is confirmed
        # with the authoritative least-squares solve, making the search
        # decision-for-decision identical to the per-prefix reference.
        confirm_band = self._tolerance * 1e3
        row_norm_floor = self._row_norm_floor
        worker_groups = self._worker_groups

        remaining = list(self._group_sizes)
        # (strategy position, verified-group index) of the first complete group
        complete_group: tuple[int, int] | None = None
        seen: set[int] = set()
        finished: list[int] = []
        basis = np.empty((min(len(completion_order), k), k), dtype=np.float64)
        num_basis = 0
        residual = np.ones(k, dtype=np.float64)
        residual_sq = float(k)

        for index, worker in enumerate(completion_order, start=1):
            worker = int(worker)
            if not 0 <= worker < num_workers:
                raise DecodingError(
                    f"finished worker index {worker} out of range "
                    f"[0, {num_workers})"
                )
            finished.append(worker)
            if worker in seen:
                continue
            seen.add(worker)

            # Group fast path: O(groups containing this worker) per step.
            if worker_groups:
                for group_index in worker_groups.get(worker, ()):
                    remaining[group_index] -= 1
                    if remaining[group_index] == 0:
                        position = self._verified_groups[group_index][0]
                        if complete_group is None or position < complete_group[0]:
                            complete_group = (position, group_index)
                if complete_group is not None:
                    sorted_group = self._verified_groups[complete_group[1]][2]
                    key = frozenset(finished)
                    if key not in self._cache:
                        self._cache[key] = self._group_result(sorted_group)
                    return index

            # General path: extend the orthonormal basis with this row.
            row = matrix[worker]
            if num_basis:
                active = basis[:num_basis]
                vector = row - active.T @ (active @ row)
                # One re-orthogonalisation pass keeps the basis numerically
                # orthonormal even for long, nearly dependent prefixes.
                vector -= active.T @ (active @ vector)
                norm_sq = float(vector @ vector)
            else:
                vector = row.astype(np.float64, copy=True)
                norm_sq = float(vector @ vector)
            if num_basis < basis.shape[0] and norm_sq > (
                1e-12 * row_norm_floor[worker]
            ) ** 2:
                vector /= norm_sq**0.5
                basis[num_basis] = vector
                num_basis += 1
                coefficient = float(vector @ residual)
                residual -= coefficient * vector
                residual_sq -= coefficient * coefficient

            # sqrt(residual_sq) bounds the infinity-norm residual from above,
            # so band comparisons on it are conservative (never skip a
            # confirmation the reference would have attempted successfully).
            if residual_sq <= confirm_band * confirm_band:
                key = frozenset(finished)
                result = self._cache.get(key, _CACHE_MISS)
                if result is _CACHE_MISS:
                    result = self._general_decode(key)
                    self._cache[key] = result
                if result is not None:
                    return index
        return None

    def earliest_decodable_prefix_batched(
        self, orders: np.ndarray, counts: Sequence[int] | np.ndarray
    ) -> list[tuple[int | None, DecodeResult | None]]:
        """:meth:`earliest_decodable_prefix` for many completion orders at once.

        Row ``i`` of the 2-D ``orders`` array is a completion order whose
        first ``counts[i]`` entries are the finished workers; entries past
        the count are ignored.  Returns one ``(prefix, result)`` pair per
        row: the scalar search's prefix together with the decode result
        ``decoding_vector(order[:prefix])`` returns for it, or
        ``(None, None)`` when no prefix decodes.

        Every row steps together, one worker position at a time, with the
        scalar search's arithmetic: per-group completion counters, the
        two-pass Gram-Schmidt extension of each row's partition-space basis
        and its all-ones residual.  A row whose residual enters the
        confirmation band is confirmed through the same set-keyed cache and
        least-squares solve; a row the solve rejects keeps stepping.  Rows
        are processed in chunks whose basis block is at most
        ``_BASIS_CHUNK_BYTES``.

        Unlike the scalar search, which stops reading at the decoding
        prefix, every entry within a row's count is validated up front: an
        out-of-range or repeated worker raises :class:`DecodingError`.
        """
        num_workers = self._strategy.num_workers
        k = self._strategy.num_partitions
        orders = np.asarray(orders, dtype=np.intp)
        counts = np.asarray(counts, dtype=np.int64)
        if orders.ndim != 2 or counts.shape != (orders.shape[0],):
            raise DecodingError(
                "expected a (rows, positions) order array and one count per "
                f"row, got shapes {orders.shape} and {counts.shape}"
            )
        width = orders.shape[1]
        if counts.size and (counts.min() < 0 or counts.max() > width):
            raise DecodingError(f"counts must lie in [0, {width}]")
        within = np.arange(width) < counts[:, None]
        bad = within & ((orders < 0) | (orders >= num_workers))
        if bad.any():
            row, column = np.argwhere(bad)[0]
            raise DecodingError(
                f"finished worker index {orders[row, column]} out of range "
                f"[0, {num_workers})"
            )
        finished = np.where(within, orders, -1)
        ordered = np.sort(finished, axis=1)
        repeats = (ordered[:, 1:] == ordered[:, :-1]) & (ordered[:, 1:] >= 0)
        if repeats.any():
            row = int(np.flatnonzero(repeats.any(axis=1))[0])
            raise DecodingError(
                f"completion order {finished[row, : counts[row]].tolist()} "
                "repeats a worker"
            )
        chunk = max(1, _BASIS_CHUNK_BYTES // (8 * k * max(1, min(width, k))))
        decisions: list[tuple[int | None, DecodeResult | None]] = []
        for start in range(0, len(counts), chunk):
            decisions += self._prefix_chunk(
                finished[start : start + chunk], counts[start : start + chunk]
            )
        return decisions

    # ------------------------------------------------------------------
    # internal helpers
    def _prefix_chunk(
        self, orders: np.ndarray, counts: np.ndarray
    ) -> list[tuple[int | None, DecodeResult | None]]:
        """One chunk of :meth:`earliest_decodable_prefix_batched`.

        The state arrays hold one slot per row.  Decided slots keep
        stepping, masked out of every update, until at most half the slots
        are live; only then is the state compacted to the live slots, so
        the basis block is copied a logarithmic number of times, not once
        per step.
        """
        matrix = self._strategy.matrix
        k = self._strategy.num_partitions
        band_sq = (self._tolerance * 1e3) ** 2
        growth_floor_sq = (1e-12 * self._row_norm_floor) ** 2
        membership = self._group_membership
        grouped = membership.shape[1] > 0
        cache = self._cache

        decisions: list[tuple[int | None, DecodeResult | None]] = [
            (None, None)
        ] * len(counts)
        slots = np.arange(len(counts))  # chunk row held by each slot
        capacity = np.minimum(counts, k)  # the scalar search's basis rows
        basis = np.zeros((len(counts), int(capacity.max(initial=0)), k))
        num_basis = np.zeros(len(counts), dtype=np.intp)
        top = 0  # largest num_basis over all slots
        residual = np.ones((len(counts), k))
        residual_sq = np.full(len(counts), float(k))
        remaining = np.tile(
            np.asarray(self._group_sizes, dtype=np.int64), (len(counts), 1)
        )
        live = counts > 0

        for position in range(orders.shape[1]):
            num_live = int(np.count_nonzero(live))
            if not num_live:
                break
            if 2 * num_live <= len(live):
                keep = np.flatnonzero(live)
                slots, capacity, basis, num_basis = (
                    slots[keep], capacity[keep], basis[keep], num_basis[keep]
                )
                residual, residual_sq, remaining = (
                    residual[keep], residual_sq[keep], remaining[keep]
                )
                orders, counts, live = orders[keep], counts[keep], live[keep]
                top = int(num_basis.max())
            workers = np.where(live, orders[:, position], 0)
            prefix = position + 1

            # Group fast path: a completed verified group decodes at once;
            # the lowest group index is the lowest strategy position.
            if grouped:
                remaining -= membership[workers]
                complete = (remaining == 0) & live[:, None]
                for slot in np.flatnonzero(complete.any(axis=1)).tolist():
                    group = self._verified_groups[int(complete[slot].argmax())][2]
                    key = frozenset(orders[slot, :prefix].tolist())
                    if key not in cache:
                        cache[key] = self._group_result(group)
                    decisions[slots[slot]] = (prefix, cache[key])
                    live[slot] = False

            # General path: extend every live basis with its row, projected
            # out twice, and shrink the all-ones residual along it.
            vectors = matrix[workers]
            if top:
                active = basis[:, :top]
                across = active.transpose(0, 2, 1)
                vectors = vectors - (across @ (active @ vectors[:, :, None]))[:, :, 0]
                vectors -= (across @ (active @ vectors[:, :, None]))[:, :, 0]
            norm_sq = np.einsum("ij,ij->i", vectors, vectors)
            grow = live & (num_basis < capacity) & (norm_sq > growth_floor_sq[workers])
            vectors /= np.where(grow, np.sqrt(norm_sq), np.inf)[:, None]
            grown = np.flatnonzero(grow)
            if grown.size:
                basis[grown, num_basis[grown]] = vectors[grown]
                num_basis[grown] += 1
                top = max(top, int(num_basis[grown].max()))
                coefficient = np.einsum("ij,ij->i", vectors, residual)
                residual -= coefficient[:, None] * vectors
                residual_sq -= coefficient * coefficient

            for slot in np.flatnonzero(live & (residual_sq <= band_sq)).tolist():
                key = frozenset(orders[slot, :prefix].tolist())
                result = cache.get(key, _CACHE_MISS)
                if result is _CACHE_MISS:
                    result = self._general_decode(key)
                    cache[key] = result
                if result is not None:
                    decisions[slots[slot]] = (prefix, result)
                    live[slot] = False
            live &= counts > prefix
        return decisions

    def _group_decode(self, finished: frozenset[int]) -> DecodeResult | None:
        for _, members, sorted_group in self._verified_groups:
            if members <= finished:
                return self._group_result(sorted_group)
        return None

    def _group_result(self, sorted_group: tuple[int, ...]) -> DecodeResult:
        coefficients = np.zeros(self._strategy.num_workers)
        coefficients[list(sorted_group)] = 1.0
        return DecodeResult(
            coefficients=coefficients,
            workers_used=sorted_group,
            used_group=sorted_group,
        )

    def _general_decode(self, finished: frozenset[int]) -> DecodeResult | None:
        if not finished:
            return None
        workers = sorted(finished)
        rows = self._strategy.matrix[workers]
        solution = solve_decoding_vector(rows, tolerance=self._tolerance)
        if solution is None:
            return None
        coefficients = np.zeros(self._strategy.num_workers)
        coefficients[workers] = solution
        carries_weight = np.abs(solution) > 10 * np.finfo(float).eps
        used = tuple(np.asarray(workers)[carries_weight].tolist())
        if not used:
            # Degenerate but possible when k-dimensional all-ones happens to
            # be the zero vector combination; treat as undecodable.
            return None
        return DecodeResult(
            coefficients=coefficients, workers_used=used, used_group=None
        )


def build_decoding_matrix(
    strategy: CodingStrategy,
    num_stragglers: int | None = None,
) -> tuple[np.ndarray, list[StragglerPattern]]:
    """Precompute the offline decoding matrix ``A`` (Eq. 2).

    One row is produced per straggler pattern of size exactly ``s``; row
    ``i`` decodes the corresponding active set.  For patterns with fewer
    stragglers any superset row applies, so only the exact-``s`` rows are
    materialised (matching the paper's ``S = (m choose s)`` row count).

    Returns
    -------
    (A, patterns):
        ``A`` of shape ``(S, m)`` and the list of straggler patterns in row
        order.

    Raises
    ------
    DecodingError
        When some pattern is undecodable (the strategy is not robust).
    """
    s = strategy.num_stragglers if num_stragglers is None else num_stragglers
    decoder = Decoder(strategy)
    rows: list[np.ndarray] = []
    patterns: list[StragglerPattern] = []
    for pattern in iter_straggler_patterns(strategy.num_workers, s):
        result = decoder.decoding_vector(pattern.active)
        if result is None:
            raise DecodingError(
                f"strategy {strategy.scheme!r} cannot decode straggler "
                f"pattern {pattern.stragglers}"
            )
        rows.append(result.coefficients)
        patterns.append(pattern)
    matrix = np.vstack(rows) if rows else np.zeros((0, strategy.num_workers))
    return matrix, patterns


def decode_gradient(
    strategy: CodingStrategy,
    coded_gradients: Mapping[int, np.ndarray],
) -> np.ndarray:
    """One-shot convenience wrapper: decode without keeping a Decoder around."""
    return Decoder(strategy).decode(coded_gradients)
