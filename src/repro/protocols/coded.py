"""Gradient-coded BSP training (and the uncoded naive BSP special case).

Each iteration proceeds exactly as in the paper's framework (Section III-A):

1. The simulator determines every worker's completion time for this
   iteration — heterogeneity, jitter, injected delays, communication.
2. The master's iteration duration is the earliest moment a decodable set of
   workers has reported (for the naive scheme that means *all* workers).
3. The real numpy computation mirrors what those workers did: partial
   gradients ``g_j`` per partition, coded combinations ``g~_i = b_i g``, and
   the master's decoding ``g = sum a_i g~_i``.
4. The optimiser applies the mean gradient; the loss before the update is
   recorded together with the simulated duration.

The decoded gradient is numerically identical to the full-batch gradient
(this is asserted in the integration tests), so the *statistical* path of
every coded scheme is identical — exactly the paper's point that coded BSP
keeps the accuracy of synchronous training.  What differs between schemes is
the simulated time axis.

The run is batched: its whole timing comes from one 1-run
:meth:`~repro.simulation.vectorized.TimingTraceKernel.run_stacked` call
over the config's per-component RNG streams, each iteration's
encode+decode collapses into a single ``(a B) @ G`` vector-matrix product
over the reused partition-gradient stack, the optimiser updates parameters
in place, and the trace is assembled column-first via
:meth:`~repro.simulation.trace.RunTrace.from_arrays` — no per-iteration
Python objects anywhere.  The historical per-iteration loop (one timing
draw, one encode and one decode per step) survives only as the golden
oracle in :mod:`repro._reference`.
"""

from __future__ import annotations

import numpy as np

from ..coding.registry import build_strategy
from ..coding.types import CodingStrategy
from ..learning.models.base import Model
from ..learning.partition import PartitionedDataset
from ..simulation.cluster import ClusterSpec
from ..simulation.trace import RunTrace
from ..simulation.vectorized import (
    StackedRun,
    TimingTraceArrays,
    default_timing_kernel_cache,
)
from .base import ProtocolError, TrainingConfig, TrainingProtocol, evaluate_mean_loss

__all__ = ["CodedBSPProtocol", "NaiveBSPProtocol"]


class CodedBSPProtocol(TrainingProtocol):
    """Bulk-synchronous training with a gradient coding strategy.

    Parameters
    ----------
    scheme:
        Scheme name understood by :func:`repro.coding.build_strategy`
        (``"naive"``, ``"cyclic"``, ``"fractional"``, ``"heter_aware"``,
        ``"group_based"``) — or pass a pre-built strategy via ``strategy``.
    strategy:
        Optional explicit :class:`~repro.coding.types.CodingStrategy`; when
        given, ``scheme`` is only used as the trace label.
    """

    def __init__(
        self, scheme: str = "heter_aware", strategy: CodingStrategy | None = None
    ) -> None:
        self.scheme = scheme
        self._fixed_strategy = strategy
        self.name = scheme

    # ------------------------------------------------------------------
    def build_strategy(
        self,
        cluster: ClusterSpec,
        num_partitions: int,
        num_stragglers: int,
        rng: np.random.Generator | int | None,
    ) -> CodingStrategy:
        """Build (or return) the coding strategy for this run.

        The *estimated* throughputs drive the allocation — the paper's
        allocator never sees the true speeds.
        """
        if self._fixed_strategy is not None:
            return self._fixed_strategy
        return build_strategy(
            self.scheme,
            throughputs=cluster.estimated_throughputs,
            num_partitions=num_partitions,
            num_stragglers=num_stragglers,
            rng=rng,
        )

    # ------------------------------------------------------------------
    def _prepare(
        self,
        model: Model,
        partitioned: PartitionedDataset,
        cluster: ClusterSpec,
        config: TrainingConfig,
        construction_rng: np.random.Generator,
    ) -> tuple[CodingStrategy, "object", float, int, dict]:
        """Strategy, optimiser, payload size, sample count and trace
        metadata of one run."""
        num_partitions = partitioned.num_partitions
        strategy = self.build_strategy(
            cluster, num_partitions, config.num_stragglers, construction_rng
        )
        if strategy.num_partitions != num_partitions:
            raise ProtocolError(
                f"strategy expects {strategy.num_partitions} partitions but the "
                f"dataset was split into {num_partitions}"
            )
        if strategy.num_workers != cluster.num_workers:
            raise ProtocolError(
                f"strategy has {strategy.num_workers} workers but cluster "
                f"{cluster.name!r} has {cluster.num_workers}"
            )
        metadata = {
            "protocol": "coded_bsp",
            "scheme": self.scheme,
            "num_partitions": num_partitions,
            "num_stragglers": config.num_stragglers,
            "loads": list(strategy.loads),
            "num_groups": len(strategy.groups),
            "straggler_injector": config.straggler_injector.describe(),
            "network": config.network.describe(),
        }
        return (
            strategy,
            config.optimizer_factory(),
            model.num_parameters * config.bytes_per_parameter,
            partitioned.samples_used,
            metadata,
        )

    # ------------------------------------------------------------------
    def run(
        self,
        model: Model,
        partitioned: PartitionedDataset,
        cluster: ClusterSpec,
        config: TrainingConfig,
    ) -> RunTrace:
        """Whole-trace timing, stacked gradients, fused encode+decode,
        in-place updates, columnar trace.

        Per-iteration work reduces to one
        :meth:`~repro.learning.models.base.Model.batch_loss_and_gradient`
        call on the dataset's cached partition stack, one cached
        ``(a B) @ G`` vector-matrix product (``a`` the decoding vector,
        ``B`` the used coding rows — memoised per distinct used-worker set)
        and one in-place optimiser update.  Timing, straggler and network
        randomness are all pre-drawn by a 1-run
        :meth:`~repro.simulation.vectorized.TimingTraceKernel.run_stacked`
        from the config's per-component streams, and the timing kernel is
        looked up in the process-wide cache so repeated runs (sweeps,
        seed grids) reuse decoders and memoised decode orders.

        The recorded training loss is the **exact** full-batch mean loss:
        the stacked gradient evaluation already yields every partition's
        loss at the pre-update parameters, at zero extra cost
        (``config.loss_eval_samples`` is not used).
        """
        construction_rng = config.make_rng(component="training")
        strategy, optimizer, gradient_bytes, total_samples, metadata = (
            self._prepare(model, partitioned, cluster, config, construction_rng)
        )
        metadata["rng_version"] = 2

        kernel = default_timing_kernel_cache().get_or_build(
            strategy,
            cluster,
            samples_per_partition=partitioned.partition_size,
            network=config.network,
            gradient_bytes=gradient_bytes,
        )
        decoder = kernel.decoder
        run = StackedRun(
            injector_rng=config.make_rng(component="injector"),
            jitter_rng=config.make_rng(component="jitter"),
            network_rng=config.make_rng(component="network"),
            injector=config.straggler_injector,
        )
        arrays = kernel.run_stacked(config.num_iterations, [run])[0]

        num_iterations = arrays.num_iterations
        train_losses = np.empty(num_iterations)
        stacked_features, stacked_labels = partitioned.stacked_data()
        matrix = strategy.matrix
        inverse_total = 1.0 / total_samples
        parameters = model.parameters()
        # Decoding depends only on the used-worker set, which repeats across
        # iterations; fuse decode-weights @ used-coding-rows once per set,
        # keyed by the set's bytes in the kernel's ragged column.
        combined_rows: dict[bytes, np.ndarray] = {}
        used_offsets = arrays.workers_used.offsets.tolist()
        used_values = arrays.workers_used.values
        last_loss = float("nan")
        stop = num_iterations
        for step in range(num_iterations):
            evaluate = step % config.record_loss_every == 0
            if not np.isfinite(arrays.durations[step]):
                # The master can never recover this iteration (e.g. naive
                # scheme with a failed worker): record the stall and abort.
                if evaluate:
                    last_loss = evaluate_mean_loss(model, partitioned)
                train_losses[step] = last_loss
                stop = step + 1
                break

            workers = used_values[used_offsets[step] : used_offsets[step + 1]]
            key = workers.tobytes()
            combo = combined_rows.get(key)
            if combo is None:
                result = decoder.decoding_vector(tuple(workers.tolist()))
                assert result is not None  # finite duration implies decodable
                used = workers.astype(np.intp)
                combo = result.coefficients[used] @ matrix[used]
                combined_rows[key] = combo
            partition_losses, gradients = model.batch_loss_and_gradient(
                stacked_features, stacked_labels
            )
            if evaluate:
                last_loss = float(partition_losses.sum()) * inverse_total
            train_losses[step] = last_loss
            aggregated = np.matmul(combo, gradients)
            aggregated *= inverse_total
            parameters = optimizer.step_inplace(parameters, aggregated)
            model.set_parameters(parameters)

        if stop != num_iterations:
            kept = np.arange(stop)
            arrays = TimingTraceArrays(
                durations=arrays.durations[:stop],
                compute_times=arrays.compute_times[:stop],
                completion_times=arrays.completion_times[:stop],
                workers_used=arrays.workers_used.take(kept),
                used_groups=arrays.used_groups.take(kept),
            )
        return RunTrace.from_arrays(
            scheme=self.name,
            cluster_name=cluster.name,
            arrays=arrays,
            train_losses=train_losses[:stop],
            metadata=metadata,
        )


class NaiveBSPProtocol(CodedBSPProtocol):
    """Uncoded BSP: uniform data division, the master waits for every worker."""

    def __init__(self) -> None:
        super().__init__(scheme="naive")
