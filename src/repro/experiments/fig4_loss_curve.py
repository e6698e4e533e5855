"""Figure 4 — training-loss-versus-time curves (statistical efficiency).

The paper trains the same model on Cluster-C under five schemes and plots
training loss against wall-clock time.  Expected ordering of the curves
(lower / further left is better):

``group_based <= heter_aware < cyclic <= naive < ssp``

The coded BSP schemes all apply *exactly* the same sequence of gradients
(the decoded gradient equals the full-batch gradient), so their loss curves
differ only through the time axis; SSP's curve additionally suffers from the
stale, unbalanced updates the paper describes.

Unlike Figs. 2/3/5 this experiment runs the full training protocols — real
numpy gradients, real parameter updates — on the simulated clock.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from ..api import Engine, RunSpec, StragglerSpec
from ..metrics.convergence import align_curves, area_under_loss_curve, loss_at_time
from ..simulation.trace import RunTrace

__all__ = ["Fig4Result", "run_fig4", "report_fig4", "main"]

DEFAULT_SCHEMES: tuple[str, ...] = (
    "naive",
    "cyclic",
    "heter_aware",
    "group_based",
    "ssp",
)


@dataclass
class Fig4Result:
    """Loss-versus-time curves plus scalar summaries for each scheme."""

    cluster_name: str
    workload: str
    schemes: tuple[str, ...]
    traces: dict[str, RunTrace] = field(default_factory=dict)
    time_grid: np.ndarray = field(default_factory=lambda: np.zeros(0))
    loss_curves: dict[str, np.ndarray] = field(default_factory=dict)
    area_under_curve: dict[str, float] = field(default_factory=dict)
    final_loss: dict[str, float] = field(default_factory=dict)
    total_time: dict[str, float] = field(default_factory=dict)

    def ranking(self) -> list[str]:
        """Schemes ordered from best (lowest AUC) to worst."""
        return sorted(self.schemes, key=lambda s: self.area_under_curve[s])

    def loss_at_deadline(self, deadline: float) -> dict[str, float]:
        """Loss each scheme reached by ``deadline`` seconds."""
        return {s: loss_at_time(self.traces[s], deadline) for s in self.schemes}


def run_fig4(
    schemes: Sequence[str] = DEFAULT_SCHEMES,
    cluster_name: str = "Cluster-C",
    workload: str = "nonseparable_blobs",
    num_samples: int | None = None,
    num_iterations: int = 15,
    num_stragglers: int = 1,
    learning_rate: float = 0.5,
    ssp_staleness: float = 3,
    ssp_batch_size: int | None = 8,
    partitions_multiplier: int = 2,
    samples_per_second_per_vcpu: float = 50.0,
    transient_probability: float = 0.05,
    transient_mean_delay: float = 0.5,
    loss_eval_samples: int = 512,
    num_grid_points: int = 25,
    seed: int = 0,
) -> Fig4Result:
    """Run the Fig. 4 loss-curve comparison.

    The default cluster is the paper's Cluster-C (32 workers); pass
    ``cluster_name="Cluster-A"`` and a smaller ``num_samples`` for a quick
    run (the shape tests do).
    """
    engine = Engine()
    base = RunSpec(
        mode="training",
        cluster=cluster_name,
        cluster_options={"samples_per_second_per_vcpu": samples_per_second_per_vcpu},
        workload=workload,
        total_samples=num_samples,
        num_iterations=num_iterations,
        num_stragglers=num_stragglers,
        partitions_multiplier=partitions_multiplier,
        straggler=StragglerSpec(
            "transient",
            {
                "probability": transient_probability,
                "mean_delay_seconds": transient_mean_delay,
            },
        ),
        learning_rate=learning_rate,
        ssp_staleness=ssp_staleness,
        ssp_batch_size=ssp_batch_size,
        loss_eval_samples=loss_eval_samples,
        seed=seed,
    )
    runs = engine.compare(base, schemes)
    traces = {scheme: run.trace for scheme, run in runs.items()}

    result = Fig4Result(
        cluster_name=cluster_name,
        workload=workload,
        schemes=tuple(schemes),
        traces=traces,
    )
    grid, curves = align_curves(traces, num_points=num_grid_points)
    result.time_grid = grid
    result.loss_curves = curves
    horizon = float(grid[-1])
    for scheme in schemes:
        trace = traces[scheme]
        result.area_under_curve[scheme] = area_under_loss_curve(trace, horizon)
        result.final_loss[scheme] = loss_at_time(trace, horizon)
        result.total_time[scheme] = trace.total_time
    return result


def report_fig4(result: Fig4Result, precision: int = 4) -> str:
    """Render the Fig. 4 comparison as tables (summary + sampled curves)."""
    from ..metrics.report import format_table

    summary_rows = [
        [
            scheme,
            result.total_time[scheme],
            result.final_loss[scheme],
            result.area_under_curve[scheme],
        ]
        for scheme in result.schemes
    ]
    summary = format_table(
        ["scheme", "total time [s]", "loss @ horizon", "AUC (lower=better)"],
        summary_rows,
        precision=precision,
        title=(
            f"Fig. 4 ({result.cluster_name}, {result.workload}): "
            "loss vs wall-clock time"
        ),
    )
    sample_indices = np.linspace(
        0, len(result.time_grid) - 1, num=min(6, len(result.time_grid)), dtype=int
    )
    curve_rows = []
    for index in sample_indices:
        curve_rows.append(
            [
                result.time_grid[index],
                *[result.loss_curves[scheme][index] for scheme in result.schemes],
            ]
        )
    curves = format_table(
        ["time [s]", *result.schemes],
        curve_rows,
        precision=precision,
        title="sampled loss curves",
    )
    ranking = " > ".join(result.ranking())
    return f"{summary}\n\n{curves}\n\nranking (best to worst): {ranking}"


def main() -> None:
    """Run Fig. 4 at default scale and print the report."""
    result = run_fig4()
    print(report_fig4(result))


if __name__ == "__main__":
    main()
