"""Golden equality: columnar traces serialize identically to record traces.

For every figure experiment of the paper (Figs. 2-5 and the Table II
clusters), run a fixed-seed, CI-sized configuration and assert that the
trace each run produces serializes to **byte-identical JSON** whether read
through the columnar store (``to_dict`` straight from the columns) or
rebuilt record by record through the compatibility view.  This pins the
columnar rewrite to the exact serialization contract of the record-based
layout on real experiment output — every scheme, stalls included.
"""

from __future__ import annotations

import json
import warnings

import pytest

from repro._reference import run_spec_reference
from repro.api import Engine, RunSpec, StragglerSpec
from repro.experiments.fig4_loss_curve import run_fig4
from repro.experiments.table2_clusters import run_table2
from repro.simulation.trace import RunTrace, UnknownTraceFieldWarning

SCHEMES = ("naive", "cyclic", "heter_aware", "group_based")


def assert_columnar_equals_record_json(trace: RunTrace) -> None:
    """to_dict from columns == to_dict from a record-by-record rebuild."""
    columnar_json = json.dumps(trace.to_dict())
    rebuilt = RunTrace(
        scheme=trace.scheme,
        cluster_name=trace.cluster_name,
        records=trace.records,  # materialize the compatibility view
        metadata=dict(trace.metadata),
    )
    assert json.dumps(rebuilt.to_dict()) == columnar_json
    # And the JSON round-trip is silent (no unknown-key warnings) and stable.
    with warnings.catch_warnings():
        warnings.simplefilter("error", UnknownTraceFieldWarning)
        reparsed = RunTrace.from_dict(json.loads(columnar_json))
    assert json.dumps(reparsed.to_dict()) == columnar_json


@pytest.fixture(scope="module")
def figure_traces():
    """CI-sized traces in every figure experiment's configuration shape.

    The per-figure modules (Figs. 2/3/5) reduce their runs to scalar
    summaries, so the traces are produced through the identical
    :class:`RunSpec` shapes each figure submits to the engine — every
    scheme, both RNG versions for the fig2 shape (v1 from the
    ``repro._reference`` oracle), the fault (``inf`` delay) cells included —
    plus the real ``run_fig4`` training traces.
    """
    engine = Engine()
    runners = {1: run_spec_reference, 2: engine.run}
    traces = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for scheme in SCHEMES:
            # Fig. 2 shape: artificial delays on Cluster-A, incl. a fault.
            for delay in (0.0, 1.0, float("inf")):
                for rng_version in (1, 2):
                    spec = RunSpec(
                        scheme=scheme, cluster="Cluster-A", num_iterations=5,
                        total_samples=2048, seed=0, rng_version=rng_version,
                        straggler=StragglerSpec(
                            "artificial_delay",
                            {"num_stragglers": 1, "delay_seconds": delay},
                        ),
                    )
                    traces[f"fig2/{scheme}/{delay}/v{rng_version}"] = (
                        runners[rng_version](spec).trace
                    )
            # Fig. 3 shape: transient slowdowns across clusters.
            for cluster in ("Cluster-A", "Cluster-B"):
                spec = RunSpec(
                    scheme=scheme, cluster=cluster, num_iterations=5,
                    total_samples=4096, seed=0,
                    straggler=StragglerSpec(
                        "transient",
                        {"probability": 0.05, "mean_delay_seconds": 0.5},
                    ),
                )
                traces[f"fig3/{cluster}/{scheme}"] = engine.run(spec).trace
            # Fig. 5 shape: heavier transient interference, big payloads.
            spec = RunSpec(
                scheme=scheme, cluster="Cluster-A", num_iterations=5,
                total_samples=2048, seed=0, gradient_bytes=8.0 * 65536,
                straggler=StragglerSpec(
                    "transient", {"probability": 0.2, "mean_delay_seconds": 1.0}
                ),
            )
            traces[f"fig5/{scheme}"] = engine.run(spec).trace
        # Fig. 4: the real experiment module (training traces incl. SSP).
        fig4 = run_fig4(
            cluster_name="Cluster-A", num_samples=256, num_iterations=4,
            loss_eval_samples=64, seed=0,
        )
        for scheme, trace in fig4.traces.items():
            traces[f"fig4/{scheme}"] = trace
    return traces


class TestFigureTraceGoldenEquality:
    def test_every_figure_trace_collected(self, figure_traces):
        prefixes = {key.split("/")[0] for key in figure_traces}
        assert prefixes == {"fig2", "fig3", "fig4", "fig5"}
        assert len(figure_traces) > 20

    def test_columnar_json_equals_record_json(self, figure_traces):
        for name, trace in figure_traces.items():
            assert_columnar_equals_record_json(trace)

    def test_stalled_runs_included(self, figure_traces):
        """The inf-delay fig2 cells exercise stalls through serialization."""
        stalled = [
            trace
            for name, trace in figure_traces.items()
            if name.startswith("fig2/naive/inf")
        ]
        assert stalled and all(not trace.completed for trace in stalled)

    def test_table2_clusters_unchanged(self):
        result = run_table2(seed=0)
        assert set(result.num_workers) == {
            "Cluster-A", "Cluster-B", "Cluster-C", "Cluster-D",
        }
        assert result.num_workers["Cluster-D"] == 58
