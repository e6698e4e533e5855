"""The paper workloads the benchmark times, with their output checks.

Each workload builds its inputs from a seed offset, then runs one *pass*
per call to :meth:`PaperWorkload.run_pass` through the public ``repro``
API only.  The program sees nothing but the generated :class:`RunSpec`
objects.  Every workload pins ``rng_version=2`` so it stays on the same code
path if the default changes.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
from pathlib import Path

import numpy as np

from repro.api import (
    CachedExecutor,
    Engine,
    FileRunStore,
    RunResult,
    RunSpec,
    StragglerSpec,
    json_default,
)
# Called through the module so the traced run's wrappers see these calls.
from repro.metrics import convergence

CODED_SCHEMES = ("naive", "cyclic", "heter_aware", "group_based")
FIG2_DELAYS = (0.0, 0.5, 1.0, 2.0, 4.0, float("inf"))
FIG2_SEEDS = 10
FIG4_PROTOCOLS = (*CODED_SCHEMES, "ssp", "dyn_ssp", "async")
TABLE2_CLUSTERS = ("Cluster-A", "Cluster-B", "Cluster-C", "Cluster-D")
STORE_SEEDS = 60
# Paper-scale worker throughput, as the figure experiments use it.
CLUSTER_OPTIONS = {"samples_per_second_per_vcpu": 50.0}


def run_digest(result: RunResult) -> str:
    """Cheap identity of one run's output: its durations and its metrics."""
    digest = hashlib.sha256(result.trace.durations.tobytes())
    digest.update(
        json.dumps(result.metrics, sort_keys=True, default=json_default).encode()
    )
    return digest.hexdigest()


def cell_key(result: RunResult) -> tuple:
    """The grid cell a result belongs to, whatever order the runs were made in."""
    spec = result.spec
    straggler = json.dumps(spec.straggler.to_dict(), sort_keys=True)
    return (spec.scheme, spec.cluster, straggler, spec.seed)


def fig2_straggler(delay: float) -> StragglerSpec:
    if delay == 0:
        return StragglerSpec("none")
    return StragglerSpec(
        "artificial_delay", {"num_stragglers": 1, "delay_seconds": float(delay)}
    )


def fig2_base(seed: int) -> RunSpec:
    """Fig. 2a geometry: Cluster-A, s=1, 1000 iterations of 2048 samples."""
    return RunSpec(
        mode="timing",
        cluster="Cluster-A",
        cluster_options=CLUSTER_OPTIONS,
        num_stragglers=1,
        total_samples=2048,
        num_iterations=1000,
        seed=seed,
        rng_version=2,
    )


class PaperWorkload:
    """One named workload: inputs from a seed, one pass per call.

    ``before_pass``/``after_pass`` run outside the timed region;
    ``after_pass`` returns failure messages for that pass.  ``check`` runs
    once, after the last timed pass, on that pass's results.
    """

    name = ""
    why = ""

    def __init__(self, seed: int, workdir: Path) -> None:
        """Build the inputs from ``seed``; any files go under ``workdir``."""

    def before_pass(self) -> None:
        pass

    def run_pass(self) -> list[RunResult]:
        raise NotImplementedError

    def after_pass(self) -> list[str]:
        return []

    def check(self, results: list[RunResult]) -> list[str]:
        return []

    def counters(self) -> dict[str, float]:
        """Run-store counters of the last pass, for the traced run."""
        return {}


class Fig2Cells(PaperWorkload):
    name = "fig2_cells"
    why = (
        "Fig. 2a grid with one Engine.run per cell, as run_fig2 runs it: the "
        "per-run path and its fixed per-run costs, no stack planner"
    )

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seeds = list(range(seed, seed + FIG2_SEEDS))

    def run_pass(self) -> list[RunResult]:
        results = []
        for seed in self.seeds:
            engine = Engine()
            base = fig2_base(seed)
            for scheme in CODED_SCHEMES:
                for delay in FIG2_DELAYS:
                    spec = base.replace(scheme=scheme, straggler=fig2_straggler(delay))
                    results.append(engine.run(spec))
        return results

    def check(self, results: list[RunResult]) -> list[str]:
        failures = []
        if len(results) != len(self.seeds) * len(CODED_SCHEMES) * len(FIG2_DELAYS):
            failures.append(f"{self.name}: expected 240 runs, got {len(results)}")
        for result in results:
            spec = result.spec
            if spec.straggler.params.get("delay_seconds") != math.inf:
                continue
            if spec.scheme == "naive":
                if result.completed:
                    failures.append(f"naive completed under a fault (seed {spec.seed})")
            elif not result.completed or result.trace.num_iterations != 1000:
                failures.append(
                    f"{spec.scheme} did not complete 1000 iterations under a "
                    f"fault (seed {spec.seed})"
                )
        return failures


class Fig2Sweep(Fig2Cells):
    name = "fig2_sweep"
    why = (
        "the same 240 Fig. 2a runs as one Engine.sweep per delay: the stack "
        "planner and run_stacked, same outputs as fig2_cells"
    )

    def run_pass(self) -> list[RunResult]:
        engine = Engine()
        results = []
        for delay in FIG2_DELAYS:
            base = fig2_base(self.seeds[0]).replace(straggler=fig2_straggler(delay))
            results.extend(engine.sweep(base, scheme=CODED_SCHEMES, seed=self.seeds))
        return results

    def check(self, results: list[RunResult]) -> list[str]:
        failures = super().check(results)
        swept = {cell_key(r): run_digest(r) for r in results}
        cells = {cell_key(r): run_digest(r) for r in Fig2Cells.run_pass(self)}
        if swept != cells:
            differing = sum(swept.get(key) != digest for key, digest in cells.items())
            failures.append(
                f"fig2_sweep differs from fig2_cells in {differing} of {len(cells)} cells"
            )
        return failures


class Table2Clusters(PaperWorkload):
    name = "table2_clusters"
    why = (
        "all four Table II clusters (8 to 58 workers) under transient "
        "stragglers: completion orders rarely repeat, so the decode decision dominates"
    )

    def __init__(self, seed: int, workdir: Path) -> None:
        self.base = RunSpec(
            mode="timing",
            cluster_options=CLUSTER_OPTIONS,
            num_stragglers=1,
            total_samples=4096,
            num_iterations=250,
            straggler=StragglerSpec(
                "transient", {"probability": 0.2, "mean_delay_seconds": 1.0}
            ),
            seed=seed,
            rng_version=2,
        )
        self.fig3_mean_time: dict[tuple[str, str], float] = {}
        self.fig5_usage: dict[tuple[str, str], float] = {}

    def run_pass(self) -> list[RunResult]:
        results = Engine().sweep(
            self.base, cluster=TABLE2_CLUSTERS, scheme=CODED_SCHEMES
        )
        for result in results:
            key = (result.spec.cluster, result.spec.scheme)
            self.fig3_mean_time[key] = result.mean_iteration_time
            self.fig5_usage[key] = result.resource_usage
        return results

    def check(self, results: list[RunResult]) -> list[str]:
        failures = []
        if len(results) != len(TABLE2_CLUSTERS) * len(CODED_SCHEMES):
            failures.append(f"{self.name}: expected 16 runs, got {len(results)}")
        for key, mean_time in self.fig3_mean_time.items():
            usage = self.fig5_usage[key]
            if not (math.isfinite(mean_time) and mean_time > 0):
                failures.append(f"{key}: mean iteration time {mean_time}")
            if not 0 < usage <= 1:
                failures.append(f"{key}: resource usage {usage} outside (0, 1]")
        failures.extend(
            f"{r.spec.cluster}/{r.spec.scheme} stalled" for r in results if not r.completed
        )
        return failures


class Fig4Softmax(PaperWorkload):
    name = "fig4_softmax"
    why = (
        "Fig. 4 compare of 7 protocols on a 170-parameter softmax: protocol "
        "loops, the SSP schedule scan and small-model replay dominate"
    )
    workload = "nonseparable_blobs"
    samples = 1024
    iterations = 300
    learning_rate = 0.5

    def __init__(self, seed: int, workdir: Path) -> None:
        self.base = RunSpec(
            mode="training",
            cluster="Cluster-C",
            cluster_options=CLUSTER_OPTIONS,
            workload=self.workload,
            total_samples=self.samples,
            num_iterations=self.iterations,
            num_stragglers=1,
            straggler=StragglerSpec(
                "transient", {"probability": 0.05, "mean_delay_seconds": 0.5}
            ),
            learning_rate=self.learning_rate,
            ssp_staleness=3,
            ssp_batch_size=8,
            loss_eval_samples=512,
            seed=seed,
            rng_version=2,
        )
        self.summary: dict[str, tuple[float, float]] = {}

    def run_pass(self) -> list[RunResult]:
        runs = Engine().compare(self.base, FIG4_PROTOCOLS)
        traces = {name: run.trace for name, run in runs.items()}
        grid, _ = convergence.align_curves(traces, num_points=25)
        horizon = float(grid[-1])
        self.summary = {
            name: (
                convergence.area_under_loss_curve(trace, horizon),
                convergence.loss_at_time(trace, horizon),
            )
            for name, trace in traces.items()
        }
        return list(runs.values())

    def check(self, results: list[RunResult]) -> list[str]:
        failures = []
        losses = {r.spec.scheme: r.trace.losses for r in results}
        for name, curve in losses.items():
            if curve.size == 0 or not np.all(np.isfinite(curve)):
                failures.append(f"{self.name}/{name}: non-finite or empty losses")
        naive = losses["naive"]
        for name in CODED_SCHEMES:
            curve = losses[name]
            if curve.shape != naive.shape or not np.allclose(
                curve, naive, rtol=1e-9, atol=0.0
            ):
                failures.append(f"{self.name}/{name}: losses differ from naive's")
            elif not curve[-1] < curve[0]:
                failures.append(
                    f"{self.name}/{name}: final loss {curve[-1]} not below "
                    f"initial {curve[0]}"
                )
        return failures


class Fig4Mlp(Fig4Softmax):
    name = "fig4_mlp"
    why = (
        "the same 7-protocol compare on a 197k-parameter MLP: gradient kernels "
        "and the version-grouped replay arm dominate"
    )
    workload = "cifar10_mlp"
    samples = 512
    iterations = 8
    # At the Fig. 4 default of 0.5 this model diverges; 0.01 converges.
    learning_rate = 0.01


class StoreWrite(PaperWorkload):
    name = "store_write"
    why = (
        "cold resumable sweep into an empty run store: 240 misses, each "
        "fingerprinted, packed and written with fsync"
    )
    expected = {"hits": 0, "misses": len(CODED_SCHEMES) * STORE_SEEDS}

    def __init__(self, seed: int, workdir: Path) -> None:
        self.base = fig2_base(seed).replace(straggler=fig2_straggler(1.0))
        self.seeds = list(range(seed, seed + STORE_SEEDS))
        self.root = workdir / self.name
        self.store = self.open_store()
        self.executor = CachedExecutor(store=self.store)
        self.bytes_before = 0
        self.bytes_written = 0

    def open_store(self) -> FileRunStore:
        shutil.rmtree(self.root, ignore_errors=True)
        return FileRunStore(self.root)

    def before_pass(self) -> None:
        self.store = self.open_store()
        self.executor = CachedExecutor(store=self.store)
        self.bytes_before = self.store.stats()["bytes"]

    def run_pass(self) -> list[RunResult]:
        return Engine().sweep(
            self.base, scheme=CODED_SCHEMES, seed=self.seeds, executor=self.executor
        )

    def after_pass(self) -> list[str]:
        self.bytes_written = self.store.stats()["bytes"] - self.bytes_before
        seen = {"hits": self.executor.hits, "misses": self.executor.misses}
        if seen != self.expected:
            return [f"{self.name}: cache counters {seen}, expected {self.expected}"]
        return []

    def counters(self) -> dict[str, float]:
        return {
            "cached_hits": self.executor.hits,
            "cached_misses": self.executor.misses,
            "bytes_written": self.bytes_written,
        }


class StoreRead(StoreWrite):
    name = "store_read"
    why = (
        "the same sweep against a store filled during set-up: 240 hits read "
        "back, nothing recomputed"
    )
    expected = {"hits": len(CODED_SCHEMES) * STORE_SEEDS, "misses": 0}

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.run_pass()  # fills the store

    def before_pass(self) -> None:
        self.executor = CachedExecutor(store=self.store)
        self.bytes_before = self.store.stats()["bytes"]

    def check(self, results: list[RunResult]) -> list[str]:
        plain = Engine().sweep(self.base, scheme=CODED_SCHEMES, seed=self.seeds)
        if [r.to_json() for r in results] != [r.to_json() for r in plain]:
            return [f"{self.name}: stored results differ from a plain sweep"]
        return []


WORKLOADS: dict[str, type[PaperWorkload]] = {
    cls.name: cls
    for cls in (
        Fig2Cells,
        Fig2Sweep,
        Table2Clusters,
        Fig4Softmax,
        Fig4Mlp,
        StoreWrite,
        StoreRead,
    )
}
