"""repro — reproduction of *Heterogeneity-aware Gradient Coding for Straggler Tolerance*.

The package is organised in layers:

* :mod:`repro.coding` — the paper's contribution: heterogeneity-aware and
  group-based gradient coding schemes, plus the naive / cyclic / fractional
  baselines, decoding and optimality analysis.
* :mod:`repro.learning` — a from-scratch numpy learning substrate (synthetic
  datasets, models, losses, optimizers, partial gradients).
* :mod:`repro.simulation` — a heterogeneous-cluster simulator (worker
  throughputs, straggler injection, communication, iteration timing).
* :mod:`repro.protocols` — distributed training protocols that combine the
  three layers: naive BSP, gradient-coded BSP, SSP and fully asynchronous.
* :mod:`repro.metrics` — resource usage, timing statistics and convergence
  summaries (the quantities the paper's figures report).
* :mod:`repro.experiments` — the per-figure experiment harness (Table II
  clusters, Figures 2-5).
* :mod:`repro.api` — the declarative front door: :class:`~repro.api.RunSpec`
  describes a run, :class:`~repro.api.Engine` executes it in its timing or
  training mode, :class:`~repro.api.RunResult` carries trace + metrics + JSON
  round-trip, and the plugin registries (``@register_scheme``,
  ``@register_protocol``, ``@register_cluster``, ``register_workload``, ...)
  let new building blocks plug in without editing any dispatch table.

Quickstart — run the paper's core comparison declaratively::

    from repro.api import Engine, RunSpec

    engine = Engine()
    base = RunSpec(
        mode="timing",               # Figs. 2/3/5 path ("training" = Fig. 4)
        cluster="Cluster-A",         # Table II clusters are pre-registered
        num_iterations=20,
        total_samples=2048,
        num_stragglers=1,
        straggler={"kind": "artificial_delay",
                   "params": {"num_stragglers": 1, "delay_seconds": 2.0}},
        seed=0,
    )
    runs = engine.compare(base, ["naive", "cyclic", "heter_aware", "group_based"])
    for scheme, result in runs.items():
        print(f"{scheme:12s} {result.mean_iteration_time:.3f}s/iter")
    print(runs["heter_aware"].to_json())   # lossless round-trip

The lower layers remain importable directly (see the quickstart in
``examples/quickstart.py`` for the coding-theory walk-through).
"""

# NOTE: `api` must come after the domain layers: the figure experiments
# import `repro.api`, whose engine in turn imports the (by then loaded)
# experiment leaf modules.  Keeping `api` last makes the circular edge
# resolve deterministically regardless of which submodule is imported first.
from . import coding, experiments, learning, metrics, protocols, simulation
from . import api

__version__ = "1.1.0"

__all__ = [
    "api",
    "coding",
    "learning",
    "simulation",
    "protocols",
    "metrics",
    "experiments",
    "__version__",
]
