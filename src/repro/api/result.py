"""Uniform run results: trace + derived metrics + JSON round-trip.

Every :meth:`Engine.run() <repro.api.engine.Engine.run>` call returns a
:class:`RunResult` regardless of mode, so downstream code (figures,
sweeps, the CLI, future caching layers) consumes one shape:

* :attr:`RunResult.spec` — the exact :class:`~repro.api.spec.RunSpec` that
  produced the run (full provenance);
* :attr:`RunResult.trace` — the raw per-iteration
  :class:`~repro.simulation.trace.RunTrace`;
* :attr:`RunResult.metrics` — derived scalars computed identically for every
  mode (mean iteration time, total time, resource usage, final loss, ...).

``to_json`` / ``from_json`` round-trip the whole object, numpy scalars and
non-finite floats included.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..metrics.resource_usage import run_resource_usage
from ..metrics.timing_stats import timing_stats
from ..simulation.trace import RunTrace
from .spec import RunSpec

__all__ = ["RESULT_SCHEMA_VERSION", "ResultError", "RunResult", "json_default"]

#: Version of the ``RunResult`` serialization format.  v1 is the
#: historical payload without a ``schema_version`` key; v2 adds the key
#: (and nothing else), so store segments and server responses written
#: today remain identifiable when the format evolves.  ``from_dict``
#: accepts every version up to this one and rejects newer payloads with a
#: clear error instead of silently misreading them.
RESULT_SCHEMA_VERSION = 2


class ResultError(ValueError):
    """Raised when a serialized result payload cannot be interpreted."""


def json_default(value: Any) -> Any:
    """Make numpy scalars/arrays (which leak into trace metadata) JSON-safe.

    The shared ``default=`` hook for every serialization of results in the
    package (``RunResult.to_json``, the run store's descriptors, the sweep
    server's responses) — one conversion rule, so all three emit identical
    JSON for the same result.
    """
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"not JSON-serialisable: {value!r} ({type(value).__name__})")


#: Backward-compatible private alias (pre-PR 10 name).
_json_default = json_default


@dataclass(frozen=True)
class RunResult:
    """The outcome of one engine run: spec, raw trace and derived metrics."""

    spec: RunSpec
    trace: RunTrace
    metrics: dict[str, Any] = field(default_factory=dict)

    @classmethod
    def from_trace(cls, spec: RunSpec, trace: RunTrace) -> "RunResult":
        """Derive the uniform metric set from a freshly produced trace."""
        stats = timing_stats(trace)
        losses = trace.losses
        final_loss = float(losses[-1]) if losses.size else float("nan")
        metrics: dict[str, Any] = {
            "num_iterations": trace.num_iterations,
            "mean_iteration_time": stats.mean,
            "median_iteration_time": stats.median,
            "p95_iteration_time": stats.p95,
            "total_time": trace.total_time,
            "stalled_iterations": stats.stalled_iterations,
            "completed": trace.completed,
            "resource_usage": run_resource_usage(trace),
            "final_loss": final_loss,
        }
        effective = trace.metadata.get("effective_total_samples")
        if effective is not None:
            metrics["effective_total_samples"] = int(effective)
        return cls(spec=spec, trace=trace, metrics=metrics)

    # -- convenience accessors -----------------------------------------
    @property
    def scheme(self) -> str:
        return self.trace.scheme

    @property
    def mean_iteration_time(self) -> float:
        return float(self.metrics["mean_iteration_time"])

    @property
    def total_time(self) -> float:
        return float(self.metrics["total_time"])

    @property
    def resource_usage(self) -> float:
        return float(self.metrics["resource_usage"])

    @property
    def final_loss(self) -> float:
        return float(self.metrics["final_loss"])

    @property
    def completed(self) -> bool:
        return bool(self.metrics["completed"])

    # -- serialization --------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-data form; inverse of :meth:`from_dict`."""
        return {
            "schema_version": RESULT_SCHEMA_VERSION,
            "spec": self.spec.to_dict(),
            "trace": self.trace.to_dict(),
            "metrics": dict(self.metrics),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunResult":
        # Payloads predating the version field are v1 (same layout, no key).
        version = data.get("schema_version", 1)
        if not isinstance(version, int) or not 1 <= version <= RESULT_SCHEMA_VERSION:
            raise ResultError(
                f"unsupported result schema_version {version!r}; "
                f"this build reads versions 1..{RESULT_SCHEMA_VERSION}"
            )
        return cls(
            spec=RunSpec.from_dict(data["spec"]),
            trace=RunTrace.from_dict(data["trace"]),
            metrics=dict(data.get("metrics", {})),
        )

    def to_json(self, indent: int | None = None) -> str:
        """JSON form; non-finite floats use the standard Infinity/NaN tokens."""
        return json.dumps(self.to_dict(), indent=indent, default=_json_default)

    @classmethod
    def from_json(cls, text: str) -> "RunResult":
        return cls.from_dict(json.loads(text))

    def summary(self) -> dict:
        """One-line-friendly summary for reports and the CLI."""
        out = {
            "scheme": self.spec.scheme,
            "mode": self.spec.mode,
            "cluster": self.spec.cluster,
            "seed": self.spec.seed,
        }
        for key, value in self.metrics.items():
            if isinstance(value, float) and math.isnan(value):
                continue
            out[key] = value
        return out
