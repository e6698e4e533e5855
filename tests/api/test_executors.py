"""Pluggable executors: every executor is bit-identical to ``executor=None``.

The executor layer decides where runs execute (in-process, a process pool,
the run store); the whole contract is that none of that is visible in the
results.  These tests serialise results to JSON and demand exact textual
equality between the in-process default and every builtin executor, for
stacked timing sweeps, stacked training sweeps, ragged mixed sweeps,
``run_many`` and ``compare`` alike — plus the failure contract: a pool
worker that dies surfaces as a named :class:`ExecutorError`, and a
``cached`` sweep that hits it writes nothing to its store.
"""

from __future__ import annotations

import inspect
import multiprocessing
import os
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

from repro.api import (
    EXECUTION_BACKENDS,
    EXECUTORS,
    CachedExecutor,
    Engine,
    Executor,
    ExecutorError,
    ProcessExecutor,
    RunSpec,
    StragglerSpec,
    register_executor,
)
from repro.api.engine import EngineError
from repro.api.executors import resolve_executor
from repro.api.registry import RegistryError
from repro.store import FileRunStore

#: The builtin executors under test: the pool, and the store wrapped
#: around the pool.  Both are checked against ``executor=None``.
EXECUTOR_CASES = ("process", "cached_process")

_SRC = Path(__file__).resolve().parents[2] / "src"


def results_json(results) -> list[str]:
    # to_json (json_default): the store round-trip normalises numpy scalars
    # to Python ones, exactly as JSON does.
    return [r.to_json() for r in results]


def make_executor(case: str, tmp_path: Path) -> Executor:
    if case == "process":
        return ProcessExecutor()
    return CachedExecutor(inner="process", store=FileRunStore(tmp_path / "store"))


def check_against_reference(case, tmp_path, reference, execute) -> None:
    """``execute(executor)`` must reproduce ``reference``; a cached executor
    must do so cold (computed through its pool) and warm (from the store)."""
    executor = make_executor(case, tmp_path)
    assert results_json(execute(executor)) == results_json(reference)
    if isinstance(executor, CachedExecutor):
        warm = CachedExecutor(store=executor.store)
        assert results_json(execute(warm)) == results_json(reference)
        assert warm.misses == 0 and warm.hits == executor.misses


@pytest.fixture(scope="module")
def engine() -> Engine:
    return Engine()


@pytest.fixture(scope="module")
def timing_spec() -> RunSpec:
    # rng_version=2 + explicit seed: the sweep planner stacks these, so the
    # executors are offered whole groups, exercising the group dispatch.
    return RunSpec(
        scheme="naive",
        num_iterations=6,
        total_samples=512,
        straggler=StragglerSpec(
            "artificial_delay", {"num_stragglers": 1, "delay_seconds": 1.0}
        ),
        rng_version=2,
        seed=3,
    )


@pytest.fixture(scope="module")
def training_spec() -> RunSpec:
    return RunSpec(
        scheme="ssp",
        mode="training",
        workload="nonseparable_blobs",
        num_iterations=4,
        total_samples=256,
        rng_version=2,
        seed=11,
    )


class TestRegistry:
    def test_builtins_are_process_and_cached(self):
        assert set(EXECUTORS.names()) == {"process", "cached"}

    def test_resolve_instance_passthrough(self):
        instance = ProcessExecutor()
        assert resolve_executor(instance) is instance
        assert resolve_executor(None) is None

    @pytest.mark.parametrize("name", ("warp_drive", "serial", "thread", "process_shm"))
    def test_resolve_unknown_name_lists_options(self, name):
        # The removed executors' names are unknown like any other.
        with pytest.raises(RegistryError, match="process"):
            resolve_executor(name)

    def test_resolve_rejects_non_executor_argument(self):
        with pytest.raises(ExecutorError, match="Executor"):
            resolve_executor(42)  # type: ignore[arg-type]

    def test_custom_executor_usable_by_name(self, engine, timing_spec):
        calls = []

        @register_executor("counting")
        class Counting(Executor):
            name = "counting"

            def run_specs(self, engine, specs):
                calls.append(len(specs))
                return [engine.run(spec) for spec in specs]

        try:
            results = engine.run_many([timing_spec], executor="counting")
            assert calls == [1]
            assert results_json(results) == results_json([engine.run(timing_spec)])
        finally:
            EXECUTORS.unregister("counting")

    @pytest.mark.parametrize("method", ("run_many", "sweep", "compare"))
    def test_executor_is_the_only_execution_argument(self, method):
        parameters = inspect.signature(getattr(Engine, method)).parameters
        assert "executor" in parameters
        assert "parallel" not in parameters
        assert "policy" not in parameters

    @pytest.mark.parametrize("axis", ("parallel", "policy"))
    def test_sweep_rejects_a_removed_keyword_as_axis(self, engine, timing_spec, axis):
        with pytest.raises(EngineError, match=f"unknown sweep axis '{axis}'"):
            engine.sweep(timing_spec, **{axis: [2]}, seed=[0, 1])

    @pytest.mark.parametrize(
        "name, cls", (("process", ProcessExecutor), ("cached", CachedExecutor))
    )
    def test_builtin_names_resolve_to_fresh_instances(self, name, cls):
        first, second = resolve_executor(name), resolve_executor(name)
        assert type(first) is cls and type(second) is cls
        assert first is not second
        assert first.name == name

    def test_registered_instance_resolves_to_itself(self):
        instance = ProcessExecutor()
        EXECUTORS.add("one_worker_pool", instance)
        try:
            assert resolve_executor("one_worker_pool") is instance
        finally:
            EXECUTORS.unregister("one_worker_pool")

    def test_registered_non_executor_is_rejected(self):
        EXECUTORS.add("not_an_executor", dict)
        try:
            with pytest.raises(ExecutorError, match="not an Executor"):
                resolve_executor("not_an_executor")
        finally:
            EXECUTORS.unregister("not_an_executor")


class TestBitIdentity:
    @pytest.mark.parametrize("case", EXECUTOR_CASES)
    def test_stacked_timing_sweep(self, engine, timing_spec, tmp_path, case):
        seeds = list(range(3, 9))
        check_against_reference(
            case,
            tmp_path,
            engine.sweep(timing_spec, seed=seeds),
            lambda executor: engine.sweep(timing_spec, executor=executor, seed=seeds),
        )

    @pytest.mark.parametrize("case", EXECUTOR_CASES)
    def test_stacked_training_sweep(self, engine, training_spec, tmp_path, case):
        seeds = [11, 12, 13]
        check_against_reference(
            case,
            tmp_path,
            engine.sweep(training_spec, seed=seeds),
            lambda executor: engine.sweep(
                training_spec, executor=executor, seed=seeds
            ),
        )

    @pytest.mark.parametrize("case", EXECUTOR_CASES)
    def test_ragged_mixed_sweep(self, engine, timing_spec, tmp_path, case):
        # Two schemes -> two stacked groups; rng_version=1 members join the
        # un-stackable remainder, so group dispatch and the run_many
        # fallback both execute under the same executor.
        axes = {"scheme": ["naive", "cyclic"], "rng_version": [2, 1]}
        check_against_reference(
            case,
            tmp_path,
            engine.sweep(timing_spec, **axes),
            lambda executor: engine.sweep(timing_spec, executor=executor, **axes),
        )

    @pytest.mark.parametrize("case", EXECUTOR_CASES)
    def test_run_many(self, engine, timing_spec, tmp_path, case):
        specs = [timing_spec, timing_spec.replace(seed=4, rng_version=1)]
        check_against_reference(
            case,
            tmp_path,
            [engine.run(spec) for spec in specs],
            lambda executor: engine.run_many(specs, executor=executor),
        )

    @pytest.mark.parametrize("case", EXECUTOR_CASES)
    def test_run_many_single_spec(self, engine, timing_spec, tmp_path, case):
        check_against_reference(
            case,
            tmp_path,
            [engine.run(timing_spec)],
            lambda executor: engine.run_many([timing_spec], executor=executor),
        )

    def test_compare_accepts_executor(self, engine, timing_spec):
        schemes = ["naive", "cyclic"]
        reference = engine.compare(timing_spec, schemes)
        by_name = engine.compare(timing_spec, schemes, executor="process")
        assert list(by_name) == schemes
        assert results_json(by_name.values()) == results_json(reference.values())

    def test_default_executor_keeps_legacy_behaviour(self, engine, timing_spec):
        # executor=None stacks the sweep in-process; every result still
        # equals a standalone run of its spec.
        seeds = [3, 4, 5]
        swept = engine.sweep(timing_spec, executor=None, seed=seeds)
        standalone = [engine.run(timing_spec.replace(seed=seed)) for seed in seeds]
        assert results_json(swept) == results_json(standalone)

    def test_declined_group_dispatch_runs_in_process(self, engine, timing_spec):
        # An executor without run_groups declines stacked groups; the
        # engine then stacks them in-process and only hands the executor
        # the ragged remainder.
        offered = []

        class SpecsOnly(Executor):
            def run_specs(self, engine, specs):
                offered.append(list(specs))
                return [engine.run(spec) for spec in specs]

        axes = {"seed": [3, 4], "rng_version": [2, 1]}
        results = engine.sweep(timing_spec, executor=SpecsOnly(), **axes)
        assert results_json(results) == results_json(engine.sweep(timing_spec, **axes))
        assert [[spec.rng_version for spec in batch] for batch in offered] == [[1, 1]]

    @pytest.mark.parametrize("case", EXECUTOR_CASES)
    def test_compare(self, engine, timing_spec, tmp_path, case):
        schemes = ["naive", "heter_aware"]
        reference = engine.compare(timing_spec, schemes)

        def execute(executor):
            compared = engine.compare(timing_spec, schemes, executor=executor)
            assert list(compared) == schemes
            return list(compared.values())

        check_against_reference(case, tmp_path, list(reference.values()), execute)


class TestInjectedBackends:
    @pytest.fixture()
    def injected_engine(self):
        real = Engine()
        return Engine(backends={"timing": lambda spec: real.run(spec).trace})

    @pytest.mark.parametrize("case", EXECUTOR_CASES)
    def test_subprocess_executors_reject_injected_backends(
        self, injected_engine, timing_spec, tmp_path, case
    ):
        executor = make_executor(case, tmp_path)
        assert executor.requires_subprocess
        with pytest.raises(EngineError, match="registry-backed"):
            injected_engine.run_many([timing_spec], executor=executor)

    def test_in_process_cached_accepts_injected_backends(
        self, engine, injected_engine, timing_spec, tmp_path
    ):
        specs = [timing_spec, timing_spec.replace(seed=4)]
        executor = CachedExecutor(store=FileRunStore(tmp_path / "store"))
        results = injected_engine.run_many(specs, executor=executor)
        assert results_json(results) == results_json(engine.run_many(specs))

    def test_injected_backend_sweep_runs_in_process_by_default(
        self, injected_engine, timing_spec
    ):
        # executor=None: injected-backend specs are never stackable and the
        # in-process fallback handles them.
        results = injected_engine.sweep(timing_spec, seed=[3, 4])
        assert len(results) == 2


def _exit_in_child(parent_pid: int) -> None:
    if os.getpid() == parent_pid:
        raise AssertionError("the dying code path ran in the parent process")
    os._exit(1)


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the dying backend is registered at runtime; only fork children see it",
)
class TestWorkerDeath:
    """A pool worker that dies mid-sweep fails the dispatch by name."""

    @pytest.fixture()
    def dying_mode(self):
        parent_pid = os.getpid()

        def backend(spec):
            _exit_in_child(parent_pid)

        EXECUTION_BACKENDS.add("die_in_worker", backend)
        try:
            yield "die_in_worker"
        finally:
            EXECUTION_BACKENDS.unregister("die_in_worker")

    @pytest.fixture()
    def dying_stacks(self, monkeypatch):
        parent_pid = os.getpid()

        def run_timing_stack(self, members):
            _exit_in_child(parent_pid)

        monkeypatch.setattr(Engine, "_run_timing_stack", run_timing_stack)

    def test_process_raises_executor_error(self, engine, dying_mode):
        spec = RunSpec(mode=dying_mode, seed=0)
        with pytest.raises(ExecutorError, match="'process'") as caught:
            engine.run_many([spec, spec.replace(seed=1)], executor="process")
        assert isinstance(caught.value.__cause__, BrokenProcessPool)

    def test_process_stacked_sweep_raises_executor_error(
        self, engine, timing_spec, dying_stacks
    ):
        with pytest.raises(ExecutorError, match="'process'") as caught:
            engine.sweep(timing_spec, executor="process", seed=[0, 1])
        assert isinstance(caught.value.__cause__, BrokenProcessPool)

    def test_cached_sweep_writes_nothing(self, engine, dying_mode, tmp_path):
        store = FileRunStore(tmp_path / "store")
        executor = CachedExecutor(inner="process", store=store)
        with pytest.raises(ExecutorError, match="'process'"):
            engine.sweep(RunSpec(mode=dying_mode), executor=executor, seed=[0, 1, 2])
        assert store.fingerprints() == ()

    def test_cached_stacked_sweep_writes_nothing(
        self, engine, timing_spec, dying_stacks, tmp_path
    ):
        store = FileRunStore(tmp_path / "store")
        executor = CachedExecutor(inner="process", store=store)
        with pytest.raises(ExecutorError, match="'process'") as caught:
            engine.sweep(
                timing_spec, executor=executor, scheme=["naive", "cyclic"], seed=[0, 1]
            )
        assert isinstance(caught.value.__cause__, BrokenProcessPool)
        assert store.fingerprints() == ()


class TestCli:
    ARGV = [
        "run",
        "--scheme",
        "naive",
        "--iterations",
        "3",
        "--samples",
        "512",
        "--delay",
        "1.0",
        "--rng-version",
        "2",
        "--json",
    ]

    @pytest.mark.parametrize("name", ("process", "cached"))
    def test_run_with_executor_matches_default(
        self, capsys, monkeypatch, tmp_path, name
    ):
        from repro.cli import main

        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "store"))
        assert main(self.ARGV) == 0
        reference = capsys.readouterr().out
        assert main([*self.ARGV, "--executor", name]) == 0
        assert capsys.readouterr().out == reference

    def test_removed_executor_name_fails_with_registered_names(self):
        env = {**os.environ, "PYTHONPATH": str(_SRC)}
        completed = subprocess.run(
            [sys.executable, "-m", "repro", *self.ARGV, "--executor", "thread"],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert completed.returncode != 0
        assert (
            "unknown executor 'thread'; expected one of ['process', 'cached']"
            in completed.stderr
        )
