"""Tests for the command-line interface (python -m repro ...)."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])

    def test_known_commands_parse(self):
        parser = build_parser()
        for argv in (
            ["table2"],
            ["fig2", "--stragglers", "2"],
            ["fig3", "--clusters", "Cluster-B"],
            ["fig4", "--iterations", "3"],
            ["fig5"],
            ["optimality", "--trials", "2"],
            ["estimation-error", "--errors", "0", "0.3"],
            ["analyze", "--cluster", "Cluster-A"],
            ["run", "--scheme", "heter_aware", "--iterations", "3"],
            ["plugins"],
            ["serve", "--port", "0"],
            ["serve", "--host", "0.0.0.0", "--store", "/tmp/store"],
        ):
            args = parser.parse_args(argv)
            assert args.command == argv[0]

    def test_unknown_command_rejected(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["fig9"])

    @pytest.mark.parametrize("version", ["1", "2"])
    def test_run_has_no_rng_version_flag(self, version, capsys):
        # The engine runs one RNG layout, so there is nothing to choose.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--rng-version", version])
        assert "unrecognized arguments: --rng-version" in capsys.readouterr().err


class TestCommands:
    """Run each sub-command at a tiny scale and check its report output."""

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "Table II" in out
        assert "Cluster-D" in out

    def test_fig2(self, capsys):
        code = main(
            ["fig2", "--stragglers", "1", "--iterations", "3", "--samples", "512"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Fig. 2" in out
        assert "heter_aware" in out

    def test_fig3(self, capsys):
        code = main(
            [
                "fig3",
                "--clusters",
                "Cluster-A",
                "--iterations",
                "3",
                "--samples",
                "512",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Fig. 3" in out
        assert "Cluster-A" in out

    def test_fig4(self, capsys):
        code = main(
            [
                "fig4",
                "--cluster",
                "Cluster-A",
                "--workload",
                "blobs_softmax",
                "--samples",
                "256",
                "--iterations",
                "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Fig. 4" in out
        assert "ranking" in out

    def test_fig5(self, capsys):
        code = main(["fig5", "--iterations", "3", "--samples", "512"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Fig. 5" in out
        assert "resource usage" in out

    def test_optimality(self, capsys):
        code = main(["optimality", "--trials", "2", "--workers", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Theorem 5" in out

    def test_estimation_error(self, capsys):
        code = main(
            ["estimation-error", "--errors", "0", "0.3", "--iterations", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ablation" in out

    def test_analyze(self, capsys):
        code = main(["analyze", "--cluster", "Cluster-A", "--stragglers", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Static strategy analysis" in out
        assert "group_based" in out

    def test_run_summary(self, capsys):
        code = main(
            ["run", "--scheme", "heter_aware", "--iterations", "3",
             "--samples", "512", "--delay", "1.5"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mean_iteration_time" in out
        assert "heter_aware" in out

    def test_run_json_round_trips(self, capsys):
        import json

        from repro.api import RunResult

        code = main(
            ["run", "--scheme", "naive", "--iterations", "2", "--samples", "256",
             "--stragglers", "0", "--json"]
        )
        assert code == 0
        out = capsys.readouterr().out
        result = RunResult.from_json(out)
        assert result.spec.scheme == "naive"
        assert result.spec.rng_version == 2
        assert result.metrics["num_iterations"] == 2
        # The payload carries the spec's content address (from_json ignores
        # the extra key), so pipelines can key artifacts off the output.
        payload = json.loads(out)
        assert payload["fingerprint"] == result.spec.fingerprint()

    def test_run_store_resumes(self, capsys, tmp_path):
        argv = [
            "run", "--scheme", "naive", "--iterations", "2", "--samples", "256",
            "--seed", "3", "--json", "--store", str(tmp_path / "store"),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second

        from repro.store import FileRunStore

        assert FileRunStore(tmp_path / "store").stats()["entries"] == 1

    def test_run_from_spec_file(self, capsys, tmp_path):
        from repro.api import RunSpec

        spec = RunSpec(scheme="cyclic", num_iterations=2, total_samples=256, seed=1)
        path = tmp_path / "spec.json"
        path.write_text(spec.to_json())
        code = main(["run", "--spec", str(path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "cyclic" in out

    def test_run_from_pre_rng_version_spec_file_is_refused(self, tmp_path):
        import json

        from repro.api import RngVersionError, RunSpec

        data = RunSpec(num_iterations=2, total_samples=256).to_dict()
        del data["rng_version"]  # written before the field existed: a v1 run
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(data))
        with pytest.raises(RngVersionError):
            main(["run", "--spec", str(path)])

    def test_plugins(self, capsys):
        code = main(["plugins"])
        assert code == 0
        out = capsys.readouterr().out
        for expected in ("schemes", "heter_aware", "Cluster-D", "timing, training"):
            assert expected in out
