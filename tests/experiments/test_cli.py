"""The shared CLI surface: one flag set for run_all and every driver."""

import argparse
import json
import pathlib

import pytest

from repro.engine.config import EngineConfig
from repro.engine.faults import FaultPlan
from repro.engine.registry import Experiment, register_experiment
from repro.experiments.cli import (
    cache_from_args,
    checkpoint_dir_from_args,
    context_from_args,
    engine_config_from_args,
    engine_parent_parser,
    experiment_main,
)

SHARED_FLAGS = (
    "--chips", "--refs", "--seed", "--technology", "--workers", "--out",
    "--cache-dir", "--no-cache", "--metrics", "--checkpoint-dir",
    "--resume", "--task-timeout", "--max-retries", "--inject-faults",
)


def _parse(argv):
    parser = argparse.ArgumentParser(parents=[engine_parent_parser()])
    return parser.parse_args(argv)


class TestParentParser:
    def test_all_shared_flags_exposed(self):
        options = set()
        for action in engine_parent_parser()._actions:
            options.update(action.option_strings)
        assert set(SHARED_FLAGS) <= options

    def test_defaults(self):
        args = _parse([])
        assert args.chips == 60 and args.refs == 8000 and args.seed == 2007
        assert args.workers == 1
        assert args.out is None and args.cache_dir is None
        assert args.resume is False and args.checkpoint_dir is None
        assert args.task_timeout is None and args.max_retries == 2
        assert args.inject_faults is None

    def test_every_driver_module_parses_shared_flags(self):
        # The same argv must be accepted when composed into a child
        # parser, which is exactly how run_all and the drivers build
        # theirs.
        args = _parse([
            "--chips", "5", "--refs", "900", "--seed", "3",
            "--workers", "4", "--out", "reports", "--no-cache",
            "--checkpoint-dir", "ckpt", "--resume",
            "--task-timeout", "2.5", "--max-retries", "4",
            "--inject-faults", "seed=7,crash=0.2",
        ])
        assert args.workers == 4
        assert args.out == pathlib.Path("reports")
        assert args.checkpoint_dir == pathlib.Path("ckpt")
        assert args.task_timeout == 2.5


class TestConfigFromArgs:
    def test_checkpoint_dir_precedence(self):
        explicit = _parse(["--checkpoint-dir", "ckpt", "--out", "o"])
        assert checkpoint_dir_from_args(explicit) == pathlib.Path("ckpt")
        derived = _parse(["--out", "o"])
        assert checkpoint_dir_from_args(derived) == pathlib.Path(
            "o/.checkpoints"
        )
        neither = _parse([])
        assert checkpoint_dir_from_args(neither) is None

    def test_engine_config_round_trip(self):
        args = _parse([
            "--workers", "3", "--out", "o", "--resume",
            "--task-timeout", "1.5", "--max-retries", "5",
            "--inject-faults", "seed=7,crash=0.2",
        ])
        config = engine_config_from_args(args)
        assert config == EngineConfig(
            workers=3,
            checkpoint_dir=pathlib.Path("o/.checkpoints"),
            resume=True,
            task_timeout=1.5,
            max_retries=5,
            fault_plan=FaultPlan(seed=7, crash_rate=0.2),
        )

    def test_resume_without_journal_location_exits(self):
        with pytest.raises(SystemExit):
            engine_config_from_args(_parse(["--resume"]))

    def test_context_from_args_wires_engine(self):
        context = context_from_args(
            _parse(["--chips", "2", "--refs", "700", "--workers", "2"])
        )
        assert context.n_chips == 2 and context.n_references == 700
        assert context.engine.workers == 2

    def test_technology_flag_round_trips_to_context(self):
        assert _parse([]).technology == "3t1d"
        args = _parse(["--technology", "sttram"])
        assert args.technology == "sttram"
        assert context_from_args(args).technology == "sttram"

    def test_technology_flag_rejects_unknown_backend(self, capsys):
        with pytest.raises(SystemExit):
            _parse(["--technology", "bubble-memory"])
        assert "sttram" in capsys.readouterr().err

    def test_cache_policy(self, tmp_path):
        assert cache_from_args(_parse([])) is None
        assert cache_from_args(_parse(["--no-cache", "--out", "o"])) is None
        cache = cache_from_args(_parse(["--out", str(tmp_path)]))
        assert cache is not None
        assert cache.directory == tmp_path / ".cache"
        explicit = cache_from_args(
            _parse(["--cache-dir", str(tmp_path / "c")])
        )
        assert explicit.directory == tmp_path / "c"


def _probe_run(context):
    return {"chips": context.n_chips, "workers": context.workers}


def _probe_report(result):
    return f"probe: chips={result['chips']} workers={result['workers']}"


@pytest.fixture
def probe_experiment():
    from repro.engine import registry

    experiment = register_experiment(Experiment(
        name="probe-cli", run=_probe_run, report=_probe_report
    ))
    try:
        yield experiment
    finally:
        registry._REGISTRY.pop("probe-cli", None)


class TestExperimentMain:
    def test_end_to_end_writes_report_and_metrics(
        self, probe_experiment, tmp_path, capsys
    ):
        out = tmp_path / "reports"
        experiment_main("probe-cli", [
            "--chips", "3", "--refs", "600", "--out", str(out), "--no-cache",
        ])
        assert "probe: chips=3 workers=1" in capsys.readouterr().out
        assert (out / "probe-cli.txt").read_text().startswith("probe:")
        metrics = json.loads((out / "probe-cli_metrics.json").read_text())
        assert metrics["experiments"][0]["name"] == "probe-cli"
        assert "robustness" in metrics

    def test_cli_method_resolves_registration(
        self, probe_experiment, tmp_path, capsys
    ):
        probe_experiment.cli(["--chips", "2", "--refs", "600"])
        assert "chips=2" in capsys.readouterr().out

    def test_result_cache_reused_across_invocations(
        self, probe_experiment, tmp_path, capsys
    ):
        out = tmp_path / "reports"
        argv = ["--chips", "2", "--refs", "600", "--out", str(out)]
        experiment_main("probe-cli", argv)
        first = json.loads((out / "probe-cli_metrics.json").read_text())
        experiment_main("probe-cli", argv)
        second = json.loads((out / "probe-cli_metrics.json").read_text())
        assert first["experiments"][0]["cached"] is False
        assert second["experiments"][0]["cached"] is True
        assert capsys.readouterr().out.count("probe:") == 2

    def test_every_registered_experiment_has_cli(self):
        from repro.engine.registry import all_experiments

        for experiment in all_experiments():
            assert callable(experiment.cli)


class TestModuleEntryPoints:
    def test_driver_runs_as_module_without_runtime_warning(self, tmp_path):
        """``python -m repro.experiments.<driver>`` runs a module its
        package import has not already executed (runpy warns otherwise,
        and ``-W error`` turns that warning into a failed run)."""
        import os
        import subprocess
        import sys

        src = pathlib.Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(src), env.get("PYTHONPATH")])
        )
        proc = subprocess.run(
            [
                sys.executable, "-W", "error::RuntimeWarning",
                "-m", "repro.experiments.fig04_retention_curve",
                "--chips", "1", "--refs", "400", "--no-cache",
                "--out", str(tmp_path),
            ],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        assert (tmp_path / "fig04_retention_curve.txt").exists()
