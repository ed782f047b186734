"""The run-everything driver (registry-driven, cached, observable)."""

import json
import shutil
from types import SimpleNamespace

import pytest

from repro.engine.cache import ResultCache
from repro.engine.observer import JSONMetricsObserver
from repro.engine.registry import all_experiments, experiment_names
from repro.experiments.runner import ExperimentContext
from repro.experiments.run_all import run_all


CONTEXT = dict(n_chips=3, n_references=1000, seed=5)


@pytest.fixture(scope="module")
def regeneration(tmp_path_factory):
    """One full ``run_all`` regeneration, shared by this module's tests.

    It runs with a fresh result cache and a metrics observer attached,
    and records every progress line, so each test below asserts on the
    same run instead of regenerating the whole suite again.
    """
    out = tmp_path_factory.mktemp("regeneration")
    observer = JSONMetricsObserver(out / "metrics.json")
    cache = ResultCache(out / ".cache")
    context = ExperimentContext(**CONTEXT, observer=observer)
    messages = []
    summary = run_all(
        context, out / "reports", progress=messages.append, cache=cache
    )
    return SimpleNamespace(
        out=out / "reports", summary=summary, messages=messages,
        observer=observer, cache=cache, context=context,
    )


def test_run_all_writes_reports(regeneration):
    out = regeneration.out
    messages = regeneration.messages
    summary = regeneration.summary

    assert summary.exists()
    combined = summary.read_text()
    for experiment in all_experiments():
        assert (out / f"{experiment.name}.txt").exists()
        assert experiment.name in combined or experiment.name == "table3"
    assert len(messages) == len(all_experiments())
    assert "Figure 9" in combined
    assert "Table 3" in combined
    # Machine-readable exports come from the experiments' csv_rows hooks.
    for csv_name in (
        "fig01_reuse.csv",
        "fig10_hundred_chips.csv",
        "fig12_sensitivity.csv",
    ):
        assert (out / csv_name).exists()


def test_run_all_summary_contains_no_timings(regeneration):
    import re

    # Timing lives in progress lines and metrics, never in the summary --
    # that is what keeps serial/parallel/cached summaries byte-identical.
    text = regeneration.summary.read_text()
    assert not re.search(r"\(\d+\.\d+s\)", text)
    for name in experiment_names():
        assert f"\n{name}\n" in text


def test_run_all_reuses_result_cache(regeneration, tmp_path):
    first_messages = regeneration.messages
    first = regeneration.summary
    assert not any("(cached)" in line for line in first_messages)

    second_messages = []
    second = run_all(
        ExperimentContext(**CONTEXT), tmp_path / "b",
        progress=second_messages.append, cache=regeneration.cache,
    )
    assert all("(cached)" in line for line in second_messages)
    assert first.read_text() == second.read_text()


def test_run_all_emits_observer_events(regeneration):
    observer = regeneration.observer
    assert (regeneration.out.parent / "metrics.json").exists()
    recorded = [e["name"] for e in observer.metrics["experiments"]]
    assert recorded == list(experiment_names())
    assert observer.metrics["total_elapsed_s"] is not None


def test_cli_main_small_scale(regeneration, tmp_path):
    from repro.experiments import run_all as run_all_module

    # Seeded with the shared run's cache, the CLI at the same scale
    # resolves every experiment from it instead of regenerating.
    shutil.copytree(
        regeneration.cache.directory, tmp_path / "reports" / ".cache"
    )
    run_all_module.main(
        [
            "--chips", "3",
            "--refs", "1000",
            "--seed", "5",
            "--out", str(tmp_path / "reports"),
        ]
    )
    assert (tmp_path / "reports" / "summary.txt").exists()
    assert (tmp_path / "reports" / "metrics.json").exists()
    assert (tmp_path / "reports" / ".cache").is_dir()
    metrics = json.loads((tmp_path / "reports" / "metrics.json").read_text())
    assert all(e["cached"] for e in metrics["experiments"])
    assert (
        (tmp_path / "reports" / "summary.txt").read_text()
        == regeneration.summary.read_text()
    )


def test_deprecated_experiments_alias_warns():
    from repro.experiments import run_all as run_all_module

    with pytest.warns(DeprecationWarning):
        pairs = run_all_module.EXPERIMENTS
    assert [name for name, _ in pairs] == list(experiment_names())
    # Each module still exposes the historical run/report surface.
    for _, module in pairs:
        assert callable(module.run) and callable(module.report)


def test_deprecated_write_csv_exports_delegates(tmp_path):
    from repro.experiments import fig01_reuse
    from repro.experiments import run_all as run_all_module

    result = fig01_reuse.run(
        ExperimentContext(n_chips=1, n_references=500, seed=2)
    )
    with pytest.warns(DeprecationWarning):
        run_all_module._write_csv_exports(tmp_path, "fig01_reuse", result)
    assert (tmp_path / "fig01_reuse.csv").exists()
