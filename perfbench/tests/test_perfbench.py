"""The benchmark's own tests, at the tiny scale.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import check, run, workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYERS = json.loads((ROOT / "perfbench" / "layers.json").read_text())


def _cli(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    out = _cli("--workload", workload, "--seed", "5", "--seconds", "1",
               "--trace", str(trace), "--scale", "tiny")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: value["unit"] for name, value in result["metrics"].items()} \
        == {metric["name"]: metric["unit"] for metric in listed}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_default_seed_digests_match_and_tampering_fails():
    measured = run.measure(
        "geomsweep", workloads.DEFAULT_SEED, 1, False, "tiny"
    )
    assert measured["expected"] is not None
    counts = run.count_operations(measured)
    assert counts["failed"] == 0
    tampered = dict(measured, expected=["0" * 64] * len(measured["expected"]))
    operations = sum(len(r["operations"]) for r in measured["records"])
    assert run.count_operations(tampered)["failed"] == operations


@pytest.fixture
def fig10_summary(tmp_path):
    inputs = dict(workloads.make_inputs("fig10", 5, "tiny"), workers=1)
    record = workloads.run_iteration(
        "fig10", inputs, tmp_path, lambda: None, "test", traced=False
    )
    return inputs, record["summary"]


def test_oracle_mismatch_counts_as_failed(fig10_summary, monkeypatch):
    inputs, summary = fig10_summary
    assert check.run_check("fig10", inputs, summary, 5, "tiny")["failed"] == 0

    oracle = check.oracle_evaluator

    def other_traces(fast):
        slow = oracle(fast)
        slow.seed += 1
        return slow

    monkeypatch.setattr(check, "oracle_evaluator", other_traces)
    assert check.run_check("fig10", inputs, summary, 5, "tiny")["failed"] > 0


def test_wrong_reported_value_counts_as_failed(fig10_summary):
    inputs, summary = fig10_summary
    for values in summary["performance"].values():
        values[:] = [value + 1e-12 for value in values]
    result = check.run_check("fig10", inputs, summary, 5, "tiny")
    assert result["failed"] == 1


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_and_untraced_digests_are_identical(workload):
    measured = run.measure(workload, 5, 1, True, "tiny")
    digests = {
        record["traced"]: [op["digest"] for op in record["operations"]]
        for record in measured["records"]
    }
    assert digests[True] == digests[False]
    assert run.count_operations(measured)["failed"] == 0


def test_layer_map_covers_every_per_layer_metric():
    mapped = [name for layer in LAYERS["layers"] for name in layer["metrics"]]
    assert sorted(mapped) == sorted(m["name"] for m in SPEC["per_layer"])
    listed = [w["name"] for w in SPEC["workloads"]]
    assert listed == list(workloads.BENCHMARKED)
    names = set(workloads.WORKLOADS)
    assert set(listed) <= names == set(LAYERS["workloads"])
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    for layer in LAYERS["layers"]:
        for pair in layer["moves"]:
            metric, workload = pair.split("@")
            assert metric in end_to_end and workload in names
        assert set(layer["no_move"]) <= names


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    out = _cli("--workload", "fig10", "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
