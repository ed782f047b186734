"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig10 --seed 1 --seconds 55 --trace 0

Each iteration of the workload runs in a fresh child process.  The
parent times set-up from starting a child to its ``READY`` line: first
in ``SETUP_PROBES`` children that only set up, then in every iteration.
It keeps starting iterations until the next one would end after
``--seconds`` (at least ``MIN_ITERATIONS``).  An extra child then runs
the output check (``check.py``) on the first iteration's summary.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``, all
in host time:

* ``setup_s``: child start to ``READY`` (interpreter start, ``import
  repro``, context or ``ExecutionService`` built), median of all set-ups;
* ``wall_s``: first experiment call or submit to last report written,
  median over iterations;
* ``peak_rss_mb``: the largest peak resident set of any process of an
  iteration (the iteration process or a reaped pool or fleet worker);
* ``job_p50_s``: median job latency, pooled over iterations.  A job is
  one experiment run on ``fig10`` and ``geomsweep``, and one computing
  job (submit to done) on ``service``.  ``--trace 1`` alternates untraced and traced iterations
and reports the per-layer metrics (medians over traced iterations) with
the tracing overhead, traced against untraced ``wall_s``.  Traced
``fig10`` iterations evaluate in-process, so every iteration of a traced
``fig10`` run uses ``workers=1``.

Operations are the experiment runs (``fig10``, ``geomsweep``) or jobs
(``service``), plus the checked cells.  An operation fails when it
raises, ends other than ``done``, misses the result cache when it
repeats, or reports a digest that differs from the run's first
iteration or, at the default seed, from ``digests.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import uuid
from typing import Any, Dict, List, Optional

ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import workloads  # noqa: E402

#: Set-up-only children started before the iterations, for more
#: ``setup_s`` samples.
SETUP_PROBES = 4

#: Fewest iterations per run, by scale.
MIN_ITERATIONS = {"full": 3, "tiny": 2}

#: Stop starting iterations after this many seconds, whatever
#: ``--seconds`` says, so a run ends well within its time limit.
HARD_LIMIT_S = 110.0

#: Children still running this many seconds into the run are killed
#: (and their operations counted as failed), so the run ends in time.
DEADLINE_S = 165.0


def _spawn(
    mode: str, payload: Dict[str, Any], run_dir: pathlib.Path, timeout: float
):
    """Run one child; returns (record or None, seconds to READY, wall)."""
    paths = [str(ROOT / "src"), str(ROOT)]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    tmp = run_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths), TMPDIR=str(tmp))
    start = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, "-m", "perfbench.child", mode, json.dumps(payload)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    # Kills the child's whole process group if it hangs.
    watchdog = threading.Timer(
        max(timeout, 1.0), os.killpg, (process.pid, signal.SIGKILL)
    )
    watchdog.start()
    ready = None
    last = None
    try:
        for line in process.stdout:
            if line.strip() == "READY" and ready is None:
                ready = time.perf_counter() - start
            elif line.strip():
                last = line
    finally:
        watchdog.cancel()
        process.stdout.close()
        process.wait()
    wall = time.perf_counter() - start
    try:
        record = json.loads(last) if last is not None else None
    except json.JSONDecodeError:
        record = None
    return record, ready, wall


def load_expected(workload: str, seed: int, scale: str) -> Optional[List[str]]:
    """Recorded operation digests, at the default seed only."""
    if seed != workloads.DEFAULT_SEED:
        return None
    recorded = json.loads((ROOT / "perfbench" / "digests.json").read_text())
    return recorded.get(scale, {}).get(workload)


def measure(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: str = "full",
    expected: Optional[List[str]] = None,
) -> Dict[str, Any]:
    """Run the iterations and the check; returns the raw records."""
    run_id = uuid.uuid4().hex[:12]
    run_dir = ROOT / ".perfbench" / f"{workload}-{seed}-{run_id}"
    inputs = workloads.make_inputs(workload, seed, scale)
    if trace and workload == "fig10":
        inputs["workers"] = 1
    start = time.perf_counter()

    def spawn(mode: str, name: str, **payload):
        out_dir = run_dir / name
        out_dir.mkdir(parents=True)
        payload.update(workload=workload, inputs=inputs, seed=seed,
                       scale=scale, run_id=run_id, out_dir=str(out_dir))
        deadline = DEADLINE_S - (time.perf_counter() - start)
        return _spawn(mode, payload, run_dir, deadline)

    setups = []
    for probe in range(SETUP_PROBES):
        _, ready, _ = spawn("setup", f"setup-{probe}", traced=False)
        if ready is not None:
            setups.append(ready)
    records: List[Dict[str, Any]] = []
    while True:
        traced = trace and len(records) % 2 == 1
        name = f"iteration-{len(records)}"
        record, ready, wall = spawn("iterate", name, traced=traced)
        if record is None:
            record = {"error": "child ended without a record"}
        record.update(traced=traced, setup_s=ready,
                      out_dir=str(run_dir / name))
        records.append(record)
        elapsed = time.perf_counter() - start
        if elapsed > HARD_LIMIT_S or (
            len(records) >= MIN_ITERATIONS[scale]
            and elapsed + wall > seconds
        ):
            break
    good = [r for r in records if "error" not in r]
    check: Dict[str, Any] = {"attempted": 1, "failed": 1,
                             "mismatches": ["no iteration finished"]}
    if good:
        check, _, _ = spawn("check", "check", summary=str(
            pathlib.Path(good[0]["out_dir"]) / "summary.json"
        ))
        if check is None or "error" in check:
            check = {"attempted": 1, "failed": 1,
                     "mismatches": [str((check or {}).get("error"))]}
    # Deleted only now: deleting thousands of job files frees disk
    # blocks in the background, which would slow the next iteration.
    shutil.rmtree(run_dir / "tmp", ignore_errors=True)
    for record in records:
        shutil.rmtree(pathlib.Path(record["out_dir"]) / "service",
                      ignore_errors=True)
    for probe in range(SETUP_PROBES):
        shutil.rmtree(run_dir / f"setup-{probe}", ignore_errors=True)
    shutil.rmtree(run_dir / "check", ignore_errors=True)
    if expected is None:
        expected = load_expected(workload, seed, scale)
    return {
        "workload": workload, "inputs": inputs, "records": records,
        "setups": setups + [r["setup_s"] for r in records if "error" not in r],
        "check": check, "expected": expected, "run_dir": str(run_dir),
    }


def count_operations(run: Dict[str, Any]) -> Dict[str, int]:
    """Attempted and failed operations of a measured run."""
    records = run["records"]
    good = [r for r in records if "error" not in r]
    reference = (
        [op["digest"] for op in good[0]["operations"]] if good else []
    )
    expected = run["expected"]
    per_iteration = (
        len(run["inputs"]["jobs"]) if run["workload"] == "service" else 1
    )
    attempted = failed = 0
    for record in records:
        if "error" in record:
            attempted += per_iteration
            failed += per_iteration
            continue
        for index, op in enumerate(record["operations"]):
            attempted += 1
            ok = op["ok"] and op["digest"] == reference[index]
            if expected is not None:
                ok = ok and op["digest"] == expected[index]
            failed += not ok
    attempted += run["check"]["attempted"]
    failed += run["check"]["failed"]
    return {"attempted": attempted, "failed": failed}


def tail(values: List[float]) -> float:
    """The highest percentile with at least ten samples beyond it.

    With ``n`` sorted samples that is the ``n - 10``-th; with ten or
    fewer samples no percentile qualifies and the maximum is used.
    """
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[-11] if len(ordered) > 10 else ordered[-1]


def tail_percentile(n: int) -> float:
    """The percentile :func:`tail` reports for ``n`` samples."""
    return 100.0 * (n - 10) / n if n > 10 else 100.0


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(run: Dict[str, Any]) -> Dict[str, float]:
    """The end-to-end metrics of an untraced run."""
    records = [r for r in run["records"] if "error" not in r]
    jobs = [t for r in records for t in r["job_s"]]
    return {
        "setup_s": _median(run["setups"]),
        "wall_s": _median([r["wall_s"] for r in records]),
        "peak_rss_mb": max((r["peak_rss_mb"] for r in records), default=0.0),
        "job_p50_s": _median(jobs),
    }


def per_layer(run: Dict[str, Any]) -> Dict[str, float]:
    """The per-layer metrics of a traced run, with tracing overhead."""
    records = [r for r in run["records"] if "error" not in r]
    traced = [r for r in records if r["traced"]]
    untraced = [r for r in records if not r["traced"]]
    names = traced[0]["layers"] if traced else {}
    metrics = {
        name: _median([r["layers"][name] for r in traced]) for name in names
    }
    # Service latencies pooled over all iterations (see layers.json).
    jobs = [t for r in records for t in r["job_s"]]
    service = run["workload"] == "service"
    metrics["service.job_tail_s"] = tail(jobs) if service else 0.0
    metrics["service.hit_p50_s"] = (
        _median([t for r in records for t in r["hit_s"]]) if service else 0.0
    )
    traced_wall = _median([r["wall_s"] for r in traced])
    untraced_wall = _median([r["wall_s"] for r in untraced])
    metrics["trace.traced_wall_s"] = traced_wall
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.overhead_ratio"] = (
        traced_wall / untraced_wall if untraced_wall else 0.0
    )
    return metrics


def result_line(run: Dict[str, Any], trace: bool) -> Dict[str, Any]:
    """The final JSON object, metric names and units from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values = per_layer(run) if trace else end_to_end(run)
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    counts = count_operations(run)
    return {
        "correct": counts["failed"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {
            metric["name"]: {
                "value": values[metric["name"]], "unit": metric["unit"]
            }
            for metric in listed
        },
    }


def describe(run: Dict[str, Any]) -> List[str]:
    """Human-readable lines about the run, printed before the result."""
    lines = []
    for index, record in enumerate(run["records"]):
        kind = "traced" if record.get("traced") else "untraced"
        if "error" in record:
            lines.append(f"iteration {index} [{kind}] FAILED:\n"
                         f"{record['error']}")
            continue
        lines.append(
            f"iteration {index} [{kind}]: setup {record['setup_s']:.3f} s, "
            f"wall {record['wall_s']:.3f} s, "
            f"peak {record['peak_rss_mb']:.1f} MiB"
        )
    jobs = sum(len(r["job_s"]) for r in run["records"] if "error" not in r)
    if run["workload"] == "service":
        lines.append(
            f"service.job_tail_s is the p{tail_percentile(jobs):.1f} of "
            f"{jobs} computing jobs"
        )
    good = [r for r in run["records"] if "error" not in r]
    if good:
        # The line to paste into digests.json at the default seed.
        lines.append("digests: " + json.dumps(
            [op["digest"] for op in good[0]["operations"]]
        ))
    lines.append(f"spans and reports: {run['run_dir']}")
    check = run["check"]
    lines.append(
        f"output check: {check['attempted']} operations, "
        f"{check['failed']} failed"
    )
    lines.extend(f"  mismatch: {m}" for m in check.get("mismatches", ()))
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="workload size; tiny is for the tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}; run from the root "
              "of a repository checkout", file=sys.stderr)
        return 2
    run = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                  args.scale)
    for line in describe(run):
        print(line)
    print(json.dumps(result_line(run, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
