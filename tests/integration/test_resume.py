"""Interrupt-then-resume bit-identity: SIGKILL a run, resume, compare.

The headline robustness guarantee: a run killed at an arbitrary point
and restarted with ``--resume`` emits outputs byte-identical to an
uninterrupted run, while restoring (not recomputing) every chip result
that reached the journal.  Exercised end-to-end through the real CLIs
for fig10 (the 100-chip experiment) and table3.
"""

import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import time

import pytest

from repro.engine.checkpoint import MAGIC, RunJournal

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]

CASES = {
    "fig10_hundred_chips": ["--chips", "3", "--refs", "400"],
    "table3": ["--chips", "4", "--refs", "300"],
}


#: Enough chips that fig10's evaluation runs as two 8-chip groups.
GROUPED = ["--chips", "16", "--refs", "2000"]


def _cli(name, out, extra=(), args=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.Popen(
        [
            sys.executable, "-m", f"repro.experiments.{name}",
            *(CASES[name] if args is None else args),
            "--no-cache", "--out", str(out), *extra,
        ],
        cwd=REPO_ROOT, env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )


def _wait(process, timeout=300):
    assert process.wait(timeout=timeout) == 0


def _kill_once_journal_grows(process, checkpoint_dir, timeout=300):
    """SIGKILL the run as soon as its journal holds durable bytes.

    Returns True if the process was killed mid-run; False if it finished
    first (the journal is then complete, and resume restores everything,
    which still exercises the restore path).
    """
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if process.poll() is not None:
            return False
        journals = list(checkpoint_dir.glob("run-*.journal"))
        if any(j.stat().st_size > len(MAGIC) for j in journals):
            process.send_signal(signal.SIGKILL)
            process.wait(timeout=30)
            return True
        time.sleep(0.002)
    pytest.fail("journal never appeared before the timeout")


def _outputs(out_dir):
    """Report/CSV bytes, excluding metrics (timing) and engine state."""
    files = {}
    for path in sorted(out_dir.iterdir()):
        if path.is_file() and not path.name.endswith("_metrics.json"):
            files[path.name] = path.read_bytes()
    return files


@pytest.mark.parametrize("name", sorted(CASES))
def test_sigkill_then_resume_is_bit_identical(name, tmp_path):
    baseline_dir = tmp_path / "baseline"
    resumed_dir = tmp_path / "resumed"

    _wait(_cli(name, baseline_dir))

    interrupted = _cli(name, resumed_dir)
    killed = _kill_once_journal_grows(
        interrupted, resumed_dir / ".checkpoints"
    )
    if killed:
        assert interrupted.returncode == -signal.SIGKILL
        # A killed run must not have produced the final report.
        assert not (resumed_dir / f"{name}.txt").exists()

    _wait(_cli(name, resumed_dir, extra=["--resume"]))

    assert _outputs(resumed_dir) == _outputs(baseline_dir)
    metrics = json.loads(
        (resumed_dir / f"{name}_metrics.json").read_text()
    )
    # The resumed run restored journalled chip results instead of
    # recomputing them.
    assert metrics["robustness"]["results_resumed"] > 0


def _check_seeded_faults(tmp_path, args=None):
    name = "fig10_hundred_chips"
    clean_dir = tmp_path / "clean"
    faulty_dir = tmp_path / "faulty"
    _wait(_cli(name, clean_dir, args=args))
    _wait(_cli(
        name, faulty_dir,
        extra=[
            "--workers", "2", "--max-retries", "4",
            "--inject-faults", "seed=7,crash=0.15,error=0.15,corrupt=0.1",
        ],
        args=args,
    ))
    assert _outputs(faulty_dir) == _outputs(clean_dir)
    robustness = json.loads(
        (faulty_dir / f"{name}_metrics.json").read_text()
    )["robustness"]
    assert robustness["task_retries"] > 0


def test_seeded_fault_injection_preserves_outputs(tmp_path):
    """A faulty run (crashes, errors, corruption) emits identical bytes."""
    _check_seeded_faults(tmp_path)


def test_seeded_faults_on_chip_groups_preserve_outputs(tmp_path):
    """The same, with fig10 evaluated as chip groups.

    Fault-plan keys, retries and journal records then cover whole
    groups; at this seed both of the run's groups fault once.
    """
    _check_seeded_faults(tmp_path, GROUPED)


def _records(journal_path, scratch):
    """Intact records in a (possibly live) journal, read from a copy."""
    copy = scratch / "journal-copy"
    shutil.copyfile(journal_path, copy)
    with RunJournal(copy, resume=True) as journal:
        return len(journal)


def test_grouped_run_resumes_at_another_width(tmp_path):
    """Chip-group journal records survive a change of worker count.

    fig10's 16 chips evaluate as two chip groups, the last two records
    of its journal.  SIGKILL a one-worker run once all but the last
    record are durable, resume on two workers: the resumed run must
    restore every record (including the first group) and compute only
    the second group.
    """
    name = "fig10_hundred_chips"
    baseline_dir = tmp_path / "baseline"
    resumed_dir = tmp_path / "resumed"
    _wait(_cli(name, baseline_dir, ["--workers", "1"], args=GROUPED))
    (baseline_journal,) = (baseline_dir / ".checkpoints").glob(
        "run-*.journal"
    )
    total = _records(baseline_journal, tmp_path)

    interrupted = _cli(name, resumed_dir, ["--workers", "1"], args=GROUPED)
    checkpoints = resumed_dir / ".checkpoints"
    deadline = time.monotonic() + 300
    killed_at = None
    while interrupted.poll() is None and time.monotonic() < deadline:
        journals = list(checkpoints.glob("run-*.journal"))
        if journals and _records(journals[0], tmp_path) >= total - 1:
            interrupted.send_signal(signal.SIGKILL)
            interrupted.wait(timeout=30)
            killed_at = _records(journals[0], tmp_path)
            break
        time.sleep(0.01)
    assert killed_at == total - 1, "the run ended before its last group"

    _wait(_cli(name, resumed_dir, ["--workers", "2", "--resume"],
               args=GROUPED))
    assert _outputs(resumed_dir) == _outputs(baseline_dir)
    robustness = json.loads(
        (resumed_dir / f"{name}_metrics.json").read_text()
    )["robustness"]
    assert robustness["results_resumed"] == total - 1
    assert robustness["results_checkpointed"] == 1
