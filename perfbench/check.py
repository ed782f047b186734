"""Output check: a seeded sample of cells replayed on the event oracle.

For any seed, the check rebuilds a sample of the workload's
(chip, scheme) pairs from the same inputs and evaluates each twice: on
the batched kernels the workload used, and on the event-controller
oracle (``Evaluator(use_batch_kernel=False)``, which replays through
``RetentionAwareCache.run_trace``).  Every benchmark of a pair is one
checked cell, compared the way ``benchmarks/perf/batcheval_bench.py``
compares them.  The pair's suite-level numbers from the oracle must also
equal the numbers the workload reported.  Each cell and each reported
number is one operation; a mismatch or an exception fails it.

The check runs in its own process after the timed iterations.
"""

from __future__ import annotations

import random
import traceback
from typing import Any, Dict, List, Optional, Tuple

#: (chip, scheme) pairs sampled per check, by scale.
PICKS = {"full": 2, "tiny": 1}


def oracle_evaluator(fast):
    """The event-controller twin of a kernel evaluator."""
    from repro.core.evaluation import Evaluator

    return Evaluator(
        fast.node,
        config=fast.config,
        n_references=fast.n_references,
        seed=fast.seed,
        benchmarks=fast.benchmarks,
        use_batch_kernel=False,
    )


def _same(a, b) -> bool:
    return (
        a.stats == b.stats
        and a.normalized_performance == b.normalized_performance
        and a.dynamic_power_watts == b.dynamic_power_watts
    )


class _Tally:
    def __init__(self):
        self.attempted = 0
        self.mismatches: List[str] = []

    def expect(self, ok: bool, label: str) -> None:
        self.attempted += 1
        if not ok:
            self.mismatches.append(label)


def _check_pair(
    tally: _Tally, fast, slow, chip, scheme_name: str, label: str
):
    """Kernel vs oracle on every benchmark; returns the oracle result."""
    from benchmarks.perf.batcheval_bench import _evaluate
    from repro.core.schemes import get_scheme

    scheme = get_scheme(scheme_name)
    kernel = _evaluate(fast, chip, scheme)
    oracle = _evaluate(slow, chip, scheme)
    if kernel is None or oracle is None:
        tally.expect(kernel is None and oracle is None, f"{label}: discard")
        return oracle
    for bench in fast.benchmarks:
        tally.expect(
            _same(kernel.results[bench], oracle.results[bench]),
            f"{label} {bench}",
        )
    return oracle


def _check_fig10(
    tally: _Tally,
    chips: int,
    refs: int,
    seed: int,
    summary: Dict[str, Any],
    picks: List[Tuple[int, str]],
    label: str,
) -> None:
    from perfbench.workloads import experiment_context

    context = experiment_context({"chips": chips, "refs": refs, "seed": seed})
    batch = context.chips_3t1d("severe")
    fast = context.evaluator()
    slow = oracle_evaluator(fast)
    for index, scheme in picks:
        chip = batch[index]
        where = f"{label} chip {chip.chip_id} {scheme}"
        oracle = _check_pair(tally, fast, slow, chip, scheme, where)
        rank = summary["chip_ids"].index(chip.chip_id)
        perf = oracle.normalized_performance if oracle else 0.0
        power = oracle.dynamic_power_normalized if oracle else 0.0
        tally.expect(
            summary["performance"][scheme][rank] == perf
            and summary["power"][scheme][rank] == power,
            f"{where}: reported value",
        )


def _check_geomsweep(
    tally: _Tally,
    inputs: Dict[str, Any],
    summary: Dict[str, Any],
    picks: List[Dict[str, Any]],
) -> None:
    import numpy as np

    from repro.array.geometry import CacheGeometry
    from repro.experiments import geomsweep
    from perfbench.workloads import experiment_context

    for row in picks:
        base = CacheGeometry.from_capacity(
            row["size_kb"] * 1024, geomsweep.BASE_WAYS, banks=row["banks"]
        )
        context = experiment_context(inputs, geometry=base)
        fast = context.evaluator(ways=row["ways"])
        slow = oracle_evaluator(fast)
        where = (
            f"{row['size_kb']}KB/{row['ways']}w/b{row['banks']}/"
            f"{row['severity']}/{row['scheme']}"
        )
        live = []
        for chip in context.chips_3t1d(row["severity"]):
            oracle = _check_pair(
                tally, fast, slow, chip, row["scheme"],
                f"{where} chip {chip.chip_id}",
            )
            if oracle is not None:
                live.append(oracle)
        perf = (
            float(np.mean([o.normalized_performance for o in live]))
            if live else 0.0
        )
        power = (
            float(np.mean([o.dynamic_power_normalized for o in live]))
            if live else 0.0
        )
        tally.expect(
            row["mean_performance"] == perf and row["mean_power"] == power,
            f"{where}: reported value",
        )


def run_check(
    workload: str,
    inputs: Dict[str, Any],
    summary: Dict[str, Any],
    seed: int,
    scale: str,
) -> Dict[str, Any]:
    """Check one iteration's summary; returns attempted/failed counts."""
    from repro.core.schemes import HEADLINE_SCHEMES

    rng = random.Random(f"perfbench-check:{workload}:{seed}")
    n = PICKS[scale]
    tally = _Tally()
    pairs = [
        (index, scheme.name)
        for index in range(inputs["chips"])
        for scheme in HEADLINE_SCHEMES
    ]
    try:
        if workload == "fig10":
            _check_fig10(
                tally, inputs["chips"], inputs["refs"], inputs["seed"],
                summary, rng.sample(pairs, n), "fig10",
            )
        elif workload == "geomsweep":
            _check_geomsweep(
                tally, inputs, summary, rng.sample(summary["rows"], n)
            )
        else:
            done: List[Tuple[int, Optional[Dict[str, Any]]]] = [
                (j, job_summary)
                for j, job_summary in enumerate(summary["jobs"])
                if job_summary is not None
                and inputs["jobs"][j]["repeat_of"] is None
            ]
            for j, job_summary in rng.sample(done, n):
                _check_fig10(
                    tally, inputs["chips"], inputs["refs"],
                    inputs["jobs"][j]["seed"], job_summary,
                    [rng.choice(pairs)], f"service job {j}",
                )
    except Exception:
        tally.expect(False, traceback.format_exc())
    return {
        "attempted": tally.attempted,
        "failed": len(tally.mismatches),
        "mismatches": tally.mismatches,
    }
