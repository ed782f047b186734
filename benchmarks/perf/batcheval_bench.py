"""Time the batched evaluation kernels against the event controller.

Four stages, mirroring the guarantees the kernels make:

1. **Bit-identity check** -- every scheme x benchmark on a small chip
   batch, comparing the kernel-routed evaluation against
   ``use_batch_kernel=False``.  Any mismatch fails the run (exit 1).
2. **Coverage** -- ``kernel_support`` is queried for every scheme; the
   ``fast_path_coverage`` fraction reports how much of the scheme x
   benchmark grid replays without the event controller (the flattened
   or timeline kernels).  Since PR 6 every scheme has a kernel path,
   so the expected fraction is 1.0.
3. **Timing** -- the Figure 10 workload shape (severe-variation chips x
   the headline schemes) evaluated end to end through both paths, plus
   raw per-scheme ``simulate_trace`` vs ``run_trace`` timings.  Every
   row times the real kernel; there are no copied fallback rows.
4. **Lanes** -- a chip batch on the lane kernel (``simulate_lanes``)
   against the same chips replayed one at a time (``simulate_trace``,
   a one-chip lane batch): severe chips x {no-refresh/LRU,
   partial-refresh/DSP} x every benchmark, alternating, with per-chip
   statistics asserted identical to the one-chip replays and, on the
   first benchmark, to the event controller.

Results land in ``BENCH_batcheval.json`` (see ``--out``), the repo's
perf-trajectory record.  CI passes ``--require-full-coverage``,
``--min-suite-speedup 5`` and ``--min-lanes-speedup`` to gate
regressions.

Usage::

    PYTHONPATH=src python -m benchmarks.perf.batcheval_bench \
        --chips 4 --refs 20000 --out BENCH_batcheval.json
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from typing import Dict, List, Optional

from repro.array.chip import ChipSampler
from repro.core.architecture import Cache3T1DArchitecture
from repro.core.batcheval import (
    kernel_support,
    simulate_lanes,
    simulate_trace,
)
from repro.core.evaluation import Evaluator
from repro.core.schemes import (
    HEADLINE_SCHEMES,
    LINE_LEVEL_SCHEMES,
    SCHEME_GLOBAL,
    SCHEME_NO_REFRESH_LRU,
    SCHEME_PARTIAL_DSP,
)
from repro.errors import ChipDiscardedError
from repro.technology.node import NODE_32NM
from repro.variation.parameters import VariationParams

ALL_SCHEMES = (SCHEME_GLOBAL,) + LINE_LEVEL_SCHEMES

#: The flattened-path schemes of Figure 10, timed on chip lanes.
LANE_SCHEMES = (SCHEME_NO_REFRESH_LRU, SCHEME_PARTIAL_DSP)


def _evaluate(evaluator, chip, scheme):
    try:
        return evaluator.evaluate(
            Cache3T1DArchitecture(chip, scheme, config=evaluator.config)
        )
    except ChipDiscardedError:
        return None


def check_identity(n_chips: int, n_references: int, seed: int) -> Dict:
    """Cross-validate kernel vs controller on every scheme x benchmark."""
    sampler = ChipSampler(NODE_32NM, VariationParams.severe(), seed=seed)
    chips = sampler.sample_3t1d_chips(n_chips)
    fast = Evaluator(NODE_32NM, n_references=n_references, seed=seed)
    slow = Evaluator(
        NODE_32NM, n_references=n_references, seed=seed,
        use_batch_kernel=False,
    )
    mismatches: List[str] = []
    checked = 0
    for chip in chips:
        for scheme in ALL_SCHEMES:
            a = _evaluate(fast, chip, scheme)
            b = _evaluate(slow, chip, scheme)
            if (a is None) != (b is None):
                mismatches.append(
                    f"chip {chip.chip_id} {scheme.name}: discard disagreement"
                )
                continue
            if a is None:
                checked += 1
                continue
            for bench in a.results:
                checked += 1
                ra, rb = a.results[bench], b.results[bench]
                if (
                    ra.stats != rb.stats
                    or ra.normalized_performance != rb.normalized_performance
                    or ra.dynamic_power_watts != rb.dynamic_power_watts
                ):
                    mismatches.append(
                        f"chip {chip.chip_id} {scheme.name} {bench}"
                    )
    return {
        "chips": n_chips,
        "references": n_references,
        "checked": checked,
        "mismatches": mismatches,
        "ok": not mismatches,
    }


def measure_coverage(evaluator: Evaluator, seed: int) -> Dict:
    """The fraction of the scheme x benchmark grid off the event path.

    ``kernel_support`` classifies per cache configuration, so every
    benchmark of a scheme shares that scheme's path; the grid framing
    matches how the suite timing (chips x schemes x benchmarks) scales.
    The probe chip is variation-free so every scheme (including global
    refresh, which discards weak severe-variation chips) can build.
    """
    sampler = ChipSampler(NODE_32NM, VariationParams.none(), seed=seed)
    chip = sampler.sample_3t1d_chips(1)[0]
    n_benchmarks = len(evaluator.benchmarks)
    paths: Dict[str, str] = {}
    covered = 0
    for scheme in ALL_SCHEMES:
        arch = Cache3T1DArchitecture(chip, scheme, config=evaluator.config)
        support = kernel_support(arch.build_cache())
        paths[scheme.name] = support.path
        if support.path != "event":
            covered += n_benchmarks
    cells = len(ALL_SCHEMES) * n_benchmarks
    return {
        "paths": paths,
        "cells": cells,
        "covered": covered,
        "fraction": covered / cells if cells else 0.0,
    }


def time_kernel(n_chips: int, n_references: int, seed: int) -> Dict:
    """Time both paths on the Figure 10 shape; returns the JSON payload."""
    sampler = ChipSampler(NODE_32NM, VariationParams.severe(), seed=seed)
    chips = sampler.sample_3t1d_chips(n_chips)
    fast = Evaluator(NODE_32NM, n_references=n_references, seed=seed)
    slow = Evaluator(
        NODE_32NM, n_references=n_references, seed=seed,
        use_batch_kernel=False,
    )
    # Warm traces, artifacts, and baselines outside the timed region.
    for evaluator in (fast, slow):
        for bench in evaluator.benchmarks:
            evaluator.baseline_stats(bench)
    for bench in fast.benchmarks:
        fast.trace_artifacts(bench, fast.config.geometry.n_sets)

    schemes: Dict[str, Dict] = {}
    for scheme in HEADLINE_SCHEMES:
        arch = Cache3T1DArchitecture(chips[0], scheme, config=fast.config)
        support = kernel_support(arch.build_cache())
        bench = fast.benchmarks[0]
        trace = fast.trace(bench)
        artifacts = fast.trace_artifacts(bench, fast.config.geometry.n_sets)
        start = time.perf_counter()
        arch.build_cache().run_trace(
            trace.cycles, trace.line_addresses, trace.is_write,
            warmup_references=trace.warmup_references,
        )
        controller_s = time.perf_counter() - start
        start = time.perf_counter()
        simulate_trace(arch.build_cache(), artifacts)
        kernel_s = time.perf_counter() - start
        schemes[scheme.name] = {
            "path": support.path,
            "trace_controller_s": controller_s,
            "trace_kernel_s": kernel_s,
            "trace_speedup": controller_s / kernel_s if kernel_s else 0.0,
        }

    coverage = measure_coverage(fast, seed)

    start = time.perf_counter()
    for chip in chips:
        for scheme in HEADLINE_SCHEMES:
            _evaluate(slow, chip, scheme)
    controller_total = time.perf_counter() - start
    start = time.perf_counter()
    for chip in chips:
        for scheme in HEADLINE_SCHEMES:
            _evaluate(fast, chip, scheme)
    kernel_total = time.perf_counter() - start

    speedups = [entry["trace_speedup"] for entry in schemes.values()]
    return {
        "workload": "fig10 shape: severe chips x headline schemes",
        "chips": n_chips,
        "references": n_references,
        "schemes": schemes,
        "fast_path_coverage": coverage["fraction"],
        "coverage": coverage,
        "suite_controller_s": controller_total,
        "suite_kernel_s": kernel_total,
        "suite_speedup": (
            controller_total / kernel_total if kernel_total else 0.0
        ),
        "min_scheme_speedup": min(speedups) if speedups else 0.0,
    }


def time_lanes(n_chips: int, n_references: int, seed: int) -> Dict:
    """One chip batch on lanes vs the same chips replayed one at a time.

    Each (scheme, benchmark) replays the whole batch once on lanes and
    once chip by chip, alternating, after an untimed pass that builds
    the memoised per-trace and per-cache inputs both share.  The first
    benchmark's batch is also checked against the event controller.
    """
    sampler = ChipSampler(NODE_32NM, VariationParams.severe(), seed=seed)
    chips = sampler.sample_3t1d_chips(n_chips)
    evaluator = Evaluator(NODE_32NM, n_references=n_references, seed=seed)
    n_sets = evaluator.config.geometry.n_sets
    mismatches: List[str] = []
    checked = 0
    schemes: Dict[str, Dict] = {}
    for scheme in LANE_SCHEMES:
        def build():
            return [
                Cache3T1DArchitecture(chip, scheme, config=evaluator.config)
                .build_cache()
                for chip in chips
            ]

        caches = build()
        first = evaluator.benchmarks[0]
        warm = evaluator.trace_artifacts(first, n_sets)
        trace = evaluator.trace(first)
        oracle = [
            cache.run_trace(
                trace.cycles, trace.line_addresses, trace.is_write,
                warmup_references=trace.warmup_references,
            )
            for cache in build()
        ]
        for chip, a, b in zip(chips, simulate_lanes(caches, warm), oracle):
            checked += 1
            if a != b:
                mismatches.append(
                    f"chip {chip.chip_id} {scheme.name} {first} (controller)"
                )
        for cache in caches:
            simulate_trace(cache, warm)
        lanes_s = single_s = 0.0
        for bench in evaluator.benchmarks:
            artifacts = evaluator.trace_artifacts(bench, n_sets)
            artifacts.lane_columns()
            start = time.perf_counter()
            lanes = simulate_lanes(caches, artifacts)
            lanes_s += time.perf_counter() - start
            start = time.perf_counter()
            single = [simulate_trace(cache, artifacts) for cache in caches]
            single_s += time.perf_counter() - start
            for chip, a, b in zip(chips, lanes, single):
                checked += 1
                if a != b:
                    mismatches.append(
                        f"chip {chip.chip_id} {scheme.name} {bench}"
                    )
        schemes[scheme.name] = {
            "lanes_s": lanes_s,
            "one_chip_s": single_s,
            "speedup": single_s / lanes_s if lanes_s else 0.0,
        }
    lanes_total = sum(entry["lanes_s"] for entry in schemes.values())
    single_total = sum(entry["one_chip_s"] for entry in schemes.values())
    return {
        "workload": "severe chips x {no-refresh/LRU, partial-refresh/DSP}"
                    " x suite, one lane batch vs one-chip replays",
        "chips": n_chips,
        "references": n_references,
        "schemes": schemes,
        "lanes_s": lanes_total,
        "one_chip_s": single_total,
        "speedup": single_total / lanes_total if lanes_total else 0.0,
        "checked": checked,
        "mismatches": mismatches,
        "ok": not mismatches,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--chips", type=int, default=4,
                        help="chips in the timing batch (default 4)")
    parser.add_argument("--refs", type=int, default=20000,
                        help="trace length for the timing batch")
    parser.add_argument("--identity-chips", type=int, default=2,
                        help="chips in the bit-identity check")
    parser.add_argument("--identity-refs", type=int, default=1500,
                        help="trace length for the bit-identity check")
    parser.add_argument("--seed", type=int, default=2007)
    parser.add_argument("--out", default="BENCH_batcheval.json")
    parser.add_argument("--require-full-coverage", action="store_true",
                        help="fail unless fast_path_coverage == 1.0")
    parser.add_argument("--min-suite-speedup", type=float, default=None,
                        help="fail unless the suite speedup meets this floor")
    parser.add_argument("--lanes-chips", type=int, default=8,
                        help="chips in the lane-kernel batch (default 8)")
    parser.add_argument("--lanes-refs", type=int, default=20000,
                        help="trace length for the lane-kernel batch")
    parser.add_argument("--min-lanes-speedup", type=float, default=None,
                        help="fail unless the lane speedup meets this floor")
    args = parser.parse_args(argv)

    print(
        f"identity check: {args.identity_chips} chips x "
        f"{len(ALL_SCHEMES)} schemes x 8 benchmarks "
        f"({args.identity_refs} refs) ..."
    )
    identity = check_identity(
        args.identity_chips, args.identity_refs, args.seed
    )
    print(
        f"  {identity['checked']} evaluations, "
        f"{len(identity['mismatches'])} mismatches"
    )

    print(
        f"timing: {args.chips} chips x headline schemes "
        f"({args.refs} refs) ..."
    )
    timing = time_kernel(args.chips, args.refs, args.seed)
    for name, entry in timing["schemes"].items():
        print(
            f"  {name:24s} [{entry['path']}] controller "
            f"{entry['trace_controller_s'] * 1e3:7.1f}ms  kernel "
            f"{entry['trace_kernel_s'] * 1e3:7.1f}ms  "
            f"{entry['trace_speedup']:.2f}x"
        )
    print(
        f"  coverage: {timing['coverage']['covered']}/"
        f"{timing['coverage']['cells']} scheme x benchmark cells "
        f"off the event path ({timing['fast_path_coverage']:.2f})"
    )
    print(
        f"  suite: controller {timing['suite_controller_s']:.2f}s  "
        f"kernel {timing['suite_kernel_s']:.2f}s  "
        f"{timing['suite_speedup']:.2f}x"
    )

    print(
        f"lanes: {args.lanes_chips} chips x "
        f"{len(LANE_SCHEMES)} schemes x 8 benchmarks "
        f"({args.lanes_refs} refs) ..."
    )
    lanes = time_lanes(args.lanes_chips, args.lanes_refs, args.seed)
    for name, entry in lanes["schemes"].items():
        print(
            f"  {name:24s} one-chip {entry['one_chip_s']:6.2f}s  lanes "
            f"{entry['lanes_s']:6.2f}s  {entry['speedup']:.2f}x"
        )
    print(
        f"  {lanes['checked']} per-chip replays, "
        f"{len(lanes['mismatches'])} mismatches; "
        f"speedup {lanes['speedup']:.2f}x"
    )

    payload = {
        "benchmark": "batcheval",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "seed": args.seed,
        "identity": identity,
        "timing": timing,
        "lanes": lanes,
    }
    with open(args.out, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.out}")

    failed = False
    if not identity["ok"]:
        print("bit-identity check FAILED", file=sys.stderr)
        for mismatch in identity["mismatches"]:
            print(f"  {mismatch}", file=sys.stderr)
        failed = True
    if not lanes["ok"]:
        print("lane-kernel identity check FAILED", file=sys.stderr)
        for mismatch in lanes["mismatches"]:
            print(f"  {mismatch}", file=sys.stderr)
        failed = True
    if args.require_full_coverage and timing["fast_path_coverage"] < 1.0:
        print(
            f"coverage gate FAILED: fast_path_coverage "
            f"{timing['fast_path_coverage']:.2f} < 1.0",
            file=sys.stderr,
        )
        failed = True
    if (
        args.min_suite_speedup is not None
        and timing["suite_speedup"] < args.min_suite_speedup
    ):
        print(
            f"speedup gate FAILED: suite {timing['suite_speedup']:.2f}x "
            f"< {args.min_suite_speedup:g}x",
            file=sys.stderr,
        )
        failed = True
    if (
        args.min_lanes_speedup is not None
        and lanes["speedup"] < args.min_lanes_speedup
    ):
        print(
            f"speedup gate FAILED: lanes {lanes['speedup']:.2f}x "
            f"< {args.min_lanes_speedup:g}x",
            file=sys.stderr,
        )
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
