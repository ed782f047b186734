"""Differential fuzzing of the chip-lane kernel against the controller.

Every generated case replays one short trace for a batch of chips on
the lane kernel and compares each chip's statistics with
``RetentionAwareCache.run_trace`` on a fresh cache.  Cases cover
geometries built by ``CacheGeometry.from_capacity``, LRU/DSP under all
four closed-form refresh policies, write-back and write-through caches,
adversarial retention maps, same-cycle accesses, and warmup splits at
zero, mid-trace and past the end.  Every case runs both all-vectorised
(lane width 0) and all-scalar-tail, so both halves of the kernel see it.
"""

import dataclasses
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.array import CacheGeometry
from repro.cache import CacheConfig, RetentionAwareCache
from repro.cache.refresh import (
    FullRefresh,
    GlobalRefresh,
    NoRefresh,
    PartialRefresh,
)
from repro.core import batcheval
from repro.core.batcheval import TraceArtifacts, simulate_lanes, simulate_trace
from repro.workloads.generator import MemoryTrace

#: Raw retention levels (cycles): zero, values far below any counter
#: quantum, and a spread of live retentions around the trace's gaps.
LEVELS = np.array([0, 1, 3, 40, 300, 900, 2_000, 6_000, 20_000, 90_000])

#: Gaps between accesses reuse the retention levels; 0 makes same-cycle
#: accesses.
GAPS = [0, 0, 1, 3, 40, 300, 900, 2_000, 6_000]

MAP_KINDS = ("mixed", "all-dead", "all-equal", "dead-sets", "ties")


def _retention_map(kind, seed, n_sets, ways):
    rng = np.random.default_rng(seed)
    if kind == "all-dead":
        return np.zeros((n_sets, ways), dtype=np.int64)
    if kind == "all-equal":
        return np.full((n_sets, ways), rng.choice(LEVELS[1:]))
    if kind == "ties":
        return rng.choice(LEVELS[[0, 5, 7]], size=(n_sets, ways))
    grid = rng.choice(LEVELS, size=(n_sets, ways))
    if kind == "dead-sets":
        grid[rng.random(n_sets) < 0.5] = 0
    return grid


def _refresh(kind, chip_seed):
    if kind == "none":
        return NoRefresh()
    if kind == "partial":
        return PartialRefresh(threshold_cycles=[500, 5_000, 30_000][chip_seed % 3])
    if kind == "full":
        return FullRefresh()
    return GlobalRefresh(
        chip_retention_cycles=1_000 + 700 * (chip_seed % 5),
        pass_cycles=64,
    )


cases = st.fixed_dictionaries({
    "size_kb": st.sampled_from([16, 32, 64, 128, 256]),
    "ways": st.sampled_from([1, 2, 4, 8]),
    "write_back": st.booleans(),
    "write_buffer_entries": st.sampled_from([1, 2, 8]),
    "replacement": st.sampled_from(["LRU", "DSP"]),
    "refresh": st.sampled_from(["none", "partial", "full", "global"]),
    "maps": st.lists(
        st.tuples(st.sampled_from(MAP_KINDS), st.integers(0, 2**16)),
        min_size=1, max_size=9,
    ),
    # Raw (unquantised) retention lines up expiries with access gaps.
    "quantize": st.booleans(),
    # (gap cycles, set among a few hot ones, tag, is_write).
    "accesses": st.lists(
        st.tuples(
            st.sampled_from(GAPS),
            st.integers(0, 3),
            st.integers(0, 11),
            st.booleans(),
        ),
        min_size=24, max_size=80,
    ),
    # Mostly measured from the start: a warmup past the end measures
    # only the final refresh accounting.
    "warmup": st.sampled_from(["zero", "zero", "zero", "mid", "end", "past"]),
})


@settings(
    max_examples=100, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=cases)
def test_lanes_match_the_controller_per_chip(case):
    geometry = CacheGeometry.from_capacity(
        case["size_kb"] * 1024, case["ways"]
    )
    config = CacheConfig(
        geometry=geometry,
        write_back=case["write_back"],
        write_buffer_entries=case["write_buffer_entries"],
    )
    n_sets, ways = geometry.n_sets, geometry.ways

    cycle = 0
    cycles, addresses, writes = [], [], []
    for gap, hot_set, tag, write in case["accesses"]:
        cycle += gap
        cycles.append(cycle)
        addresses.append(tag * n_sets + (hot_set * 7) % n_sets)
        writes.append(write)
    n = len(cycles)
    warmup = {"zero": 0, "mid": n // 2, "end": n, "past": n}[case["warmup"]]
    trace = MemoryTrace(
        cycles=np.asarray(cycles, dtype=np.int64),
        line_addresses=np.asarray(addresses, dtype=np.int64),
        is_write=np.asarray(writes, dtype=bool),
        name="fuzz",
        instructions=n,
        warmup_references=warmup,
    )
    artifacts = TraceArtifacts.from_trace(trace, n_sets)
    if case["warmup"] == "past":
        artifacts = dataclasses.replace(artifacts, warmup_references=n + 3)
        warmup = n + 3

    def fresh_caches():
        return [
            RetentionAwareCache(
                config,
                retention_cycles=_retention_map(kind, seed, n_sets, ways),
                replacement=case["replacement"],
                refresh=_refresh(case["refresh"], seed),
                quantize=case["quantize"],
            )
            for kind, seed in case["maps"]
        ]

    oracle = [
        cache.run_trace(cycles, addresses, writes, warmup_references=warmup)
        for cache in fresh_caches()
    ]
    for min_width in (0, 10**9):
        with mock.patch.object(batcheval, "_LANE_MIN_WIDTH", min_width):
            assert simulate_lanes(fresh_caches(), artifacts) == oracle
    # The public entry point (default lane width) and one-chip replays
    # through simulate_trace agree too.
    caches = fresh_caches()
    assert simulate_lanes(caches, artifacts) == oracle
    assert [simulate_trace(cache, artifacts) for cache in caches] == oracle
