"""Batched scheme-evaluation kernel (the fast path behind every figure).

Every figure driver ultimately replays benchmark reference traces through
:class:`~repro.cache.controller.RetentionAwareCache`, once per
(chip x scheme x benchmark).  That event controller is the semantic
reference, but it pays interpreter overhead per memory reference.  This
module provides the production path:

* :class:`TraceArtifacts` -- per-trace columnar artifacts (a numpy
  structured array plus the plain-``int`` views derived from it)
  precomputed **once per suite** and shared by every evaluation instead
  of being re-derived per access;
* :func:`kernel_support` -- the typed capability probe: which replay
  path (``"flattened"``, ``"timeline"``, or ``"event"``) a cache
  configuration takes, and why when it must fall back;
* :func:`simulate_trace` -- the batched replay dispatcher.  LRU/DSP
  placement under the paper's four closed-form refresh policies runs the
  flattened path (a one-chip :func:`simulate_lanes` batch); the RSP
  block-move schemes, the online token-refresh engine, and the real L2
  simulator run the timeline kernels in :mod:`repro.core.timeline`.  Both paths are
  **bit-identical** to ``RetentionAwareCache.run_trace``; only caches
  with third-party refresh/replacement/device objects fall back to the
  event controller;
* :func:`simulate_lanes` -- the flattened path for a batch of chips at
  once (chip lanes, see :class:`LaneColumns`), bit-identical per chip;
* :func:`evaluate_many` / :func:`evaluate` -- the stable batched API the
  engine (:mod:`repro.engine.parallel`) and the fig09/fig10/fig11
  drivers route through; a batch replays each flattened-path scheme on
  chip lanes, one trace at a time for all of its chips.

Bit-identity is enforced by tests that cross-validate the kernels
against the event controller on every scheme x benchmark; the perf
harness in ``benchmarks/perf/`` times both paths and records the speedup
and fast-path coverage in ``BENCH_batcheval.json``.
"""

from __future__ import annotations

import array
import bisect
import functools
import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ChipDiscardedError, ConfigurationError, SimulationError
from repro.cache.controller import RetentionAwareCache
from repro.cache.refresh import (
    FullRefresh,
    GlobalRefresh,
    NoRefresh,
    PartialRefresh,
)
from repro.cache.replacement import (
    DSPPolicy,
    LRUPolicy,
    RSPFIFOPolicy,
    RSPLRUPolicy,
)
from repro.cache.setassoc import SetAssociativeCache
from repro.cache.stats import CacheStats
from repro.cache.token import TokenRefreshEngine
from repro.workloads.generator import MemoryTrace


def _trace_span(name: str, cat: str = "task", **args):
    """Ambient engine trace span (no-op unless a tracer is active).

    The import is deferred to call time: ``repro.engine``'s package init
    imports :mod:`repro.engine.parallel`, which imports this module, so
    a module-level import of ``repro.engine.trace`` here would be a
    cycle whenever batcheval is imported first.
    """
    from repro.engine.trace import span

    return span(name, cat=cat, **args)


#: Columnar layout shared by the replay kernels: one record per memory
#: reference, in program order.
COLUMN_DTYPE = np.dtype([
    ("cycle", np.int64),
    ("set", np.int32),
    ("tag", np.int64),
    ("write", np.bool_),
])


@dataclass(frozen=True)
class TraceArtifacts:
    """Per-trace columns precomputed once and shared by every evaluation.

    The event controller re-derives ``line_address % n_sets`` and
    ``line_address // n_sets`` (plus numpy-scalar conversions) on every
    access of every (chip, scheme) evaluation.  The kernels instead run
    over views of one structured array (:data:`COLUMN_DTYPE`), derived
    once per (trace, n_sets): the lane kernel walks their
    :meth:`lane_columns` packing, the L2/token timeline kernel the
    program-order plain-``int`` lists, and the per-set timeline kernel
    the :meth:`set_streams` regrouping of the same columns.
    """

    name: str
    n_sets: int
    cycles: List[int]
    set_indices: List[int]
    tags: List[int]
    is_write: List[bool]
    warmup_references: int
    end_cycle: int

    def __len__(self) -> int:
        return len(self.cycles)

    @classmethod
    def from_trace(cls, trace: MemoryTrace, n_sets: int) -> "TraceArtifacts":
        """Precompute the kernels' per-reference columns for one trace."""
        if n_sets < 1:
            raise ConfigurationError("n_sets must be >= 1")
        with _trace_span(
            "trace_artifacts", cat="traces",
            benchmark=trace.name, references=len(trace),
        ):
            addresses = np.asarray(trace.line_addresses, dtype=np.int64)
            columns = np.empty(len(addresses), dtype=COLUMN_DTYPE)
            columns["cycle"] = np.asarray(trace.cycles, dtype=np.int64)
            columns["set"] = addresses % n_sets
            columns["tag"] = addresses // n_sets
            columns["write"] = np.asarray(trace.is_write, dtype=bool)
            artifacts = cls(
                name=trace.name,
                n_sets=n_sets,
                cycles=columns["cycle"].tolist(),
                set_indices=columns["set"].tolist(),
                tags=columns["tag"].tolist(),
                is_write=columns["write"].tolist(),
                warmup_references=trace.warmup_references,
                end_cycle=int(trace.cycles[-1]) if len(trace) else 0,
            )
            object.__setattr__(artifacts, "_columns", columns)
            return artifacts

    def columnar(self) -> np.ndarray:
        """The trace as one structured array (:data:`COLUMN_DTYPE`).

        Built eagerly by :meth:`from_trace` (and lazily for artifacts
        constructed field-by-field), then cached on the instance.
        """
        cached = getattr(self, "_columns", None)
        if cached is not None:
            return cached
        columns = np.empty(len(self.cycles), dtype=COLUMN_DTYPE)
        columns["cycle"] = self.cycles
        columns["set"] = self.set_indices
        columns["tag"] = self.tags
        columns["write"] = self.is_write
        object.__setattr__(self, "_columns", columns)
        return columns

    def set_streams(self) -> List[Optional[Tuple]]:
        """The columns regrouped per cache set, for the timeline kernel.

        One entry per set: ``None`` for sets the trace never touches,
        else ``(ticks, cycles, tags, writes, warm_split)`` plain-int
        lists in program order, where ``ticks`` are global reference
        indices and ``warm_split`` is the position of the first
        post-warmup reference in this set's stream.  Derived once via a
        stable argsort over the ``set`` column, then cached.  The lists
        share the int objects of the program-order lists rather than
        boxing every cycle and tag a second time.
        """
        cached = getattr(self, "_set_streams", None)
        if cached is not None:
            return cached
        columns = self.columnar()
        streams: List[Optional[Tuple]] = [None] * self.n_sets
        if len(columns):
            order = np.argsort(columns["set"], kind="stable")
            bounds = np.searchsorted(
                columns["set"][order], np.arange(self.n_sets + 1)
            )
            cycle_of = self.cycles.__getitem__
            tag_of = self.tags.__getitem__
            write_of = self.is_write.__getitem__
            warm = self.warmup_references
            for s in range(self.n_sets):
                lo, hi = int(bounds[s]), int(bounds[s + 1])
                if lo == hi:
                    continue
                ticks = order[lo:hi]
                tick_list = ticks.tolist()
                streams[s] = (
                    tick_list,
                    list(map(cycle_of, tick_list)),
                    list(map(tag_of, tick_list)),
                    list(map(write_of, tick_list)),
                    int(np.searchsorted(ticks, warm)),
                )
        object.__setattr__(self, "_set_streams", streams)
        return streams

    def lane_columns(self) -> "LaneColumns":
        """The columns packed step-major for the chip-lane kernel.

        See :class:`LaneColumns`; derived once from :meth:`columnar`,
        then cached.
        """
        cached = getattr(self, "_lane_columns", None)
        if cached is None:
            cached = LaneColumns.from_columns(self.columnar(), self.n_sets)
            object.__setattr__(self, "_lane_columns", cached)
        return cached


#: The replay paths :func:`kernel_support` can assign a cache to.
KERNEL_PATHS = ("flattened", "timeline", "event")


@dataclass(frozen=True)
class KernelSupport:
    """Which replay path a cache configuration takes, and why.

    ``path`` is ``"flattened"`` (this module's stationary-placement
    kernel), ``"timeline"`` (the RSP/token/L2 kernels in
    :mod:`repro.core.timeline`), or ``"event"`` (the per-reference event
    controller, with ``reason`` explaining the fallback).  ``supported``
    is True exactly when :func:`simulate_trace` accepts the cache.
    """

    supported: bool
    path: str
    reason: Optional[str] = None


def kernel_support(cache: RetentionAwareCache) -> KernelSupport:
    """Classify ``cache`` onto a batched replay path.

    The kernels are specialized for the paper's own policy and device
    objects; a cache wired with third-party refresh policies, placement
    policies, refresh engines, or L2 simulators keeps the event
    controller (the returned ``reason`` says which object forced it).
    """
    if type(cache.refresh) not in (
        NoRefresh,
        PartialRefresh,
        FullRefresh,
        GlobalRefresh,
    ):
        return KernelSupport(False, "event", (
            f"refresh policy {cache.refresh.name!r} is not one of the "
            "paper's four closed-form policies"
        ))
    if type(cache.replacement) not in (
        LRUPolicy, DSPPolicy, RSPFIFOPolicy, RSPLRUPolicy
    ):
        return KernelSupport(False, "event", (
            f"replacement {cache.replacement.name!r} is not one of the "
            "paper's four placement policies"
        ))
    if (
        cache.refresh_engine is not None
        and type(cache.refresh_engine) is not TokenRefreshEngine
    ):
        return KernelSupport(False, "event", (
            "third-party refresh engines only run on the event controller"
        ))
    if (
        cache.l2_cache is not None
        and type(cache.l2_cache) is not SetAssociativeCache
    ):
        return KernelSupport(False, "event", (
            "third-party L2 simulators only run on the event controller"
        ))
    if (
        cache.refresh_engine is not None
        or cache.l2_cache is not None
        or type(cache.replacement) in (RSPFIFOPolicy, RSPLRUPolicy)
    ):
        return KernelSupport(True, "timeline")
    return KernelSupport(True, "flattened")


def _kernel_supported(cache: RetentionAwareCache) -> bool:
    """Private predicate behind the dispatcher; use :func:`kernel_support`.

    Kept out of the public surface on purpose (linter rule API004): the
    typed :class:`KernelSupport` result is the supported probe.
    """
    return kernel_support(cache).supported


class _ReplaySetup:
    """Per-line replay constants of one cache, built once per (chip, scheme).

    The kernels never mutate the cache they replay, so the evaluator
    replays every benchmark of an architecture on one cache instance and
    these O(cache lines) derivations -- effective lifetimes, refresh
    caps, retention-sorted way orders -- are memoised on it instead of
    being rebuilt per replay.  Retention is already quantised by the
    controller's constructor; lifetimes and caps are pure functions of
    it, so they are computed once per distinct value (a b-bit counter
    admits at most 2**b of them).  Each kernel builds only the views it
    reads.
    """

    def __init__(self, cache: RetentionAwareCache):
        refresh = cache.refresh
        self.grid = cache.retention_grid
        self.n_ways = cache.config.geometry.ways
        self._distinct, self._inverse = np.unique(
            self.grid, return_inverse=True
        )
        distinct = self._distinct.tolist()
        self.life_by_r: Dict[int, float] = {
            r: refresh.effective_lifetime(r) for r in distinct
        }
        self.maxref_by_r: Dict[int, int] = {}
        if type(refresh) is FullRefresh:
            self.acc_mode = 1
        elif type(refresh) is PartialRefresh:
            self.acc_mode = 2
            self.maxref_by_r = {r: refresh.max_refreshes(r) for r in distinct}
        else:  # NoRefresh / GlobalRefresh: zero per-line refreshes
            self.acc_mode = 0

    @functools.cached_property
    def retention(self) -> List[int]:
        """Quantised retention per line (flat, plain ints)."""
        return self.grid.reshape(-1).tolist()

    @functools.cached_property
    def lifetime(self) -> List[float]:
        """Effective lifetime per line (flat)."""
        life_by_r = self.life_by_r
        return [life_by_r[r] for r in self.retention]

    def per_line(self, by_r: Dict[int, Any], dtype) -> np.ndarray:
        """``by_r`` mapped over the retention grid, as an array."""
        values = np.asarray(
            [by_r[r] for r in self._distinct.tolist()], dtype=dtype
        )
        return values[self._inverse].reshape(self.grid.shape)

    @functools.cached_property
    def orders(self) -> List[List[int]]:
        """Per set: live ways by descending retention (ties by way)."""
        n_ways = self.n_ways
        retention = self.retention
        orders = []
        for base in range(0, len(retention), n_ways):
            orders.append(sorted(
                (w for w in range(n_ways) if retention[base + w] > 0),
                key=lambda w: (-retention[base + w], w),
            ))
        return orders

    @functools.cached_property
    def rsp_sets(self) -> List[Tuple[List[int], List[int], List[float],
                                     List[int]]]:
        """Per set, the RSP kernel's ``(order, retention, lifetime,
        sweep positions)`` in slot space."""
        n_ways = self.n_ways
        retention = self.retention
        life_by_r = self.life_by_r
        rows = []
        for s, order in enumerate(self.orders):
            retp = [retention[s * n_ways + w] for w in order]
            rows.append((
                order,
                retp,
                [life_by_r[r] for r in retp],
                # Expiry sweeps visit ways in way-index order.
                sorted(range(len(order)), key=lambda p: order[p]),
            ))
        return rows


def _replay_setup(cache: RetentionAwareCache) -> _ReplaySetup:
    """The memoised :class:`_ReplaySetup` of ``cache``."""
    setup = cache.__dict__.get("_replay_setup")
    if setup is None:
        setup = _ReplaySetup(cache)
        cache.__dict__["_replay_setup"] = setup
    return setup


def simulate_trace(
    cache: RetentionAwareCache, artifacts: TraceArtifacts
) -> CacheStats:
    """Run a whole trace through the batched kernels; returns the stats.

    ``cache`` must be a *fresh* (never accessed) simulator instance; it is
    used as the source of configuration, quantised retention, and policy
    objects, and is not mutated.  Dispatches on
    :func:`kernel_support`: stationary LRU/DSP placement runs the
    chip-lane kernel on a one-chip batch; RSP placement, the token engine, and the real
    L2 run the timeline kernels in :mod:`repro.core.timeline`.  The
    returned :class:`CacheStats` is bit-identical to ``cache.run_trace``
    on the same trace for every supported configuration.
    """
    support = kernel_support(cache)
    if not support.supported:
        raise ConfigurationError(
            f"kernel cannot run this cache: {support.reason}"
        )
    if cache._tick:
        raise SimulationError(
            "simulate_trace needs a fresh (never accessed) cache instance"
        )
    if artifacts.n_sets != cache.config.geometry.n_sets:
        raise ConfigurationError(
            f"artifacts were built for {artifacts.n_sets} sets but the "
            f"cache has {cache.config.geometry.n_sets}"
        )
    if support.path == "timeline":
        # Deferred: repro.core.timeline imports this module's artifacts.
        from repro.core.timeline import simulate_trace_timeline

        return simulate_trace_timeline(cache, artifacts)
    return _lane_replay([cache], artifacts)[0]


def _measured_loads_stores(artifacts: TraceArtifacts) -> Tuple[int, int]:
    """Post-warmup (loads, stores), counted from the columnar write flags.

    Both are state-independent, so the kernels never branch on them per
    access.
    """
    n = len(artifacts)
    measured_from = min(artifacts.warmup_references, n)
    stores = int(np.count_nonzero(
        artifacts.columnar()["write"][measured_from:]
    ))
    return n - measured_from - stores, stores


# ----------------------------------------------------------------------
# chip-lane replay (the flattened path for a batch of chips at once)
# ----------------------------------------------------------------------

#: A lane step costs about as much as this many scalar references
#: (active sets x chips); narrower steps finish on the per-set loop.
_LANE_MIN_WIDTH = 64

#: Victim key of a dead line: larger than any reference tick.
_DEAD_KEY = np.int64(1) << 62


@dataclass(frozen=True)
class LaneColumns:
    """A trace's references packed step-major for the chip-lane kernel.

    Lanes are the trace's non-empty sets, ordered by descending stream
    length (ties by set index), so the sets still active at step ``k``
    are always the lane prefix ``[0, offsets[k + 1] - offsets[k])``.
    Step ``k`` holds the ``k``-th reference of every active set, in lane
    order, at ``offsets[k]:offsets[k + 1]`` of the packed columns; every
    array is O(references), with no steps x sets padding.
    """

    sets: np.ndarray
    """Set index of each lane."""
    lengths: np.ndarray
    """Stream length of each lane (non-increasing)."""
    offsets: np.ndarray
    """Start of each step in the packed columns (one extra end entry)."""
    ticks: np.ndarray
    """Global (program-order) reference index."""
    cycles: np.ndarray
    tags: np.ndarray
    writes: np.ndarray

    @classmethod
    def from_columns(cls, columns: np.ndarray, n_sets: int) -> "LaneColumns":
        """Pack a :data:`COLUMN_DTYPE` array step-major."""
        sets = columns["set"].astype(np.int64)
        counts = np.bincount(sets, minlength=n_sets)
        n_lanes = int(np.count_nonzero(counts))
        lane_sets = np.argsort(-counts, kind="stable")[:n_lanes]
        lengths = counts[lane_sets]
        rank = np.zeros(n_sets, dtype=np.int64)
        rank[lane_sets] = np.arange(n_lanes)
        by_set = np.argsort(sets, kind="stable")
        starts = np.cumsum(counts) - counts
        sets_sorted = sets[by_set]
        position = np.arange(len(sets)) - starts[sets_sorted]
        packed = by_set[np.argsort(
            position * n_lanes + rank[sets_sorted], kind="stable"
        )]
        steps = int(lengths[0]) if n_lanes else 0
        active = n_lanes - np.searchsorted(
            lengths[::-1], np.arange(steps), side="right"
        )
        offsets = np.zeros(steps + 1, dtype=np.int64)
        np.cumsum(active, out=offsets[1:])
        return cls(
            sets=lane_sets,
            lengths=lengths,
            offsets=offsets,
            ticks=_narrow(packed),
            cycles=_narrow(columns["cycle"][packed]),
            tags=_narrow(columns["tag"][packed]),
            writes=columns["write"][packed],
        )


def _narrow(values: np.ndarray) -> np.ndarray:
    """``values`` as int32 when every value fits (halves lane memory)."""
    info = np.iinfo(np.int32)
    if len(values) and (values.min() < info.min or values.max() > info.max):
        return values
    return values.astype(np.int32)


def _write_buffer_stall(ticks, cycles, warm: int, config) -> int:
    """Replay write-buffer arrivals in program order; measured stall.

    ``ticks``/``cycles`` are the arrivals' global reference indices and
    cycles, already in the controller's order; arrivals before ``warm``
    move the buffer state but their stalls are not counted (same update
    rules as :class:`repro.cache.l2.WriteBuffer`).
    """
    stall = 0
    queued = 0
    last = 0.0
    cap = config.write_buffer_entries
    drain = config.l2_write_interval_cycles
    for tick, cycle in zip(ticks, cycles):
        if cycle < last:
            cycle = last
        drained = int((cycle - last) // drain)
        if drained:
            queued -= drained
            if queued < 0:
                queued = 0
        last = cycle
        if queued >= cap:
            queued = cap
            if tick >= warm:
                stall += drain
        else:
            queued += 1
    return stall


def _replay_write_backs(pushes, n_chips, n_refs, n_ways, warm, config):
    """Per chip: write-buffer stall, write-backs and expiry write-backs.

    ``pushes`` holds the lane kernel's (key, cycle) log columns, keyed
    ``(chip * (n_refs + 1) + tick) * (n_ways + 1) + sub``; sorting the
    keys puts every chip's arrivals in the controller's order.  The log
    is consumed (emptied) to keep the peak small.
    """
    stalls = [0] * n_chips
    writebacks = [0] * n_chips
    expiry_writebacks = [0] * n_chips
    if not pushes:
        return stalls, writebacks, expiry_writebacks
    keys = np.concatenate([key for key, _ in pushes])
    cycles = np.concatenate([cycle for _, cycle in pushes])
    pushes.clear()
    order = np.argsort(keys)
    keys = keys[order]
    cycles = cycles[order]
    del order
    per_chip = (n_refs + 1) * (n_ways + 1)
    bounds = np.searchsorted(
        keys, np.arange(n_chips + 1, dtype=np.int64) * per_chip
    ).tolist()
    for chip in range(n_chips):
        lo, hi = bounds[chip], bounds[chip + 1]
        ticks, subs = np.divmod(keys[lo:hi] - chip * per_chip, n_ways + 1)
        measured = ticks >= warm
        writebacks[chip] = int(np.count_nonzero(measured))
        expiry_writebacks[chip] = int(
            np.count_nonzero(measured & (subs < n_ways))
        )
        stalls[chip] = _write_buffer_stall(
            ticks.tolist(), cycles[lo:hi].tolist(), warm, config
        )
    return stalls, writebacks, expiry_writebacks


def _lane_grid(rows: List[np.ndarray], lane_sets: np.ndarray) -> np.ndarray:
    """Stack per-chip ``(n_sets, ways)`` grids into ``(ways, chips, lanes)``."""
    grid = np.stack(rows)[:, lane_sets]
    return np.ascontiguousarray(grid.transpose(2, 0, 1))


def simulate_lanes(
    caches: Sequence[RetentionAwareCache], artifacts: TraceArtifacts
) -> List[CacheStats]:
    """Replay one trace on the flattened path for a batch of chips at once.

    ``caches`` are fresh caches of the same configuration, placement and
    refresh policy types (one per chip; only retention differs), all on
    the ``"flattened"`` path.  Returns one :class:`CacheStats` per cache,
    bit-identical to ``cache.run_trace`` on each; a one-cache batch is
    what :func:`simulate_trace` runs for a flattened-path cache.

    Line state lives in ``(ways, chips, lanes)`` arrays: ways lead, so
    every per-set reduction is a cheap leading-axis reduction, and lanes
    are innermost, so per-step columns broadcast along a contiguous
    inner loop.  Step ``k`` serves the ``k``-th reference of every
    active set (see :class:`LaneColumns`) for every chip with dense
    masked numpy ops; once active sets x chips drops below
    ``_LANE_MIN_WIDTH`` the remaining long sets finish on a scalar
    per-set loop.  Sets are independent except for the shared write
    buffer, so write-back arrivals are logged by ``(chip, tick, sub)``
    with their cycle and replayed per chip in program order afterwards,
    as the RSP timeline kernel does.
    """
    if not caches:
        return []
    _check_lane_batch(caches)
    return _lane_replay(caches, artifacts)


def _check_lane_batch(caches: Sequence[RetentionAwareCache]) -> None:
    """Raise unless ``caches`` can share one lane replay."""
    first = caches[0]
    for cache in caches:
        support = kernel_support(cache)
        if support.path != "flattened":
            raise ConfigurationError(
                "the lane kernel runs the flattened path only; got "
                f"{support.path!r}"
            )
        if cache._tick:
            raise SimulationError(
                "simulate_lanes needs fresh (never accessed) cache instances"
            )
        if (
            cache.config != first.config
            or type(cache.replacement) is not type(first.replacement)
            or type(cache.refresh) is not type(first.refresh)
        ):
            raise ConfigurationError(
                "a lane batch must share one cache configuration and "
                "policy types"
            )


def _lane_replay(
    caches: Sequence[RetentionAwareCache], artifacts: TraceArtifacts
) -> List[CacheStats]:
    """:func:`simulate_lanes` on a batch :func:`_check_lane_batch` passed."""
    n_sets = caches[0].config.geometry.n_sets
    if artifacts.n_sets != n_sets:
        raise ConfigurationError(
            f"artifacts were built for {artifacts.n_sets} sets but the "
            f"caches have {n_sets}"
        )
    with _trace_span(
        "replay_lanes", cat="kernel", path="flattened",
        chips=len(caches), references=len(artifacts),
    ):
        return _replay_lanes(caches, artifacts)


def _replay_lanes(
    caches: Sequence[RetentionAwareCache], artifacts: TraceArtifacts
) -> List[CacheStats]:
    """The lane kernel behind :func:`_lane_replay` (inputs validated)."""
    first = caches[0]
    config = first.config
    geometry = config.geometry
    n_ways = geometry.ways
    n_chips = len(caches)
    aware = first.replacement.uses_retention_info
    dsp = type(first.replacement) is DSPPolicy
    write_back = config.write_back
    setups = [_replay_setup(cache) for cache in caches]
    acc_mode = setups[0].acc_mode
    warm = artifacts.warmup_references
    lanes = artifacts.lane_columns()
    n_lanes = len(lanes.sets)
    INF = math.inf

    # Per-line constants in lane layout.
    retention = _lane_grid([s.grid for s in setups], lanes.sets)
    lifetime = _lane_grid(
        [s.per_line(s.life_by_r, np.float64) for s in setups], lanes.sets
    )
    flat_divisor = flat_maxref = None
    if acc_mode:
        # Dead lines never owe refreshes; a huge divisor makes that
        # branch-free (any age // it is zero).
        flat_divisor = np.where(
            retention > 0, retention, _DEAD_KEY
        ).reshape(-1)
    if acc_mode == 2:
        flat_maxref = _lane_grid(
            [s.per_line(s.maxref_by_r, np.int64) for s in setups], lanes.sets
        ).reshape(-1)
    # Victim key of an invalid line: its rank among the candidates minus
    # n_ways (negative, so any invalid candidate beats every valid line's
    # recency tick).  DSP ranks live ways by descending retention and
    # never picks a dead one; LRU ranks all ways in way order and never
    # invalidates a line once filled.
    ranks = np.arange(n_ways, dtype=np.int64)[:, None, None] - n_ways
    invalid_key = None
    if dsp:
        invalid_key = np.empty_like(retention)
        np.put_along_axis(
            invalid_key, np.argsort(-retention, axis=0, kind="stable"),
            ranks, axis=0,
        )
        invalid_key[retention <= 0] = _DEAD_KEY
    shape = retention.shape
    del retention

    # Line state.  A line that is invalid, stale or expired has an
    # infinite expiry, so the expiry sweep is a single compare.
    tags = np.full(shape, -1, dtype=np.int64)
    expiry = np.full(shape, INF)
    fill = np.zeros(shape, dtype=np.int64)
    recency = (
        invalid_key.copy() if dsp else np.broadcast_to(ranks, shape).copy()
    )
    stale = None if aware else np.zeros(shape, dtype=bool)
    dirty = np.zeros(shape, dtype=bool) if write_back else None

    # Per (chip, lane) counters over measured references.
    hits_rd = np.zeros((n_chips, n_lanes), dtype=np.int64)
    hits_wt = None if write_back else np.zeros_like(hits_rd)
    expired = np.zeros_like(hits_rd)
    dead = np.zeros_like(hits_rd) if dsp else None
    refreshes = np.zeros(n_chips, dtype=np.int64)
    # Write-back arrivals as (sort key, cycle) column pairs; the key
    # orders them by (chip, tick, sub), where ``sub`` is the emitting
    # way of an expiry and ``n_ways`` for an eviction.
    n_refs = len(artifacts)
    pushes: List[Tuple[np.ndarray, np.ndarray]] = []

    # Events found by a mask over the active prefix are addressed by
    # their flat index into the full state arrays.
    flat_expiry = expiry.reshape(-1)
    flat_fill = fill.reshape(-1)
    flat_dirty = dirty.reshape(-1) if dirty is not None else None

    def locate(mask, active):
        """(flat index, way, chip, lane) of every line set in ``mask``."""
        at = np.flatnonzero(mask)
        outer, lane = np.divmod(at, active)
        way, chip = np.divmod(outer, n_chips)
        return outer * n_lanes + lane, way, chip, lane

    def account(flat, chip, lane, ages, measured):
        """Lazy refresh accounting (measured references only)."""
        if measured is not None:
            keep = measured[lane]
            flat, chip, ages = flat[keep], chip[keep], ages[keep]
        np.maximum(ages, 0, out=ages)
        counts = ages // flat_divisor[flat]
        if flat_maxref is not None:
            np.minimum(counts, flat_maxref[flat], out=counts)
        refreshes[:] += np.bincount(
            chip, weights=counts, minlength=n_chips
        ).astype(np.int64)

    def write_backs(flat, way, chip, cycles, tick_of):
        """Log the dirty lines among ``flat`` and clean them.

        ``way`` is None for evictions, which log after the expiries.
        """
        was_dirty = flat_dirty[flat]
        if was_dirty.any():
            sub = n_ways if way is None else way[was_dirty]
            pushes.append((
                (chip[was_dirty] * (n_refs + 1) + tick_of[was_dirty])
                * (n_ways + 1) + sub,
                cycles[was_dirty],
            ))
            flat_dirty[flat[was_dirty]] = False

    offsets = lanes.offsets
    steps = len(offsets) - 1
    step = 0
    while step < steps:
        lo = int(offsets[step])
        hi = int(offsets[step + 1])
        active = hi - lo
        if active * n_chips < _LANE_MIN_WIDTH:
            break
        step += 1
        tick = lanes.ticks[lo:hi]
        cyc = lanes.cycles[lo:hi]
        tag = lanes.tags[lo:hi]
        wr = lanes.writes[lo:hi]
        measured = None if not warm or tick.min() >= warm else tick >= warm
        tg = tags[:, :, :active]
        ex = expiry[:, :, :active]
        fc = fill[:, :, :active]
        rc = recency[:, :, :active]
        st = stale[:, :, :active] if stale is not None else None
        dt = dirty[:, :, :active] if dirty is not None else None

        # Expiry sweep: every live line whose timeline ended by now.
        exp = ex <= cyc
        recent = None
        if exp.any():
            if acc_mode:
                flat, way, chip, lane = locate(exp, active)
                ended = flat_expiry[flat].astype(np.int64)
                account(flat, chip, lane, ended - flat_fill[flat], measured)
                if dt is not None:
                    write_backs(flat, way, chip, ended, tick[lane])
            elif dt is not None:
                ended = exp & dt
                if ended.any():
                    flat, way, chip, lane = locate(ended, active)
                    write_backs(flat, way, chip,
                                flat_expiry[flat].astype(np.int64),
                                tick[lane])
            if aware:
                recent = (exp & (tg == tag)).any(axis=0)
                np.copyto(tg, -1, where=exp)
                np.copyto(rc, invalid_key[:, :, :active], where=exp)
            else:
                st |= exp
            np.copyto(ex, INF, where=exp)

        # Lookup: tags are unique per set, so ``match`` is one-hot.
        match = tg == tag
        found = match.any(axis=0)
        if st is not None:
            match_stale = match & st
            found_stale = match_stale.any(axis=0)
            hit = found ^ found_stale
        else:
            hit = found
        if write_back:
            reads = None
            miss = ~found
        else:
            # Write-through, no-write-allocate stores only look up.
            reads = ~wr
            miss = ~found & reads
            writes_counted = wr if measured is None else wr & measured
            hits_wt[:, :active] += hit & writes_counted
        counted = reads
        if measured is not None:
            counted = measured if reads is None else measured & reads
        hits_rd[:, :active] += hit if counted is None else hit & counted
        if st is not None:
            expired[:, :active] += (
                found_stale if counted is None else found_stale & counted
            )
        elif recent is not None:
            gone = recent & miss
            expired[:, :active] += (
                gone if measured is None else gone & measured
            )

        # Miss: the smallest victim key is the first invalid candidate,
        # else the least-recently used valid line.
        least = rc.min(axis=0)
        if dead is not None:
            no_room = miss & (least >= _DEAD_KEY)
            dead[:, :active] += (
                no_room if measured is None else no_room & measured
            )
            miss &= ~no_room
        victim = (rc == least) & miss
        if acc_mode:
            evicted = victim & (tg >= 0)
            if st is not None:
                evicted &= ~st
            if evicted.any():
                flat, _, chip, lane = locate(evicted, active)
                account(flat, chip, lane, cyc[lane] - flat_fill[flat],
                        measured)
                if dt is not None:
                    write_backs(flat, None, chip, cyc[lane], tick[lane])
        elif dt is not None:
            evicted = victim & dt
            if evicted.any():
                flat, _, chip, lane = locate(evicted, active)
                write_backs(flat, None, chip, cyc[lane], tick[lane])

        # Fill victims (and, for LRU, refill stale lines in place).
        if st is not None:
            refill = match_stale if reads is None else match_stale & reads
            filled = victim | refill
            np.copyto(st, False, where=filled)
        else:
            filled = victim
        np.copyto(tg, tag, where=filled)
        np.copyto(fc, cyc, where=filled)
        np.copyto(ex, cyc + lifetime[:, :, :active], where=filled)
        touched = filled | (match & hit)
        np.copyto(rc, tick + 1, where=touched)
        if dt is not None:
            dt |= touched & wr

    # Scalar tail: the few long sets still active finish one set at a
    # time on the same line state and logs.
    tail_counts = np.zeros((5, n_chips), dtype=np.int64)
    # The tail's write-back log, as packed int64 (key, cycle) columns:
    # a tuple per arrival would dominate the kernel's peak memory.
    tail_pushes = (array.array("q"), array.array("q"))
    if step < steps:
        tail = _LaneTail(
            n_ways=n_ways, n_refs=n_refs, aware=aware,
            write_back=write_back, acc_mode=acc_mode, warm=warm,
            tags=tags, expiry=expiry, fill=fill, recency=recency,
            stale=stale, dirty=dirty, lifetime=lifetime,
            invalid_key=invalid_key,
            divisor=flat_divisor.reshape(shape) if acc_mode else None,
            maxref=flat_maxref.reshape(shape) if acc_mode == 2 else None,
            counts=tail_counts, pushes=tail_pushes,
        )
        for lane in range(int(offsets[step + 1] - offsets[step])):
            index = offsets[step:lanes.lengths[lane]] + lane
            stream = (
                lanes.ticks[index].tolist(),
                lanes.cycles[index].tolist(),
                lanes.tags[index].tolist(),
                lanes.writes[index].tolist(),
            )
            for chip in range(n_chips):
                tail.run(chip, lane, *stream)
    refreshes += tail_counts[4]

    # Finalize: refreshes still owed by live lines.
    end_cycle = artifacts.end_cycle
    if acc_mode:
        live = tags >= 0
        if stale is not None:
            live &= ~stale
        flat, _, chip, lane = locate(live, n_lanes)
        cutoff = np.minimum(flat_expiry[flat], end_cycle).astype(np.int64)
        account(flat, chip, lane, cutoff - flat_fill[flat], None)

    # The shared write buffer, replayed per chip in program order.
    loads, stores = _measured_loads_stores(artifacts)
    measured_refs = loads + stores
    writes_through = 0 if write_back else stores
    reads_measured = measured_refs - writes_through
    if write_back:
        if tail_pushes[0]:
            pushes.append(tuple(
                np.frombuffer(column, dtype=np.int64)
                for column in tail_pushes
            ))
        stalls, writebacks, expiry_writebacks = _replay_write_backs(
            pushes, n_chips, n_refs, n_ways, warm, config
        )
    else:
        writebacks = expiry_writebacks = [0] * n_chips
        stalls = [0] * n_chips
        if n_refs:
            # Write-through: every store arrives, identically on every
            # chip, and no line is ever dirty.
            columns = artifacts.columnar()
            store_ticks = np.flatnonzero(columns["write"])
            stalls = [_write_buffer_stall(
                store_ticks.tolist(),
                columns["cycle"][store_ticks].tolist(), warm, config,
            )] * n_chips

    hits_rd = hits_rd.sum(axis=1) + tail_counts[0]
    hits_total = hits_rd + tail_counts[1]
    if hits_wt is not None:
        hits_total += hits_wt.sum(axis=1)
    expired = expired.sum(axis=1) + tail_counts[2]
    dead = tail_counts[3] + (dead.sum(axis=1) if dead is not None else 0)
    refresh_cpl = geometry.refresh_cycles_per_line

    results = []
    for chip, cache in enumerate(caches):
        line_refreshes = int(refreshes[chip])
        refresh_blocked = line_refreshes * refresh_cpl
        if type(cache.refresh) is GlobalRefresh:
            passes = end_cycle // cache.refresh.chip_retention_cycles
            line_refreshes += passes * geometry.n_lines
            refresh_blocked += passes * cache.refresh.pass_cycles
        h_rd = int(hits_rd[chip])
        h = int(hits_total[chip])
        e = int(expired[chip])
        d = int(dead[chip])
        results.append(CacheStats(
            loads=loads,
            stores=stores,
            hits=h,
            misses_cold=measured_refs - h - e - d,
            misses_expired=e,
            misses_dead_bypass=d,
            writebacks=int(writebacks[chip]),
            expiry_writebacks=int(expiry_writebacks[chip]),
            write_throughs=writes_through,
            l2_accesses=reads_measured - h_rd,
            l2_hits=0,
            l2_misses=0,
            line_refreshes=line_refreshes,
            refresh_blocked_cycles=refresh_blocked,
            line_moves=0,
            move_blocked_cycles=0,
            write_buffer_stall_cycles=stalls[chip],
            fills=reads_measured - h_rd - d,
        ))
    return results


class _LaneTail:
    """The lane kernel's scalar finish: one set of one chip at a time.

    Reads the set's line state out of the lane arrays, replays the rest
    of its stream with the controller's per-reference rules, and
    writes the state back for the shared finalize.  Outcome counts of
    measured references accumulate into ``counts`` (rows: read hits,
    write-through hits, expired misses, dead misses, refreshes) and
    write-back arrivals into the ``pushes`` (key, cycle) columns, keyed
    like the lane steps' log.
    """

    def __init__(self, **state):
        self.__dict__.update(state)

    def run(self, chip, lane, ticks, cycles, tags, writes) -> None:
        """Finish ``lane`` of ``chip`` over the given stream suffix."""
        n_ways = self.n_ways
        aware = self.aware
        write_back = self.write_back
        acc_mode = self.acc_mode
        push_key, push_cycle = (column.append for column in self.pushes)
        key_base = chip * (self.n_refs + 1)
        at = (slice(None), chip, lane)
        row = self.tags[at].tolist()
        ex = self.expiry[at].tolist()
        fc = self.fill[at].tolist()
        rc = self.recency[at].tolist()
        st = self.stale[at].tolist() if self.stale is not None else None
        dt = self.dirty[at].tolist() if self.dirty is not None else None
        life = self.lifetime[at].tolist()
        ik = self.invalid_key[at].tolist() if aware else None
        div = self.divisor[at].tolist() if acc_mode else None
        cap = self.maxref[at].tolist() if acc_mode == 2 else None
        INF = math.inf
        DEAD = int(_DEAD_KEY)
        ways = range(n_ways)
        nxt = min(ex)
        h_rd = h_wt = n_exp = n_dead = n_ref = 0

        n_acc = len(ticks)
        split = bisect.bisect_left(ticks, self.warm)
        snap = None
        if split <= 0:
            snap = (0, 0, 0, 0, 0)
            segments = ((0, n_acc),)
        elif split < n_acc:
            segments = ((0, split), (split, n_acc))
        else:
            segments = ((0, n_acc),)
        for a, b in segments:
            if a:
                snap = (h_rd, h_wt, n_exp, n_dead, n_ref)
            for tck, cyc, tag, wr in zip(
                ticks[a:b], cycles[a:b], tags[a:b], writes[a:b]
            ):
                recent = None
                if cyc >= nxt:
                    nxt = INF
                    for w in ways:
                        x = ex[w]
                        if cyc >= x:
                            if acc_mode:
                                age = int(x) - fc[w]
                                if age > 0:
                                    count = age // div[w]
                                    if acc_mode == 2 and count > cap[w]:
                                        count = cap[w]
                                    n_ref += count
                            if dt is not None and dt[w]:
                                push_key((key_base + tck) * (n_ways + 1) + w)
                                push_cycle(int(x))
                                dt[w] = False
                            if aware:
                                if recent is None:
                                    recent = {row[w]}
                                else:
                                    recent.add(row[w])
                                row[w] = -1
                                rc[w] = ik[w]
                            else:
                                st[w] = True
                            ex[w] = INF
                        elif x < nxt:
                            nxt = x

                try:
                    way = row.index(tag)
                except ValueError:
                    way = -1
                if wr and not write_back:
                    # Write-through, no-write-allocate store path.
                    if way >= 0 and (st is None or not st[way]):
                        rc[way] = tck + 1
                        h_wt += 1
                    continue
                if way >= 0:
                    if st is not None and st[way]:
                        # Expired miss: the line refills in place.
                        n_exp += 1
                        st[way] = False
                        if dt is not None:
                            dt[way] = wr
                        fc[way] = cyc
                        x = cyc + life[way]
                        ex[way] = x
                        if x < nxt:
                            nxt = x
                        rc[way] = tck + 1
                        continue
                    h_rd += 1
                    rc[way] = tck + 1
                    if wr:
                        dt[way] = True
                    continue

                # Miss: the smallest victim key wins (see _replay_lanes).
                victim = 0
                best = rc[0]
                for w in ways:
                    if rc[w] < best:
                        victim = w
                        best = rc[w]
                if best >= DEAD:
                    n_dead += 1
                    continue
                if row[victim] >= 0 and (st is None or not st[victim]):
                    if acc_mode:
                        age = cyc - fc[victim]
                        if age > 0:
                            count = age // div[victim]
                            if acc_mode == 2 and count > cap[victim]:
                                count = cap[victim]
                            n_ref += count
                    if dt is not None and dt[victim]:
                        push_key(
                            (key_base + tck) * (n_ways + 1) + n_ways
                        )
                        push_cycle(cyc)
                if recent is not None and tag in recent:
                    n_exp += 1
                row[victim] = tag
                if st is not None:
                    st[victim] = False
                if dt is not None:
                    dt[victim] = wr
                fc[victim] = cyc
                x = cyc + life[victim]
                ex[victim] = x
                if x < nxt:
                    nxt = x
                rc[victim] = tck + 1

        if snap is None:
            # Every reference of this stream fell inside the warmup.
            snap = (h_rd, h_wt, n_exp, n_dead, n_ref)
        self.counts[:, chip] += (
            h_rd - snap[0], h_wt - snap[1], n_exp - snap[2],
            n_dead - snap[3], n_ref - snap[4],
        )
        self.tags[at] = row
        self.expiry[at] = ex
        self.fill[at] = fc
        self.recency[at] = rc
        if st is not None:
            self.stale[at] = st
        if dt is not None:
            self.dirty[at] = dt


# ----------------------------------------------------------------------
# batched evaluation API
# ----------------------------------------------------------------------


def _resolve_suite(suite):
    """Turn ``suite`` into an Evaluator (the object hosting the traces).

    Accepts an :class:`~repro.core.evaluation.Evaluator`, anything with a
    ``build()`` method returning one (e.g.
    :class:`~repro.engine.parallel.EvaluatorSpec`), or ``None`` for the
    default 32nm suite.
    """
    from repro.core.evaluation import Evaluator

    if suite is None:
        from repro.technology.node import NODE_32NM

        return Evaluator(NODE_32NM)
    if isinstance(suite, Evaluator):
        return suite
    build = getattr(suite, "build", None)
    if callable(build):
        evaluator = build()
        if isinstance(evaluator, Evaluator):
            return evaluator
    raise ConfigurationError(
        "suite must be an Evaluator, an object whose .build() returns "
        f"one, or None; got {type(suite).__name__}"
    )


#: Placeholder for a (chip, scheme) cell no batch has evaluated yet.
_PENDING = object()


def evaluate_many(
    chips: Sequence,
    schemes: Sequence,
    suite=None,
    *,
    benchmarks: Optional[Sequence[str]] = None,
):
    """Evaluate every (chip, scheme) pair against the benchmark suite.

    Parameters
    ----------
    chips:
        :class:`~repro.array.chip.DRAM3T1DChipSample` instances.
    schemes:
        :class:`~repro.core.schemes.RetentionScheme` objects or
        paper-style names.
    suite:
        The benchmark suite: an
        :class:`~repro.core.evaluation.Evaluator` (traces and per-trace
        artifacts are precomputed once on it and shared by every pair),
        an ``EvaluatorSpec``-like object with ``build()``, or ``None``
        for the default suite.
    benchmarks:
        Optional benchmark subset (default: the suite's full set).

    Every scheme on the ``"flattened"`` path replays each benchmark once
    for the whole batch on the chip-lane kernel (:func:`simulate_lanes`);
    other schemes evaluate chip by chip.  A batch gives the same results
    as its chips evaluated one at a time.

    Returns
    -------
    A list with one row per chip; each row holds one
    :class:`~repro.core.evaluation.ChipEvaluation` per scheme, in order,
    or ``None`` where the chip is discarded under that scheme (the
    global scheme's retention rule).
    """
    from repro.core.architecture import Cache3T1DArchitecture
    from repro.core.schemes import RetentionScheme, get_scheme

    evaluator = _resolve_suite(suite)
    scheme_objs = [
        scheme if isinstance(scheme, RetentionScheme) else get_scheme(scheme)
        for scheme in schemes
    ]
    results: List[List] = [[_PENDING] * len(scheme_objs) for _ in chips]
    if evaluator.use_batch_kernel:
        # Flattened-path schemes replay every benchmark once for the
        # whole batch on chip lanes; the rest fall through per chip.
        for index, scheme in enumerate(scheme_objs):
            architectures = [
                Cache3T1DArchitecture(chip, scheme, config=evaluator.config)
                for chip in chips
            ]
            operable = [
                row for row, architecture in enumerate(architectures)
                if architecture.is_operable()
            ]
            if not operable:
                continue
            evaluations = evaluator.evaluate_lanes(
                [architectures[row] for row in operable],
                benchmarks=benchmarks,
            )
            if evaluations is None:
                continue
            for row in range(len(chips)):
                results[row][index] = None
            for row, evaluation in zip(operable, evaluations):
                results[row][index] = evaluation
    for chip, row in zip(chips, results):
        if all(cell is not _PENDING for cell in row):
            continue
        with _trace_span(
            "evaluate_schemes", cat="kernel",
            chip_id=getattr(chip, "chip_id", -1), schemes=len(scheme_objs),
        ):
            for index, scheme in enumerate(scheme_objs):
                if row[index] is not _PENDING:
                    continue
                try:
                    architecture = Cache3T1DArchitecture(
                        chip, scheme, config=evaluator.config
                    )
                    row[index] = evaluator.evaluate(
                        architecture, benchmarks=benchmarks
                    )
                except ChipDiscardedError:
                    row[index] = None
    return results


def evaluate(
    chip,
    scheme,
    suite=None,
    *,
    benchmarks: Optional[Sequence[str]] = None,
):
    """Evaluate one (chip, scheme) pair; the single-pair facade entry.

    Raises :class:`~repro.errors.ChipDiscardedError` when the chip
    cannot operate under the scheme (use :func:`evaluate_many` to get
    ``None`` markers instead of exceptions over a batch).
    """
    result = evaluate_many([chip], [scheme], suite, benchmarks=benchmarks)
    evaluation = result[0][0]
    if evaluation is None:
        from repro.core.schemes import RetentionScheme, get_scheme

        name = (
            scheme.name if isinstance(scheme, RetentionScheme)
            else get_scheme(scheme).name
        )
        raise ChipDiscardedError(
            f"chip {getattr(chip, 'chip_id', '?')} is discarded under "
            f"scheme {name!r}"
        )
    return evaluation


__all__ = [
    "COLUMN_DTYPE",
    "KERNEL_PATHS",
    "KernelSupport",
    "LaneColumns",
    "TraceArtifacts",
    "simulate_lanes",
    "simulate_trace",
    "kernel_support",
    "evaluate_many",
    "evaluate",
]
