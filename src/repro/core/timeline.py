"""Timeline replay kernels for the former fallback schemes.

:mod:`repro.core.batcheval`'s flattened kernel covers stationary
placement (LRU/DSP) with closed-form refresh accounting.  The schemes it
used to reject -- RSP-FIFO/RSP-LRU block moves, the online token-refresh
engine, and the real L2 simulator -- run here, through two kernels that
are **bit-identical** to ``RetentionAwareCache.run_trace``:

* :func:`_replay_rsp_sets` -- RSP placement without devices.  RSP never
  reads recency and every interaction is set-local, so the trace's
  columnar form (:meth:`TraceArtifacts.set_streams`) is replayed one set
  at a time over position-space state (slot ``p`` = the ``p``-th
  longest-retention live way).  Per-line retention-expiry timelines are
  precomputed as interval arithmetic: a single ``next_expiry`` bound per
  set makes the "is this line still alive?" check one compare, and
  warm-up is a per-set counter snapshot instead of a mid-trace reset.
  Cross-set effects -- the single shared write buffer -- are reconciled
  afterwards by replaying the collected write-back events in global
  program order.
* :func:`_replay_with_devices` -- any supported placement coupled to the
  token engine and/or the real L2.  Device interactions are sequential
  in program order, so this kernel keeps global order but batches the
  expensive parts: expiry sweeps are skipped until a set's earliest
  expiry, and token drains are skipped until the engine's earliest
  armed deadline (:meth:`TokenRefreshEngine.earliest_due`), which is
  sound because a token service never *shortens* a line's timeline
  (``can_sustain`` guarantees the post-service expiry exceeds the
  pre-service one).

Both kernels treat the passed cache as a read-only configuration source,
exactly like the flattened kernel; fresh engine/L2 device instances are
built from the cache's own device parameters.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, List, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.cache.refresh import GlobalRefresh, PartialRefresh
from repro.cache.replacement import DSPPolicy, RSPFIFOPolicy, RSPLRUPolicy
from repro.cache.setassoc import SetAssociativeCache
from repro.cache.stats import CacheStats
from repro.cache.token import TokenRefreshEngine
from repro.core.batcheval import _replay_setup, _write_buffer_stall

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cache.controller import RetentionAwareCache
    from repro.core.batcheval import TraceArtifacts


def simulate_trace_timeline(
    cache: "RetentionAwareCache", artifacts: "TraceArtifacts"
) -> CacheStats:
    """Replay a trace on the timeline path; called via ``simulate_trace``.

    Validation (support, fresh cache, matching geometry) happens in the
    dispatcher; this routine only picks the specialized kernel.
    """
    if cache.refresh_engine is not None or cache.l2_cache is not None:
        return _replay_with_devices(cache, artifacts)
    replacement = type(cache.replacement)
    if replacement not in (RSPFIFOPolicy, RSPLRUPolicy):
        raise ConfigurationError(
            "the timeline kernel handles RSP placement or device-coupled "
            f"(token/L2) caches; {cache.replacement.name!r} without "
            "devices belongs on the flattened kernel"
        )
    return _replay_rsp_sets(
        cache, artifacts, promote=replacement is RSPLRUPolicy
    )


def _replay_rsp_sets(
    cache: "RetentionAwareCache", artifacts: "TraceArtifacts", promote: bool
) -> CacheStats:
    """RSP-FIFO / RSP-LRU without devices, one set at a time."""
    config = cache.config
    geometry = config.geometry
    n_sets = geometry.n_sets
    refresh = cache.refresh
    write_back = config.write_back
    refresh_cpl = geometry.refresh_cycles_per_line

    setup = _replay_setup(cache)
    acc_mode = setup.acc_mode
    maxref_by_r = setup.maxref_by_r
    rsp_sets = setup.rsp_sets

    INF = math.inf
    warm = artifacts.warmup_references
    end_cycle = artifacts.end_cycle
    streams = artifacts.set_streams()

    # Global (whole-trace) accumulators; per-set counters merge into
    # them with their pre-warmup prefix subtracted (every counter is
    # monotone within a set, so a snapshot at the warmup split is exact).
    g_hits = g_mc = g_me = g_md = 0
    g_wb = g_ewb = g_wt = g_l2a = g_lref = g_rblk = 0
    g_moves = g_mblk = g_fills = 0

    # Write-back arrivals (global reference index, emission order, cycle)
    # for the shared write buffer, replayed in program order afterwards.
    push_events: List[Tuple[int, int, int]] = []
    seq = 0

    for s in range(n_sets):
        stream = streams[s]
        if stream is None:
            continue
        order, retp, life, sweep_pos = rsp_sets[s]
        n_live = len(order)

        # Position-space line state: slot p holds the block currently in
        # the p-th longest-retention live way (-1 = invalid).
        prow = [-1] * n_live
        pdirty = [False] * n_live
        pfill = [0] * n_live
        pexp = [0.0] * n_live
        nxt_exp = INF

        ticks_s, cycs, tags_s, wrs_s, split = stream
        n_acc = len(cycs)
        h = mc = me = md = wb = ewb = wt = l2a = 0
        lref = rblk = mv = mblk = fl = 0
        # Counter snapshot at the warmup split (loads/stores are
        # state-independent and counted globally from the columnar
        # write flags instead).
        snap = None
        if split <= 0:
            snap = (0,) * 13
            segments = ((0, n_acc),)
        elif split < n_acc:
            segments = ((0, split), (split, n_acc))
        else:
            segments = ((0, n_acc),)

        def _promote(position, cyc):
            """RSPLRUPolicy.on_hit + controller.promote_line, slot-space."""
            nonlocal mv, mblk, nxt_exp, lref, rblk
            stash_tag = prow[position]
            stash_dirty = pdirty[position]
            prow[position] = -1
            for i in range(position, 0, -1):
                src = i - 1
                tag_src = prow[src]
                if tag_src >= 0:
                    if acc_mode:
                        age = cyc - pfill[src]
                        if age < 0:
                            age = 0
                        r = retp[src]
                        count = age // r
                        if acc_mode == 2:
                            cap = maxref_by_r[r]
                            if count > cap:
                                count = cap
                        if count:
                            lref += count
                            rblk += count * refresh_cpl
                    prow[i] = tag_src
                    prow[src] = -1
                    pdirty[i] = pdirty[src]
                    pdirty[src] = False
                    pfill[i] = cyc
                    e2 = cyc + life[i]
                    pexp[i] = e2
                    if e2 < nxt_exp:
                        nxt_exp = e2
                    mv += 1
                    mblk += refresh_cpl
            prow[0] = stash_tag
            pdirty[0] = stash_dirty
            pfill[0] = cyc
            e2 = cyc + life[0]
            pexp[0] = e2
            if e2 < nxt_exp:
                nxt_exp = e2
            mv += 1
            mblk += refresh_cpl

        for a, b in segments:
            if a:
                # Measurement begins: snapshot the warmup prefix.
                snap = (h, mc, me, md, wb, ewb, wt, l2a,
                        lref, rblk, mv, mblk, fl)
            for tck, cyc, tag, wr in zip(
                ticks_s[a:b], cycs[a:b], tags_s[a:b], wrs_s[a:b]
            ):
                # Lazy expiry sweep (interval arithmetic on timelines).
                recent = None
                if cyc >= nxt_exp:
                    nxt = INF
                    for p in sweep_pos:
                        if prow[p] >= 0:
                            e = pexp[p]
                            if cyc >= e:
                                if recent is None:
                                    recent = {prow[p]}
                                else:
                                    recent.add(prow[p])
                                if acc_mode:
                                    age = int(e) - pfill[p]
                                    if age < 0:
                                        age = 0
                                    r = retp[p]
                                    count = age // r
                                    if acc_mode == 2:
                                        cap = maxref_by_r[r]
                                        if count > cap:
                                            count = cap
                                    if count:
                                        lref += count
                                        rblk += count * refresh_cpl
                                if pdirty[p]:
                                    wb += 1
                                    ewb += 1
                                    push_events.append((tck, seq, int(e)))
                                    seq += 1
                                    pdirty[p] = False
                                prow[p] = -1
                            elif e < nxt:
                                nxt = e
                    nxt_exp = nxt

                if wr and not write_back:
                    # Write-through, no-write-allocate store path.
                    wt += 1
                    push_events.append((tck, seq, cyc))
                    seq += 1
                    if tag in prow:
                        h += 1
                        if promote:
                            p = prow.index(tag)
                            if p:
                                _promote(p, cyc)
                    else:
                        mc += 1
                    continue

                if tag in prow:
                    h += 1
                    if promote:
                        p = prow.index(tag)
                        if p:
                            _promote(p, cyc)
                        if wr:
                            # After promotion the line sits in slot 0.
                            pdirty[0] = True
                    elif wr:
                        pdirty[prow.index(tag)] = True
                    continue

                # Miss: classify by resident-but-expired tags.
                l2a += 1
                if n_live == 0:
                    md += 1
                    continue
                expired = recent is not None and tag in recent
                # RSPFIFOPolicy.make_room: shift the chain down from the
                # deepest free slot (evicting the tail when full).
                depth = n_live - 1
                for position in range(depth, -1, -1):
                    if prow[position] < 0:
                        depth = position
                        break
                else:
                    tail = n_live - 1
                    if acc_mode:
                        age = cyc - pfill[tail]
                        if age < 0:
                            age = 0
                        r = retp[tail]
                        count = age // r
                        if acc_mode == 2:
                            cap = maxref_by_r[r]
                            if count > cap:
                                count = cap
                        if count:
                            lref += count
                            rblk += count * refresh_cpl
                    if pdirty[tail]:
                        wb += 1
                        push_events.append((tck, seq, cyc))
                        seq += 1
                        pdirty[tail] = False
                    prow[tail] = -1
                    depth = tail
                for position in range(depth, 0, -1):
                    src = position - 1
                    tag_src = prow[src]
                    if tag_src >= 0:
                        if acc_mode:
                            age = cyc - pfill[src]
                            if age < 0:
                                age = 0
                            r = retp[src]
                            count = age // r
                            if acc_mode == 2:
                                cap = maxref_by_r[r]
                                if count > cap:
                                    count = cap
                            if count:
                                lref += count
                                rblk += count * refresh_cpl
                        prow[position] = tag_src
                        prow[src] = -1
                        pdirty[position] = pdirty[src]
                        pdirty[src] = False
                        pfill[position] = cyc
                        e = cyc + life[position]
                        pexp[position] = e
                        if e < nxt_exp:
                            nxt_exp = e
                        mv += 1
                        mblk += refresh_cpl
                if expired:
                    me += 1
                else:
                    mc += 1
                prow[0] = tag
                pdirty[0] = wr
                pfill[0] = cyc
                e = cyc + life[0]
                pexp[0] = e
                if e < nxt_exp:
                    nxt_exp = e
                fl += 1

        if snap is None:
            # Every access of this set fell inside the warmup prefix.
            snap = (h, mc, me, md, wb, ewb, wt, l2a,
                    lref, rblk, mv, mblk, fl)
        g_hits += h - snap[0]
        g_mc += mc - snap[1]
        g_me += me - snap[2]
        g_md += md - snap[3]
        g_wb += wb - snap[4]
        g_ewb += ewb - snap[5]
        g_wt += wt - snap[6]
        g_l2a += l2a - snap[7]
        g_lref += lref - snap[8]
        g_rblk += rblk - snap[9]
        g_moves += mv - snap[10]
        g_mblk += mblk - snap[11]
        g_fills += fl - snap[12]

        # Finalize: refreshes still owed by this set's resident lines
        # (post-warmup by construction: finalize runs after the reset).
        if acc_mode:
            for p in range(n_live):
                if prow[p] >= 0:
                    e = pexp[p]
                    cutoff = end_cycle if e > end_cycle else e
                    age = int(cutoff) - pfill[p]
                    if age < 0:
                        age = 0
                    r = retp[p]
                    count = age // r
                    if acc_mode == 2:
                        cap = maxref_by_r[r]
                        if count > cap:
                            count = cap
                    if count:
                        g_lref += count
                        g_rblk += count * refresh_cpl

    if type(refresh) is GlobalRefresh:
        passes = refresh.passes_in_window(end_cycle)
        g_lref += passes * geometry.n_lines
        g_rblk += passes * refresh.pass_cycles

    # loads/stores are state-independent: count them from the columnar
    # write flags instead of branching once per access in the set loops.
    n_total = len(artifacts.cycles)
    measured_from = warm if warm < n_total else n_total
    writes_col = artifacts.columnar()["write"]
    g_stores = int(np.count_nonzero(writes_col[measured_from:]))
    g_loads = (n_total - measured_from) - g_stores

    # The single shared write buffer: replay every write-back arrival in
    # program order.  Ties share a reference index only within one set,
    # so (tick, emission order) reproduces the controller's sequence.
    push_events.sort()
    wb_stall = _write_buffer_stall(
        [tick for tick, _seq, _cycle in push_events],
        [cycle for _tick, _seq, cycle in push_events],
        warm, config,
    )

    return CacheStats(
        loads=g_loads,
        stores=g_stores,
        hits=g_hits,
        misses_cold=g_mc,
        misses_expired=g_me,
        misses_dead_bypass=g_md,
        writebacks=g_wb,
        expiry_writebacks=g_ewb,
        write_throughs=g_wt,
        l2_accesses=g_l2a,
        l2_hits=0,
        l2_misses=0,
        line_refreshes=g_lref,
        refresh_blocked_cycles=g_rblk,
        line_moves=g_moves,
        move_blocked_cycles=g_mblk,
        write_buffer_stall_cycles=wb_stall,
        fills=g_fills,
    )


def _replay_with_devices(
    cache: "RetentionAwareCache", artifacts: "TraceArtifacts"
) -> CacheStats:
    """Global-order replay coupled to the token engine / real L2.

    Handles all four placement policies.  Fresh device instances are
    built from the cache's own device parameters (the passed cache stays
    untouched); drains and sweeps are batched behind earliest-deadline
    bounds so idle stretches cost nothing.
    """
    config = cache.config
    geometry = config.geometry
    n_sets = geometry.n_sets
    n_ways = geometry.ways
    n_lines = n_sets * n_ways
    refresh = cache.refresh
    replacement = type(cache.replacement)
    rsp = replacement in (RSPFIFOPolicy, RSPLRUPolicy)
    promote = replacement is RSPLRUPolicy
    dsp = replacement is DSPPolicy
    aware = cache.replacement.uses_retention_info
    write_back = config.write_back
    refresh_cpl = geometry.refresh_cycles_per_line

    setup = _replay_setup(cache)
    retention = setup.retention
    distinct = setup.life_by_r.keys()

    engine = None
    margin = 0
    if cache.refresh_engine is not None:
        engine = TokenRefreshEngine(
            geometry, margin_cycles=cache.refresh_engine.margin_cycles
        )
        margin = engine.margin_cycles
    l2sim = None
    if cache.l2_cache is not None:
        source = cache.l2_cache
        l2sim = SetAssociativeCache(
            capacity_bytes=source.capacity_bytes,
            line_bytes=source.line_bytes,
            ways=source.ways,
            assume_warm=source.assume_warm,
        )

    partial = type(refresh) is PartialRefresh
    threshold = refresh.threshold_cycles if partial else 0
    maxref_by_r = (
        {r: refresh.max_refreshes(r) for r in distinct} if partial else {}
    )
    if engine is not None:
        # Between token services the data lives exactly one retention
        # period; services are counted online, so lazy accounting is off.
        acc_mode = 0
        lifetime: List[float] = [float(r) for r in retention]
    else:
        lifetime = setup.lifetime
        acc_mode = setup.acc_mode

    set_tags: List[List[int]] = [[-1] * n_ways for _ in range(n_sets)]
    valid = [False] * n_lines
    dirty = [False] * n_lines
    stale = [False] * n_lines
    fill_c = [0] * n_lines
    expiry = [0.0] * n_lines
    recency = [0] * n_lines
    refreshes_done = [0] * n_lines
    INF = math.inf
    next_expiry = [INF] * n_sets
    orders = setup.orders

    loads = stores = hits = misses_cold = misses_expired = 0
    misses_dead = writebacks = expiry_wb = write_throughs = 0
    l2_acc = l2_hits = l2_misses = line_refreshes = refresh_blocked = 0
    line_moves = move_blocked = wb_stall = fills = 0
    next_due = INF

    wb_queued = 0
    wb_last = 0.0
    wb_cap = config.write_buffer_entries
    wb_drain = config.l2_write_interval_cycles

    def _push(cycle):
        """WriteBuffer.push: drain lazily, stall when full; returns stall."""
        nonlocal wb_queued, wb_last
        if cycle < wb_last:
            cycle = wb_last
        drained = int((cycle - wb_last) // wb_drain)
        if drained:
            wb_queued -= drained
            if wb_queued < 0:
                wb_queued = 0
        wb_last = cycle
        if wb_queued >= wb_cap:
            wb_queued = wb_cap
            return wb_drain
        wb_queued += 1
        return 0

    def _account(age, r):
        """Lazy refresh accounting (no-op while the engine is online)."""
        nonlocal line_refreshes, refresh_blocked
        if not acc_mode or r <= 0:
            return
        count = age // r
        if acc_mode == 2:
            cap = maxref_by_r[r]
            if count > cap:
                count = cap
        if count:
            line_refreshes += count
            refresh_blocked += count * refresh_cpl

    def _sched(s, w, j, cycle):
        """Controller._maybe_schedule_refresh, tracking the due bound."""
        nonlocal next_due
        r = retention[j]
        if r <= 0:
            return
        if partial:
            if r >= threshold or refreshes_done[j] >= maxref_by_r[r]:
                return
        if engine.schedule(s, w, n_ways, cycle, r):
            due = cycle + r - margin
            if due < next_due:
                next_due = due

    def _drain(now):
        """Controller._service_scheduled_refreshes + due-bound refresh."""
        nonlocal next_due, line_refreshes, refresh_blocked
        while True:
            serviced = engine.due_refreshes(now)
            if not serviced:
                break
            for service, si, w in serviced:
                j = si * n_ways + w
                if not valid[j] or stale[j]:
                    continue
                r = retention[j]
                fill_c[j] = service
                e = service + r
                expiry[j] = e
                if e < next_expiry[si]:
                    next_expiry[si] = e
                refreshes_done[j] += 1
                line_refreshes += 1
                refresh_blocked += refresh_cpl
                _sched(si, w, j, service)
        earliest = engine.earliest_due()
        next_due = earliest if earliest is not None else INF

    def _writeback(s, w, j, cycle, expired):
        """The dirty write-back half of a line close-out / expiry."""
        nonlocal writebacks, expiry_wb, wb_stall
        writebacks += 1
        if expired:
            expiry_wb += 1
        if l2sim is not None:
            l2sim.fill_dirty(set_tags[s][w] * n_sets + s)
        wb_stall += _push(cycle)
        dirty[j] = False

    def _evict(s, w, j, cycle):
        """Controller.evict_line on a valid way."""
        if stale[j]:
            # Expiry already accounted refreshes and any write-back.
            valid[j] = False
            stale[j] = False
            dirty[j] = False
            set_tags[s][w] = -1
            return
        age = cycle - fill_c[j]
        if age < 0:
            age = 0
        _account(age, retention[j])
        if engine is not None:
            engine.cancel(s, w)
        if dirty[j]:
            _writeback(s, w, j, cycle, False)
        valid[j] = False
        set_tags[s][w] = -1

    def _move(s, src, dst, cycle):
        """Controller.move_line (RSP intrinsic refresh)."""
        nonlocal line_moves, move_blocked
        base = s * n_ways
        jsrc = base + src
        jdst = base + dst
        age = cycle - fill_c[jsrc]
        if age < 0:
            age = 0
        _account(age, retention[jsrc])
        row = set_tags[s]
        row[dst] = row[src]
        row[src] = -1
        dirty[jdst] = dirty[jsrc]
        dirty[jsrc] = False
        recency[jdst] = recency[jsrc]
        fill_c[jdst] = cycle
        e = cycle + lifetime[jdst]
        expiry[jdst] = e
        if e < next_expiry[s]:
            next_expiry[s] = e
        valid[jdst] = True
        valid[jsrc] = False
        refreshes_done[jdst] = 0
        if engine is not None:
            engine.cancel(s, src)
            _sched(s, dst, jdst, cycle)
        line_moves += 1
        move_blocked += refresh_cpl

    def _promote(s, way, j, cycle):
        """RSPLRUPolicy.on_hit + controller.promote_line."""
        nonlocal line_moves, move_blocked
        order = orders[s]
        if not order or way == order[0]:
            return
        try:
            position = order.index(way)
        except ValueError:
            return
        base = s * n_ways
        row = set_tags[s]
        stash_tag = row[way]
        stash_dirty = dirty[j]
        stash_rec = recency[j]
        valid[j] = False
        row[way] = -1
        for i in range(position, 0, -1):
            src, dst = order[i - 1], order[i]
            if valid[base + src]:
                _move(s, src, dst, cycle)
        landing = order[0]
        jl = base + landing
        row[landing] = stash_tag
        dirty[jl] = stash_dirty
        recency[jl] = stash_rec
        fill_c[jl] = cycle
        e = cycle + lifetime[jl]
        expiry[jl] = e
        if e < next_expiry[s]:
            next_expiry[s] = e
        valid[jl] = True
        # The landing slot keeps the controller's quirk: no engine
        # cancel/re-arm and no refreshes_done reset on promotion landing.
        line_moves += 1
        move_blocked += refresh_cpl

    cycles = artifacts.cycles
    sets_in = artifacts.set_indices
    tags_in = artifacts.tags
    writes_in = artifacts.is_write
    n = len(cycles)
    warm = artifacts.warmup_references
    tick = 0

    if 0 < warm < n:
        segments = ((0, warm), (warm, n))
    else:
        segments = ((0, n),)
    for start, stop in segments:
        if start:
            # Measurement begins: drop the warmup counts (state persists).
            loads = stores = hits = misses_cold = misses_expired = 0
            misses_dead = writebacks = expiry_wb = write_throughs = 0
            l2_acc = l2_hits = l2_misses = line_refreshes = 0
            refresh_blocked = line_moves = move_blocked = 0
            wb_stall = fills = 0
        for cyc, s, tag, wr in zip(
            cycles[start:stop],
            sets_in[start:stop],
            tags_in[start:stop],
            writes_in[start:stop],
        ):
            tick += 1
            if engine is not None and cyc >= next_due:
                _drain(cyc)

            base = s * n_ways
            row = set_tags[s]

            # Lazy per-set expiry sweep, in controller way order.
            recent = None
            if cyc >= next_expiry[s]:
                nxt = INF
                for w in range(n_ways):
                    j = base + w
                    if valid[j] and not stale[j]:
                        e = expiry[j]
                        if cyc >= e:
                            t = row[w]
                            if recent is None:
                                recent = {t}
                            else:
                                recent.add(t)
                            ecyc = int(e)
                            age = ecyc - fill_c[j]
                            if age < 0:
                                age = 0
                            _account(age, retention[j])
                            if engine is not None:
                                engine.cancel(s, w)
                            if dirty[j]:
                                _writeback(s, w, j, ecyc, True)
                            if aware:
                                valid[j] = False
                                row[w] = -1
                            else:
                                stale[j] = True
                        elif e < nxt:
                            nxt = e
                next_expiry[s] = nxt

            if wr and not write_back:
                # Write-through, no-write-allocate store path.
                write_throughs += 1
                if l2sim is not None:
                    l2sim.fill_dirty(tag * n_sets + s)
                wb_stall += _push(cyc)
                try:
                    w = row.index(tag)
                except ValueError:
                    w = -1
                if w >= 0:
                    j = base + w
                    if not stale[j]:
                        recency[j] = tick
                        hits += 1
                        if promote:
                            _promote(s, w, j, cyc)
                        continue
                misses_cold += 1
                continue

            # Hits vastly outnumber misses, so a single ``index`` scan
            # with an exception fallback beats ``in`` + ``index``.
            try:
                w = row.index(tag)
            except ValueError:
                w = -1
            if w >= 0:
                j = base + w
                if stale[j]:
                    # Expired miss: the line refills in place from the L2.
                    misses_expired += 1
                    l2_acc += 1
                    if l2sim is not None:
                        if l2sim.access(tag * n_sets + s, is_write=False):
                            l2_hits += 1
                        else:
                            l2_misses += 1
                    stale[j] = False
                    dirty[j] = wr
                    fill_c[j] = cyc
                    e = cyc + lifetime[j]
                    expiry[j] = e
                    if e < next_expiry[s]:
                        next_expiry[s] = e
                    recency[j] = tick
                    fills += 1
                    # Controller quirk preserved: an in-place refill does
                    # not re-arm the engine or reset refreshes_done.
                    continue
                hits += 1
                recency[j] = tick
                if wr:
                    dirty[j] = True
                if promote:
                    _promote(s, w, j, cyc)
                continue

            # Miss: classify by whether the tag was resident-but-expired.
            expired = recent is not None and tag in recent
            l2_acc += 1
            if l2sim is not None:
                if l2sim.access(tag * n_sets + s, is_write=False):
                    l2_hits += 1
                else:
                    l2_misses += 1
            if rsp:
                order = orders[s]
                if not order:
                    misses_dead += 1
                    continue
                depth = len(order) - 1
                for position in range(depth, -1, -1):
                    if not valid[base + order[position]]:
                        depth = position
                        break
                else:
                    tail = order[-1]
                    _evict(s, tail, base + tail, cyc)
                    depth = len(order) - 1
                for position in range(depth, 0, -1):
                    src, dst = order[position - 1], order[position]
                    if valid[base + src]:
                        _move(s, src, dst, cyc)
                victim = order[0]
            elif dsp:
                order = orders[s]
                if not order:
                    misses_dead += 1
                    continue
                victim = -1
                for w in order:
                    if not valid[base + w]:
                        victim = w
                        break
                if victim < 0:
                    best = -1
                    best_r = 0
                    for w in order:
                        r_ = recency[base + w]
                        if best < 0 or r_ < best_r:
                            best = w
                            best_r = r_
                    victim = best
                    _evict(s, victim, base + victim, cyc)
            else:  # LRU, retention-blind
                victim = -1
                for w in range(n_ways):
                    if not valid[base + w]:
                        victim = w
                        break
                if victim < 0:
                    best = 0
                    best_r = recency[base]
                    for w in range(1, n_ways):
                        r_ = recency[base + w]
                        if r_ < best_r:
                            best = w
                            best_r = r_
                    victim = best
                    _evict(s, victim, base + victim, cyc)
            if expired:
                misses_expired += 1
            else:
                misses_cold += 1
            j = base + victim
            row[victim] = tag
            valid[j] = True
            stale[j] = False
            dirty[j] = wr
            fill_c[j] = cyc
            e = cyc + lifetime[j]
            expiry[j] = e
            if e < next_expiry[s]:
                next_expiry[s] = e
            recency[j] = tick
            refreshes_done[j] = 0
            fills += 1
            if engine is not None:
                _sched(s, victim, j, cyc)

    if warm and n <= warm:
        loads = stores = hits = misses_cold = misses_expired = 0
        misses_dead = writebacks = expiry_wb = write_throughs = 0
        l2_acc = l2_hits = l2_misses = line_refreshes = 0
        refresh_blocked = line_moves = move_blocked = 0
        wb_stall = fills = 0
    else:
        # loads/stores are state-independent: count them from the columnar
        # write flags instead of branching once per access in the loop.
        measured_from = warm if 0 < warm < n else 0
        writes_col = artifacts.columnar()["write"]
        stores = int(np.count_nonzero(writes_col[measured_from:]))
        loads = (n - measured_from) - stores

    # Finalize: refreshes still owed by resident lines, then the global
    # scheme's whole-cache passes.
    end_cycle = artifacts.end_cycle
    if acc_mode:
        for j in range(n_lines):
            if valid[j] and not stale[j]:
                e = expiry[j]
                cutoff = end_cycle if e > end_cycle else e
                age = int(cutoff) - fill_c[j]
                if age < 0:
                    age = 0
                _account(age, retention[j])
    if type(refresh) is GlobalRefresh:
        passes = refresh.passes_in_window(end_cycle)
        line_refreshes += passes * n_lines
        refresh_blocked += passes * refresh.pass_cycles

    return CacheStats(
        loads=loads,
        stores=stores,
        hits=hits,
        misses_cold=misses_cold,
        misses_expired=misses_expired,
        misses_dead_bypass=misses_dead,
        writebacks=writebacks,
        expiry_writebacks=expiry_wb,
        write_throughs=write_throughs,
        l2_accesses=l2_acc,
        l2_hits=l2_hits,
        l2_misses=l2_misses,
        line_refreshes=line_refreshes,
        refresh_blocked_cycles=refresh_blocked,
        line_moves=line_moves,
        move_blocked_cycles=move_blocked,
        write_buffer_stall_cycles=wb_stall,
        fills=fills,
    )


__all__ = [
    "simulate_trace_timeline",
]
