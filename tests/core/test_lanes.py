"""The chip-lane kernel: packing, identity, dispatch, and memory."""

import tracemalloc

import numpy as np
import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.technology import NODE_32NM
from repro.variation import VariationParams
from repro.array import ChipSampler
from repro.core import (
    Cache3T1DArchitecture,
    Evaluator,
    evaluate_many,
)
from repro.core.batcheval import simulate_lanes, simulate_trace
from repro.core.schemes import (
    HEADLINE_SCHEMES,
    SCHEME_GLOBAL,
    get_scheme,
)
from repro.engine.trace import Tracer, activate


@pytest.fixture(scope="module")
def evaluator():
    return Evaluator(NODE_32NM, n_references=1500, seed=13)


@pytest.fixture(scope="module")
def chips():
    sampler = ChipSampler(NODE_32NM, VariationParams.severe(), seed=31)
    return sampler.sample_3t1d_chips(6)


def _caches(chips, scheme, config):
    return [
        Cache3T1DArchitecture(chip, get_scheme(scheme), config=config)
        .build_cache()
        for chip in chips
    ]


class TestLaneColumns:
    def test_packs_each_sets_stream_step_major(self, evaluator):
        artifacts = evaluator.trace_artifacts("gcc", 256)
        lanes = artifacts.lane_columns()
        assert lanes is artifacts.lane_columns()  # cached
        assert np.all(np.diff(lanes.lengths) <= 0)
        assert int(lanes.offsets[-1]) == len(artifacts)
        set_of = np.asarray(artifacts.set_indices)
        for lane in (0, 1, len(lanes.sets) - 1):
            steps = np.arange(int(lanes.lengths[lane]))
            ticks = lanes.ticks[lanes.offsets[steps] + lane]
            # The lane's k-th entry is its set's k-th reference.
            assert np.all(set_of[ticks] == lanes.sets[lane])
            assert np.all(np.diff(ticks) > 0)
        widths = np.diff(lanes.offsets)
        assert np.all(np.diff(widths) <= 0)
        assert widths[0] == len(lanes.sets)

    def test_lane_columns_are_o_references(self, evaluator):
        artifacts = evaluator.trace_artifacts("fma3d", 256)
        lanes = artifacts.lane_columns()
        n = len(artifacts)
        steps = len(lanes.offsets) - 1
        # No steps x sets padding: every column holds one entry per
        # reference, and the per-step offsets one per step.
        for name in ("ticks", "cycles", "tags", "writes"):
            assert getattr(lanes, name).size == n
        assert lanes.sets.size == lanes.lengths.size <= 256
        assert steps <= n
        elements = sum(
            getattr(lanes, name).size
            for name in ("sets", "lengths", "offsets", "ticks", "cycles",
                         "tags", "writes")
        )
        assert elements <= 5 * n + 2 * 256 + 1
        assert steps * len(lanes.sets) > 4 * n  # padding would be larger
        assert sum(
            column.nbytes for column in vars(lanes).values()
        ) <= 26 * n


class TestSimulateLanes:
    @pytest.mark.parametrize("scheme", [
        "no-refresh/LRU", "partial-refresh/DSP", "full-refresh/LRU",
        "no-refresh/DSP",
    ])
    def test_matches_event_controller_per_chip(
        self, scheme, chips, evaluator
    ):
        caches = _caches(chips, scheme, evaluator.config)
        for bench in ("gcc", "mcf"):
            artifacts = evaluator.trace_artifacts(bench, 256)
            trace = evaluator.trace(bench)
            assert simulate_lanes(caches, artifacts) == [
                cache.run_trace(
                    trace.cycles, trace.line_addresses, trace.is_write,
                    warmup_references=trace.warmup_references,
                )
                for cache in _caches(chips, scheme, evaluator.config)
            ]
            # A single flattened-path replay is a one-chip lane batch.
            assert simulate_trace(caches[0], artifacts) == simulate_lanes(
                caches[:1], artifacts
            )[0]

    def test_rejects_timeline_path_and_mixed_batches(self, chips, evaluator):
        artifacts = evaluator.trace_artifacts("gcc", 256)
        with pytest.raises(ConfigurationError, match="flattened"):
            simulate_lanes(
                _caches(chips[:2], "RSP-FIFO", evaluator.config), artifacts
            )
        mixed = (
            _caches(chips[:1], "no-refresh/LRU", evaluator.config)
            + _caches(chips[1:2], "partial-refresh/DSP", evaluator.config)
        )
        with pytest.raises(ConfigurationError, match="share"):
            simulate_lanes(mixed, artifacts)
        with pytest.raises(ConfigurationError, match="sets"):
            simulate_lanes(
                _caches(chips[:2], "no-refresh/LRU", evaluator.config),
                evaluator.trace_artifacts("gcc", 128),
            )
        used = _caches(chips[:2], "no-refresh/LRU", evaluator.config)
        used[1].access(0, 5, False)
        with pytest.raises(SimulationError, match="fresh"):
            simulate_lanes(used, artifacts)
        assert simulate_lanes([], artifacts) == []

    def test_lane_replay_adds_under_2_mib_over_one_chip_replays(
        self, evaluator
    ):
        """16 chips on lanes peak < 2 MiB above 16 one-chip replays."""
        sampler = ChipSampler(NODE_32NM, VariationParams.severe(), seed=3)
        chips16 = sampler.sample_3t1d_chips(16)
        wide = Evaluator(NODE_32NM, n_references=8000, seed=13)
        for scheme in ("no-refresh/LRU", "partial-refresh/DSP"):
            caches = _caches(chips16, scheme, wide.config)
            artifacts = wide.trace_artifacts("mcf", 256)
            # Warm the memoised per-trace and per-cache inputs first.
            simulate_lanes(caches, artifacts)
            [simulate_trace(cache, artifacts) for cache in caches]

            tracemalloc.start()
            try:
                lanes = simulate_lanes(caches, artifacts)
                lane_peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                tracemalloc.start()
                single = [simulate_trace(cache, artifacts) for cache in caches]
                single_peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert lanes == single
            assert lane_peak - single_peak < 2 * 2**20, scheme


class TestEvaluateManyDispatch:
    def _spans(self, tracer, name):
        return [s for s in tracer.spans() if s.name == name]

    def test_lane_batch_equals_chip_by_chip(self, chips, evaluator):
        schemes = (SCHEME_GLOBAL,) + HEADLINE_SCHEMES
        tracer = Tracer()
        with activate(tracer):
            batched = evaluate_many(
                chips, schemes, evaluator, benchmarks=("gcc", "twolf")
            )
        lanes = self._spans(tracer, "replay_lanes")
        assert lanes, "flattened-path schemes take the lanes"
        for lane_span in lanes:
            args = dict(lane_span.args)
            assert lane_span.cat == "kernel"
            assert args["path"] == "flattened"
            # Chips the global scheme discards drop out of its batch.
            assert 1 <= args["chips"] <= len(chips)
        assert max(dict(s.args)["chips"] for s in lanes) == len(chips)
        single = [
            evaluate_many([chip], schemes, evaluator,
                          benchmarks=("gcc", "twolf"))[0]
            for chip in chips
        ]
        assert batched == single
        # Discard markers survive the batch path.
        assert [row[0] is None for row in batched] == [
            row[0] is None for row in single
        ]
        for row in batched:
            for evaluation in row[1:]:
                assert set(evaluation.kernel_paths.values()) <= {
                    "flattened", "timeline"
                }

    def test_single_chips_replay_as_one_chip_batches(self, chips, evaluator):
        tracer = Tracer()
        with activate(tracer):
            evaluate_many(
                chips[:1], HEADLINE_SCHEMES, evaluator, benchmarks=("gcc",),
            )
        lanes = self._spans(tracer, "replay_lanes")
        assert lanes
        assert {dict(s.args)["chips"] for s in lanes} == {1}

    def test_phase_table_reports_chip_reference_rate(self, chips, evaluator):
        tracer = Tracer()
        with activate(tracer):
            evaluate_many(
                chips, HEADLINE_SCHEMES[:1], evaluator, benchmarks=("gcc",)
            )
        entry = tracer.phase_table()["phases"]["kernel"]["by_name"][
            "replay_lanes"
        ]
        refs = len(evaluator.trace("gcc"))
        assert entry["chip_references"] == len(chips) * refs
        assert entry["chip_references_per_s"] > 0
