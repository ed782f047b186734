"""Chip grouping in ParallelChipRunner.evaluate (the lane kernel's feed)."""

import pytest

from repro.engine.config import EngineConfig
from repro.engine.events import ChipCompleted, KernelPathsCollected
from repro.engine.faults import FaultPlan
from repro.engine.parallel import (
    _CHIP_GROUP,
    _MIN_CHIP_GROUP,
    EvalGroup,
    EvalTask,
    EvaluatorSpec,
    ParallelChipRunner,
    _chip_groups,
    run_eval_task,
)
from repro.technology import NODE_32NM
from repro.variation import VariationParams
from repro.array import ChipSampler

SCHEMES = ("no-refresh/LRU", "partial-refresh/DSP", "RSP-FIFO")


@pytest.fixture(scope="module")
def spec():
    return EvaluatorSpec(
        node=NODE_32NM, n_references=600, benchmarks=("gcc", "mcf")
    )


@pytest.fixture(scope="module")
def chips():
    sampler = ChipSampler(NODE_32NM, VariationParams.severe(), seed=17)
    return sampler.sample_3t1d_chips(9)


def _tasks(spec, chips, schemes=SCHEMES):
    return [EvalTask(evaluator=spec, chip=chip, schemes=schemes)
            for chip in chips]


class TestChipGroups:
    def test_runs_split_into_near_equal_groups(self, spec, chips):
        tasks = _tasks(spec, chips[:8])
        work = _chip_groups(tasks)
        assert [len(group.chips) for group in work] == [8]
        assert all(isinstance(group, EvalGroup) for group in work)
        assert [c.chip_id for g in work for c in g.chips] == [
            chip.chip_id for chip in chips[:8]
        ]
        assert [len(g.chips) for g in _chip_groups(_tasks(spec, chips))
                ] == [5, 4]

    def test_short_runs_keep_per_chip_tasks(self, spec, chips):
        tasks = _tasks(spec, chips[:_MIN_CHIP_GROUP - 1])
        assert _chip_groups(tasks) == tasks
        grouped = _chip_groups(_tasks(spec, chips[:_MIN_CHIP_GROUP]))
        assert [len(g.chips) for g in grouped] == [_MIN_CHIP_GROUP]

    def test_group_sizes_depend_on_the_run_alone(self, spec, chips):
        for n in range(_MIN_CHIP_GROUP, 110):
            tasks = _tasks(spec, (list(chips) * 13)[:n])
            sizes = [len(group.chips) for group in _chip_groups(tasks)]
            assert sum(sizes) == n
            assert len(sizes) == -(-n // _CHIP_GROUP)
            assert _MIN_CHIP_GROUP <= min(sizes)
            assert max(sizes) - min(sizes) <= 1
            assert max(sizes) <= _CHIP_GROUP

    def test_runs_break_at_spec_or_scheme_changes(self, spec, chips):
        other = EvaluatorSpec(node=NODE_32NM, n_references=700)
        ideal = EvalTask(evaluator=spec, kind="ideal_ipc")
        tasks = (
            [ideal]
            + _tasks(spec, chips[:4])
            + _tasks(other, chips[:4])
            + _tasks(spec, chips[4:8], schemes=SCHEMES[:1])
        )
        work = _chip_groups(tasks)
        assert work[0] is ideal
        assert [type(item).__name__ for item in work[1:]] == ["EvalGroup"] * 3
        assert [g.evaluator for g in work[1:]] == [spec, other, spec]
        assert work[3].schemes == SCHEMES[:1]


class TestGroupedEvaluation:
    def test_grouped_results_equal_per_chip_tasks(self, spec, chips):
        tasks = _tasks(spec, chips[:_MIN_CHIP_GROUP + 1])
        events = []
        with ParallelChipRunner(EngineConfig(workers=1)) as runner:
            grouped = runner.evaluate(tasks, observer=events.append)
        per_chip = [run_eval_task(task) for task in tasks]
        assert grouped == per_chip
        # One group: progress and journal granularity count groups.
        completed = [e for e in events if isinstance(e, ChipCompleted)]
        assert [(e.completed, e.total) for e in completed] == [(1, 1)]
        paths = [e for e in events if isinstance(e, KernelPathsCollected)]
        assert dict(paths[0].paths)["no-refresh/LRU/gcc"] == "flattened"
        assert dict(paths[0].paths)["RSP-FIFO/mcf"] == "timeline"

    def test_pool_groups_match_serial(self, spec, chips):
        tasks = _tasks(spec, chips)  # two groups
        with ParallelChipRunner(EngineConfig(workers=2)) as runner:
            pooled = runner.evaluate(tasks)
        with ParallelChipRunner(EngineConfig(workers=1)) as runner:
            serial = runner.evaluate(tasks)
        assert pooled == serial
        assert len(pooled) == len(tasks)

    def test_journalled_groups_resume_at_another_width(
        self, spec, chips, tmp_path
    ):
        tasks = _tasks(spec, chips)  # two groups
        serial = EngineConfig(workers=1, checkpoint_dir=tmp_path)
        with ParallelChipRunner(serial, run_key="groups") as runner:
            first = runner.evaluate(tasks)
            assert runner.stats.results_checkpointed == 2
        pooled = EngineConfig(workers=2, checkpoint_dir=tmp_path, resume=True)
        with ParallelChipRunner(pooled, run_key="groups") as runner:
            assert runner.evaluate(tasks) == first
            # Both groups came from the journal: the split does not
            # depend on the worker count.
            assert runner.stats.results_resumed == 2

    def test_faulted_groups_retry_to_the_same_results(self, spec, chips):
        tasks = _tasks(spec, chips)  # two groups
        with ParallelChipRunner(EngineConfig(workers=1)) as runner:
            clean = runner.evaluate(tasks)
        plan = FaultPlan(seed=3, error_rate=0.5, corrupt_rate=0.5)
        faulty = EngineConfig(workers=2, max_retries=2, fault_plan=plan)
        with ParallelChipRunner(faulty) as runner:
            assert runner.evaluate(tasks) == clean
            # Every group faulted once, then ran clean.
            assert runner.stats.task_retries == 2
