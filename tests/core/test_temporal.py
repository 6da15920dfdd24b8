"""Temporal (3-D) placement: exact schedules over the geost kernel."""

from __future__ import annotations

import itertools

import pytest

from repro.core.temporal import (
    ScheduledTask,
    TemporalPlacer,
    TemporalResult,
    TemporalTask,
    render_timeline,
)
from repro.fabric.grid import FabricGrid
from repro.fabric.region import PartialRegion
from repro.fabric.resource import ResourceType
from repro.modules.footprint import Footprint
from repro.modules.module import Module


def clb_region(rows):
    return PartialRegion.whole_device(FabricGrid.from_rows(rows))


def sq_task(name, w, h, d, alts=()):
    return TemporalTask(Module(name, [Footprint.rectangle(w, h), *alts]), d)


class TestBasics:
    def test_validation(self):
        with pytest.raises(ValueError):
            TemporalTask(Module("m", [Footprint.rectangle(1, 1)]), 0)
        with pytest.raises(ValueError):
            TemporalPlacer(horizon=0)
        region = clb_region(["..", ".."])
        with pytest.raises(ValueError):
            TemporalPlacer(horizon=4).place(region, [])
        with pytest.raises(ValueError):
            TemporalPlacer(horizon=4).place(
                region, [sq_task("a", 1, 1, 1)], precedences=[(0, 0)]
            )

    def test_single_task(self):
        region = clb_region(["....", "...."])
        res = TemporalPlacer(horizon=5).place(region, [sq_task("a", 2, 2, 3)])
        assert res.status == "optimal"
        assert res.makespan == 3
        assert res.schedule[0].start == 0
        res.verify()

    def test_parallel_when_space_allows(self):
        region = clb_region(["....", "...."])
        tasks = [sq_task("a", 2, 2, 2), sq_task("b", 2, 2, 2)]
        res = TemporalPlacer(horizon=8).place(region, tasks)
        assert res.status == "optimal"
        assert res.makespan == 2  # side by side, simultaneously
        res.verify()

    def test_serialization_when_space_is_tight(self):
        region = clb_region(["..", ".."])
        tasks = [sq_task("a", 2, 2, 2), sq_task("b", 2, 2, 3)]
        res = TemporalPlacer(horizon=10).place(region, tasks)
        assert res.status == "optimal"
        assert res.makespan == 5  # must run one after the other
        res.verify()

    def test_infeasible_horizon(self):
        region = clb_region(["..", ".."])
        tasks = [sq_task("a", 2, 2, 3), sq_task("b", 2, 2, 3)]
        res = TemporalPlacer(horizon=4).place(region, tasks)
        assert res.status == "infeasible"

    def test_makespan_matches_brute_force(self):
        """Exhaustive check on a tiny instance."""
        region = clb_region(["...", "..."])
        sizes = [(2, 2, 2), (2, 1, 2), (1, 2, 1)]
        tasks = [
            sq_task(f"m{i}", w, h, d) for i, (w, h, d) in enumerate(sizes)
        ]
        horizon = 6
        res = TemporalPlacer(horizon=horizon).place(region, tasks)
        assert res.status == "optimal"

        def feasible(combo):
            sched = [
                ScheduledTask(t, 0, x, y, s)
                for t, (x, y, s) in zip(tasks, combo)
            ]
            for time_step in range(horizon):
                cells = []
                for s_ in sched:
                    cells.extend(s_.cells_at(time_step))
                if len(cells) != len(set(cells)):
                    return None
            return max(s_.end for s_ in sched)

        best = None
        options = []
        for (w, h, d) in sizes:
            options.append([
                (x, y, s)
                for x in range(3 - w + 1)
                for y in range(2 - h + 1)
                for s in range(horizon - d + 1)
            ])
        for combo in itertools.product(*options):
            mk = feasible(combo)
            if mk is not None and (best is None or mk < best):
                best = mk
        assert res.makespan == best


class TestPrecedence:
    def test_chain_forces_sequence(self):
        region = clb_region(["....", "...."])
        tasks = [sq_task("a", 2, 2, 2), sq_task("b", 2, 2, 2)]
        res = TemporalPlacer(horizon=10).place(
            region, tasks, precedences=[(0, 1)]
        )
        assert res.status == "optimal"
        assert res.makespan == 4
        res.verify(precedences=[(0, 1)])
        assert res.schedule[1].start >= res.schedule[0].end


class TestHeterogeneityAndAlternatives:
    def test_bram_task_waits_for_the_bram_column(self):
        region = clb_region(["B..", "B.."])
        bram_fp = Footprint(
            [(0, 0, ResourceType.BRAM), (1, 0, ResourceType.CLB)]
        )
        tasks = [
            TemporalTask(Module("mem1", [bram_fp]), 2),
            TemporalTask(Module("mem2", [bram_fp]), 2),
        ]
        res = TemporalPlacer(horizon=8).place(region, tasks)
        assert res.status == "optimal"
        res.verify()
        # both need column 0 at y in {0,1}: two fit in parallel stacked,
        # each anchored at the BRAM column
        assert all(s.x == 0 for s in res.schedule)
        assert res.makespan == 2

    def test_alternatives_shrink_makespan(self):
        """A 1x2/2x1 polymorphic task fits beside a blocker only rotated."""
        region = clb_region(["...", "..."])
        blocker = sq_task("blk", 2, 2, 2)
        wide = Footprint.rectangle(2, 1)
        tall = Footprint.rectangle(1, 2)
        mono = TemporalTask(Module("p", [wide]), 2)
        poly = TemporalTask(Module("p", [wide, tall]), 2)
        res_mono = TemporalPlacer(horizon=10).place(region, [blocker, mono])
        res_poly = TemporalPlacer(horizon=10).place(region, [blocker, poly])
        assert res_mono.status == res_poly.status == "optimal"
        assert res_poly.makespan == 2   # tall alternative runs in parallel
        assert res_mono.makespan == 4   # wide-only must wait
        res_poly.verify()


class TestSharedModuleDecode:
    """Two tasks of the *same* module share deduplicated shape ids in the
    table; decoding a shape choice must go through each task's own id
    list, never through offset arithmetic (regression: the old
    ``sol[s_i] - sid_base`` decode produced out-of-range alternative
    indices as soon as ids were shared)."""

    def test_two_tasks_same_module_decode_in_range(self):
        region = clb_region(["....", "...."])
        mod = Module(
            "dup", [Footprint.rectangle(2, 2), Footprint.rectangle(1, 2)]
        )
        tasks = [TemporalTask(mod, 2), TemporalTask(mod, 2)]
        res = TemporalPlacer(horizon=8).place(region, tasks)
        assert res.status == "optimal"
        for s in res.schedule:
            assert 0 <= s.shape_index < mod.n_alternatives
        res.verify()
        assert res.makespan == 2  # both fit side by side

    def test_same_module_different_duration_not_conflated(self):
        # different extrusions must stay distinct shapes
        region = clb_region(["...", "..."])
        mod = Module("dup", [Footprint.rectangle(2, 2)])
        tasks = [TemporalTask(mod, 1), TemporalTask(mod, 3)]
        res = TemporalPlacer(horizon=8).place(region, tasks)
        assert res.status == "optimal"
        res.verify()
        by_duration = sorted(res.schedule, key=lambda s: s.task.duration)
        assert by_duration[0].end - by_duration[0].start == 1
        assert by_duration[1].end - by_duration[1].start == 3

    def test_three_clones_with_precedence_chain(self):
        region = clb_region(["..", ".."])
        mod = Module("m", [Footprint.rectangle(2, 2)])
        tasks = [TemporalTask(mod, 2) for _ in range(3)]
        res = TemporalPlacer(horizon=10).place(
            region, tasks, precedences=[(0, 1), (1, 2)]
        )
        assert res.status == "optimal"
        assert res.makespan == 6
        res.verify(precedences=[(0, 1), (1, 2)])
        for s in res.schedule:
            assert s.shape_index == 0


class TestRendering:
    def test_timeline_shows_every_step(self):
        region = clb_region(["..", ".."])
        res = TemporalPlacer(horizon=4).place(region, [sq_task("a", 2, 2, 2)])
        art = render_timeline(res)
        assert "t=0" in art and "t=1" in art
        assert "0" in art

    def test_empty(self):
        region = clb_region([".."])
        from repro.core.temporal import TemporalResult

        assert "empty" in render_timeline(TemporalResult(region))


# ----------------------------------------------------------------------
# Golden rendering and verify() property coverage
# ----------------------------------------------------------------------
class TestRenderTimelineGolden:
    def test_exact_art_for_a_fixed_schedule(self):
        region = clb_region(["....", "...."])
        a = sq_task("a", 2, 2, 2)
        b = sq_task("b", 2, 1, 1)
        result = TemporalResult(
            region,
            schedule=[
                ScheduledTask(task=a, shape_index=0, x=0, y=0, start=0),
                ScheduledTask(task=b, shape_index=0, x=2, y=0, start=1),
            ],
            makespan=2,
            status="optimal",
        )
        assert render_timeline(result) == (
            "t=0\n"
            "00..\n"
            "00..\n"
            "\n"
            "t=1\n"
            "00..\n"
            "0011"
        )


class TestVerifyProperties:
    def _scheduled(self, name, w, h, d, x, y, start):
        return ScheduledTask(
            task=sq_task(name, w, h, d), shape_index=0, x=x, y=y, start=start
        )

    def test_overlap_in_space_and_time_rejected(self):
        region = clb_region(["....", "...."])
        result = TemporalResult(
            region,
            schedule=[
                self._scheduled("a", 2, 2, 3, 0, 0, 0),
                self._scheduled("b", 2, 2, 3, 1, 0, 2),  # shares (1..2, *) at t=2
            ],
        )
        with pytest.raises(ValueError, match="overlaps"):
            result.verify()

    def test_same_cells_at_disjoint_times_accepted(self):
        region = clb_region(["..", ".."])
        result = TemporalResult(
            region,
            schedule=[
                self._scheduled("a", 2, 2, 2, 0, 0, 0),
                self._scheduled("b", 2, 2, 2, 0, 0, 2),  # back to back
            ],
        )
        result.verify()  # no exception: never concurrent

    def test_precedence_violation_rejected(self):
        region = clb_region(["....", "...."])
        result = TemporalResult(
            region,
            schedule=[
                self._scheduled("a", 2, 2, 3, 0, 0, 0),
                self._scheduled("b", 2, 2, 2, 2, 0, 1),  # starts before a ends
            ],
        )
        result.verify()  # fine without the edge
        with pytest.raises(ValueError, match="precedence"):
            result.verify(precedences=[(0, 1)])

    def test_out_of_region_rejected(self):
        region = clb_region(["..", ".."])
        result = TemporalResult(
            region, schedule=[self._scheduled("a", 2, 2, 1, 1, 0, 0)]
        )
        with pytest.raises(ValueError, match="invalid"):
            result.verify()

    def test_resource_mismatch_rejected(self):
        # column 2 is BRAM ("B"); a pure-CLB footprint may not sit on it
        region = clb_region(["..B.", "..B."])
        result = TemporalResult(
            region, schedule=[self._scheduled("a", 2, 2, 1, 1, 0, 0)]
        )
        with pytest.raises(ValueError, match="resource mismatch"):
            result.verify()


# ----------------------------------------------------------------------
# Production placer (TemporalCPPlacer) vs the reference oracle
# ----------------------------------------------------------------------
from repro.core.temporal import TemporalCPPlacer  # noqa: E402

_ORACLE_CASES = [
    pytest.param(
        ["....", "...."], [("a", 2, 2, 3)], [], 5, id="single"
    ),
    pytest.param(
        ["....", "...."],
        [("a", 2, 2, 2), ("b", 2, 2, 2)],
        [],
        8,
        id="parallel",
    ),
    pytest.param(
        ["..", ".."],
        [("a", 2, 2, 2), ("b", 2, 2, 2)],
        [],
        8,
        id="serialized",
    ),
    pytest.param(
        ["....", "...."],
        [("a", 2, 2, 2), ("b", 2, 2, 3), ("c", 2, 2, 2)],
        [(0, 2)],
        8,
        id="precedence",
    ),
    pytest.param(
        ["..B.", "..B."],
        [("a", 2, 2, 2), ("b", 2, 2, 2)],
        [],
        6,
        id="heterogeneous",
    ),
]


class TestProductionMatchesOracle:
    @pytest.mark.parametrize(
        "rows,specs,precedences,horizon", _ORACLE_CASES
    )
    def test_equal_optimal_makespans(self, rows, specs, precedences, horizon):
        region = clb_region(rows)
        tasks = [sq_task(n, w, h, d) for n, w, h, d in specs]
        ref = TemporalPlacer(horizon=horizon).place(
            region, tasks, precedences=precedences
        )
        prod = TemporalCPPlacer(horizon=horizon).place(
            region, tasks, precedences=precedences
        )
        assert ref.status == "optimal"
        assert prod.status == "optimal"
        assert prod.makespan == ref.makespan
        ref.verify(precedences)
        prod.verify(precedences)

    def test_infeasible_agreement(self):
        region = clb_region(["..", ".."])
        tasks = [sq_task(n, 2, 2, 2) for n in ("a", "b", "c")]
        ref = TemporalPlacer(horizon=3).place(region, tasks)
        prod = TemporalCPPlacer(horizon=3).place(region, tasks)
        assert ref.status == "infeasible"
        assert prod.status == "infeasible"

