"""Differential oracle for the defrag planners' maintained free-space ledger.

Both planners build one :class:`~repro.core.occupancy.Occupancy` ledger
per plan, probe every placement's relocation sites on it with one
batched :class:`~repro.core.relocation.RelocationProbe` per compaction
step, and update it after each simulated move (remove the mover's old
cells, place its new ones).  The oracle is the per-cell code that
rebuilt the whole floorplan for every mover
(:func:`tests.support.per_cell_relocation_sites`).  Three checks:

1. ``relocation_sites(..., occupied=ledger)`` and the batched probe of
   every placement (its sites and each shape's bottom-left site) equal
   the oracle on every intermediate state a plan passes through, and a
   ledger kept up to date move by move holds the cells of the rebuilt
   floorplan;
2. with the oracle patched into :mod:`repro.core.defrag` as the batched
   probe (:class:`tests.support.PerCellRelocationProbe`, which must be
   called), both planners produce identical plans (moves, kinds, frames,
   windows, end state);
3. the caller's ledger is never written.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.defrag as defrag_mod
from repro.core.defrag import (
    GreedyCompactionDefragmenter,
    NoBreakDefragmenter,
    plan_states,
)
from repro.core.occupancy import Occupancy
from repro.core.relocation import RelocationProbe, relocation_sites
from repro.core.result import Placement, PlacementResult
from repro.fabric.devices import homogeneous_device, irregular_device
from repro.fabric.masks import valid_anchor_mask
from repro.fabric.region import PartialRegion
from repro.fabric.resource import ResourceType
from repro.modules.footprint import Footprint
from repro.modules.generator import GeneratorConfig, ModuleGenerator
from repro.modules.module import Module
from tests.support import (
    PerCellRelocationProbe,
    per_cell_occupancy_mask,
    per_cell_relocation_sites,
)

PLANNERS = [GreedyCompactionDefragmenter, NoBreakDefragmenter]


def scatter(region, modules, pick):
    """Place each module on a feasible anchor chosen by ``pick(n)``
    (an index in ``range(n)``), skipping modules that do not fit: a
    fragmented floorplan for the planners to compact."""
    occupied = np.zeros((region.height, region.width), dtype=bool)
    placements = []
    for module in modules:
        sid = pick(len(module.shapes))
        free = PartialRegion(region.grid, region.allowed_mask() & ~occupied)
        ys, xs = np.nonzero(valid_anchor_mask(free, module.shapes[sid]))
        if ys.size == 0:
            continue
        k = pick(ys.size)
        p = Placement(module, sid, int(xs[k]), int(ys[k]))
        for x, y, _ in p.absolute_cells():
            occupied[y, x] = True
        placements.append(p)
    return PlacementResult(region, placements)


def seeded_floorplan(seed: int) -> PlacementResult:
    region = PartialRegion.whole_device(
        irregular_device(40, 10, seed=seed, bram_stride=6, jitter=1)
    )
    cfg = GeneratorConfig(
        clb_min=4, clb_max=12, bram_max=1,
        height_min=2, height_max=3, max_width=4,
    )
    modules = ModuleGenerator(seed=seed, config=cfg).generate_set(9)
    rng = random.Random(seed)
    return scatter(region, modules, rng.randrange)


@st.composite
def floorplans(draw):
    """Small irregular fabrics scattered with CLB modules of 1-3 shapes."""
    region = PartialRegion.whole_device(
        irregular_device(
            draw(st.integers(10, 24)), draw(st.integers(3, 7)),
            seed=draw(st.integers(0, 50)), bram_stride=5, jitter=1,
        )
    )
    modules = []
    for i in range(draw(st.integers(2, 7))):
        shapes = []
        for _ in range(draw(st.integers(1, 3))):
            w, h = draw(st.integers(1, 3)), draw(st.integers(1, 3))
            box = [(x, y) for x in range(w) for y in range(h)]
            keep = draw(
                st.lists(st.sampled_from(box), min_size=1, unique=True)
            )
            fp = Footprint((x, y, ResourceType.CLB) for x, y in keep)
            if fp not in shapes:
                shapes.append(fp)
        modules.append(Module(f"h{i}", shapes))
    return scatter(
        region, modules, lambda n: draw(st.integers(0, n - 1))
    )


def plan_pair(result, planner_cls, allow):
    """The product plan and the plan on the per-cell oracle."""
    out = []
    for oracle in (None, PerCellRelocationProbe()):
        mp = pytest.MonkeyPatch()
        if oracle is not None:
            mp.setattr(defrag_mod, "RelocationProbe", oracle)
        try:
            out.append(planner_cls().plan(result, allow_shape_change=allow))
        finally:
            mp.undo()
    # a planner that no longer reads the patched name would compare the
    # product with itself
    assert oracle.calls > 0
    return out


def end_state(plan):
    return sorted(
        (p.module.name, p.shape_index, p.x, p.y)
        for p in plan.result.placements
    )


# ----------------------------------------------------------------------
# 1. sites on every intermediate state, and the maintained ledger itself
# ----------------------------------------------------------------------
def check_sites_on_plan_states(result: PlacementResult, allow: bool) -> int:
    checked = 0
    for planner_cls in PLANNERS:
        plan = planner_cls().plan(result, allow_shape_change=allow)
        for state in [result, *plan_states(result, plan)]:
            np.testing.assert_array_equal(
                state.occupancy_mask(), per_cell_occupancy_mask(state)
            )
            ledger = Occupancy(state.region, state.placements)
            probe = RelocationProbe(state, state.placements, allow, ledger)
            assert len(probe) == len(state.placements)
            for m, (p, batched) in enumerate(zip(state.placements, probe)):
                expected = per_cell_relocation_sites(state, p, allow)
                assert relocation_sites(state, p, allow, occupied=ledger) == expected
                assert relocation_sites(state, p, allow) == expected
                assert batched == expected
                assert probe.bottom_left(m) == [
                    min(
                        (s for s in expected if s.shape_index == sid),
                        key=lambda s: (s.x, s.y),
                    )
                    for sid in sorted({s.shape_index for s in expected})
                ]
                checked += 1
    return checked


def check_grid_follows_moves(result: PlacementResult, allow: bool) -> None:
    for planner_cls in PLANNERS:
        plan = planner_cls().plan(result, allow_shape_change=allow)
        ledger = Occupancy(result.region, result.placements)
        placements = {p.module.name: p for p in result.placements}
        for move in plan.moves:
            old = placements[move.module]
            new = Placement(old.module, move.to_shape, *move.to_pos)
            ledger.remove(old)
            ledger.place(new)
            placements[move.module] = new
            rebuilt = PlacementResult(result.region, list(placements.values()))
            np.testing.assert_array_equal(
                ledger.mask(ledger.held), per_cell_occupancy_mask(rebuilt)
            )
            assert ledger.occupied_cells == rebuilt.used_cells()


class TestSitesOnPlanStates:
    @pytest.mark.parametrize("allow", [False, True])
    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_floorplans(self, seed, allow):
        result = seeded_floorplan(seed)
        assert check_sites_on_plan_states(result, allow) > 0
        check_grid_follows_moves(result, allow)

    @given(floorplans(), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_hypothesis_floorplans(self, result, allow):
        check_sites_on_plan_states(result, allow)
        check_grid_follows_moves(result, allow)

    def test_imprint_past_row_255(self):
        """Offsets are stored in a compact dtype; anchors past its range
        must still land on the right rows."""
        region = PartialRegion.whole_device(homogeneous_device(4, 300))
        fp = Footprint([(0, 0, ResourceType.CLB), (1, 4, ResourceType.CLB)])
        assert fp.offsets().dtype == np.uint8
        result = PlacementResult(
            region, [Placement(Module("m", [fp]), 0, 2, 290)]
        )
        np.testing.assert_array_equal(
            result.occupancy_mask(), per_cell_occupancy_mask(result)
        )


# ----------------------------------------------------------------------
# 2. planners on the maintained ledger plan exactly what the oracle plans
# ----------------------------------------------------------------------
def check_plans_identical(result: PlacementResult, allow: bool) -> int:
    moves = 0
    for planner_cls in PLANNERS:
        plan, ref = plan_pair(result, planner_cls, allow)
        assert plan.moves == ref.moves
        assert end_state(plan) == end_state(ref)
        assert (plan.initial_extent, plan.final_extent) == (
            ref.initial_extent, ref.final_extent
        )
        moves += len(plan.moves)
    return moves


class TestPlansMatchOracle:
    @pytest.mark.parametrize("allow", [False, True])
    def test_seeded_floorplans(self, allow):
        moves = sum(check_plans_identical(seeded_floorplan(s), allow) for s in range(6))
        # the suite must exercise multi-move plans, where a stale ledger
        # would show
        assert moves >= 20

    @given(floorplans(), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_hypothesis_floorplans(self, result, allow):
        check_plans_identical(result, allow)


# ----------------------------------------------------------------------
# 3. the caller's ledger is read, never written
# ----------------------------------------------------------------------
class TestCallerGridUntouched:
    @pytest.mark.parametrize("allow", [False, True])
    def test_relocation_sites_leaves_grid(self, allow):
        result = seeded_floorplan(1)
        ledger = Occupancy(result.region, result.placements)
        before = ledger.held.copy()
        ledger.held.setflags(write=False)  # any write would raise
        for p in result.placements:
            relocation_sites(result, p, allow, occupied=ledger)
        list(RelocationProbe(result, result.placements, allow, ledger))
        np.testing.assert_array_equal(ledger.held, before)
        assert ledger.occupied_cells == result.used_cells()

    @pytest.mark.parametrize("planner_cls", PLANNERS)
    def test_planners_leave_input(self, planner_cls):
        result = seeded_floorplan(2)
        placements = list(result.placements)
        grid = result.occupancy_mask()
        plan = planner_cls().plan(result, allow_shape_change=True)
        assert plan.moves
        assert result.placements == placements
        np.testing.assert_array_equal(result.occupancy_mask(), grid)
