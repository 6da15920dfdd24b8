"""Property-based invariants of defragmentation and relocation.

Random fragmented states are generated end-to-end (random fabric, random
modules, placed and randomly evicted); the defragmenter must always
return a *valid* placement whose extent never grew, whatever it does.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.defrag import (
    NoBreakDefragmenter,
    defragment,
    plan_states,
)
from repro.core.placer import CPPlacer, PlacerConfig
from repro.core.relocation import relocation_sites
from repro.core.result import Placement, PlacementResult
from repro.fabric.devices import irregular_device
from repro.fabric.grid import FabricGrid
from repro.fabric.region import PartialRegion
from repro.fabric.resource import ResourceType
from repro.modules.footprint import Footprint
from repro.modules.generator import GeneratorConfig, ModuleGenerator
from repro.modules.module import Module


def fragmented_state(seed: int, evict_mask: int):
    region = PartialRegion.whole_device(
        irregular_device(40, 10, seed=seed, bram_stride=6, jitter=1)
    )
    cfg = GeneratorConfig(clb_min=4, clb_max=12, bram_max=1,
                          height_min=2, height_max=3, max_width=4)
    modules = ModuleGenerator(seed=seed, config=cfg).generate_set(5)
    res = CPPlacer(
        PlacerConfig(time_limit=2.0, first_solution_only=True)
    ).place(region, modules)
    if not res.all_placed:
        return None
    survivors = [
        p for i, p in enumerate(res.placements) if (evict_mask >> i) & 1
    ]
    if not survivors:
        return None
    return PlacementResult(region, survivors)


class TestDefragProperties:
    @given(st.integers(0, 25), st.integers(1, 31), st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_defrag_always_valid_and_never_worse(
        self, seed, evict_mask, allow_shape_change
    ):
        state = fragmented_state(seed, evict_mask)
        if state is None:
            return
        out = defragment(state, allow_shape_change=allow_shape_change)
        out.result.verify()
        assert out.final_extent <= out.initial_extent
        assert len(out.result.placements) == len(state.placements)
        # the same modules are still present
        assert {p.module.name for p in out.result.placements} == {
            p.module.name for p in state.placements
        }

    @given(st.integers(0, 25), st.integers(1, 31))
    @settings(max_examples=10, deadline=None)
    def test_default_budget_terminates_with_shape_change(
        self, seed, evict_mask
    ):
        """With shape changes allowed the move loop could revisit states;
        the internal budget must still force termination."""
        state = fragmented_state(seed, evict_mask)
        if state is None:
            return
        out = defragment(state, allow_shape_change=True)
        assert len(out.moves) <= 4 * max(1, len(state.placements))
        out.result.verify()

    def test_squeeze_shape_change_cannot_grow_extent(self):
        """Regression: the squeeze phase picked lexicographically-smaller
        anchors ignoring the new shape's width, so with
        ``allow_shape_change=True`` a wider design alternative at a
        smaller x could *grow* the extent — and the frontier/squeeze
        oscillation then burned the whole move budget in the worse
        state.  Pre-fix this floorplan finished at extent 7 from an
        initial 4."""
        CLB, BRAM = ResourceType.CLB, ResourceType.BRAM
        grid = FabricGrid.from_rows(["...B........", "............"])
        region = PartialRegion(grid, np.ones((2, 12), dtype=bool))
        # primary shape is anchored by the single BRAM at (3,1); the
        # 5x1 all-CLB alternative fits lex-smaller anchors but is wider
        m = Module(
            "m",
            [
                Footprint([(0, 0, CLB), (0, 1, BRAM)]),
                Footprint.rectangle(5, 1),
            ],
        )
        blockers = [
            Module(f"b{i}", [Footprint.rectangle(1, 1)]) for i in range(3)
        ]
        placements = [Placement(m, 0, 3, 0)] + [
            Placement(blockers[i], 0, i, 1) for i in range(3)
        ]
        state = PlacementResult(region, placements)
        state.verify()
        out = defragment(state, allow_shape_change=True)
        out.result.verify()
        assert out.final_extent <= out.initial_extent == 4

    @given(st.integers(0, 25), st.integers(1, 31), st.booleans())
    @settings(max_examples=15, deadline=None)
    def test_no_break_plan_never_overlaps_at_any_step(
        self, seed, evict_mask, allow_shape_change
    ):
        """Every intermediate state of a no-break plan — each slide
        anchor, each copy's double-occupancy window — must verify: the
        whole point of the engine is that running modules are never
        broken."""
        state = fragmented_state(seed, evict_mask)
        if state is None:
            return
        plan = NoBreakDefragmenter().plan(
            state, allow_shape_change=allow_shape_change
        )
        for intermediate in plan_states(state, plan):
            intermediate.verify()
        plan.result.verify()
        assert plan.final_extent <= plan.initial_extent
        assert len(plan.moves) <= 4 * max(1, len(state.placements))

    @given(st.integers(0, 25), st.integers(1, 31))
    @settings(max_examples=15, deadline=None)
    def test_relocation_sites_are_actually_feasible(self, seed, evict_mask):
        state = fragmented_state(seed, evict_mask)
        if state is None:
            return
        p = state.placements[0]
        for site in relocation_sites(state, p)[:10]:
            from repro.core.result import Placement

            moved = Placement(p.module, site.shape_index, site.x, site.y)
            others = [q for q in state.placements if q is not p]
            PlacementResult(state.region, others + [moved]).verify()
