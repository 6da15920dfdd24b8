"""Relocation analysis and runtime defragmentation."""

from __future__ import annotations

import pytest

from repro.core.defrag import defragment
from repro.core.relocation import (
    format_relocatability,
    relocatability_report,
    relocation_distance,
    relocation_sites,
    RelocationSite,
)
from repro.core.result import Placement, PlacementResult
from repro.fabric.devices import homogeneous_device, irregular_device
from repro.fabric.grid import FabricGrid
from repro.fabric.region import PartialRegion
from repro.fabric.resource import ResourceType
from repro.modules.footprint import Footprint
from repro.modules.module import Module


def rect_module(name, w, h, alts=()):
    return Module(name, [Footprint.rectangle(w, h), *alts])


class TestRelocationSites:
    def test_own_position_is_a_site(self):
        region = PartialRegion.whole_device(homogeneous_device(6, 3))
        p = Placement(rect_module("a", 2, 2), 0, 1, 0)
        result = PlacementResult(region, [p])
        sites = relocation_sites(result, p, consider_alternatives=False)
        assert RelocationSite(0, 1, 0) in sites

    def test_occupied_cells_block_sites(self):
        region = PartialRegion.whole_device(homogeneous_device(6, 2))
        a = Placement(rect_module("a", 2, 2), 0, 0, 0)
        b = Placement(rect_module("b", 2, 2), 0, 4, 0)
        result = PlacementResult(region, [a, b])
        sites = relocation_sites(result, b, consider_alternatives=False)
        xs = {s.x for s in sites}
        assert xs == {2, 3, 4}  # x=0,1 blocked by a; 2..4 free/own

    def test_alternatives_add_sites(self):
        # 2x1 corridor region: the tall alternative never fits, the flat does
        region = PartialRegion.whole_device(homogeneous_device(6, 1))
        module = Module(
            "p", [Footprint.rectangle(2, 1), Footprint.rectangle(1, 2)]
        )
        p = Placement(module, 0, 0, 0)
        result = PlacementResult(region, [p])
        with_alts = relocation_sites(result, p, consider_alternatives=True)
        without = relocation_sites(result, p, consider_alternatives=False)
        assert len(with_alts) == len(without)  # alt shape adds nothing here

        region2 = PartialRegion.whole_device(homogeneous_device(6, 2))
        result2 = PlacementResult(region2, [Placement(module, 0, 0, 0)])
        with2 = relocation_sites(result2, result2.placements[0], True)
        without2 = relocation_sites(result2, result2.placements[0], False)
        assert len(with2) > len(without2)

    def test_resource_pattern_must_match(self):
        g = FabricGrid.from_rows(["..B..B.."])
        region = PartialRegion.whole_device(g)
        fp = Footprint([(0, 0, ResourceType.CLB), (1, 0, ResourceType.BRAM)])
        p = Placement(Module("m", [fp]), 0, 1, 0)
        result = PlacementResult(region, [p])
        sites = relocation_sites(result, p, consider_alternatives=False)
        assert {s.x for s in sites} == {1, 4}  # anchors left of each BRAM col

    def test_report_and_format(self):
        region = PartialRegion.whole_device(irregular_device(32, 10, seed=3))
        from repro.modules.generator import ModuleGenerator

        mod = ModuleGenerator(seed=4).generate()
        from repro.core.placer import place

        res = place(region, [mod], time_limit=2.0, first_solution_only=True)
        rows = relocatability_report(res)
        assert len(rows) == 1
        assert rows[0].sites_with_alternatives >= rows[0].sites_same_shape
        assert rows[0].gain >= 1.0
        assert mod.name in format_relocatability(rows)

    def test_relocation_distance(self):
        p = Placement(rect_module("a", 2, 2), 0, 0, 0)
        # move to x=4: old columns {0,1}, new {4,5} -> 4 frames
        assert relocation_distance(p, RelocationSite(0, 4, 0)) == 4
        # overlapping move to x=1: columns {0,1,2} -> 3 frames
        assert relocation_distance(p, RelocationSite(0, 1, 0)) == 3


class TestDefrag:
    def test_compacts_gap(self):
        region = PartialRegion.whole_device(homogeneous_device(10, 2))
        a = Placement(rect_module("a", 2, 2), 0, 0, 0)
        b = Placement(rect_module("b", 2, 2), 0, 6, 0)  # gap at x=2..5
        result = PlacementResult(region, [a, b])
        out = defragment(result)
        assert out.final_extent == 4
        assert out.improvement == 4
        assert len(out.moves) == 1
        assert out.moves[0].module == "b"
        out.result.verify()

    def test_already_compact_is_noop(self):
        region = PartialRegion.whole_device(homogeneous_device(6, 2))
        a = Placement(rect_module("a", 2, 2), 0, 0, 0)
        b = Placement(rect_module("b", 2, 2), 0, 2, 0)
        out = defragment(PlacementResult(region, [a, b]))
        assert out.moves == []
        assert out.improvement == 0

    def test_shape_change_policy(self):
        # an L-gap only the rotated alternative fits into
        region = PartialRegion.whole_device(homogeneous_device(5, 2))
        blocker = Placement(rect_module("blk", 2, 2), 0, 0, 0)
        tall = Footprint.rectangle(1, 2)
        wide = Footprint.rectangle(2, 1)
        poly = Module("p", [wide, tall])
        moved = Placement(poly, 0, 3, 0)  # wide at x=3 -> extent 5
        result = PlacementResult(region, [blocker, moved])
        frozen = defragment(result, allow_shape_change=False)
        free = defragment(result, allow_shape_change=True)
        # with shape change, 'p' can stand upright at x=2 -> extent 3
        assert free.final_extent <= frozen.final_extent
        assert free.final_extent == 3
        assert any(m.changed_shape for m in free.moves)
        free.result.verify()

    def test_respects_move_budget(self):
        region = PartialRegion.whole_device(homogeneous_device(20, 2))
        ps = [
            Placement(rect_module(f"m{i}", 2, 2), 0, 4 * i + 2, 0)
            for i in range(4)
        ]
        out = defragment(PlacementResult(region, ps), max_moves=1)
        assert len(out.moves) <= 1

    def test_total_frames_accumulates(self):
        region = PartialRegion.whole_device(homogeneous_device(10, 2))
        a = Placement(rect_module("a", 2, 2), 0, 4, 0)
        out = defragment(PlacementResult(region, [a]))
        assert out.total_frames == sum(m.frames for m in out.moves)
        assert out.final_extent == 2

    def test_heterogeneous_defrag_valid(self):
        from repro.core.placer import place
        from repro.modules.generator import ModuleGenerator

        region = PartialRegion.whole_device(irregular_device(64, 14, seed=6))
        mods = ModuleGenerator(seed=8).generate_set(5)
        res = place(region, mods, time_limit=3.0, first_solution_only=True)
        assert res.all_placed
        out = defragment(res, allow_shape_change=True)
        out.result.verify()
        assert out.final_extent <= out.initial_extent


class TestRelocationSitesLedger:
    """relocation_sites on a caller's free-space ledger equals the fresh
    per-call ledger and the per-cell floorplan rebuild it replaced, and
    never writes the caller's ledger."""

    def _states(self):
        from repro.core.placer import place
        from repro.modules.generator import GeneratorConfig, ModuleGenerator

        cfg = GeneratorConfig(
            clb_min=4, clb_max=12, bram_max=1,
            height_min=2, height_max=3, max_width=4,
        )
        for seed in (3, 6, 11):
            region = PartialRegion.whole_device(
                irregular_device(40, 10, seed=seed, bram_stride=6, jitter=1)
            )
            mods = ModuleGenerator(seed=seed, config=cfg).generate_set(5)
            res = place(region, mods, time_limit=3.0, first_solution_only=True)
            if res.placements:
                yield res

    def test_ledger_sites_match_per_cell_oracle(self):
        from repro.core.occupancy import Occupancy
        from tests.support import per_cell_relocation_sites

        checked = 0
        for result in self._states():
            ledger = Occupancy(result.region, result.placements)
            held = ledger.held.copy()
            for p in result.placements:
                for alts in (True, False):
                    expected = per_cell_relocation_sites(result, p, alts)
                    assert relocation_sites(result, p, alts) == expected
                    assert (
                        relocation_sites(result, p, alts, occupied=ledger)
                        == expected
                    )
                    checked += 1
            assert (ledger.held == held).all()
        assert checked > 0
