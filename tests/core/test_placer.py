"""The CP placer: optimality on small instances, statuses, strategies."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core.objective import ObjectiveKind
from repro.core.placer import CPPlacer, PlacerConfig, place
from repro.core.placement_model import PlacementModel
from repro.fabric.devices import homogeneous_device, irregular_device
from repro.fabric.grid import FabricGrid
from repro.fabric.region import PartialRegion
from repro.fabric.resource import ResourceType
from repro.modules.footprint import Footprint
from repro.modules.generator import GeneratorConfig, ModuleGenerator
from repro.modules.module import Module
from tests.support import brute_force_anchor_mask


def brute_force_min_extent(region, modules):
    """Exhaustive minimal extent over all valid placements."""
    per_module = []
    for mod in modules:
        options = []
        for si, fp in enumerate(mod.shapes):
            mask = brute_force_anchor_mask(region, sorted(fp.cells))
            ys, xs = np.nonzero(mask)
            options.extend(
                (si, int(x), int(y)) for x, y in zip(xs, ys)
            )
        per_module.append(options)
    best = None
    for combo in itertools.product(*per_module):
        cells = set()
        ok = True
        extent = 0
        for mod, (si, x, y) in zip(modules, combo):
            extent = max(extent, x + mod.shapes[si].width)
            for dx, dy, _ in mod.shapes[si].cells:
                c = (x + dx, y + dy)
                if c in cells:
                    ok = False
                    break
                cells.add(c)
            if not ok:
                break
        if ok and (best is None or extent < best):
            best = extent
    return best


class TestOptimality:
    def test_two_rectangles_homogeneous(self):
        region = PartialRegion.whole_device(homogeneous_device(6, 2))
        mods = [
            Module("a", [Footprint.rectangle(2, 2)]),
            Module("b", [Footprint.rectangle(2, 2)]),
        ]
        res = place(region, mods, time_limit=None)
        assert res.status == "optimal"
        assert res.extent == 4
        res.verify()

    def test_alternatives_reduce_extent(self):
        """A 1x4 module next to a 4x1 module in a 4x2 box: without the
        rotated alternative the extent is 5; with it, 4."""
        region = PartialRegion.whole_device(homogeneous_device(8, 2))
        tall = Footprint.rectangle(1, 2)
        wide = Footprint.rectangle(2, 1)
        fixed = Module("fixed", [Footprint.rectangle(2, 2)])
        poly_restricted = Module("p", [wide])
        poly_full = Module("p", [wide, tall])
        r1 = place(region, [fixed, poly_restricted], time_limit=None)
        r2 = place(region, [fixed, poly_full], time_limit=None)
        assert r1.status == "optimal" and r2.status == "optimal"
        assert r2.extent <= r1.extent

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_brute_force_heterogeneous(self, seed):
        region = PartialRegion.whole_device(
            irregular_device(6, 3, seed=seed, bram_stride=3, jitter=1, clk_rows=0)
        )
        fps = [
            Footprint.rectangle(2, 2),
            Footprint([(0, 0, ResourceType.CLB), (0, 1, ResourceType.CLB)]),
        ]
        mods = [Module(f"m{i}", [fp]) for i, fp in enumerate(fps)]
        want = brute_force_min_extent(region, mods)
        res = place(region, mods, time_limit=None)
        if want is None:
            assert res.status == "infeasible"
        else:
            assert res.status == "optimal"
            assert res.extent == want
            res.verify()

    def test_bram_module_lands_on_bram_column(self):
        g = FabricGrid.from_rows(["..B.", "..B."])
        region = PartialRegion.whole_device(g)
        fp = Footprint(
            [(0, 0, ResourceType.CLB), (1, 0, ResourceType.BRAM)]
        )
        res = place(region, [Module("m", [fp])], time_limit=None)
        assert res.status == "optimal"
        p = res.placements[0]
        assert p.x == 1  # BRAM cell at x+1 == 2
        res.verify()


class TestStatuses:
    def test_infeasible(self):
        region = PartialRegion.whole_device(homogeneous_device(2, 2))
        mods = [Module("big", [Footprint.rectangle(3, 3)])]
        res = place(region, mods, time_limit=None)
        assert res.status == "infeasible"
        assert res.unplaced == mods

    def test_first_solution_only(self):
        region = PartialRegion.whole_device(homogeneous_device(10, 4))
        mods = ModuleGenerator(
            seed=1, config=GeneratorConfig(clb_min=4, clb_max=8,
                                           bram_max=0, height_min=2,
                                           height_max=3)
        ).generate_set(3)
        res = CPPlacer(
            PlacerConfig(time_limit=None, first_solution_only=True)
        ).place(region, mods)
        assert res.status == "feasible"
        assert res.all_placed
        res.verify()

    def test_zero_budget_unknown(self):
        region = PartialRegion.whole_device(homogeneous_device(10, 4))
        mods = [Module("a", [Footprint.rectangle(2, 2)])]
        res = CPPlacer(PlacerConfig(time_limit=0.0)).place(region, mods)
        assert res.status == "unknown"

    def test_stats_populated(self):
        region = PartialRegion.whole_device(homogeneous_device(6, 2))
        mods = [Module("a", [Footprint.rectangle(2, 2)])]
        res = place(region, mods, time_limit=None)
        assert "search" in res.stats
        assert res.stats["shapes_considered"] == 1


class TestStrategies:
    @pytest.mark.parametrize("strategy", ["fail-first", "static"])
    def test_both_strategies_find_optimum(self, strategy):
        region = PartialRegion.whole_device(homogeneous_device(6, 2))
        mods = [
            Module("a", [Footprint.rectangle(2, 2)]),
            Module("b", [Footprint.rectangle(2, 2)]),
            Module("c", [Footprint.rectangle(2, 2)]),
        ]
        res = CPPlacer(
            PlacerConfig(time_limit=None, strategy=strategy)
        ).place(region, mods)
        assert res.status == "optimal"
        assert res.extent == 6

    def test_symmetry_breaking_shrinks_search(self):
        region = PartialRegion.whole_device(homogeneous_device(8, 2))
        mods = [
            Module(f"m{i}", [Footprint.rectangle(2, 2)]) for i in range(3)
        ]
        with_sb = CPPlacer(
            PlacerConfig(time_limit=None, symmetry_breaking=True)
        ).place(region, mods)
        without_sb = CPPlacer(
            PlacerConfig(time_limit=None, symmetry_breaking=False)
        ).place(region, mods)
        assert with_sb.extent == without_sb.extent == 6
        assert (
            with_sb.stats["search"].nodes <= without_sb.stats["search"].nodes
        )


class TestPlacementModel:
    def test_objective_kinds(self):
        region = PartialRegion.whole_device(homogeneous_device(6, 4))
        mods = [Module("a", [Footprint.rectangle(2, 2)])]
        for kind in ObjectiveKind:
            pm = PlacementModel(region, mods, objective=kind)
            assert pm.objective_var is not None

    def test_empty_module_list_rejected(self):
        region = PartialRegion.whole_device(homogeneous_device(4, 4))
        with pytest.raises(ValueError):
            PlacementModel(region, [])

    def test_area_order_sorts_descending(self):
        region = PartialRegion.whole_device(homogeneous_device(10, 6))
        mods = [
            Module("small", [Footprint.rectangle(1, 1)]),
            Module("big", [Footprint.rectangle(3, 3)]),
        ]
        pm = PlacementModel(region, mods)
        assert pm.area_order() == [1, 0]

    def test_min_extent_y_objective(self):
        region = PartialRegion.whole_device(homogeneous_device(2, 6))
        mods = [
            Module("a", [Footprint.rectangle(2, 2)]),
            Module("b", [Footprint.rectangle(2, 2)]),
        ]
        cfg = PlacerConfig(time_limit=None, objective=ObjectiveKind.MIN_EXTENT_Y)
        res = CPPlacer(cfg).place(region, mods)
        assert res.status == "optimal"
        assert max(p.top for p in res.placements) == 4
