"""The vectorized placement kernel.

The key cross-check: on small heterogeneous instances, the solution set of
the NumPy placement kernel must equal brute-force enumeration of the
paper's constraint definition (M_a ∧ M_b ∧ M_c).  Further tests cover
imprint/undo trailing, per-axis filtering strength, and the reporting
queries used by branching.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cp.engine import Inconsistent
from repro.cp.model import Model
from repro.fabric.devices import homogeneous_device, irregular_device
from repro.fabric.region import PartialRegion
from repro.fabric.resource import ResourceType
from repro.geost.placement import PlacementKernel
from repro.modules.footprint import Footprint
from repro.modules.module import Module

from tests.support import build_kernel, brute_force_solutions, kernel_solutions


small_fp = st.sampled_from(
    [
        Footprint.rectangle(1, 1),
        Footprint.rectangle(2, 1),
        Footprint.rectangle(1, 2),
        Footprint.rectangle(2, 2),
        Footprint([(0, 0, ResourceType.CLB), (1, 1, ResourceType.CLB)]),
        Footprint([(0, 0, ResourceType.BRAM)]),
        Footprint([(0, 0, ResourceType.CLB), (1, 0, ResourceType.BRAM)]),
    ]
)


class TestSolutionSets:
    @given(st.lists(small_fp, min_size=1, max_size=2), st.integers(0, 20))
    @settings(max_examples=25)
    def test_matches_brute_force_heterogeneous(self, fps, seed):
        region = PartialRegion.whole_device(
            irregular_device(5, 4, seed=seed, bram_stride=3, jitter=1, clk_rows=0)
        )
        modules = [Module(f"m{i}", [fp]) for i, fp in enumerate(fps)]
        assert kernel_solutions(region, modules) == brute_force_solutions(
            region, modules
        )

    @given(st.lists(small_fp, min_size=2, max_size=2))
    @settings(max_examples=15)
    def test_matches_brute_force_with_alternatives(self, fps):
        region = PartialRegion.whole_device(homogeneous_device(4, 3))
        # one module with both footprints as alternatives + one fixed shape
        modules = [Module("poly", fps), Module("mono", [fps[0]])]
        assert kernel_solutions(region, modules) == brute_force_solutions(
            region, modules
        )

    def test_static_region_respected(self):
        g = homogeneous_device(4, 2)
        region = PartialRegion.with_static_box(g, 0, 0, 2, 2)
        modules = [Module("m", [Footprint.rectangle(2, 2)])]
        sols = kernel_solutions(region, modules)
        assert sols == {((0, 2, 0),)}


class TestFiltering:
    def test_initial_domains_pruned_to_static_anchors(self):
        region = PartialRegion.whole_device(homogeneous_device(6, 4))
        modules = [Module("m", [Footprint.rectangle(3, 2)])]
        m = Model()
        kernel, xs, ys, ss = build_kernel(m, region, modules)
        assert xs[0].max() == 3  # 6 - 3
        assert ys[0].max() == 2  # 4 - 2

    def test_resource_matching_restricts_anchors(self):
        rows = ["..B.", "..B."]
        g = __import__("repro.fabric.grid", fromlist=["FabricGrid"]).FabricGrid.from_rows(rows)
        region = PartialRegion.whole_device(g)
        fp = Footprint([(0, 0, ResourceType.BRAM)])
        m = Model()
        kernel, xs, ys, ss = build_kernel(m, region, [Module("b", [fp])])
        assert list(xs[0].domain) == [2]
        assert set(ys[0].domain) == {0, 1}

    def test_imprint_prunes_other_modules(self):
        region = PartialRegion.whole_device(homogeneous_device(4, 1))
        mods = [
            Module("a", [Footprint.rectangle(2, 1)]),
            Module("b", [Footprint.rectangle(2, 1)]),
        ]
        m = Model()
        kernel, xs, ys, ss = build_kernel(m, region, mods)
        xs[0].fix(0)
        ys[0].fix(0)
        ss[0].fix(0)
        m.engine.fixpoint()
        assert xs[1].min() == 2

    def test_overlap_failure_detected(self):
        region = PartialRegion.whole_device(homogeneous_device(3, 1))
        mods = [
            Module("a", [Footprint.rectangle(2, 1)]),
            Module("b", [Footprint.rectangle(2, 1)]),
        ]
        m = Model()
        with pytest.raises(Inconsistent):
            build_kernel(m, region, mods)  # 4 cells needed, 3 available

    def test_backtracking_restores_state(self):
        region = PartialRegion.whole_device(homogeneous_device(5, 2))
        mods = [
            Module("a", [Footprint.rectangle(2, 2)]),
            Module("b", [Footprint.rectangle(2, 2)]),
        ]
        m = Model()
        kernel, xs, ys, ss = build_kernel(m, region, mods)
        x1_before = list(xs[1].domain)
        occ_before = kernel.occupied_mask()
        m.engine.push_level()
        xs[0].fix(0)
        ys[0].fix(0)
        ss[0].fix(0)
        m.engine.fixpoint()
        assert kernel.occupied_mask().any()
        assert list(xs[1].domain) != x1_before
        m.engine.pop_level()
        assert np.array_equal(kernel.occupied_mask(), occ_before)
        assert list(xs[1].domain) == x1_before
        assert not kernel.items[0].placed

    def test_shape_alternative_collapses_under_pressure(self):
        # 2x1 corridor: a 1x2/2x1 polymorphic module must lie flat
        region = PartialRegion.whole_device(homogeneous_device(2, 1))
        mod = Module(
            "poly", [Footprint.rectangle(1, 2), Footprint.rectangle(2, 1)]
        )
        m = Model()
        kernel, xs, ys, ss = build_kernel(m, region, [mod])
        assert ss[0].value() == 1


class TestQueries:
    def _setup(self):
        region = PartialRegion.whole_device(homogeneous_device(3, 2))
        mods = [Module("a", [Footprint.rectangle(2, 1), Footprint.rectangle(1, 2)])]
        m = Model()
        kernel, xs, ys, ss = build_kernel(m, region, mods)
        return m, kernel, xs, ys, ss

    def test_anchors_for_bottom_left_order(self):
        m, kernel, xs, ys, ss = self._setup()
        anchors = kernel.anchors_for(0)
        assert anchors[0][1:] == (0, 0)  # first anchor at x=0,y=0
        xs_sorted = [a[1] for a in anchors]
        assert xs_sorted == sorted(xs_sorted)

    def test_anchor_count_matches_list(self):
        m, kernel, xs, ys, ss = self._setup()
        assert kernel.anchor_count(0) == len(kernel.anchors_for(0))

    def test_placements_empty_until_fixed(self):
        m, kernel, xs, ys, ss = self._setup()
        assert kernel.placements() == []
        xs[0].fix(0)
        ys[0].fix(0)
        ss[0].fix(0)
        m.engine.fixpoint()
        ps = kernel.placements()
        assert len(ps) == 1 and ps[0].x == 0

    def test_occupied_mask_shape(self):
        m, kernel, xs, ys, ss = self._setup()
        assert kernel.occupied_mask().shape == (2, 3)

    def test_validation(self):
        region = PartialRegion.whole_device(homogeneous_device(3, 2))
        m = Model()
        with pytest.raises(ValueError):
            PlacementKernel(region, [], [], [], [])
        mod = Module("a", [Footprint.rectangle(1, 1)])
        x = m.int_var(0, 2, "x")
        with pytest.raises(ValueError):
            PlacementKernel(region, [mod], [x], [], [])
