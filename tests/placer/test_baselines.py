"""Baseline placers: validity, determinism, quality ordering, KAMER."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fabric.devices import homogeneous_device, irregular_device
from repro.fabric.region import PartialRegion
from repro.metrics.fragmentation import maximal_empty_rectangles
from repro.modules.footprint import Footprint
from repro.modules.generator import GeneratorConfig, ModuleGenerator
from repro.modules.module import Module
from repro.placer import (
    AnnealingConfig,
    AnnealingPlacer,
    BestFitPlacer,
    BottomLeftPlacer,
    FirstFitPlacer,
    KamerPlacer,
)
from repro.placer.kamer import prune_non_maximal, split_rectangle

ALL_PLACERS = [
    BottomLeftPlacer,
    FirstFitPlacer,
    BestFitPlacer,
    KamerPlacer,
    # evaluation-budgeted so runs are deterministic regardless of load
    lambda: AnnealingPlacer(
        AnnealingConfig(time_limit=30.0, seed=0, max_evaluations=150)
    ),
]


def instance(n=6, seed=2):
    region = PartialRegion.whole_device(irregular_device(64, 16, seed=7))
    modules = ModuleGenerator(seed=seed).generate_set(n)
    return region, modules


class TestAllBaselines:
    @pytest.mark.parametrize("factory", ALL_PLACERS)
    def test_placements_are_valid(self, factory):
        region, modules = instance()
        res = factory().place(region, modules)
        res.verify()
        assert len(res.placements) + len(res.unplaced) == len(modules)

    @pytest.mark.parametrize("factory", ALL_PLACERS)
    def test_deterministic(self, factory):
        region, modules = instance()
        a = factory().place(region, modules)
        b = factory().place(region, modules)
        assert [(p.module.name, p.shape_index, p.x, p.y) for p in a.placements] == [
            (p.module.name, p.shape_index, p.x, p.y) for p in b.placements
        ]

    @pytest.mark.parametrize("factory", ALL_PLACERS)
    def test_all_fit_on_roomy_homogeneous_fabric(self, factory):
        region = PartialRegion.whole_device(homogeneous_device(40, 12))
        mods = [
            Module(f"m{i}", [Footprint.rectangle(3, 3)]) for i in range(8)
        ]
        res = factory().place(region, mods)
        assert res.all_placed

    @pytest.mark.parametrize("factory", ALL_PLACERS)
    def test_oversized_module_rejected_not_crashed(self, factory):
        region = PartialRegion.whole_device(homogeneous_device(4, 4))
        mods = [Module("big", [Footprint.rectangle(9, 9)])]
        res = factory().place(region, mods)
        assert res.unplaced == mods
        assert res.status == "partial"


class TestBottomLeft:
    def test_packs_to_origin(self):
        region = PartialRegion.whole_device(homogeneous_device(10, 4))
        mods = [Module("a", [Footprint.rectangle(2, 2)])]
        res = BottomLeftPlacer().place(region, mods)
        p = res.placements[0]
        assert (p.x, p.y) == (0, 0)

    def test_alternatives_considered(self):
        # corridor of height 1: only the flat alternative fits
        region = PartialRegion.whole_device(homogeneous_device(6, 1))
        mod = Module("p", [Footprint.rectangle(1, 3), Footprint.rectangle(3, 1)])
        res = BottomLeftPlacer().place(region, [mod])
        assert res.all_placed
        assert res.placements[0].shape_index == 1


class TestBestFit:
    def test_minimizes_extent_growth(self):
        region = PartialRegion.whole_device(homogeneous_device(10, 2))
        mods = [
            Module("a", [Footprint.rectangle(3, 2)]),
            Module("b", [Footprint.rectangle(2, 1)]),
        ]
        res = BestFitPlacer().place(region, mods)
        # the 2x1 should tuck left of/under the 3x2's extent, not extend it
        assert res.extent == 5


class TestKamerMechanics:
    def test_split_no_intersection(self):
        assert split_rectangle((0, 0, 4, 4), (10, 10, 2, 2)) == [(0, 0, 4, 4)]

    def test_split_center_produces_four(self):
        parts = split_rectangle((0, 0, 5, 5), (2, 2, 1, 1))
        assert len(parts) == 4
        assert (0, 0, 2, 5) in parts  # left slab
        assert (3, 0, 2, 5) in parts  # right slab
        assert (0, 0, 5, 2) in parts  # bottom slab
        assert (0, 3, 5, 2) in parts  # top slab

    def test_split_corner(self):
        parts = split_rectangle((0, 0, 4, 4), (0, 0, 2, 2))
        assert sorted(parts) == [(0, 2, 4, 2), (2, 0, 2, 4)]

    def test_prune_non_maximal(self):
        rects = [(0, 0, 4, 4), (1, 1, 2, 2), (0, 0, 4, 2)]
        assert prune_non_maximal(rects) == [(0, 0, 4, 4)]

    def test_prune_keeps_one_duplicate(self):
        rects = [(0, 0, 2, 2), (0, 0, 2, 2)]
        assert prune_non_maximal(rects) == [(0, 0, 2, 2)]

    @given(
        st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 5),
                      st.integers(1, 3), st.integers(1, 3)),
            min_size=1, max_size=4,
        )
    )
    @settings(max_examples=40)
    def test_split_covers_exactly_complement(self, boxes):
        """Splitting MERs around placed boxes covers free space exactly."""
        H = W = 8
        free = np.ones((H, W), dtype=bool)
        mers = [(0, 0, W, H)]
        for (x, y, w, h) in boxes:
            if x + w > W or y + h > H:
                continue
            free[y:y + h, x:x + w] = False
            new = []
            for mer in mers:
                new.extend(split_rectangle(mer, (x, y, w, h)))
            mers = prune_non_maximal(list(dict.fromkeys(new)))
        covered = np.zeros((H, W), dtype=bool)
        for (x, y, w, h) in mers:
            covered[y:y + h, x:x + w] = True
        assert np.array_equal(covered, free)

    def test_matches_fragmentation_mer_computation(self):
        """KAMER incremental MERs == batch maximal-empty-rectangle sweep."""
        free = np.ones((6, 6), dtype=bool)
        placed = [(0, 0, 2, 2), (3, 1, 2, 3)]
        mers = [(0, 0, 6, 6)]
        for box in placed:
            x, y, w, h = box
            free[y:y + h, x:x + w] = False
            new = []
            for mer in mers:
                new.extend(split_rectangle(mer, box))
            mers = prune_non_maximal(list(dict.fromkeys(new)))
        assert sorted(mers) == sorted(maximal_empty_rectangles(free))


class TestAnnealing:
    def test_improves_or_equals_bottom_left(self):
        region, modules = instance(n=8, seed=4)
        bl = BottomLeftPlacer().place(region, modules)
        sa = AnnealingPlacer(
            AnnealingConfig(time_limit=2.0, seed=3)
        ).place(region, modules)
        if bl.all_placed and sa.all_placed:
            assert sa.extent <= bl.extent + 2  # sanity: same ballpark or better

    def test_single_shape_modules_still_move(self):
        region = PartialRegion.whole_device(homogeneous_device(20, 4))
        mods = [Module(f"m{i}", [Footprint.rectangle(3, 2)]) for i in range(4)]
        res = AnnealingPlacer(AnnealingConfig(time_limit=0.5, seed=1)).place(
            region, mods
        )
        assert res.all_placed
        res.verify()
