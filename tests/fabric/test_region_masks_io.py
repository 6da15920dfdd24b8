"""PartialRegion, anchor masks (vs brute force) and JSON round trips."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fabric.devices import homogeneous_device, irregular_device
from repro.fabric.grid import FabricGrid
from repro.fabric.io import load_region, region_from_dict, region_to_dict, save_region
from repro.fabric.masks import column_words, first_anchor, valid_anchor_mask
from repro.fabric.region import PartialRegion
from repro.fabric.resource import ResourceType
from repro.modules.footprint import Footprint
from repro.modules.generator import ModuleGenerator
from tests.support import brute_force_anchor_mask


class TestPartialRegion:
    def test_whole_device(self):
        g = homogeneous_device(8, 4)
        pr = PartialRegion.whole_device(g)
        assert pr.available_area() == 32

    def test_static_box_reduces_area(self):
        g = homogeneous_device(8, 4)
        pr = PartialRegion.with_static_box(g, 0, 0, 4, 4)
        assert pr.available_area() == 16
        assert not pr.reconfigurable[0, 0]
        assert pr.reconfigurable[0, 4]

    def test_reconfigurable_box(self):
        g = homogeneous_device(8, 4)
        pr = PartialRegion.reconfigurable_box(g, 2, 1, 3, 2)
        assert pr.available_area() == 6
        assert pr.bounding_box() == (2, 1, 3, 2)

    def test_unavailable_tiles_excluded(self):
        g = homogeneous_device(4, 2)
        g.cells[0, 0] = int(ResourceType.UNAVAILABLE)
        pr = PartialRegion.whole_device(g)
        assert pr.available_area() == 7

    def test_box_validation(self):
        g = homogeneous_device(4, 4)
        with pytest.raises(ValueError):
            PartialRegion.with_static_box(g, 2, 2, 4, 4)
        with pytest.raises(ValueError):
            PartialRegion.reconfigurable_box(g, 0, 0, 0, 2)

    def test_mask_shape_validation(self):
        g = homogeneous_device(4, 4)
        with pytest.raises(ValueError):
            PartialRegion(g, np.ones((2, 2), dtype=bool))

    def test_available_counts(self):
        g = irregular_device(24, 8, seed=5)
        pr = PartialRegion.whole_device(g)
        counts = pr.available_counts()
        assert counts[ResourceType.CLB] == g.count(ResourceType.CLB)
        assert ResourceType.UNAVAILABLE not in counts

    def test_render_marks_static(self):
        g = homogeneous_device(4, 2)
        pr = PartialRegion.with_static_box(g, 0, 0, 2, 2)
        assert "#" in pr.render()


footprint_cells = st.lists(
    st.tuples(
        st.integers(0, 4),
        st.integers(0, 4),
        st.sampled_from([ResourceType.CLB, ResourceType.BRAM, ResourceType.DSP]),
    ),
    min_size=1,
    max_size=8,
    unique_by=lambda c: (c[0], c[1]),
)


class TestAnchorMasks:
    @given(footprint_cells, st.integers(0, 30))
    @settings(max_examples=40)
    def test_vectorized_matches_brute_force(self, cells, seed):
        fp = Footprint(cells)
        region = PartialRegion.whole_device(irregular_device(16, 10, seed=seed))
        fast = valid_anchor_mask(region, sorted(fp.cells))
        slow = brute_force_anchor_mask(region, sorted(fp.cells))
        assert np.array_equal(fast, slow)

    @given(footprint_cells, st.integers(0, 30))
    @settings(max_examples=20)
    def test_static_region_respected(self, cells, seed):
        fp = Footprint(cells)
        g = irregular_device(16, 10, seed=seed)
        region = PartialRegion.with_static_box(g, 0, 0, 8, 10)
        fast = valid_anchor_mask(region, sorted(fp.cells))
        slow = brute_force_anchor_mask(region, sorted(fp.cells))
        assert np.array_equal(fast, slow)

    def test_rectangle_on_homogeneous(self):
        region = PartialRegion.whole_device(homogeneous_device(8, 6))
        fp = Footprint.rectangle(3, 2)
        mask = valid_anchor_mask(region, sorted(fp.cells))
        assert int(mask.sum()) == (8 - 3 + 1) * (6 - 2 + 1)

    def test_unnormalized_cells_rejected(self):
        region = PartialRegion.whole_device(homogeneous_device(4, 4))
        with pytest.raises(ValueError):
            valid_anchor_mask(region, [(1, 1, ResourceType.CLB)])

    def test_empty_footprint_rejected(self):
        region = PartialRegion.whole_device(homogeneous_device(4, 4))
        with pytest.raises(ValueError):
            valid_anchor_mask(region, [])

    def test_precomputed_compat_equivalent(self):
        region = PartialRegion.whole_device(irregular_device(16, 8, seed=1))
        fp = ModuleGenerator(seed=2).generate().primary()
        words = column_words(region)
        a = valid_anchor_mask(region, fp, words)
        b = valid_anchor_mask(region, sorted(fp.cells))
        assert np.array_equal(a, b)

    def test_first_anchor_bottom_left(self):
        mask = np.zeros((4, 4), dtype=bool)
        mask[2, 1] = mask[0, 1] = mask[3, 0] = True
        assert first_anchor(mask) == (0, 3)

    def test_footprint_too_large_has_no_anchor(self):
        region = PartialRegion.whole_device(homogeneous_device(4, 4))
        fp = Footprint.rectangle(5, 1)
        assert not valid_anchor_mask(region, sorted(fp.cells)).any()


class TestRegionIO:
    def test_round_trip_dict(self):
        g = irregular_device(12, 6, seed=8)
        pr = PartialRegion.with_static_box(g, 0, 0, 6, 6, name="demo")
        d = region_to_dict(pr)
        back = region_from_dict(d)
        assert back.grid == pr.grid
        assert np.array_equal(back.reconfigurable, pr.reconfigurable)
        assert back.name == "demo"

    def test_round_trip_file(self, tmp_path):
        pr = PartialRegion.whole_device(irregular_device(10, 5, seed=2))
        path = tmp_path / "region.json"
        save_region(pr, path)
        back = load_region(path)
        assert back.grid == pr.grid

    def test_mask_validation(self):
        g = homogeneous_device(3, 2)
        d = {"fabric": g.render().splitlines(), "reconfigurable": ["111"]}
        with pytest.raises(ValueError):
            region_from_dict(d)
        d = {"fabric": g.render().splitlines(), "reconfigurable": ["11x", "111"]}
        with pytest.raises(ValueError):
            region_from_dict(d)
