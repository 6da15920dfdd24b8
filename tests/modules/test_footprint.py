"""Footprint: normalization, rendering, conversions."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.fabric.resource import ResourceType
from repro.fabric.tile import TileSet
from repro.modules.footprint import Footprint

cells_strategy = st.lists(
    st.tuples(
        st.integers(-5, 5),
        st.integers(-5, 5),
        st.sampled_from([ResourceType.CLB, ResourceType.BRAM, ResourceType.DSP]),
    ),
    min_size=1,
    max_size=12,
    unique_by=lambda c: (c[0], c[1]),
)


class TestConstruction:
    def test_normalization(self):
        fp = Footprint([(3, 4, ResourceType.CLB), (4, 5, ResourceType.CLB)])
        assert (0, 0, ResourceType.CLB) in fp.cells
        assert fp.width == 2 and fp.height == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Footprint([])

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError):
            Footprint([(0, 0, ResourceType.CLB), (0, 0, ResourceType.BRAM)])

    def test_unavailable_rejected(self):
        with pytest.raises(ValueError):
            Footprint([(0, 0, ResourceType.UNAVAILABLE)])

    def test_immutable(self):
        fp = Footprint.rectangle(2, 2)
        with pytest.raises(AttributeError):
            fp.width = 5

    @given(cells_strategy)
    def test_normalized_origin(self, cells):
        fp = Footprint(cells)
        assert min(x for x, _, _ in fp.cells) == 0
        assert min(y for _, y, _ in fp.cells) == 0

    @given(cells_strategy)
    def test_area_and_counts(self, cells):
        fp = Footprint(cells)
        assert fp.area == len(cells)
        assert sum(fp.resource_counts().values()) == len(cells)


class TestGeometry:
    def test_rectangle(self):
        fp = Footprint.rectangle(3, 2, ResourceType.BRAM)
        assert fp.area == 6 and fp.is_rectangular()
        assert fp.resource_counts() == {ResourceType.BRAM: 6}

    def test_rectangle_validation(self):
        with pytest.raises(ValueError):
            Footprint.rectangle(0, 2)

    def test_non_rectangular(self):
        fp = Footprint([(0, 0, ResourceType.CLB), (1, 1, ResourceType.CLB)])
        assert not fp.is_rectangular()
        assert fp.bbox_area == 4 and fp.area == 2

    def test_grid_layout(self):
        fp = Footprint([(0, 0, ResourceType.CLB), (1, 0, ResourceType.BRAM)])
        g = fp.grid()
        assert g.shape == (1, 2)
        assert g[0, 0] == int(ResourceType.CLB)
        assert g[0, 1] == int(ResourceType.BRAM)

    def test_occupancy_and_offsets(self):
        fp = Footprint([(0, 0, ResourceType.CLB), (1, 1, ResourceType.CLB)])
        occ = fp.occupancy()
        assert occ.sum() == 2
        offsets = fp.offsets()
        assert sorted(map(tuple, offsets.tolist())) == [[0, 0], [1, 1]] or \
            sorted(map(tuple, offsets.tolist())) == [(0, 0), (1, 1)]

    def test_offsets_memoized_read_only_and_lazy(self):
        fp = Footprint.from_rows(["B..", "B ."])
        assert fp._offsets is None  # not computed at construction
        first = fp.offsets()
        assert fp.offsets() is first
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0, 0] = 7
        assert first.shape == (fp.area, 2) and first.dtype == np.uint8
        assert sorted(map(tuple, first.tolist())) == sorted(
            (dy, dx) for dx, dy, _ in fp.cells
        )

    def test_cells_of(self):
        fp = Footprint([(0, 0, ResourceType.CLB), (1, 0, ResourceType.BRAM)])
        assert fp.cells_of(ResourceType.BRAM) == {(1, 0)}


class TestRoundTrips:
    @given(cells_strategy)
    def test_render_parse_round_trip(self, cells):
        fp = Footprint(cells)
        assert Footprint.from_rows(fp.render().splitlines()) == fp

    @given(cells_strategy)
    def test_tileset_round_trip(self, cells):
        fp = Footprint(cells)
        assert Footprint.from_tilesets(fp.tilesets()) == fp

    def test_from_rows_with_gaps(self):
        fp = Footprint.from_rows(["B .", "..."])
        assert fp.area == 5
        assert fp.resource_counts()[ResourceType.BRAM] == 1

    def test_from_rows_rejects_bad_chars(self):
        with pytest.raises(ValueError):
            Footprint.from_rows(["#"])  # UNAVAILABLE is not placeable
        with pytest.raises(ValueError):
            Footprint.from_rows(["?"])

    def test_equality_and_hash(self):
        a = Footprint([(2, 2, ResourceType.CLB), (3, 2, ResourceType.CLB)])
        b = Footprint([(0, 0, ResourceType.CLB), (1, 0, ResourceType.CLB)])
        assert a == b and hash(a) == hash(b)

    def test_tilesets_group_by_kind(self):
        fp = Footprint(
            [(0, 0, ResourceType.CLB), (1, 0, ResourceType.CLB),
             (0, 1, ResourceType.BRAM)]
        )
        ts = fp.tilesets()
        assert len(ts) == 2
        kinds = {t.kind for t in ts}
        assert kinds == {ResourceType.CLB, ResourceType.BRAM}
