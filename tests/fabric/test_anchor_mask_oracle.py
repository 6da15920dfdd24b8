"""Differential suite: the run/prefix anchor-mask kernel against two oracles.

:func:`repro.fabric.masks.valid_anchor_mask` tests one vertical
same-kind run of a footprint per prefix-count subtraction.  It must be
bit-identical to

* :func:`tests.support.brute_force_anchor_mask` — the literal per-anchor,
  per-cell M_a ∧ M_b loop, and
* :func:`tests.support.slice_and_anchor_mask` — the earlier production
  kernel, one shifted slice-AND per footprint cell,

on generator-sized footprints (the ``GeneratorConfig()`` Table-I
workload, ~60 cells in ~6 runs) over the four shard regions the serving
benchmark uses, on residuals of those regions with seeded occupancy, and
on hypothesis footprints built to stress the run decomposition: tall
columns, gaps inside one column, interleaved kinds in one column, and
footprints taller or wider than the region.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.service import ShardedPlacementService
from repro.experiments.config import default_fabric
from repro.fabric.devices import irregular_device
from repro.fabric.masks import (
    blocked_prefix_counts,
    valid_anchor_mask,
    vertical_runs,
)
from repro.fabric.region import PartialRegion
from repro.fabric.resource import ResourceType
from repro.modules.footprint import Footprint
from repro.modules.generator import GeneratorConfig, ModuleGenerator
from tests.support import brute_force_anchor_mask, slice_and_anchor_mask

KINDS = (ResourceType.CLB, ResourceType.BRAM, ResourceType.DSP)


def shard_regions():
    return ShardedPlacementService.split(default_fabric(), 4)


def generator_footprints(seed, n_modules=6):
    """Every shape of a seeded Table-I module set (4 alternatives each)."""
    config = GeneratorConfig()
    assert config.n_alternatives == 4
    modules = ModuleGenerator(seed=seed, config=config).generate_set(n_modules)
    return [fp for m in modules for fp in m.shapes]


def residual(region, seed, density=0.3):
    """``region`` with a seeded random share of its cells occupied."""
    rng = np.random.default_rng(seed)
    occupied = rng.random((region.height, region.width)) < density
    return PartialRegion(region.grid, region.reconfigurable & ~occupied)


def assert_matches_oracles(region, fp, planes=None):
    mask = valid_anchor_mask(region, fp, planes)
    cells = sorted(fp.cells)
    assert mask.shape == (region.height, region.width)
    assert mask.dtype == bool
    assert np.array_equal(mask, slice_and_anchor_mask(region, cells))
    assert np.array_equal(mask, brute_force_anchor_mask(region, cells))
    # the raw-cell entry point decomposes the same runs
    assert np.array_equal(mask, valid_anchor_mask(region, cells))
    return mask


class TestGeneratorFootprints:
    @pytest.mark.parametrize("seed", range(4))
    def test_shard_regions(self, seed):
        fps = generator_footprints(seed)
        anchored = 0
        for region in shard_regions():
            planes = blocked_prefix_counts(region)
            for fp in fps:
                anchored += assert_matches_oracles(region, fp, planes).any()
        assert anchored > 0  # the comparison is not vacuous

    @pytest.mark.parametrize("seed", range(4))
    def test_residual_regions(self, seed):
        fps = generator_footprints(seed)
        for r, region in enumerate(shard_regions()):
            for density in (0.02, 0.1, 0.3):
                sub = residual(region, seed=1000 * seed + r, density=density)
                planes = blocked_prefix_counts(sub)
                for fp in fps:
                    assert_matches_oracles(sub, fp, planes)

    def test_generated_footprints_are_few_runs(self):
        # the premise of the kernel: ~one run per column, not per cell
        fps = generator_footprints(0, n_modules=10)
        runs = sum(len(fp.runs()) for fp in fps)
        cells = sum(fp.area for fp in fps)
        assert runs * 4 < cells


@st.composite
def column_footprints(draw, max_height=30, max_width=6):
    """Footprints drawn column by column: each column a vertical strip of
    optional typed cells, so columns can be tall, hold gaps and mix kinds."""
    width = draw(st.integers(1, max_width))
    height = draw(st.integers(1, max_height))
    column = st.lists(
        st.one_of(st.none(), st.sampled_from(KINDS)),
        min_size=height,
        max_size=height,
    )
    cells = [
        (x, y, kind)
        for x in range(width)
        for y, kind in enumerate(draw(column))
        if kind is not None
    ]
    if not cells:
        cells = [(0, 0, draw(st.sampled_from(KINDS)))]
    return Footprint(cells)


def tall_column(height, kind=ResourceType.CLB, gaps=(), x=0):
    return [(x, y, kind) for y in range(height) if y not in gaps]


class TestHypothesisShapes:
    @given(
        column_footprints(),
        st.integers(4, 20),
        st.integers(4, 16),
        st.integers(0, 50),
        st.sampled_from([0.0, 0.1, 0.4]),
    )
    @settings(max_examples=60, deadline=None)
    def test_column_footprints_match_oracles(self, fp, w, h, seed, density):
        region = residual(
            PartialRegion.whole_device(irregular_device(w, h, seed=seed)),
            seed=seed,
            density=density,
        )
        assert_matches_oracles(region, fp)

    @given(
        st.integers(2, 24),
        st.sets(st.integers(1, 22), max_size=6),
        st.integers(0, 30),
    )
    @settings(max_examples=30, deadline=None)
    def test_gapped_tall_column(self, height, gaps, seed):
        cells = tall_column(height, gaps={g for g in gaps if g < height - 1})
        fp = Footprint(cells)
        region = PartialRegion.whole_device(irregular_device(12, 16, seed=seed))
        assert_matches_oracles(region, fp)

    @given(st.lists(st.sampled_from(KINDS), min_size=2, max_size=20),
           st.integers(0, 30))
    @settings(max_examples=30, deadline=None)
    def test_interleaved_kinds_in_one_column(self, kinds, seed):
        fp = Footprint([(0, y, k) for y, k in enumerate(kinds)])
        # one run per change of kind, never merged across kinds
        changes = sum(1 for a, b in zip(kinds, kinds[1:]) if a != b)
        assert len(fp.runs()) == changes + 1
        region = PartialRegion.whole_device(
            irregular_device(16, 20, seed=seed, dsp_stride=5)
        )
        assert_matches_oracles(region, fp)

    @given(
        column_footprints(max_height=12, max_width=12),
        st.booleans(),
        st.integers(0, 30),
    )
    @settings(max_examples=30, deadline=None)
    def test_footprint_larger_than_region(self, fp, taller, seed):
        # one side of the region one tile short of the footprint's
        w, h = (12, fp.height - 1) if taller else (fp.width - 1, 12)
        assume(w > 0 and h > 0)
        region = PartialRegion.whole_device(irregular_device(w, h, seed=seed))
        assert not assert_matches_oracles(region, fp).any()

    @pytest.mark.parametrize("width,height", [(7, 3), (3, 7), (7, 7), (1, 9)])
    def test_exact_and_oversize_bounding_boxes(self, width, height):
        region = PartialRegion.whole_device(irregular_device(6, 6, seed=3))
        corner = [] if width == 1 else [(0, 0, ResourceType.BRAM)]
        fp = Footprint(tall_column(height, x=width - 1) + corner)
        mask = assert_matches_oracles(region, fp)
        if width > 6 or height > 6:
            assert not mask.any()

    def test_tall_region_widens_prefix_dtype(self):
        # 300 rows: counts no longer fit uint8
        region = residual(
            PartialRegion.whole_device(irregular_device(3, 300, seed=1)),
            seed=2,
            density=0.05,
        )
        planes = blocked_prefix_counts(region)
        assert planes.dtype == np.uint16
        assert_matches_oracles(region, Footprint(tall_column(40)), planes)
        assert_matches_oracles(
            region, Footprint(tall_column(260, gaps={7, 100})), planes
        )


class TestRunDecomposition:
    @given(column_footprints())
    @settings(max_examples=60, deadline=None)
    def test_runs_partition_cells_maximally(self, fp):
        runs = fp.runs()
        covered = [
            (dx, dy0 + i, kind) for dx, dy0, n, kind in runs for i in range(n)
        ]
        assert sorted(covered) == sorted(fp.cells)
        assert len(covered) == fp.area  # no cell in two runs
        for (x0, y0, n0, k0), (x1, y1, _, k1) in zip(runs, runs[1:]):
            assert not (x0 == x1 and k0 == k1 and y0 + n0 == y1)

    def test_runs_are_lazy_and_memoized(self):
        fp = Footprint.rectangle(3, 4)
        assert fp._runs is None  # nothing computed at construction
        runs = fp.runs()
        assert runs == tuple((x, 0, 4, ResourceType.CLB) for x in range(3))
        assert fp.runs() is runs

    def test_vertical_runs_of_raw_cells(self):
        cells = [
            (0, 0, ResourceType.CLB),
            (0, 1, ResourceType.CLB),
            (0, 3, ResourceType.CLB),
            (1, 0, ResourceType.BRAM),
            (1, 1, ResourceType.CLB),
        ]
        assert vertical_runs(cells) == (
            (0, 0, 2, ResourceType.CLB),
            (0, 3, 1, ResourceType.CLB),
            (1, 0, 1, ResourceType.BRAM),
            (1, 1, 1, ResourceType.CLB),
        )

    def test_unavailable_cells_rejected(self):
        region = PartialRegion.whole_device(irregular_device(4, 4, seed=0))
        with pytest.raises(ValueError, match="UNAVAILABLE"):
            valid_anchor_mask(
                region,
                [(0, 0, ResourceType.CLB), (0, 1, ResourceType.UNAVAILABLE)],
            )
