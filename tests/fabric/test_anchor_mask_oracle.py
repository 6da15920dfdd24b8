"""Differential suite: the packed anchor-word kernel against three oracles.

:func:`repro.fabric.masks.anchor_words` tests each vertical same-kind run
of a footprint with one or two shifted words of a doubling table over the
region's packed column words; :func:`repro.fabric.masks.valid_anchor_mask`
is its unpacked form.  Both must be bit-identical to

* :func:`tests.support.brute_force_anchor_mask` — the literal per-anchor,
  per-cell M_a ∧ M_b loop,
* :func:`tests.support.slice_and_anchor_mask` — an earlier production
  kernel, one shifted slice-AND per footprint cell, and
* :func:`tests.support.prefix_count_anchor_mask` — the kernel the words
  replaced, one prefix-count subtraction per run,

on generator-sized footprints (the ``GeneratorConfig()`` Table-I
workload, ~60 cells in ~6 runs) over the four shard regions the serving
benchmark uses, on residuals of those regions with seeded occupancy, on
hypothesis footprints built to stress the run decomposition (tall
columns, gaps inside one column, interleaved kinds in one column,
footprints taller or wider than the region), and on regions whose
heights sit at the 64-bit lane edges (1, 63, 64, 65, 128 and 300 rows),
where runs and shifts cross from one lane into the next.  A batch of
footprints answered in one call must equal the footprints answered one
at a time.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.service import ShardedPlacementService
from repro.experiments.config import default_fabric
from repro.fabric.devices import irregular_device
from repro.fabric.grid import FabricGrid
from repro.fabric.masks import (
    LANE_BITS,
    anchor_words,
    column_words,
    pack_columns,
    unpack_columns,
    valid_anchor_mask,
    vertical_runs,
)
from repro.fabric.region import PartialRegion
from repro.fabric.resource import ResourceType
from repro.modules.footprint import Footprint
from repro.modules.generator import GeneratorConfig, ModuleGenerator
from tests.support import (
    blocked_prefix_counts,
    brute_force_anchor_mask,
    prefix_count_anchor_mask,
    slice_and_anchor_mask,
)

KINDS = (ResourceType.CLB, ResourceType.BRAM, ResourceType.DSP)
CLB = ResourceType.CLB


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


def assert_matches_oracles(region, fp, words=None, brute_force=True):
    mask = valid_anchor_mask(region, fp, words)
    cells = sorted(fp.cells)
    assert mask.shape == (region.height, region.width)
    assert mask.dtype == bool
    assert np.array_equal(mask, prefix_count_anchor_mask(region, fp))
    assert np.array_equal(mask, slice_and_anchor_mask(region, cells))
    if brute_force:
        assert np.array_equal(mask, brute_force_anchor_mask(region, cells))
    # the raw-cell entry point decomposes the same runs
    assert np.array_equal(mask, valid_anchor_mask(region, cells))
    # the words themselves: (W, L) uint64, nothing set past the last row
    (found,) = anchor_words(column_words(region), [fp])
    lanes = -(-region.height // LANE_BITS)
    assert found.shape == (region.width, lanes) and found.dtype == np.uint64
    assert np.array_equal(pack_columns(mask), found)
    return mask


def assert_batch_matches_singles(region, fps):
    """One call over every footprint equals one call per footprint."""
    words = column_words(region)
    batch = anchor_words(words, fps)
    assert len(batch) == len(fps)
    for fp, found in zip(fps, batch):
        assert np.array_equal(found, anchor_words(words, [fp])[0])
        assert np.array_equal(
            unpack_columns(found, region.height),
            prefix_count_anchor_mask(region, fp),
        )


class TestGeneratorFootprints:
    @pytest.mark.parametrize("seed", range(4))
    def test_shard_regions(self, seed):
        fps = generator_footprints(seed)
        anchored = 0
        for region in shard_regions():
            words = column_words(region)
            for fp in fps:
                anchored += assert_matches_oracles(region, fp, words).any()
            assert_batch_matches_singles(region, fps)
        assert anchored > 0  # the comparison is not vacuous

    @pytest.mark.parametrize("seed", range(4))
    def test_residual_regions(self, seed):
        fps = generator_footprints(seed)
        for r, region in enumerate(shard_regions()):
            for density in (0.02, 0.1, 0.3):
                sub = residual(region, seed=1000 * seed + r, density=density)
                words = column_words(sub)
                for fp in fps:
                    assert_matches_oracles(sub, fp, words)
                assert_batch_matches_singles(sub, fps)

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
        # 300 rows: the oracle's counts no longer fit uint8, and the words
        # span five lanes
        region = residual(
            PartialRegion.whole_device(irregular_device(3, 300, seed=1)),
            seed=2,
            density=0.05,
        )
        assert blocked_prefix_counts(region).dtype == np.uint16
        words = column_words(region)
        assert words.shape[-1] == 5
        assert_matches_oracles(region, Footprint(tall_column(40)), words)
        assert_matches_oracles(
            region, Footprint(tall_column(260, gaps={7, 100})), words
        )


def lane_edge_region(height, seed, width=7):
    """A mostly-CLB region with sparse random other kinds and a seeded
    share of occupied cells: long CLB runs fit, short ones cross kinds."""
    rng = np.random.default_rng(seed)
    cells = np.where(
        rng.random((height, width)) < 0.04,
        rng.integers(1, int(ResourceType.UNAVAILABLE) + 1, (height, width)),
        int(ResourceType.CLB),
    )
    free = rng.random((height, width)) >= 0.02
    return PartialRegion(FabricGrid(cells), free)


class TestLaneEdges:
    """Heights at the 64-bit lane boundaries: runs that end on, start
    after or straddle a lane edge, shifts of a whole lane or more."""

    @pytest.mark.parametrize("height", [1, 63, 64, 65, 128, 300])
    def test_tall_columns_across_lane_edges(self, height):
        region = lane_edge_region(height, seed=height)
        lengths = sorted(
            {1, 2, 3, 31, 32, 33, 63, 64, 65, 127, 128, 129, height - 1,
             height, height + 1} - {0}
        )
        fps = []
        for n in lengths:
            fps.append(Footprint(tall_column(n)))
            fps.append(Footprint(tall_column(n, x=1) + [(0, 0, CLB)]))
            if n > 2:
                fps.append(Footprint(tall_column(n, gaps={n // 2})))
        anchored = 0
        for fp in fps:
            mask = assert_matches_oracles(region, fp, brute_force=height <= 128)
            anchored += mask.any()
            if fp.height > height:
                assert not mask.any()
        assert anchored > 0  # the comparison is not vacuous
        assert_batch_matches_singles(region, fps)

    @pytest.mark.parametrize("height", [1, 63, 64, 65, 128, 300])
    def test_offset_runs_across_lane_edges(self, height):
        # a short anchor cell at the bottom, then a run starting high up:
        # the run's test is shifted down by dy0 across lanes
        region = lane_edge_region(height, seed=height + 1)
        fps = [
            Footprint(
                [(0, 0, CLB)] + [(1, y, CLB) for y in range(dy0, dy0 + n)]
            )
            for dy0 in (1, 62, 63, 64, 65, 127, 200)
            for n in (1, 5, 64)
        ]
        for fp in fps:
            assert_matches_oracles(region, fp, brute_force=height <= 128)
        assert_batch_matches_singles(region, fps)

    @given(
        column_footprints(max_height=80, max_width=4),
        st.sampled_from([1, 63, 64, 65, 128]),
        st.integers(0, 50),
    )
    @settings(max_examples=40, deadline=None)
    def test_column_footprints_at_lane_edges(self, fp, height, seed):
        region = lane_edge_region(height, seed=seed, width=6)
        assert_matches_oracles(region, fp)

    @pytest.mark.parametrize("height", [1, 63, 64, 65, 128, 300])
    def test_footprints_taller_or_wider_than_region(self, height):
        region = lane_edge_region(height, seed=height + 2, width=5)
        fps = [
            Footprint(tall_column(height + 1)),
            Footprint(tall_column(height + 64)),
            # one column wider than the region, then far wider
            Footprint(tall_column(min(height, 3), x=5) + [(0, 0, CLB)]),
            Footprint(tall_column(1, x=40) + [(0, 0, CLB)]),
        ]
        for fp in fps:
            assert not assert_matches_oracles(region, fp, brute_force=False).any()
        assert_batch_matches_singles(region, fps)

    @pytest.mark.parametrize("height", [1, 63, 64, 65, 128, 300])
    def test_pack_round_trip(self, height):
        mask = np.random.default_rng(height).random((height, 9)) < 0.5
        words = pack_columns(mask)
        assert words.shape == (9, -(-height // LANE_BITS))
        assert np.array_equal(unpack_columns(words, height), mask)
        # bit y of column x is cell (x, y)
        ys, xs = np.nonzero(mask)
        for y, x in zip(ys[:20], xs[:20]):
            lane, bit = divmod(int(y), LANE_BITS)
            assert (int(words[x, lane]) >> bit) & 1


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
