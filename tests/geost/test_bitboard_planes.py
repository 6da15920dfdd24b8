"""Property suites for the bitboard raster layer (ISSUE 6 satellites).

Two independent pins under the vectorized sweep:

* **Plane maintenance** — :class:`OccupancyBitboard` planes mutated by
  random interleavings of ``imprint`` and trail-level pops must always
  equal a board rasterized from scratch out of the currently-live
  material.  The trail undo restores the *exact* previous cells, so this
  holds even for overlapping imprints — the historical failure mode of
  occupancy grids maintained by "clear my cells" undos.
* **Batched counting** — the boolean-bank oracle's
  :func:`count_anchors_batch` (``tests.support``),
  :func:`integral_occupancy` and :func:`sliding_box_counts` must equal
  their scalar / brute-force counterparts on randomized inputs including
  the empty-mask and full-mask edge cases, and
  :meth:`OccupancyBitboard.forbidden_anchor_lattice` must equal the
  per-point :meth:`blocking_cell` probe over the whole lattice.
"""

import itertools
import random

import numpy as np
import pytest

from repro.cp.trail import Trail
from repro.fabric.masks import integral_occupancy, sliding_box_counts
from repro.fabric.resource import ResourceType
from repro.geost.bitboard import OccupancyBitboard
from repro.geost.boxes import Box, ShiftedBox
from repro.geost.forbidden import ForbiddenRegion

from tests.support import count_anchors, count_anchors_batch


def _random_box(rng: random.Random, window: Box) -> Box:
    """A random box overlapping (or sticking out of) the window."""
    origin = []
    size = []
    for o, s in zip(window.origin, window.size):
        lo = rng.randint(o - 2, o + s - 1)
        origin.append(lo)
        size.append(rng.randint(1, min(4, o + s + 2 - lo)))
    return Box(tuple(origin), tuple(size))


def _board_from_scratch(window: Box, live_boxes, regions) -> OccupancyBitboard:
    fresh = OccupancyBitboard(window)
    for region in regions:
        fresh.add_region(region)
    fresh.imprint(list(live_boxes))
    return fresh


def _planes_equal(a: OccupancyBitboard, b: OccupancyBitboard) -> bool:
    keys = set(a._planes) | set(b._planes)
    zero = np.zeros(a._shape, dtype=bool)
    return all(
        np.array_equal(a._planes.get(k, zero), b._planes.get(k, zero))
        for k in keys
    )


class TestPlaneMaintenance:
    """Satellite 1: trailed imprints == from-scratch rasterization."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_imprint_pop_interleavings(self, seed):
        rng = random.Random(seed)
        window = Box((rng.randint(-2, 1), rng.randint(-2, 1)), (9, 7))
        regions = [
            ForbiddenRegion(_random_box(rng, window),
                            rng.choice([None, ResourceType.BRAM]))
            for _ in range(rng.randint(0, 3))
        ]
        board = OccupancyBitboard(window)
        for region in regions:
            board.add_region(region)
        trail = Trail()
        #: stack of per-level live-imprint snapshots, mirroring the trail
        live: list = []
        levels: list = []
        ops = 0
        for _ in range(1500):
            roll = rng.random()
            if roll < 0.45 or not levels:
                trail.push_level()
                levels.append(list(live))
            elif roll < 0.80:
                # imprint 1–2 random (possibly overlapping) boxes
                boxes = [
                    _random_box(rng, window)
                    for _ in range(rng.randint(1, 2))
                ]
                board.imprint(boxes, trail)
                live.extend(boxes)
            else:
                trail.pop_level()
                live = levels.pop()
            ops += 1
            if ops % 100 == 0:
                fresh = _board_from_scratch(window, live, regions)
                assert _planes_equal(board, fresh), (
                    f"seed {seed}: planes diverged after {ops} ops"
                )
        # drain every remaining level: the board must return to its
        # post-time (regions-only) state exactly
        while levels:
            trail.pop_level()
            live = levels.pop()
        fresh = _board_from_scratch(window, live, regions)
        assert _planes_equal(board, fresh)
        assert board.occupied_count() == fresh.occupied_count()

    def test_overlapping_imprints_restore_exact_cells(self):
        """Popping one of two overlapping imprints must not clear the
        overlap cells still owned by the surviving imprint."""
        board = OccupancyBitboard(Box((0, 0), (4, 4)))
        trail = Trail()
        trail.push_level()
        board.imprint([Box((0, 0), (2, 2))], trail)
        trail.push_level()
        board.imprint([Box((1, 1), (2, 2))], trail)
        assert board.occupied_count() == 7
        trail.pop_level()
        assert board.occupied_count() == 4  # the first 2x2 is intact
        trail.pop_level()
        assert board.occupied_count() == 0

    def test_material_outside_window_is_clipped(self):
        board = OccupancyBitboard(Box((0, 0), (3, 3)))
        trail = Trail()
        trail.push_level()
        board.imprint([Box((-5, -5), (2, 2)), Box((2, 2), (8, 8))], trail)
        assert board.occupied_count() == 1  # only cell (2, 2) is inside
        trail.pop_level()
        assert board.occupied_count() == 0


def _scalar_counts(stack, col, row):
    return np.array(
        [count_anchors(v, col, row) for v in stack], dtype=np.int64
    )


class TestCountAnchorsBatch:
    """Satellite 2: batched == scalar per-anchor counting."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_stacks(self, seed):
        rng = np.random.default_rng(seed)
        n, H, W = int(rng.integers(1, 6)), int(rng.integers(1, 9)), int(
            rng.integers(1, 9)
        )
        stack = rng.random((n, H, W)) < rng.random()
        col = rng.random(W) < rng.random()
        row = rng.random(H) < rng.random()
        assert np.array_equal(
            count_anchors_batch(stack, col, row),
            _scalar_counts(stack, col, row),
        )

    def test_empty_and_full_masks(self):
        stack = np.ones((3, 4, 5), dtype=bool)
        none_col = np.zeros(5, dtype=bool)
        none_row = np.zeros(4, dtype=bool)
        all_col = np.ones(5, dtype=bool)
        all_row = np.ones(4, dtype=bool)
        assert count_anchors_batch(stack, none_col, all_row).tolist() == [0, 0, 0]
        assert count_anchors_batch(stack, all_col, none_row).tolist() == [0, 0, 0]
        assert count_anchors_batch(stack, all_col, all_row).tolist() == [20, 20, 20]
        empty_valid = np.zeros((3, 4, 5), dtype=bool)
        assert count_anchors_batch(empty_valid, all_col, all_row).tolist() == [0, 0, 0]

    def test_zero_shapes(self):
        stack = np.zeros((0, 4, 5), dtype=bool)
        col = np.ones(5, dtype=bool)
        row = np.ones(4, dtype=bool)
        assert count_anchors_batch(stack, col, row).shape == (0,)


class TestIntegralMachinery:
    """integral_occupancy / sliding_box_counts vs brute force, in 2-D and 3-D."""

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("ndim", [2, 3])
    def test_sliding_counts_match_brute_force(self, seed, ndim):
        rng = np.random.default_rng(seed * 10 + ndim)
        shape = tuple(int(rng.integers(1, 7)) for _ in range(ndim))
        occ = rng.random(shape) < 0.4
        table = integral_occupancy(occ)
        starts = tuple(int(rng.integers(-3, 4)) for _ in range(ndim))
        lengths = tuple(int(rng.integers(1, 4)) for _ in range(ndim))
        counts = tuple(int(rng.integers(1, 5)) for _ in range(ndim))
        got = sliding_box_counts(table, starts, lengths, counts)
        assert got.shape == counts
        for offset in itertools.product(*(range(c) for c in counts)):
            expect = 0
            box_ranges = []
            for d in range(ndim):
                lo = starts[d] + offset[d]
                box_ranges.append(
                    range(max(0, lo), min(shape[d], lo + lengths[d]))
                )
            for cell in itertools.product(*box_ranges):
                expect += bool(occ[cell])
            assert got[offset] == expect, (seed, ndim, offset)

    def test_integral_borders_are_zero(self):
        occ = np.ones((2, 3), dtype=bool)
        table = integral_occupancy(occ)
        assert table.shape == (3, 4)
        assert table[0].tolist() == [0, 0, 0, 0]
        assert table[:, 0].tolist() == [0, 0, 0]
        assert table[-1, -1] == 6


class TestForbiddenAnchorLattice:
    """The whole-lattice evaluation equals the per-point probe."""

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_blocking_cell(self, seed):
        rng = random.Random(100 + seed)
        window = Box((rng.randint(-1, 1), rng.randint(-1, 1)), (8, 6))
        board = OccupancyBitboard(window)
        for _ in range(rng.randint(0, 4)):
            board.add_region(
                ForbiddenRegion(
                    _random_box(rng, window),
                    rng.choice([None, ResourceType.BRAM, ResourceType.CLB]),
                )
            )
        board.imprint([_random_box(rng, window) for _ in range(2)])
        sboxes = []
        for _ in range(rng.randint(1, 3)):
            sboxes.append(
                ShiftedBox(
                    (rng.randint(0, 2), rng.randint(0, 2)),
                    (rng.randint(1, 3), rng.randint(1, 3)),
                    rng.choice([None, ResourceType.BRAM]),
                )
            )
        ox, oy = window.origin
        bounds = [
            (ox + rng.randint(0, 2), ox + rng.randint(3, 6)),
            (oy + rng.randint(0, 2), oy + rng.randint(3, 5)),
        ]
        lattice = board.forbidden_anchor_lattice(
            sboxes, bounds, integral_occupancy(board.combined_occupancy(()))
        )
        for ax in range(bounds[0][0], bounds[0][1] + 1):
            for ay in range(bounds[1][0], bounds[1][1] + 1):
                expect = any(
                    board.blocking_cell(sb, (ax, ay)) is not None
                    for sb in sboxes
                )
                got = bool(lattice[ax - bounds[0][0], ay - bounds[1][0]])
                assert got == expect, (seed, (ax, ay))

    def test_no_shapes_is_all_free(self):
        board = OccupancyBitboard(Box((0, 0), (4, 4)))
        board.imprint([Box((0, 0), (4, 4))])
        lattice = board.forbidden_anchor_lattice(
            (), [(0, 3), (0, 3)],
            integral_occupancy(board.combined_occupancy(())),
        )
        assert lattice.shape == (4, 4)
        assert not lattice.any()

    def test_combined_occupancy_stamps_extras(self):
        board = OccupancyBitboard(Box((0, 0), (3, 3)))
        occ = board.combined_occupancy([Box((1, 1), (1, 1)), Box((-5, 0), (1, 1))])
        assert occ.sum() == 1 and occ[1, 1]
        # the throwaway copy must not leak back into the board
        assert board.occupied_count() == 0
