"""Differential suite: the two anchor-mask queries against their oracles.

* :func:`repro.fabric.masks.first_anchor` (two ``argmax`` scans on a
  boolean mask; first nonzero word and its lowest set bit on packed
  column words) must return what :func:`tests.support.lexsort_first_anchor`
  returns on the mask: the ``nonzero`` + ``lexsort`` pick the placers
  used to hand-roll.  :func:`repro.fabric.masks.bottom_left_pick` must
  pick the same ``(x, y, shape)`` from words as from masks.
* :func:`repro.fabric.masks.free_anchors` (a gather over the footprint's
  compact ``uint8`` offsets) must equal
  :func:`tests.support.cell_table_free_anchors`, the same gather over an
  ``int64`` offset table built from the footprint's cells.

The masks are random, and the draws include the empty mask, the full
mask, ``1 x N`` and ``N x 1`` masks, masks taller than 255 rows (where an
offset added in ``uint8`` would wrap, and the words span several 64-bit
lanes) and non-contiguous sub-window views (the KAMER placer queries one
maximal empty rectangle at a time).
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.fabric.masks import (
    bottom_left_pick,
    first_anchor,
    free_anchors,
    pack_columns,
)
from repro.fabric.resource import ResourceType
from repro.modules.footprint import Footprint
from tests.support import cell_table_free_anchors, lexsort_first_anchor

#: (height, width) families: small, one row, one column, taller than 255
SIZES = st.one_of(
    st.tuples(st.integers(1, 24), st.integers(1, 24)),
    st.tuples(st.just(1), st.integers(1, 64)),
    st.tuples(st.integers(1, 64), st.just(1)),
    st.tuples(st.integers(256, 320), st.integers(1, 12)),
)
#: 0.0 draws the empty mask, 1.0 the full one
DENSITIES = st.sampled_from([0.0, 0.005, 0.05, 0.3, 1.0])
SEEDS = st.integers(0, 2**32 - 1)


def random_mask(shape, density, seed):
    return np.random.default_rng(seed).random(shape) < density


@settings(max_examples=300, deadline=None)
@given(size=SIZES, density=DENSITIES, seed=SEEDS)
@example(size=(7, 5), density=0.0, seed=0)
@example(size=(1, 40), density=0.05, seed=1)
@example(size=(40, 1), density=0.05, seed=2)
@example(size=(300, 6), density=0.005, seed=3)
@example(size=(0, 5), density=1.0, seed=0)
@example(size=(5, 0), density=1.0, seed=0)
def test_first_anchor_matches_lexsort(size, density, seed):
    mask = random_mask(size, density, seed)
    assert first_anchor(mask) == lexsort_first_anchor(mask)


@settings(max_examples=300, deadline=None)
@given(size=SIZES, density=DENSITIES, seed=SEEDS)
@example(size=(7, 5), density=0.0, seed=0)
@example(size=(64, 3), density=0.005, seed=1)
@example(size=(65, 3), density=0.005, seed=2)
@example(size=(300, 6), density=0.005, seed=3)
@example(size=(300, 6), density=1.0, seed=3)
@example(size=(5, 0), density=1.0, seed=0)
def test_first_anchor_on_words_matches_lexsort(size, density, seed):
    mask = random_mask(size, density, seed)
    words = pack_columns(mask)
    assert words.dtype == np.uint64
    assert first_anchor(words) == lexsort_first_anchor(mask)


@settings(max_examples=200, deadline=None)
@given(
    size=SIZES,
    n_shapes=st.integers(1, 5),
    density=DENSITIES,
    seed=SEEDS,
)
def test_bottom_left_pick_on_words_matches_masks(size, n_shapes, density, seed):
    masks = [random_mask(size, density, seed + i) for i in range(n_shapes)]
    want = bottom_left_pick(masks)
    assert bottom_left_pick(pack_columns(m) for m in masks) == want
    hits = [
        (*hit, si)
        for si, hit in enumerate(map(lexsort_first_anchor, masks))
        if hit is not None
    ]
    assert want == (min(hits) if hits else None)


@settings(max_examples=200, deadline=None)
@given(
    size=SIZES,
    density=DENSITIES,
    seed=SEEDS,
    window=st.tuples(*[st.integers(0, 8)] * 4),
)
def test_first_anchor_on_sub_window_view(size, density, seed, window):
    mask = random_mask(size, density, seed)
    y0, x0, dh, dw = window
    view = mask[y0 : size[0] - dh, x0 : size[1] - dw]
    assert first_anchor(view) == lexsort_first_anchor(view)


@st.composite
def footprints(draw):
    """A random single-kind footprint inside a 5 x 5 box."""
    cells = draw(
        st.sets(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=1)
    )
    return Footprint([(x, y, ResourceType.CLB) for x, y in cells])


@settings(max_examples=300, deadline=None)
@given(
    fp=footprints(),
    size=SIZES,
    anchor_density=DENSITIES,
    occupied_density=DENSITIES,
    seed=SEEDS,
)
@example(
    fp=Footprint([(0, 0, ResourceType.CLB), (0, 1, ResourceType.CLB)]),
    size=(300, 4),
    anchor_density=0.05,
    occupied_density=0.05,
    seed=4,
)
def test_free_anchors_matches_cell_table_gather(
    fp, size, anchor_density, occupied_density, seed
):
    H, W = size
    rows, cols = H - fp.height + 1, W - fp.width + 1
    static = np.zeros(size, dtype=bool)
    if rows > 0 and cols > 0:
        static[:rows, :cols] = random_mask((rows, cols), anchor_density, seed)
    occupied = random_mask(size, occupied_density, seed + 1)
    offsets = fp.offsets()
    assert offsets.dtype == np.uint8
    got = free_anchors(static, offsets, occupied)
    want = cell_table_free_anchors(static, fp, occupied)
    assert np.array_equal(got, want)
    assert first_anchor(got) == lexsort_first_anchor(want)


def test_free_anchors_past_row_255_reads_the_right_row():
    fp = Footprint([(0, 0, ResourceType.CLB), (0, 1, ResourceType.CLB)])
    static = np.zeros((300, 2), dtype=bool)
    static[290, 0] = static[40, 1] = True
    occupied = np.zeros_like(static)
    occupied[291, 0] = True  # 291 wraps to 35 in uint8
    free = free_anchors(static, fp.offsets(), occupied)
    assert not free[290, 0] and free[40, 1]
    assert first_anchor(free) == (1, 40)


def test_free_anchors_without_occupancy_is_the_static_mask():
    static = np.eye(4, dtype=bool)
    occupied = np.zeros_like(static)
    fp = Footprint.rectangle(1, 1)
    assert free_anchors(static, fp.offsets(), occupied) is static
