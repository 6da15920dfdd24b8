"""Differential suite: the bottom-left anchor queries against their oracle.

:func:`repro.fabric.masks.first_anchor` (two ``argmax`` scans on a
boolean mask; first nonzero word and its lowest set bit on packed column
words) must return what :func:`tests.support.lexsort_first_anchor`
returns on the mask: the ``nonzero`` + ``lexsort`` pick the placers used
to hand-roll.  :func:`repro.fabric.masks.bottom_left_pick` must pick the
same ``(x, y, shape)`` from words as from masks.

The masks are random, and the draws include the empty mask, the full
mask, ``1 x N`` and ``N x 1`` masks, masks taller than 255 rows (the
words span several 64-bit lanes) and non-contiguous sub-window views (the
KAMER placer queries one maximal empty rectangle at a time).
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.fabric.masks import bottom_left_pick, first_anchor, pack_columns
from tests.support import lexsort_first_anchor

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

