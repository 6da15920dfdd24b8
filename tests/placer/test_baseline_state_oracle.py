"""Differential suite: the baseline placers' ledger state against the
boolean-grid state it replaced.

:class:`repro.placer.base._State` keeps free space in one
:class:`~repro.core.occupancy.Occupancy` ledger and answers every fit
query from packed column words.  :class:`tests.support.BoolGridState`
keeps an ``(H, W)`` boolean occupancy grid, unpacks each shape's static
anchors once and drops the occupied ones with a per-anchor gather
(:func:`tests.support.cell_table_free_anchors`).

The property test drives both states through the same random sequence of
commits, analytical-style left moves (lift one placement, re-place it at
its bottom-left anchor with the smallest right edge) and resets to a
subset of the placements.  After every step each shape's anchor words,
its bottom-left anchor, the per-module ``first_anchors`` / ``bottom_left``
picks and the held cells must agree.  The fabrics are irregular, some
carry a static box, and the heights are 16, 64, 65 (the second word
lane) and 300 rows (past the row a ``uint8`` offset would wrap at).

The injection case runs every baseline placer on both states and checks
identical placements.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.result import Placement
from repro.fabric.devices import homogeneous_device, irregular_device
from repro.fabric.masks import first_anchor, pack_columns
from repro.fabric.region import PartialRegion
from repro.modules.footprint import Footprint
from repro.modules.generator import GeneratorConfig, ModuleGenerator
from repro.modules.module import Module
from repro.placer.base import _State
from tests.placer.test_placement_pins import INSTANCES, PLACERS
from tests.support import BoolGridState, injected_state, lexsort_first_anchor

HEIGHTS = (16, 64, 65, 300)
SMALL_MODULES = GeneratorConfig(
    clb_min=4, clb_max=30, bram_max=2, height_min=2, height_max=8
)


@st.composite
def instances(draw):
    """A random irregular region, maybe with a static box, and a small
    module set plus one module whose tall shape spans a lane boundary."""
    height = draw(st.sampled_from(HEIGHTS))
    width = draw(st.integers(12, 24))
    seed = draw(st.integers(0, 2**16))
    grid = irregular_device(width, height, seed=seed)
    if draw(st.booleans()):
        x = draw(st.integers(0, width - 1))
        y = draw(st.integers(0, height - 1))
        w = draw(st.integers(1, width - x))
        h = draw(st.integers(1, height - y))
        region = PartialRegion.with_static_box(grid, x, y, w, h)
    else:
        region = PartialRegion.whole_device(grid)
    n = draw(st.integers(1, 5))
    modules = ModuleGenerator(seed, SMALL_MODULES).generate_set(n)
    tall = min(height - 1, 70)
    modules.append(
        Module("tall", [Footprint.rectangle(1, tall), Footprint.rectangle(2, 3)])
    )
    return region, modules


def assert_states_agree(state: _State, oracle: BoolGridState) -> None:
    assert state.placements == oracle.placements
    assert state.extent() == oracle.extent()
    assert np.array_equal(state.ledger.held, pack_columns(oracle.occupancy))
    for mi in range(len(state.modules)):
        words = state.shape_anchors(mi)
        masks = oracle.masks(mi)
        for si, (got, want) in enumerate(zip(words, masks)):
            assert got.dtype == np.uint64
            assert np.array_equal(got, pack_columns(want))
            assert np.array_equal(state.anchors(mi, si), got)
            assert first_anchor(got) == lexsort_first_anchor(want)
        assert list(state.first_anchors(mi)) == list(oracle.first_anchors(mi))
        assert state.bottom_left(mi) == oracle.bottom_left(mi)


def left_move(state, pi: int) -> None:
    """Lift placement ``pi`` and re-place it at the bottom-left anchor with
    the smallest right edge (the analytical placer's polish move)."""
    p = state.placements[pi]
    mi = state.modules.index(p.module)
    state.ledger.remove(p)
    shapes = p.module.shapes
    best = min(
        (x + shapes[si].width, x, y, si) for x, y, si in state.first_anchors(mi)
    )
    if best[0] < p.right:
        _, x, y, si = best
        p = state.placements[pi] = Placement(p.module, si, x, y)
    state.ledger.place(p)


@settings(max_examples=60, deadline=None)
@given(instance=instances(), data=st.data())
def test_ledger_state_matches_bool_grid_state(instance, data):
    region, modules = instance
    state = _State(region, modules)
    oracle = BoolGridState(region, modules)
    assert_states_agree(state, oracle)
    steps = data.draw(
        st.lists(st.sampled_from(["commit", "move", "reset"]), max_size=12)
    )
    for step in steps:
        if step == "commit":
            mi = data.draw(st.integers(0, len(modules) - 1))
            si = data.draw(st.integers(0, len(modules[mi].shapes) - 1))
            ys, xs = np.nonzero(oracle.masks(mi)[si])
            if xs.size:
                k = data.draw(st.integers(0, xs.size - 1))
                for s in (state, oracle):
                    s.commit(mi, si, int(xs[k]), int(ys[k]))
        elif step == "move" and state.placements:
            pi = data.draw(st.integers(0, len(state.placements) - 1))
            for s in (state, oracle):
                left_move(s, pi)
        elif step == "reset":
            keep = [
                p for p in state.placements if data.draw(st.booleans())
            ]
            for s in (state, oracle):
                s.reset(keep)
        assert_states_agree(state, oracle)


def test_lane_crossing_placement_blocks_the_rows_above():
    """A placement whose cells straddle row 64 takes anchors in both lanes;
    one past row 255 takes only its own rows."""
    region = PartialRegion.whole_device(homogeneous_device(12, 300))
    modules = [Module("a", [Footprint.rectangle(2, 4)])]
    state = _State(region, modules)
    oracle = BoolGridState(region, modules)
    for y in (62, 290):
        for s in (state, oracle):
            s.commit(0, 0, 2, y)
        assert_states_agree(state, oracle)
    mask = state.ledger.mask(state.anchors(0, 0))
    assert not mask[59:66, 1:4].any() and not mask[287:294, 1:4].any()
    assert mask[58, 2] and mask[66, 2] and mask[286, 2] and mask[294, 2]
    assert not mask[297:].any()


def payload(result):
    return json.dumps(
        {
            "placed": [
                (p.module.name, p.shape_index, p.x, p.y)
                for p in result.placements
            ],
            "unplaced": [m.name for m in result.unplaced],
        }
    )


@pytest.mark.parametrize("instance", sorted(INSTANCES))
@pytest.mark.parametrize("placer", sorted(PLACERS))
def test_every_baseline_places_identically_on_the_bool_grid_state(
    placer, instance
):
    region, modules = INSTANCES[instance]()
    make = PLACERS[placer]
    want = make().place(region, modules)
    with injected_state(BoolGridState):
        got = make().place(region, modules)
    assert payload(got) == payload(want)
    assert got.stats.keys() == want.stats.keys()
