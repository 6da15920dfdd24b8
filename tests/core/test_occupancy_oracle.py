"""Differential oracle for the free-space ledger.

:class:`repro.core.occupancy.Occupancy` keeps placed cells, move windows
and reserved cells as packed column words and answers fit queries with
the anchor-word kernel.  :class:`tests.support.BoolGridLedger` keeps the
same state in ``(H, W)`` boolean grids written cell by cell and answers
fit queries with the per-cell slice-AND kernel.  Random sequences of
commits, departures, move windows, reservations and lifts drive both on
irregular fabrics, some taller than one 64-bit lane, and every state and
every answer must agree.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.occupancy import Occupancy
from repro.core.result import Placement
from repro.fabric.devices import irregular_device
from repro.fabric.masks import column_words, kind_words, pack_columns
from repro.fabric.region import PartialRegion
from repro.fabric.resource import ResourceType
from repro.modules.footprint import Footprint
from repro.modules.module import Module
from tests.support import BoolGridLedger, ledger_residual

OPS = ("commit", "commit", "depart", "hold", "release", "reserve",
       "unreserve", "lift")


@st.composite
def footprints(draw, max_height):
    """A CLB footprint up to 3 wide; sometimes tall enough to fill more
    than one lane itself."""
    w = draw(st.integers(1, 3))
    h = draw(st.sampled_from([1, 2, 3, min(max_height, 70)]))
    box = [(x, y) for x in range(w) for y in range(h)]
    keep = draw(st.lists(st.sampled_from(box), min_size=1, max_size=12, unique=True))
    return Footprint((x, y, ResourceType.CLB) for x, y in keep)


@st.composite
def scenarios(draw):
    """(region, modules, op sequence): heights past 64 cross lanes, and a
    static box carves the reconfigurable mask."""
    width = draw(st.integers(4, 14))
    height = draw(st.sampled_from([4, 9, 63, 64, 65, 100, 140]))
    grid = irregular_device(
        width, height, seed=draw(st.integers(0, 40)), bram_stride=5, jitter=1,
    )
    mask = np.ones((height, width), dtype=bool)
    if draw(st.booleans()):
        x0 = draw(st.integers(0, width - 1))
        y0 = draw(st.integers(0, height - 1))
        mask[y0 : y0 + draw(st.integers(1, height)), x0 : x0 + 2] = False
    region = PartialRegion(grid, mask)
    modules = [
        Module(
            f"m{i}",
            draw(
                st.lists(
                    footprints(height), min_size=1, max_size=3, unique=True
                )
            ),
        )
        for i in range(draw(st.integers(2, 6)))
    ]
    ops = draw(
        st.lists(
            st.tuples(st.sampled_from(OPS), st.integers(0, 10**6)),
            min_size=1, max_size=30,
        )
    )
    return region, modules, ops


def unpacked(ledger: Occupancy, words):
    return [ledger.mask(w) for w in words]


def check_residual_words(
    ledger: Occupancy, blocked: np.ndarray, residual: PartialRegion
) -> None:
    """Packing a ledger's residual mask gives the words the pick rules
    read off the ledger, ``static & ~blocked``."""
    fresh = kind_words(residual.grid) & pack_columns(residual.reconfigurable)
    np.testing.assert_array_equal(fresh, ledger.static & ~blocked)
    np.testing.assert_array_equal(column_words(residual), fresh)


def check_same(ledger: Occupancy, oracle: BoolGridLedger) -> None:
    np.testing.assert_array_equal(ledger.mask(ledger.held), oracle.held)
    np.testing.assert_array_equal(ledger.mask(ledger.reserved), oracle.reserved)
    assert ledger.occupied_cells == oracle.occupied_cells
    blocked = ledger.held | ledger.reserved
    residual = ledger_residual(ledger, blocked)
    np.testing.assert_array_equal(
        residual.reconfigurable,
        oracle.residual(oracle.held | oracle.reserved).reconfigurable,
    )
    check_residual_words(ledger, blocked, residual)


def pick_anchor(masks, k):
    """The ``k``-th (shape, x, y) anchor over per-shape masks, or None."""
    found = [
        (si, int(x), int(y))
        for si, mask in enumerate(masks)
        for y, x in zip(*np.nonzero(mask))
    ]
    return found[k % len(found)] if found else None


def replay(region, modules, ops) -> int:
    """Drive both ledgers through ``ops``; returns the fit queries checked."""
    ledger, oracle = Occupancy(region), BoolGridLedger(region)
    placed = {}
    windows = []
    bookings = []
    queries = 0
    for op, k in ops:
        free = [m for m in modules if m.name not in placed]
        if op == "commit" and free:
            module = free[k % len(free)]
            blocked = ledger.held | ledger.reserved
            got = unpacked(ledger, ledger.anchors(module.shapes, blocked))
            want = oracle.anchors(module.shapes, oracle.held | oracle.reserved)
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g, w)
            queries += 1
            hit = pick_anchor(want, k)
            if hit is not None:
                p = Placement(module, *hit)
                assert not ledger.overlaps(p) and not oracle.overlaps(p)
                ledger.place(p)
                oracle.place(p)
                placed[module.name] = p
        elif op == "depart" and placed:
            p = placed.pop(sorted(placed)[k % len(placed)])
            ledger.remove(p)
            oracle.remove(p)
        elif op == "hold" and placed:
            # a copy window: the mover's cells plus a target it could
            # take with its own cells lifted
            p = placed[sorted(placed)[k % len(placed)]]
            target = pick_anchor(
                oracle.anchors(p.module.shapes, oracle.lifted(p)), k
            )
            cells = set(oracle.cells(p))
            if target is not None:
                cells |= set(oracle.cells(Placement(p.module, *target)))
            cells = sorted(cells)
            words = ledger.cell_words(cells)
            ledger.hold(words)
            oracle.hold(cells)
            windows.append((words, cells))
        elif op == "release" and windows:
            words, cells = windows.pop(k % len(windows))
            ledger.release(words)
            oracle.release(cells)
        elif op == "reserve":
            module = modules[k % len(modules)]
            hit = pick_anchor(
                oracle.anchors(module.shapes, np.zeros_like(oracle.held)), k
            )
            if hit is not None:
                bookings.append(Placement(module, *hit))
                ledger.reserve(bookings)
                oracle.reserve(bookings)
        elif op == "unreserve" and bookings:
            bookings.pop(k % len(bookings))
            ledger.reserve(bookings)
            oracle.reserve(bookings)
        elif op == "lift" and placed:
            p = placed[sorted(placed)[k % len(placed)]]
            lifted = ledger.lifted(p)
            np.testing.assert_array_equal(ledger.mask(lifted), oracle.lifted(p))
            got = unpacked(ledger, ledger.anchors(p.module.shapes, lifted))
            want = oracle.anchors(p.module.shapes, oracle.lifted(p))
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g, w)
            queries += 1
        check_same(ledger, oracle)
        for p in placed.values():
            assert ledger.overlaps(p) == oracle.overlaps(p)
    return queries


@given(scenarios())
@settings(max_examples=60, deadline=None)
def test_ledger_matches_bool_grid_oracle(scenario):
    replay(*scenario)


@pytest.mark.parametrize("height", [24, 64, 65, 130])
def test_seeded_sequences_reach_fit_queries(height):
    """A fixed long sequence per height: the suite must exercise placed
    modules, windows and reservations together, not just empty ledgers."""
    region = PartialRegion.whole_device(
        irregular_device(12, height, seed=height, bram_stride=5, jitter=1)
    )
    modules = [
        Module(f"m{i}", [Footprint.rectangle(w, h), Footprint.rectangle(h, w)])
        for i, (w, h) in enumerate([(2, 3), (1, 5), (3, 2), (2, 2), (1, 1)])
    ]
    ops = [(op, 7919 * i) for i, op in enumerate(OPS * 6)]
    assert replay(region, modules, ops) >= 10


def test_write_crosses_the_lane_boundary():
    """A footprint anchored just below row 64 spills into the next lane;
    one anchored on a lane boundary starts there."""
    region = PartialRegion.whole_device(irregular_device(6, 140, seed=1))
    fp = Footprint([(0, 0, ResourceType.CLB), (0, 5, ResourceType.CLB),
                    (1, 70, ResourceType.CLB)])
    for y in (0, 60, 63, 64, 59):
        p = Placement(Module("m", [fp]), 0, 2, y)
        ledger, oracle = Occupancy(region), BoolGridLedger(region)
        ledger.place(p)
        oracle.place(p)
        check_same(ledger, oracle)
        ledger.remove(p)
        assert not ledger.held.any() and ledger.occupied_cells == 0


def test_residual_words_equal_fresh_column_words():
    """The oracles' residual region (:func:`ledger_residual`) packs to
    the ledger's free words, ``static & ~blocked``: a fresh
    ``kind_words & pack_columns(reconfigurable)`` equals them, across a
    lane boundary and with reserved cells carved out too."""
    region = PartialRegion.with_static_box(
        irregular_device(10, 90, seed=4, bram_stride=4, jitter=1), 0, 0, 2, 30
    )
    ledger = Occupancy(region)
    fp = Footprint.rectangle(2, 9)
    ledger.place(Placement(Module("a", [fp]), 0, 3, 58))
    ledger.reserve([Placement(Module("b", [fp]), 0, 6, 61)])
    for blocked in (ledger.held, ledger.held | ledger.reserved):
        check_residual_words(ledger, blocked, ledger_residual(ledger, blocked))
