"""Golden pins of both defrag planners' full plans.

Each pin is a digest over every seeded floorplan of
:func:`tests.core.test_defrag_occupancy_oracle.seeded_floorplan`: per
floorplan, every :class:`~repro.core.defrag.PlannedMove` field (the
move-window cells included) plus the plan's initial and final extent.
The pins cover both shape-change policies and three move budgets, so a
refactor of the shared compaction pass that changes any move, kind,
frame cost, window or extent shows up here.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.defrag import GreedyCompactionDefragmenter, NoBreakDefragmenter
from tests.core.test_defrag_occupancy_oracle import seeded_floorplan

SEEDS = range(6)

#: (planner, allow_shape_change, max_moves) -> (digest, total moves)
PINS = {
    ("greedy-compaction", False, None): ("0a66a2ca513aa708", 57),
    ("greedy-compaction", False, 1): ("a9f2b82b31557e55", 6),
    ("greedy-compaction", False, 3): ("24868e734e6cc284", 18),
    ("greedy-compaction", True, None): ("c2cd8cb6d3b36eb9", 66),
    ("greedy-compaction", True, 1): ("2304aee8e645473e", 6),
    ("greedy-compaction", True, 3): ("ff10f4d92173d0ce", 18),
    ("no-break", False, None): ("f6fe16f83d66c7e4", 58),
    ("no-break", False, 1): ("903fbc7a00c4d9b8", 6),
    ("no-break", False, 3): ("2c3f2e78196c05b2", 18),
    ("no-break", True, None): ("205dce87a26d79ae", 56),
    ("no-break", True, 1): ("10cd486e79d8f7a5", 6),
    ("no-break", True, 3): ("3228bd05b83eeac5", 18),
}

PLANNERS = {
    cls.name: cls for cls in (GreedyCompactionDefragmenter, NoBreakDefragmenter)
}


def plan_fingerprint(plan) -> tuple:
    moves = tuple(
        (
            m.module, m.from_shape, m.from_pos, m.to_shape, m.to_pos,
            m.kind, m.frames, m.window_cells,
        )
        for m in plan.moves
    )
    return moves, plan.initial_extent, plan.final_extent


@pytest.mark.parametrize(
    "planner,allow,max_moves", sorted(PINS, key=repr)
)
def test_plan_pins(planner, allow, max_moves):
    prints = [
        plan_fingerprint(
            PLANNERS[planner]().plan(
                seeded_floorplan(seed),
                allow_shape_change=allow,
                max_moves=max_moves,
            )
        )
        for seed in SEEDS
    ]
    digest = hashlib.sha256(repr(prints).encode()).hexdigest()[:16]
    moves = sum(len(p[0]) for p in prints)
    assert (digest, moves) == PINS[(planner, allow, max_moves)]
