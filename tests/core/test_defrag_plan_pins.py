"""Golden pins of both defrag planners' full plans.

Each pin is a digest over every seeded floorplan of
:func:`tests.core.test_defrag_occupancy_oracle.seeded_floorplan`: per
floorplan, every :class:`~repro.core.defrag.PlannedMove` field (the
move-window cells included) plus the plan's initial and final extent.
The pins cover both shape-change policies, and each plan whole and as
its first one and three moves with the extent they leave, so a refactor
of the shared compaction pass that changes any move, kind, frame cost,
window or extent shows up here.  (The prefix pins are the digests the
planners' old ``max_moves`` cap gave: a capped pass was the prefix of the
whole one.)
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.defrag import GreedyCompactionDefragmenter, NoBreakDefragmenter
from repro.core.result import Placement, PlacementResult
from tests.core.test_defrag_occupancy_oracle import seeded_floorplan

SEEDS = range(6)

#: (planner, allow_shape_change, prefix) -> (digest, total moves); a
#: prefix of k pins a plan's first k moves, None the whole plan
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


def plan_fingerprint(result, plan, prefix=None) -> tuple:
    """The first ``prefix`` moves of ``plan`` on ``result`` (None: all),
    the initial extent and the extent those moves leave."""
    placements = {p.module.name: p for p in result.placements}
    moves = []
    for m in plan.moves[:prefix]:
        p = placements[m.module]
        placements[m.module] = Placement(p.module, m.to_shape, *m.to_pos)
        moves.append((
            m.module, m.from_shape, m.from_pos, m.to_shape, m.to_pos,
            m.kind, m.frames, m.window_cells,
        ))
    extent = PlacementResult(result.region, list(placements.values())).extent
    if prefix is None:
        assert extent == plan.final_extent
    return tuple(moves), plan.initial_extent, extent or 0


@pytest.mark.parametrize(
    "planner,allow,prefix", sorted(PINS, key=repr)
)
def test_plan_pins(planner, allow, prefix):
    prints = []
    for seed in SEEDS:
        result = seeded_floorplan(seed)
        plan = PLANNERS[planner]().plan(result, allow_shape_change=allow)
        prints.append(plan_fingerprint(result, plan, prefix))
    digest = hashlib.sha256(repr(prints).encode()).hexdigest()[:16]
    moves = sum(len(p[0]) for p in prints)
    assert (digest, moves) == PINS[(planner, allow, prefix)]
