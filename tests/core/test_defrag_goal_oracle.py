"""Differential oracle for the reject-triggered defrag pass's goal rule.

A request that no shard admits gets one defrag pass, with its module as
the goal.  The pass starts (no-break) or applies (instant) its plan only
if the plan's simulated end state has an anchor for the goal with the
end state's cells and the booked cells blocked
(``RuntimePlacementManager._opens_anchor``, one anchor-word kernel call
on the ledger).  The oracle rebuilds that end state cell by cell
(:func:`tests.support.per_cell_occupancy_mask`, plus every booked cell)
and looks for an anchor per anchor
(:func:`tests.support.brute_force_anchor_mask`).

On 300-request replays of the contended serving profile (seeds 0 and
7919, both defragmenters), every goal pass with a non-empty plan is
checked both ways: a started or applied plan has an anchor for its goal,
and a dropped one has none.  An applied instant plan admits its goal at
once, as ``<rule>+defrag``.
"""

from __future__ import annotations

import pytest

from repro.core.result import PlacementResult
from repro.core.runtime import RuntimePlacementManager, generate_workload
from repro.core.service import ShardedPlacementService
from repro.experiments.config import default_fabric
from repro.experiments.service_load import serving_config
from repro.fabric.region import PartialRegion
from tests.support import brute_force_anchor_mask, per_cell_occupancy_mask


def goal_has_anchor(region, plan, goal, booked) -> bool:
    """Per-cell oracle: an anchor for ``goal`` on the plan's end state
    with the ``booked`` placements' cells blocked too."""
    taken = per_cell_occupancy_mask(
        PlacementResult(region, list(plan.result.placements) + booked)
    )
    free = PartialRegion(region.grid, region.reconfigurable & ~taken)
    return any(
        brute_force_anchor_mask(free, fp.cells).any() for fp in goal.shapes
    )


def goal_passes(monkeypatch, defrag: str, seed: int):
    """Every goal pass of one replay whose plan moves something, as
    ``(region, plan, goal, booked, started, admitted)``; ``admitted`` is
    the outcome method when the pass admitted its request."""
    passes = []
    run = RuntimePlacementManager._defrag

    def spy(self, goal=None):
        # a pass while a plan is in flight returns before planning
        plans = self.moves_in_flight == 0 and self.placements
        before = self.stats.defrags
        booked = [r.placement for r in self._reservations]
        out = run(self, goal)
        if plans and goal is not None and self._last_plan[1].moves:
            passes.append([
                self.region, self._last_plan[1], goal, booked,
                self.stats.defrags > before, None,
            ])
        return out

    admit = RuntimePlacementManager._admit_by_defrag

    def admitted(self, request, outcome):
        n = len(passes)
        out = admit(self, request, outcome)
        if out:
            assert len(passes) == n + 1
            passes[-1][5] = outcome.method
        return out

    monkeypatch.setattr(RuntimePlacementManager, "_defrag", spy)
    monkeypatch.setattr(RuntimePlacementManager, "_admit_by_defrag", admitted)
    service = ShardedPlacementService(
        ShardedPlacementService.split(default_fabric(), 4),
        serving_config(
            router="affinity", chain=("cp", "greedy"), queue_capacity=8,
            defrag=defrag, reservation_horizon=16,
        ),
    )
    service.run(
        generate_workload(300, seed=seed, mean_interarrival=1, mean_lifetime=40)
    )
    monkeypatch.undo()
    return passes


@pytest.mark.parametrize("seed", [0, 7919])
@pytest.mark.parametrize("defrag", ["no-break", "greedy-compaction"])
def test_started_plans_open_an_anchor_for_their_goal(monkeypatch, defrag, seed):
    passes = goal_passes(monkeypatch, defrag, seed)
    started = [p for p in passes if p[4]]
    # both sides of the rule are exercised
    assert started and len(started) < len(passes)
    for region, plan, goal, booked, start, method in passes:
        assert start == goal_has_anchor(region, plan, goal, booked), goal.name
        if plan.instant:
            # an applied plan admits its goal at once
            assert (method is not None) == start
            assert method is None or method.endswith("+defrag")
        else:
            assert method is None
