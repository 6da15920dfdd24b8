"""Baseline placers on the free-space ledger vs the boolean grid they left.

The baseline placers' run state (:class:`repro.placer.base._State`)
answers every fit query from one
:class:`~repro.core.occupancy.Occupancy` ledger in packed column words.
Before, it kept an ``(H, W)`` boolean occupancy grid, unpacked each
shape's static anchors once and dropped the occupied ones with a
per-anchor gather; that state is the test oracle
:class:`tests.support.BoolGridState`.

Ratio gate, same machine, both sides alternated: on the Table-I workload
(30 modules, 4 alternatives each) ``bottom-left``, ``best-fit`` and
evaluation-capped ``annealing`` must each run at least
:data:`LEDGER_SPEEDUP_MIN` times faster on the ledger state, with
identical placements.
"""

from __future__ import annotations

import time

import pytest

from repro.placer import (
    AnnealingConfig,
    AnnealingPlacer,
    BestFitPlacer,
    BottomLeftPlacer,
)
from tests.support import BoolGridState, injected_state

#: minimum ledger-state speedup over the boolean-grid state, per placer
LEDGER_SPEEDUP_MIN = 2.0

PLACERS = {
    "bottom-left": BottomLeftPlacer,
    "best-fit": BestFitPlacer,
    # evaluation-capped so both sides decode the same states
    "annealing": lambda: AnnealingPlacer(
        AnnealingConfig(time_limit=60.0, seed=1, max_evaluations=40)
    ),
}


def _timed_place(make, region, modules):
    t0 = time.perf_counter()
    result = make().place(region, modules)
    elapsed = time.perf_counter() - t0
    return elapsed, [
        (p.module.name, p.shape_index, p.x, p.y) for p in result.placements
    ]


@pytest.mark.parametrize("name", list(PLACERS))
def test_ledger_state_beats_bool_grid_state(name, report, table1_instance):
    region, modules = table1_instance
    make = PLACERS[name]
    t_ledger = t_grid = float("inf")
    # alternate the two sides so a drift in host speed hits both
    for _ in range(5):
        elapsed, placed = _timed_place(make, region, modules)
        t_ledger = min(t_ledger, elapsed)
        with injected_state(BoolGridState):
            elapsed, ref_placed = _timed_place(make, region, modules)
        t_grid = min(t_grid, elapsed)
        assert placed == ref_placed
    speedup = t_grid / t_ledger
    report(
        f"{name}: ledger _State vs boolean-grid state (Table-I, 30 modules)",
        f"boolean grid {t_grid * 1e3:8.2f} ms\n"
        f"ledger       {t_ledger * 1e3:8.2f} ms\n"
        f"speedup      {speedup:8.2f}x  (gate >= {LEDGER_SPEEDUP_MIN}x)",
    )
    assert speedup >= LEDGER_SPEEDUP_MIN, (
        f"{name}: ledger state only {speedup:.2f}x the boolean-grid state"
    )
