"""Greedy offline placers.

Three classics, all alternative-aware (they consider every shape of a
module when scoring candidate positions, so the benefit of design
alternatives can be measured for cheap heuristics too).  All three read
the same per-shape candidate, the bottom-left free anchor of each shape
(:meth:`repro.placer.base._State.first_anchors`), and differ only in the
key that compares those candidates across shapes:

* :class:`BottomLeftPlacer` — modules by decreasing area, each at the
  lowest-leftmost anchor over all its shapes: key ``(x, y)``
  (:meth:`repro.placer.base._State.bottom_left`).
* :class:`FirstFitPlacer` — modules in input order, the first shape (in
  the order given) that has an anchor.
* :class:`BestFitPlacer` — modules by decreasing area, each where the
  resulting global extent is smallest: key ``(max(x + w, extent), x, y)``.
  Within one shape that key is minimized by the bottom-left anchor too.

Ties go to the lower shape index.
"""

from __future__ import annotations

from typing import List

from repro.modules.module import Module
from repro.placer.base import BasePlacer, _State


class BottomLeftPlacer(BasePlacer):
    """Decreasing-area order, bottom-left rule."""

    name = "bottom-left"

    def _run(self, state: _State) -> List[Module]:
        order = sorted(
            range(len(state.modules)),
            key=lambda i: -state.modules[i].primary().area,
        )
        unplaced: List[Module] = []
        for mi in order:
            pick = state.bottom_left(mi)
            if pick is None:
                unplaced.append(state.modules[mi])
                continue
            x, y, si = pick
            state.commit(mi, si, x, y)
        return unplaced


class FirstFitPlacer(BasePlacer):
    """Input order, first feasible anchor (column-major scan)."""

    name = "first-fit"

    def _run(self, state: _State) -> List[Module]:
        unplaced: List[Module] = []
        for mi in range(len(state.modules)):
            pick = next(state.first_anchors(mi), None)
            if pick is None:
                unplaced.append(state.modules[mi])
                continue
            x, y, si = pick
            state.commit(mi, si, x, y)
        return unplaced


class BestFitPlacer(BasePlacer):
    """Decreasing-area order; position minimizing the resulting extent."""

    name = "best-fit"

    def _run(self, state: _State) -> List[Module]:
        order = sorted(
            range(len(state.modules)),
            key=lambda i: -state.modules[i].primary().area,
        )
        unplaced: List[Module] = []
        for mi in order:
            current = state.extent()
            shapes = state.modules[mi].shapes
            pick = min(
                (
                    (max(x + shapes[si].width, current), x, y, si)
                    for x, y, si in state.first_anchors(mi)
                ),
                default=None,
            )
            if pick is None:
                unplaced.append(state.modules[mi])
                continue
            _, x, y, si = pick
            state.commit(mi, si, x, y)
        return unplaced
