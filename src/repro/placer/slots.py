"""1-D slot-style placement.

The related-work taxonomy (Section II, axis 5) contrasts "1D slot-style"
with "2D-grid module placement".  Early reconfigurable systems divided the
device into fixed-width, full-height *slots*; a module occupies a
contiguous run of slots regardless of how little of each slot it actually
uses.  That simplicity costs utilization twice:

* vertical waste — a module shorter than the device still consumes the
  slots' full height (internal fragmentation of the slot), and
* horizontal waste — module widths are rounded up to whole slots.

:class:`SlotPlacer` implements this model faithfully on top of our fabric
(a module may only anchor at slot boundaries, at y = 0, and reserves the
full height of every slot it touches), so ablation A7 can quantify the 1D
→ 2D utilization gap the literature reports — and show that design
alternatives help the 1D model too (a narrower alternative may need fewer
slots).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.result import Placement, PlacementResult
from repro.fabric.region import PartialRegion
from repro.modules.module import Module
from repro.placer.base import BasePlacer, _State


@dataclass
class SlotConfig:
    """Slot geometry."""

    #: slot width in tiles (typical historical systems: 4-8 CLB columns)
    slot_width: int = 4

    def validate(self) -> None:
        if self.slot_width < 1:
            raise ValueError("slot width must be positive")


class SlotPlacer(BasePlacer):
    """First-fit placement into fixed-width, full-height slots."""

    name = "1d-slots"

    def __init__(self, config: Optional[SlotConfig] = None) -> None:
        self.config = config or SlotConfig()
        self.config.validate()

    # ------------------------------------------------------------------
    def slots_needed(self, width: int) -> int:
        """Slots a module of the given bounding-box width occupies."""
        return -(-width // self.config.slot_width)

    def _run(self, state: _State) -> List[Module]:
        sw = self.config.slot_width
        n_slots = state.W // sw
        slot_free = [True] * n_slots
        unplaced: List[Module] = []
        for mi, module in enumerate(state.modules):
            placed = False
            # try alternatives narrow-first: fewer slots wasted
            order = sorted(
                range(len(module.shapes)),
                key=lambda s: module.shapes[s].width,
            )
            for si in order:
                fp = module.shapes[si]
                if fp.height > state.H:
                    continue
                need = self.slots_needed(fp.width)
                if need > n_slots:
                    continue
                anchors = state.anchors(mi, si)
                for first in range(n_slots - need + 1):
                    if not all(slot_free[first : first + need]):
                        continue
                    x = first * sw
                    # slot model anchors at the slot origin, bottom row
                    # (bit 0 of column x); resource compatibility must
                    # still hold (M_b)
                    if not int(anchors[x, 0]) & 1:
                        continue
                    state.commit(mi, si, x, 0)
                    for k in range(first, first + need):
                        slot_free[k] = False
                    placed = True
                    break
                if placed:
                    break
            if not placed:
                unplaced.append(module)
        return unplaced


def slot_utilization(result: PlacementResult, slot_width: int) -> float:
    """Used tiles / tiles of all *reserved* slots (the 1D accounting).

    The denominator charges whole slots — the honest utilization number a
    slot-based runtime system experiences.
    """
    if not result.placements:
        return 0.0
    H = result.region.height
    reserved_slots = set()
    for p in result.placements:
        first = p.x // slot_width
        need = -(-p.footprint.width // slot_width)
        reserved_slots.update(range(first, first + need))
    reserved_cells = len(reserved_slots) * slot_width * H
    if reserved_cells == 0:
        return 0.0
    return result.used_cells() / reserved_cells
