"""Placement result records shared by the CP placer and all baselines."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.fabric.region import PartialRegion
from repro.fabric.resource import ResourceType
from repro.modules.footprint import Footprint
from repro.modules.module import Module


@dataclass(frozen=True)
class Placement:
    """One placed module: which alternative, anchored where."""

    module: Module
    shape_index: int
    x: int
    y: int

    @property
    def footprint(self) -> Footprint:
        return self.module.shapes[self.shape_index]

    @property
    def right(self) -> int:
        """One past the rightmost column the module's bounding box reaches."""
        return self.x + self.footprint.width

    @property
    def top(self) -> int:
        return self.y + self.footprint.height

    def absolute_cells(self) -> List[Tuple[int, int, ResourceType]]:
        return [
            (self.x + dx, self.y + dy, k) for dx, dy, k in self.footprint.cells
        ]

    def cell_index(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(ys, xs)`` index arrays of the used cells, for one fancy-index
        read or write of an ``(H, W)`` occupancy grid."""
        off = self.footprint.offsets()
        # widen before adding: the offsets are stored in a compact dtype
        return (
            np.add(off[:, 0], self.y, dtype=np.intp),
            np.add(off[:, 1], self.x, dtype=np.intp),
        )

    def overlaps(self, other: "Placement") -> bool:
        mine = {(x, y) for x, y, _ in self.absolute_cells()}
        theirs = {(x, y) for x, y, _ in other.absolute_cells()}
        return bool(mine & theirs)


@dataclass
class PlacementResult:
    """Outcome of a placement run (any placer)."""

    region: PartialRegion
    placements: List[Placement]
    #: modules that could not be placed (always empty for complete placers
    #: on feasible instances; greedy/online baselines may reject modules)
    unplaced: List[Module] = field(default_factory=list)
    #: minimized x extent (Eq. 6); None when nothing was placed
    extent: Optional[int] = None
    #: "optimal", "feasible", "infeasible", "unknown"
    status: str = "feasible"
    #: wall-clock seconds spent placing
    elapsed: float = 0.0
    #: solver statistics or placer-specific counters
    stats: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.extent is None and self.placements:
            self.extent = max(p.right for p in self.placements)

    # ------------------------------------------------------------------
    @property
    def all_placed(self) -> bool:
        return not self.unplaced

    @property
    def solved(self) -> bool:
        """Every module placed and the run ended in a solution state."""
        return not self.unplaced and self.status in ("feasible", "optimal")

    @property
    def proved_optimal(self) -> bool:
        """The extent is a *proven* optimum, not just the best incumbent."""
        return self.status == "optimal" and not self.unplaced

    def used_cells(self) -> int:
        return sum(p.footprint.area for p in self.placements)

    def occupancy_mask(self) -> np.ndarray:
        """(H, W) boolean mask of cells used by placed modules."""
        mask = np.zeros((self.region.height, self.region.width), dtype=bool)
        for p in self.placements:
            mask[p.cell_index()] = True
        return mask

    def verify(self) -> None:
        """Raise ``ValueError`` if the placement violates M_a, M_b or M_c."""
        allowed = self.region.allowed_mask()
        grid = self.region.grid.cells
        seen: Dict[Tuple[int, int], str] = {}
        for p in self.placements:
            for x, y, kind in p.absolute_cells():
                if not (0 <= x < self.region.width and 0 <= y < self.region.height):
                    raise ValueError(
                        f"{p.module.name}: tile ({x},{y}) outside the region (M_a)"
                    )
                if not allowed[y, x]:
                    raise ValueError(
                        f"{p.module.name}: tile ({x},{y}) not reconfigurable (M_a)"
                    )
                if grid[y, x] != int(kind):
                    raise ValueError(
                        f"{p.module.name}: tile ({x},{y}) needs {kind.name}, "
                        f"fabric has {ResourceType(int(grid[y, x])).name} (M_b)"
                    )
                if (x, y) in seen:
                    raise ValueError(
                        f"{p.module.name} overlaps {seen[(x, y)]} at ({x},{y}) (M_c)"
                    )
                seen[(x, y)] = p.module.name

    def summary(self) -> str:
        parts = [
            f"placed={len(self.placements)}",
            f"unplaced={len(self.unplaced)}",
            f"extent={self.extent}",
            f"status={self.status}",
            f"elapsed={self.elapsed:.2f}s",
        ]
        return " ".join(parts)

