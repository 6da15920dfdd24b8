"""Partial region: the placement target.

The paper's partial region model "encompasses the reconfigurable and the
static regions of the device"; the static region (about 50% of the device
in Figure 4c) is modelled as tiles of type *not available* (Section III-B).
A :class:`PartialRegion` couples a fabric grid with a boolean mask of cells
belonging to the reconfigurable region; everything outside the mask — and
every UNAVAILABLE tile inside it — is off-limits to modules.

Constraint M_a (Eq. 2: all tiles within the constrained region) and the
in-fabric part of M_b are realized here as mask algebra; the resource
matching part of M_b and the non-overlap M_c live in
:mod:`repro.fabric.masks` and :mod:`repro.geost`.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.fabric.grid import FabricGrid
from repro.fabric.resource import ResourceType


class PartialRegion:
    """A fabric plus the mask of its reconfigurable cells."""

    def __init__(
        self, grid: FabricGrid, reconfigurable: Optional[np.ndarray] = None,
        name: str = "pr", words: Optional[np.ndarray] = None,
    ) -> None:
        self.grid = grid
        self.name = name
        if reconfigurable is None:
            reconfigurable = np.ones((grid.height, grid.width), dtype=bool)
        reconfigurable = np.asarray(reconfigurable, dtype=bool)
        if reconfigurable.shape != (grid.height, grid.width):
            raise ValueError(
                f"mask shape {reconfigurable.shape} != fabric "
                f"{(grid.height, grid.width)}"
            )
        self.reconfigurable = reconfigurable
        #: the region's :func:`~repro.fabric.masks.column_words` when the
        #: builder already holds them (a residual carved from a free-space
        #: ledger), else None and computed on demand
        self.words = words

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def whole_device(grid: FabricGrid, name: str = "pr") -> "PartialRegion":
        return PartialRegion(grid, None, name)

    @staticmethod
    def with_static_box(
        grid: FabricGrid, x: int, y: int, w: int, h: int, name: str = "pr"
    ) -> "PartialRegion":
        """Reserve a rectangular static region (the usual modelling, Fig 4c)."""
        if w < 0 or h < 0:
            raise ValueError("static box dimensions must be non-negative")
        if not (0 <= x and 0 <= y and x + w <= grid.width and y + h <= grid.height):
            raise ValueError("static box outside the fabric")
        mask = np.ones((grid.height, grid.width), dtype=bool)
        mask[y : y + h, x : x + w] = False
        return PartialRegion(grid, mask, name)

    @staticmethod
    def reconfigurable_box(
        grid: FabricGrid, x: int, y: int, w: int, h: int, name: str = "pr"
    ) -> "PartialRegion":
        """Only the given rectangle is reconfigurable; the rest is static."""
        if w <= 0 or h <= 0:
            raise ValueError("reconfigurable box must have positive size")
        if not (0 <= x and 0 <= y and x + w <= grid.width and y + h <= grid.height):
            raise ValueError("reconfigurable box outside the fabric")
        mask = np.zeros((grid.height, grid.width), dtype=bool)
        mask[y : y + h, x : x + w] = True
        return PartialRegion(grid, mask, name)

    # ------------------------------------------------------------------
    @property
    def width(self) -> int:
        return self.grid.width

    @property
    def height(self) -> int:
        return self.grid.height

    def allowed_mask(self) -> np.ndarray:
        """Cells modules may occupy: reconfigurable and not UNAVAILABLE."""
        return self.reconfigurable & self.grid.placeable_mask()

    def available_area(self) -> int:
        return int(np.count_nonzero(self.allowed_mask()))

    def available_counts(self) -> Dict[ResourceType, int]:
        """Per-resource counts of cells available to modules."""
        allowed = self.allowed_mask()
        out: Dict[ResourceType, int] = {}
        for kind in ResourceType:
            if kind is ResourceType.UNAVAILABLE:
                continue
            n = int(np.count_nonzero(allowed & self.grid.resource_mask(kind)))
            if n:
                out[kind] = n
        return out

    def bounding_box(self) -> Tuple[int, int, int, int]:
        """(x, y, w, h) bounding box of the reconfigurable cells."""
        ys, xs = np.nonzero(self.reconfigurable)
        if xs.size == 0:
            raise ValueError("region has no reconfigurable cells")
        x0, x1 = int(xs.min()), int(xs.max())
        y0, y1 = int(ys.min()), int(ys.max())
        return x0, y0, x1 - x0 + 1, y1 - y0 + 1

    def render(self, occupied: Optional[np.ndarray] = None) -> str:
        """ASCII view: static cells as '#', optionally with occupancy '@'."""
        from repro.fabric.resource import RESOURCE_CHARS

        chars = {int(k): c for k, c in RESOURCE_CHARS.items()}
        rows = []
        for y in range(self.height - 1, -1, -1):
            row = []
            for x in range(self.width):
                if occupied is not None and occupied[y, x]:
                    row.append("@")
                elif not self.reconfigurable[y, x]:
                    row.append("#")
                else:
                    row.append(chars[int(self.grid.cells[y, x])])
            rows.append("".join(row))
        return "\n".join(rows)

    def __repr__(self) -> str:
        return (
            f"PartialRegion({self.name!r}, {self.width}x{self.height}, "
            f"available={self.available_area()})"
        )

