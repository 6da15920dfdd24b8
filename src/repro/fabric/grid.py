"""NumPy-backed fabric grid.

The dense representation of a device: an ``(height, width)`` ``int8`` array
of :class:`~repro.fabric.resource.ResourceType` codes.  This is the hot
data structure — valid-anchor computation, occupancy bookkeeping and
utilization metrics are all vectorized array operations over it, per the
HPC guides (vectorize the inner loops, operate on views).

Coordinate convention: ``grid[y, x]``; ``x`` grows rightward, ``y`` grows
upward.  All public APIs take ``(x, y)`` pairs and convert internally.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Tuple

import numpy as np

from repro.fabric.resource import RESOURCE_CHARS, ResourceType, parse_resource
from repro.fabric.tile import Tile, TileSet


class FabricGrid:
    """A rectangular grid of typed tiles."""

    def __init__(self, cells: np.ndarray) -> None:
        cells = np.asarray(cells, dtype=np.int8)
        if cells.ndim != 2:
            raise ValueError("fabric grid must be 2-D")
        if cells.size == 0:
            raise ValueError("fabric grid must be non-empty")
        codes = set(np.unique(cells).tolist())
        valid = {int(r) for r in ResourceType}
        if not codes <= valid:
            raise ValueError(f"unknown resource codes: {codes - valid}")
        self.cells = cells
        #: (cells bytes, kind words) memo of repro.fabric.masks.kind_words
        self._kind_words = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def filled(width: int, height: int, kind: ResourceType = ResourceType.CLB) -> "FabricGrid":
        if width <= 0 or height <= 0:
            raise ValueError("fabric dimensions must be positive")
        return FabricGrid(np.full((height, width), int(kind), dtype=np.int8))

    @staticmethod
    def from_rows(rows: Iterable[str]) -> "FabricGrid":
        """Parse an ASCII art fabric (one display char per tile).

        ``rows[0]`` is the *top* row, matching how the renderer prints.
        """
        rows = list(rows)
        if not rows:
            raise ValueError("no rows")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged rows")
        hmap = {ch: int(kind) for kind, ch in RESOURCE_CHARS.items()}
        try:
            data = [[hmap[ch] for ch in row] for row in reversed(rows)]
        except KeyError as e:
            raise ValueError(f"unknown tile char: {e}") from None
        return FabricGrid(np.array(data, dtype=np.int8))

    @staticmethod
    def from_tilesets(tilesets: Iterable[TileSet]) -> "FabricGrid":
        """Build the dense grid from the paper's formal representation.

        Coordinates must be non-negative; uncovered cells become
        :attr:`ResourceType.UNAVAILABLE`.
        """
        tilesets = list(tilesets)
        if not tilesets:
            raise ValueError("a partial region is a non-empty set of tilesets")
        max_x = max(t.x for ts in tilesets for t in ts)
        max_y = max(t.y for ts in tilesets for t in ts)
        min_x = min(t.x for ts in tilesets for t in ts)
        min_y = min(t.y for ts in tilesets for t in ts)
        if min_x < 0 or min_y < 0:
            raise ValueError("partial-region tiles use absolute coordinates >= 0")
        cells = np.full(
            (max_y + 1, max_x + 1), int(ResourceType.UNAVAILABLE), dtype=np.int8
        )
        seen: set[Tuple[int, int]] = set()
        for ts in tilesets:
            for t in ts:
                if (t.x, t.y) in seen:
                    raise ValueError(f"tile ({t.x},{t.y}) covered twice")
                seen.add((t.x, t.y))
                cells[t.y, t.x] = int(t.kind)
        return FabricGrid(cells)

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    @property
    def width(self) -> int:
        return self.cells.shape[1]

    @property
    def height(self) -> int:
        return self.cells.shape[0]

    @property
    def area(self) -> int:
        return int(self.cells.size)

    def in_bounds(self, x: int, y: int) -> bool:
        return 0 <= x < self.width and 0 <= y < self.height

    def kind_at(self, x: int, y: int) -> ResourceType:
        if not self.in_bounds(x, y):
            raise IndexError(f"({x},{y}) outside {self.width}x{self.height} fabric")
        return ResourceType(int(self.cells[y, x]))

    # ------------------------------------------------------------------
    # Resource queries (vectorized)
    # ------------------------------------------------------------------
    def resource_mask(self, kind: "ResourceType | str | int") -> np.ndarray:
        """Boolean (H, W) array of cells holding ``kind``."""
        return self.cells == int(parse_resource(kind))

    def placeable_mask(self) -> np.ndarray:
        return self.cells != int(ResourceType.UNAVAILABLE)

    def resource_counts(self) -> Dict[ResourceType, int]:
        kinds, counts = np.unique(self.cells, return_counts=True)
        return {ResourceType(int(k)): int(c) for k, c in zip(kinds, counts)}

    def count(self, kind: ResourceType) -> int:
        return int(np.count_nonzero(self.cells == int(kind)))

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def tiles(self) -> Iterator[Tile]:
        ys, xs = np.nonzero(self.placeable_mask())
        for y, x in zip(ys.tolist(), xs.tolist()):
            yield Tile(int(x), int(y), ResourceType(int(self.cells[y, x])))

    def tilesets(self) -> List[TileSet]:
        """Group placeable tiles by resource type (one ``T_k`` per type)."""
        by_kind: Dict[ResourceType, List[Tile]] = {}
        for t in self.tiles():
            by_kind.setdefault(t.kind, []).append(t)
        return [TileSet(ts) for ts in by_kind.values()]

    def copy(self) -> "FabricGrid":
        return FabricGrid(self.cells.copy())

    # ------------------------------------------------------------------
    def render(self) -> str:
        """ASCII art, top row first (origin bottom-left)."""
        chars = {int(k): c for k, c in RESOURCE_CHARS.items()}
        lines = [
            "".join(chars[int(v)] for v in row) for row in self.cells[::-1]
        ]
        return "\n".join(lines)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FabricGrid):
            return NotImplemented
        return self.cells.shape == other.cells.shape and bool(
            np.all(self.cells == other.cells)
        )

    def __repr__(self) -> str:
        counts = ", ".join(
            f"{k.name}:{c}" for k, c in sorted(self.resource_counts().items())
        )
        return f"FabricGrid({self.width}x{self.height}, {counts})"
