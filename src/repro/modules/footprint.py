"""Footprint: one shape (design alternative) of a module.

A footprint is a normalized set of typed cells ``(dx, dy, kind)`` with
``min dx == min dy == 0``.  It corresponds to the paper's *shape* ``S`` —
formally a set of tilesets, one per resource type (Section III-A).  Cells
need not be adjacent and need not fill the bounding box; what the footprint
does not use remains available to other modules.

The class is immutable and hashable on its canonical cell set, so
transform pipelines can deduplicate alternatives (e.g. rot180 of a
symmetric shape collapses onto the original).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Sequence, Tuple

import numpy as np

from repro.fabric.masks import Run, pack_columns, run_index, vertical_runs
from repro.fabric.resource import RESOURCE_CHARS, ResourceType, parse_resource
from repro.fabric.tile import Tile, TileSet

Cell = Tuple[int, int, ResourceType]


class Footprint:
    """An immutable, normalized shape."""

    __slots__ = (
        "cells", "width", "height", "_grid", "_runs", "_run_index", "_offsets",
        "_words", "_cover_index",
    )

    def __init__(self, cells: Iterable[Cell]) -> None:
        raw = list(cells)
        if not raw:
            raise ValueError("a shape must contain at least one tile")
        seen: Dict[Tuple[int, int], ResourceType] = {}
        for dx, dy, kind in raw:
            kind = parse_resource(kind)
            if kind is ResourceType.UNAVAILABLE:
                raise ValueError("shapes cannot contain UNAVAILABLE tiles")
            if (dx, dy) in seen:
                raise ValueError(f"duplicate cell ({dx},{dy}) in shape")
            seen[(dx, dy)] = kind
        min_x = min(x for x, _ in seen)
        min_y = min(y for _, y in seen)
        normalized = frozenset(
            (x - min_x, y - min_y, k) for (x, y), k in seen.items()
        )
        object.__setattr__(self, "cells", normalized)
        object.__setattr__(
            self, "width", max(c[0] for c in normalized) + 1
        )
        object.__setattr__(
            self, "height", max(c[1] for c in normalized) + 1
        )
        object.__setattr__(self, "_grid", None)
        object.__setattr__(self, "_runs", None)
        object.__setattr__(self, "_run_index", None)
        object.__setattr__(self, "_offsets", None)
        object.__setattr__(self, "_words", None)
        object.__setattr__(self, "_cover_index", None)

    def __setattr__(self, *a):  # immutability
        raise AttributeError("Footprint is immutable")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def rectangle(w: int, h: int, kind: ResourceType = ResourceType.CLB) -> "Footprint":
        if w <= 0 or h <= 0:
            raise ValueError("rectangle sides must be positive")
        return Footprint((x, y, kind) for x in range(w) for y in range(h))

    @staticmethod
    def from_rows(rows: Sequence[str]) -> "Footprint":
        """Parse ASCII art (top row first; spaces/'_' are empty cells)."""
        cells: List[Cell] = []
        height = len(rows)
        rev = {ch: kind for kind, ch in RESOURCE_CHARS.items()}
        for r, row in enumerate(rows):
            y = height - 1 - r
            for x, ch in enumerate(row):
                if ch in (" ", "_"):
                    continue
                if ch not in rev or rev[ch] is ResourceType.UNAVAILABLE:
                    raise ValueError(f"bad footprint char {ch!r}")
                cells.append((x, y, rev[ch]))
        return Footprint(cells)

    @staticmethod
    def from_tilesets(tilesets: Iterable[TileSet]) -> "Footprint":
        """From the paper's formal shape = set of tilesets."""
        cells: List[Cell] = []
        for ts in tilesets:
            for t in ts:
                cells.append((t.x, t.y, t.kind))
        return Footprint(cells)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def area(self) -> int:
        """Number of used tiles (not the bounding-box area)."""
        return len(self.cells)

    @property
    def bbox_area(self) -> int:
        return self.width * self.height

    def resource_counts(self) -> Dict[ResourceType, int]:
        out: Dict[ResourceType, int] = {}
        for _, _, k in self.cells:
            out[k] = out.get(k, 0) + 1
        return out

    def coords(self) -> FrozenSet[Tuple[int, int]]:
        return frozenset((x, y) for x, y, _ in self.cells)

    def cells_of(self, kind: ResourceType) -> FrozenSet[Tuple[int, int]]:
        return frozenset((x, y) for x, y, k in self.cells if k is kind)

    def grid(self) -> np.ndarray:
        """Dense (h, w) int8 view: resource code per cell, -1 where unused."""
        if self._grid is None:
            g = np.full((self.height, self.width), -1, dtype=np.int8)
            for x, y, k in self.cells:
                g[y, x] = int(k)
            object.__setattr__(self, "_grid", g)
        return self._grid

    def runs(self) -> Tuple[Run, ...]:
        """Maximal vertical same-kind runs ``(dx, dy0, length, kind)``.

        The unit the anchor-word kernel tests (one or two shifted words of
        its doubling table per run, see :meth:`run_index` and
        :func:`repro.fabric.masks.anchor_words`); computed on first use
        and kept, like :meth:`grid`.
        """
        if self._runs is None:
            object.__setattr__(self, "_runs", vertical_runs(sorted(self.cells)))
        return self._runs

    def run_index(self) -> np.ndarray:
        """The ``(level, kind, dx, shift)`` term rows of :meth:`runs`
        (:func:`repro.fabric.masks.run_index`), read-only; computed on
        first use and kept, like :meth:`runs`."""
        if self._run_index is None:
            object.__setattr__(self, "_run_index", run_index(self.runs()))
        return self._run_index

    def cover_index(self) -> np.ndarray:
        """The :meth:`run_index` of the used cells with the kind dropped
        (every cell read from kind plane 0), read-only.

        Its :func:`~repro.fabric.masks.anchor_words` over one plane of free
        cells are the anchors whose cells are all free: the non-overlap
        test (M_c, Eq. 4) the placement kernel runs after each imprint.
        Computed on first use and kept, like :meth:`run_index`.
        """
        if self._cover_index is None:
            runs = vertical_runs(sorted((x, y, 0) for x, y, _ in self.cells))
            object.__setattr__(self, "_cover_index", run_index(runs))
        return self._cover_index

    def occupancy(self) -> np.ndarray:
        """Dense (h, w) boolean mask of used cells."""
        return self.grid() >= 0

    def offsets(self) -> np.ndarray:
        """(n, 2) read-only array of ``(dy, dx)`` used-cell offsets.

        The imprint primitive: a placement's cells are the anchor plus
        these rows (:meth:`repro.core.result.Placement.cell_index`), so
        writing or testing them in an occupancy grid is one fancy-index
        operation.  Row-major order, in the smallest unsigned dtype that
        holds the larger side; computed on first use and kept, like
        :meth:`grid`.
        """
        if self._offsets is None:
            ys, xs = np.nonzero(self.occupancy())
            dtype = np.min_scalar_type(max(self.width, self.height) - 1)
            off = np.stack([ys, xs], axis=1).astype(dtype)
            off.setflags(write=False)
            object.__setattr__(self, "_offsets", off)
        return self._offsets

    def words(self) -> np.ndarray:
        """``(w, L)`` read-only packed columns of :meth:`occupancy`, the
        unit :class:`repro.core.occupancy.Occupancy` shifts to an anchor
        and writes; computed on first use and kept, like :meth:`offsets`."""
        if self._words is None:
            words = pack_columns(self.occupancy())
            words.setflags(write=False)
            object.__setattr__(self, "_words", words)
        return self._words

    def is_rectangular(self) -> bool:
        return self.area == self.bbox_area

    def tilesets(self) -> List[TileSet]:
        """Back to the paper's formal representation (one tileset per type)."""
        by_kind: Dict[ResourceType, List[Tile]] = {}
        for x, y, k in self.cells:
            by_kind.setdefault(k, []).append(Tile(x, y, k))
        return [TileSet(ts) for ts in by_kind.values()]

    # ------------------------------------------------------------------
    def render(self) -> str:
        g = self.grid()
        chars = {int(k): c for k, c in RESOURCE_CHARS.items()}
        return "\n".join(
            "".join(chars[int(v)] if v >= 0 else " " for v in row)
            for row in g[::-1]
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Footprint):
            return NotImplemented
        return self.cells == other.cells

    def __hash__(self) -> int:
        return hash(self.cells)

    def __repr__(self) -> str:
        counts = ", ".join(
            f"{k.name}:{n}" for k, n in sorted(self.resource_counts().items())
        )
        return f"Footprint({self.width}x{self.height}, {counts})"
