"""One free-space ledger per region, in packed column words (M_c, Eq. 4).

:func:`~repro.fabric.masks.anchor_words` answers resource fit (M_a and
M_b, Eqs. 2-3) from a region's :func:`~repro.fabric.masks.column_words`.
:class:`Occupancy` keeps non-overlap in the same ``(W, L)`` ``uint64``
layout (bit ``y % 64`` of lane ``y // 64`` of column ``x`` is cell ``(x,
y)``), so every runtime fit query is one kernel call on ``static &
~blocked``: no residual region, no fingerprint, no cache key.  Free
space is maintained state answered directly, after Ahmadinia et al.
("Optimal Free-Space Management and Routing-Conscious Dynamic Placement
for Reconfigurable Devices").

Placements are written by the one word writer,
:func:`~repro.fabric.masks.write_words`: the footprint's origin words
(:meth:`~repro.modules.footprint.Footprint.words`) shifted up to the
anchor row and ORed in, or cleared, over the columns and lanes they
span.  Move windows arrive as whole word arrays
(:meth:`Occupancy.cell_words`).  The runtime manager keeps one ledger for
its live floorplan, each defrag pass one for its simulated floorplan, and
each baseline placer run one for the floorplan it builds
(:class:`repro.placer.base._State`).
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

import numpy as np

from repro.core.result import Placement
from repro.fabric.masks import (
    anchor_words,
    column_words,
    pack_columns,
    unpack_columns,
    words_overlap,
    write_words,
)
from repro.fabric.region import PartialRegion


class Occupancy:
    """Placed, windowed and reserved cells of one region as column words."""

    def __init__(
        self, region: PartialRegion, placements: Iterable[Placement] = ()
    ) -> None:
        self.region = region
        #: ``(K, W, L)`` words of the cells each kind may use, built once
        self.static = column_words(region)
        self.static.setflags(write=False)
        #: placed modules plus the active move window
        self.held = np.zeros(self.static.shape[1:], dtype=np.uint64)
        #: cells promised to outstanding reservations
        self.reserved = np.zeros_like(self.held)
        #: cells covered by placed modules (move windows excluded)
        self.occupied_cells = 0
        #: bumped on every write, for views memoized on the floorplan
        self.revision = 0
        for p in placements:
            self.place(p)

    # ------------------------------------------------------------------
    # The word writer
    # ------------------------------------------------------------------
    def write(
        self, words: np.ndarray, placement: Placement, value: bool
    ) -> None:
        """Set (``value``) or clear the placement's cells in ``words``, the
        ledger's ``held`` or a caller's copy of it."""
        write_words(
            words, placement.footprint.words(), placement.x, placement.y, value
        )

    def place(self, placement: Placement) -> None:
        self.write(self.held, placement, True)
        self.occupied_cells += placement.footprint.area
        self.revision += 1

    def remove(self, placement: Placement) -> None:
        self.write(self.held, placement, False)
        self.occupied_cells -= placement.footprint.area
        self.revision += 1

    def reset(self, placements: Iterable[Placement]) -> None:
        """Forget every placed cell and window, then place ``placements``."""
        self.held[:] = 0
        self.occupied_cells = 0
        for p in placements:
            self.place(p)
        self.revision += 1

    def hold(self, window: np.ndarray) -> None:
        """Hold a move window's words (:meth:`cell_words`)."""
        self.held |= window
        self.revision += 1

    def release(self, window: np.ndarray) -> None:
        self.held &= ~window
        self.revision += 1

    def reserve(self, placements: Iterable[Placement]) -> None:
        """Set the reserved cells to those of ``placements``."""
        self.reserved = self.words_of(placements)
        self.revision += 1

    # ------------------------------------------------------------------
    # Views and fit queries
    # ------------------------------------------------------------------
    def words_of(self, placements: Iterable[Placement]) -> np.ndarray:
        """The cells of ``placements`` as a new ``(W, L)`` word array."""
        out = np.zeros_like(self.held)
        for p in placements:
            self.write(out, p, True)
        return out

    def cell_words(self, cells: Sequence[Tuple[int, int]]) -> np.ndarray:
        """An ``(x, y)`` cell list (a move window) as ``(W, L)`` words."""
        grid = np.zeros((self.region.height, self.region.width), dtype=bool)
        if cells:
            xs, ys = zip(*cells)
            grid[list(ys), list(xs)] = True
        return pack_columns(grid)

    def lifted(self, placement: Placement) -> np.ndarray:
        """A copy of ``held`` with the placement's own cells cleared."""
        words = self.held.copy()
        self.write(words, placement, False)
        return words

    def overlaps(self, placement: Placement) -> bool:
        """Does the placement touch a held cell?"""
        return words_overlap(
            self.held, placement.footprint.words(), placement.x, placement.y
        )

    def mask(self, words: np.ndarray) -> np.ndarray:
        """``(H, W)`` booleans of a ``(W, L)`` word array."""
        return unpack_columns(words, self.region.height)

    def anchors(
        self, footprints: Sequence, blocked: np.ndarray
    ) -> List[np.ndarray]:
        """Each footprint's anchor words with the ``blocked`` cells taken:
        M_a ∧ M_b ∧ M_c in one kernel call."""
        return anchor_words(self.static & ~blocked, footprints)
