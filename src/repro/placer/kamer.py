"""Bazargan-style online placement with maximal empty rectangles (KAMER).

Reference [4] of the paper (Bazargan & Sarrafzadeh) manages free space for
*online* placement; the "Keep All Maximal Empty Rectangles" strategy
maintains the set of maximal free rectangles, places each arriving module's
bounding box into a chosen MER, and re-splits intersecting rectangles.

Because our fabric is heterogeneous, a candidate position inside a MER is
additionally validated against the resource-typed anchor mask; the MER
machinery is used (as in the original) for fast free-space management,
while M_b feasibility comes from the same free-space ledger all placers
share: each arriving module's anchor words, unpacked once and sliced per
MER.
Modules arrive online (input order) and are rejected if nothing fits —
utilization then reflects the service level, the metric the online
literature reports.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.fabric.masks import first_anchor
from repro.modules.footprint import Footprint
from repro.modules.module import Module
from repro.placer.base import BasePlacer, _State

Rect = Tuple[int, int, int, int]  # (x, y, w, h)


def split_rectangle(mer: Rect, used: Rect) -> List[Rect]:
    """Split a MER around a placed box: up to four residual rectangles."""
    mx, my, mw, mh = mer
    ux, uy, uw, uh = used
    ix0, iy0 = max(mx, ux), max(my, uy)
    ix1, iy1 = min(mx + mw, ux + uw), min(my + mh, uy + uh)
    if ix0 >= ix1 or iy0 >= iy1:
        return [mer]  # no intersection
    out: List[Rect] = []
    if ix0 > mx:
        out.append((mx, my, ix0 - mx, mh))           # left slab
    if ix1 < mx + mw:
        out.append((ix1, my, mx + mw - ix1, mh))     # right slab
    if iy0 > my:
        out.append((mx, my, mw, iy0 - my))           # bottom slab
    if iy1 < my + mh:
        out.append((mx, iy1, mw, my + mh - iy1))     # top slab
    return out


def prune_non_maximal(rects: List[Rect]) -> List[Rect]:
    """Drop rectangles contained in another rectangle of the list."""
    out: List[Rect] = []
    for i, a in enumerate(rects):
        ax, ay, aw, ah = a
        contained = False
        for j, b in enumerate(rects):
            if i == j:
                continue
            bx, by, bw, bh = b
            if bx <= ax and by <= ay and bx + bw >= ax + aw and by + bh >= ay + ah:
                if (b != a) or (j < i):  # identical rects: keep the first
                    contained = True
                    break
        if not contained:
            out.append(a)
    return out


class KamerPlacer(BasePlacer):
    """Online best-area fit over maximal empty rectangles: the smallest
    MER that holds a resource-feasible anchor of some shape wins."""

    name = "kamer"

    # ------------------------------------------------------------------
    def _initial_mers(self, state: _State) -> List[Rect]:
        from repro.metrics.fragmentation import maximal_empty_rectangles

        return maximal_empty_rectangles(state.region.allowed_mask())

    @staticmethod
    def _candidate_in_mer(
        fp: Footprint, mask: np.ndarray, mer: Rect
    ) -> Optional[Tuple[int, int]]:
        """Bottom-left anchor of one shape's ``(H, W)`` anchor mask whose
        bounding box lies inside the MER."""
        x0, y0, w, h = mer
        if fp.width > w or fp.height > h:
            return None
        hit = first_anchor(
            mask[y0 : y0 + h - fp.height + 1, x0 : x0 + w - fp.width + 1]
        )
        if hit is None:
            return None
        return x0 + hit[0], y0 + hit[1]

    def _run(self, state: _State) -> List[Module]:
        mers = self._initial_mers(state)
        unplaced: List[Module] = []
        for mi, module in enumerate(state.modules):
            # the ledger does not change while one module is being sited,
            # so every shape's anchors are read and unpacked once
            masks = state.ledger.mask(np.array(state.shape_anchors(mi)))
            choice = None  # (score, si, x, y, mer)
            for mer in sorted(mers, key=lambda r: r[2] * r[3]):
                for si, fp in enumerate(module.shapes):
                    pos = self._candidate_in_mer(fp, masks[si], mer)
                    if pos is None:
                        continue
                    choice = (si, pos[0], pos[1])
                    break
                if choice is not None:
                    break
            if choice is None:
                unplaced.append(module)
                continue
            si, x, y = choice
            fp = module.shapes[si]
            state.commit(mi, si, x, y)
            used = (x, y, fp.width, fp.height)
            new: List[Rect] = []
            for mer in mers:
                new.extend(split_rectangle(mer, used))
            mers = prune_non_maximal(list(dict.fromkeys(new)))
        return unplaced
