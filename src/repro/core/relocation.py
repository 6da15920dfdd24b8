"""Module relocatability analysis.

Related work [9] (Becker, Luk, Cheung: "Enhancing Relocatability of
Partial Bitstreams for Run-Time Reconfiguration") studies where a placed
module's bitstream can be *relocated* — re-placed without re-routing.  On
a heterogeneous fabric a module can only move to anchors whose underlying
resource pattern matches its footprint exactly, which is the same
compatibility computation our kernel uses for placement.

This module quantifies relocatability for placed systems:

* :func:`relocation_sites` — all anchors a placed module could move to
  right now (resource-compatible, inside the region, free);
* :func:`relocatability_report` — per-module site counts, with and without
  considering the module's design alternatives;
* :func:`relocation_distance` — frame-count cost of a relocation (columns
  the move touches), the reconfiguration-time proxy used by the flow's
  bitstream model.

Design alternatives matter here too: a module with several layouts has a
superset of relocation sites, so runtime defragmentation
(:mod:`repro.core.defrag`) gets more freedom — the runtime counterpart of
the paper's offline utilization result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.occupancy import Occupancy
from repro.core.result import Placement, PlacementResult
from repro.fabric.masks import unpack_columns


@dataclass(frozen=True)
class RelocationSite:
    """A feasible relocation target for a placed module."""

    shape_index: int
    x: int
    y: int

    @property
    def anchor(self) -> Tuple[int, int]:
        return self.x, self.y


def relocation_sites(
    result: PlacementResult,
    placement: Placement,
    consider_alternatives: bool = True,
    occupied: Optional[Occupancy] = None,
) -> List[RelocationSite]:
    """All anchors ``placement``'s module could occupy instead.

    The module itself is lifted first (its own cells count as free), so
    the current position is always among the sites of its current shape.

    ``occupied`` is the caller's free-space ledger of ``result`` (the
    defrag planners keep one per plan; None = build one).  The mover is
    lifted by clearing its words on a copy, so the ledger is never
    written.  Sites come out shape by shape, each row by row (y, then x).
    """
    if occupied is None:
        occupied = Occupancy(result.region, result.placements)
    shapes = (
        list(enumerate(placement.module.shapes))
        if consider_alternatives
        else [(placement.shape_index, placement.footprint)]
    )
    words = occupied.anchors([fp for _, fp in shapes], occupied.lifted(placement))
    height = result.region.height
    sites: List[RelocationSite] = []
    for (sid, _), found in zip(shapes, words):
        ys, xs = np.nonzero(unpack_columns(found, height))
        sites.extend(
            RelocationSite(sid, int(x), int(y))
            for x, y in zip(xs.tolist(), ys.tolist())
        )
    return sites


def relocation_distance(placement: Placement, site: RelocationSite) -> int:
    """Reconfiguration cost of the move, in configuration frames.

    Column-oriented devices rewrite whole frames: the cost is the number
    of distinct columns the old and new footprints touch.
    """
    old_cols = {placement.x + dx for dx, _, _ in placement.footprint.cells}
    fp = placement.module.shapes[site.shape_index]
    new_cols = {site.x + dx for dx, _, _ in fp.cells}
    return len(old_cols | new_cols)


@dataclass
class RelocatabilityRow:
    module: str
    sites_same_shape: int
    sites_with_alternatives: int

    @property
    def gain(self) -> float:
        if self.sites_same_shape == 0:
            return float(self.sites_with_alternatives > 0)
        return self.sites_with_alternatives / self.sites_same_shape


def relocatability_report(result: PlacementResult) -> List[RelocatabilityRow]:
    """Per-module relocation site counts, without vs with alternatives."""
    rows = []
    for p in result.placements:
        same = len(relocation_sites(result, p, consider_alternatives=False))
        full = len(relocation_sites(result, p, consider_alternatives=True))
        rows.append(RelocatabilityRow(p.module.name, same, full))
    return rows


def format_relocatability(rows: List[RelocatabilityRow]) -> str:
    """Tabular rendering of a relocatability report."""
    header = f"{'module':<10} {'sites(1 shape)':>15} {'sites(all)':>11} {'gain':>6}"
    out = [header, "-" * len(header)]
    for r in rows:
        out.append(
            f"{r.module:<10} {r.sites_same_shape:>15} "
            f"{r.sites_with_alternatives:>11} {r.gain:>5.1f}x"
        )
    return "\n".join(out)
