"""Module relocatability analysis.

Related work [9] (Becker, Luk, Cheung: "Enhancing Relocatability of
Partial Bitstreams for Run-Time Reconfiguration") studies where a placed
module's bitstream can be *relocated* — re-placed without re-routing.  On
a heterogeneous fabric a module can only move to anchors whose underlying
resource pattern matches its footprint exactly, which is the same
compatibility computation our kernel uses for placement.

This module quantifies relocatability for placed systems:

* :class:`RelocationProbe` — the sites of many placed modules at once,
  each with itself lifted, from one anchor-word kernel call: the defrag
  planners probe every placement once per compaction step;
* :func:`relocation_sites` — all anchors one placed module could move to
  right now (resource-compatible, inside the region, free): the
  one-mover probe;
* :func:`relocatability_report` — per-module site counts, with and without
  considering the module's design alternatives (one probe per policy);
* :func:`relocation_distance` — frame-count cost of a relocation (columns
  the move touches), the reconfiguration-time proxy used by the flow's
  bitstream model.

Design alternatives matter here too: a module with several layouts has a
superset of relocation sites, so runtime defragmentation
(:mod:`repro.core.defrag`) gets more freedom — the runtime counterpart of
the paper's offline utilization result.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.occupancy import Occupancy
from repro.core.result import Placement, PlacementResult
from repro.fabric.masks import (
    LANE_BITS,
    anchor_word_stack,
    term_rows,
    unpack_columns,
)


@dataclass(frozen=True)
class RelocationSite:
    """A feasible relocation target for a placed module."""

    shape_index: int
    x: int
    y: int

    @property
    def anchor(self) -> Tuple[int, int]:
        return self.x, self.y


class RelocationProbe(Sequence):
    """The relocation sites of every placement in ``movers``, each with
    itself lifted, from one anchor-kernel call.

    ``occupied`` is the caller's free-space ledger of ``result`` (the
    defrag planners keep one per plan; None = build one); it is read,
    never written.  Mover ``m``'s lifted free view, ``static &
    ~occupied.lifted(p_m)`` (its own cells count as free), is kind-plane
    block ``m`` of one word stack, and the term rows of its shapes read
    that block (kind row plus ``m * K``).  One
    :func:`~repro.fabric.masks.anchor_word_stack` call then answers every
    shape of every mover.  ``probe[m]`` unpacks mover ``m``'s sites on
    first use: shape by shape, each row by row (y, then x);
    :meth:`bottom_left` gives each shape's bottom-left site without
    unpacking them.
    """

    def __init__(
        self,
        result: PlacementResult,
        movers: Sequence[Placement],
        consider_alternatives: bool = True,
        occupied: Optional[Occupancy] = None,
    ) -> None:
        if occupied is None:
            occupied = Occupancy(result.region, result.placements)
        self._height = occupied.region.height
        self._sites: List[Optional[List[RelocationSite]]] = [None] * len(movers)
        #: per mover, its shape indices and the slice of their rows
        self._shapes: List[Tuple[List[int], slice]] = []
        #: per shape row, its bottom-left site (None = no site)
        self._corners: List[Optional[RelocationSite]] = []
        if not movers:
            return
        static = occupied.static
        K, W, L = static.shape
        own = np.zeros((len(movers), W, L), dtype=np.uint64)
        footprints, terms, sids = [], [], []
        for m, p in enumerate(movers):
            occupied.write(own[m], p, True)
            mine = (
                list(range(len(p.module.shapes)))
                if consider_alternatives
                else [p.shape_index]
            )
            fps = [p.module.shapes[s] for s in mine]
            self._shapes.append(
                (mine, slice(len(footprints), len(footprints) + len(fps)))
            )
            footprints += fps
            sids += mine
            terms.append(sum(fp.run_index().shape[1] for fp in fps))
        # static & ~(held & ~own) == (static & ~held) | (static & own)
        free = (static & ~occupied.held)[None] | (static[None] & own[:, None])
        rows, starts = term_rows(footprints)
        rows[1] += np.repeat(np.arange(0, len(movers) * K, K), terms)
        self._words = words = anchor_word_stack(
            free.reshape(len(movers) * K, W, L), rows, starts
        )
        # a shape's bottom-left site: its first nonzero column, the first
        # nonzero lane there, and that word's lowest set bit
        row = np.arange(len(footprints))
        xs = words.any(axis=2).argmax(axis=1)
        lanes = (words[row, xs] != 0).argmax(axis=1)
        self._corners = [
            RelocationSite(
                sid, x, lane * LANE_BITS + (word & -word).bit_length() - 1
            ) if word else None
            for sid, x, lane, word in zip(
                sids, xs.tolist(), lanes.tolist(),
                words[row, xs, lanes].tolist(),
            )
        ]

    def __len__(self) -> int:
        return len(self._sites)

    def bottom_left(self, m: int) -> List[RelocationSite]:
        """Mover ``m``'s bottom-left site (smallest x, then y) of each
        shape that has one, without unpacking its sites."""
        _, block = self._shapes[m]
        return [s for s in self._corners[block] if s is not None]

    def __getitem__(self, m: int) -> List[RelocationSite]:
        sites = self._sites[m]
        if sites is None:
            sids, block = self._shapes[m]
            found = unpack_columns(self._words[block], self._height)
            ss, ys, xs = np.nonzero(found)
            sites = self._sites[m] = [
                RelocationSite(sids[s], x, y)
                for s, x, y in zip(ss.tolist(), xs.tolist(), ys.tolist())
            ]
        return sites


def relocation_sites(
    result: PlacementResult,
    placement: Placement,
    consider_alternatives: bool = True,
    occupied: Optional[Occupancy] = None,
) -> List[RelocationSite]:
    """All anchors ``placement``'s module could occupy instead: the
    one-mover :class:`RelocationProbe`.

    The module itself is lifted first (its own cells count as free), so
    the current position is always among the sites of its current shape.
    Sites come out shape by shape, each row by row (y, then x).
    """
    return RelocationProbe(
        result, [placement], consider_alternatives, occupied
    )[0]


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
    """Per-module relocation site counts, without vs with alternatives:
    one :class:`RelocationProbe` per shape policy."""
    placements = result.placements
    occupied = Occupancy(result.region, placements)
    same, full = (
        RelocationProbe(result, placements, alts, occupied)
        for alts in (False, True)
    )
    return [
        RelocatabilityRow(p.module.name, len(s), len(f))
        for p, s, f in zip(placements, same, full)
    ]


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
