"""Analytical (force-directed) placement with anchor-mask legalization.

FRAME-style analytical floorplanning split into the classic two stages:

1. **Relaxation** — modules are soft bodies represented by the centroid of
   their primary footprint's bounding box.  A NumPy force loop integrates
   three fields over the resource-weighted grid:

   * *compaction attraction*: a constant leftward pull toward the x = 0
     wall, the continuous analogue of the paper's min-extent objective
     (Eq. 6),
   * *pairwise overlap repulsion*: overlapping bounding boxes push each
     other apart along the axis of least penetration, and
   * *per-resource density penalty*: each module splats its per-type cell
     demand uniformly over its bbox; binned demand minus the fabric's
     typed capacity planes (from :func:`repro.fabric.masks.compatibility_masks`)
     yields an overflow field whose negative gradient steers modules
     toward bins that can actually host their resource mix — this is what
     pulls BRAM-hungry modules onto the sparse BRAM columns.

2. **Legalization** — relaxed centroids are snapped, left-to-right, onto
   the nearest valid anchor (:func:`repro.fabric.masks.nearest_anchor`)
   of the free-space ledger's anchor words, unpacked per shape, choosing
   the design alternative whose legalized centroid moves least from its
   relaxed position.  A bounded left-compaction polish then re-anchors the
   modules on the extent frontier while strictly improving their right
   edges: each move lifts the module from the ledger, reads its
   bottom-left anchors and places it back.

The relaxation is fully deterministic per seed (the only randomness is
the seeded initial jitter) and typically converges in well under 100 ms
on the Table-I instances, which is what makes the placer useful twice:
standalone as the ``analytical`` backend, and as the warm-start seeder
whose legalized placement becomes the CP branch-and-bound's initial
incumbent (``warm_start="analytical"``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.fabric.masks import compatibility_masks, nearest_anchor
from repro.fabric.resource import ResourceType
from repro.core.result import Placement
from repro.modules.footprint import Footprint
from repro.modules.module import Module
from repro.obs.trace import ANALYTICAL_ITERATE, Tracer
from repro.placer.base import BasePlacer, _State


@dataclass
class AnalyticalConfig:
    """Knobs of the force relaxation and its legalizer."""

    #: maximum relaxation iterations (the loop usually converges earlier)
    iterations: int = 300
    #: integration step in cells; decays geometrically per iteration
    step: float = 1.0
    step_decay: float = 0.985
    #: constant leftward compaction pull (cells of force per iteration)
    pull: float = 0.6
    #: gain on pairwise bbox-penetration repulsion
    repulsion: float = 0.35
    #: gain on the per-resource density-overflow gradient
    density: float = 0.05
    #: square bin edge (cells) of the density grid
    bin_size: int = 4
    #: stop once the mean per-module move drops below this many cells
    tolerance: float = 0.02
    #: emit one ``analytical.iterate`` event every this many iterations
    trace_every: int = 10
    #: bounded left-compaction passes after the snap (0 disables the
    #: polish); each bound covers one of the two monotone stages
    compaction_passes: int = 10
    #: how far (in columns) behind the extent a right edge still counts
    #: as frontier during the first compaction stage
    frontier_margin: int = 2
    seed: int = 0
    #: wall-clock budget; the relaxation checks it every iteration and the
    #: polish between passes (None = run to convergence)
    time_limit: Optional[float] = None
    #: structured event sink for ``analytical.iterate`` (None = off)
    tracer: Optional[Tracer] = None


class AnalyticalPlacer(BasePlacer):
    """Force relaxation over module centroids + nearest-anchor snap."""

    name = "analytical"

    def __init__(self, config: Optional[AnalyticalConfig] = None) -> None:
        self.config = config or AnalyticalConfig()
        self.seed = self.config.seed
        self.time_limit = self.config.time_limit

    # ------------------------------------------------------------------
    # Relaxation
    # ------------------------------------------------------------------
    def _demand_planes(
        self, state: _State
    ) -> Tuple[Dict[ResourceType, np.ndarray], List[ResourceType]]:
        """Typed capacity planes (binned) and the resource kinds in demand."""
        cfg = self.config
        b = max(1, cfg.bin_size)
        H, W = state.H, state.W
        nby, nbx = -(-H // b), -(-W // b)
        compat = compatibility_masks(state.region)
        kinds = sorted(
            {
                kind
                for m in state.modules
                for kind in m.primary().resource_counts()
            },
            key=lambda k: int(k),
        )
        capacity: Dict[ResourceType, np.ndarray] = {}
        for kind in kinds:
            plane = np.zeros((nby * b, nbx * b), dtype=np.float64)
            plane[:H, :W] = compat[kind]
            capacity[kind] = plane.reshape(nby, b, nbx, b).sum(axis=(1, 3))
        return capacity, kinds

    def _overflow_gradient(
        self,
        capacity: Dict[ResourceType, np.ndarray],
        kinds: List[ResourceType],
        demand: Dict[ResourceType, np.ndarray],
        cx: np.ndarray,
        cy: np.ndarray,
        w: np.ndarray,
        h: np.ndarray,
    ) -> np.ndarray:
        """Per-module force from the typed density-overflow fields."""
        cfg = self.config
        b = max(1, cfg.bin_size)
        nby, nbx = next(iter(capacity.values())).shape
        n = cx.size
        force = np.zeros((n, 2), dtype=np.float64)
        bx = np.clip((cx // b).astype(np.int64), 0, nbx - 1)
        by = np.clip((cy // b).astype(np.int64), 0, nby - 1)
        for kind in kinds:
            dem = np.zeros((nby, nbx), dtype=np.float64)
            per_cell = demand[kind]
            # splat each module's demand uniformly over the bins its bbox
            # covers (integer bin ranges; exact fractions don't pay off at
            # bin_size ~ 4)
            x0 = np.clip(((cx - w / 2) // b).astype(np.int64), 0, nbx - 1)
            x1 = np.clip(((cx + w / 2) // b).astype(np.int64), 0, nbx - 1)
            y0 = np.clip(((cy - h / 2) // b).astype(np.int64), 0, nby - 1)
            y1 = np.clip(((cy + h / 2) // b).astype(np.int64), 0, nby - 1)
            for i in range(n):
                if per_cell[i] <= 0:
                    continue
                span = (y1[i] - y0[i] + 1) * (x1[i] - x0[i] + 1)
                dem[y0[i]:y1[i] + 1, x0[i]:x1[i] + 1] += per_cell[i] / span
            overflow = np.maximum(0.0, dem - capacity[kind])
            if not overflow.any():
                continue
            gy, gx = np.gradient(overflow)
            sel = per_cell > 0
            force[sel, 0] -= gx[by[sel], bx[sel]] * per_cell[sel]
            force[sel, 1] -= gy[by[sel], bx[sel]] * per_cell[sel]
        return force

    def _relax(self, state: _State) -> Tuple[np.ndarray, np.ndarray, int]:
        """Run the force loop; returns (centroids, overlap, iterations)."""
        cfg = self.config
        modules = state.modules
        n = len(modules)
        H, W = state.H, state.W
        w = np.array([m.primary().width for m in modules], dtype=np.float64)
        h = np.array([m.primary().height for m in modules], dtype=np.float64)
        areas = np.array([m.primary().area for m in modules], dtype=np.float64)
        capacity, kinds = self._demand_planes(state)
        demand = {
            kind: np.array(
                [m.primary().resource_counts().get(kind, 0) for m in modules],
                dtype=np.float64,
            )
            for kind in kinds
        }

        # seeded start: big modules to the left, small jitter breaks the
        # symmetry between identical modules deterministically
        rng = np.random.default_rng(cfg.seed)
        order = np.argsort(-areas, kind="stable")
        cx = np.empty(n)
        cy = np.empty(n)
        cursor = 0.0
        row = 0.0
        for i in order:
            if row + h[i] > H:
                row, cursor = 0.0, cursor + w[i]
            cx[i] = min(cursor + w[i] / 2, W - w[i] / 2)
            cy[i] = min(row + h[i] / 2, H - h[i] / 2)
            row += h[i]
        cx += rng.uniform(-0.5, 0.5, n)
        cy += rng.uniform(-0.5, 0.5, n)

        # deterministic push direction for exactly-coincident pairs
        tie = np.sign(np.subtract.outer(np.arange(n), np.arange(n)))
        tie[tie == 0] = 1.0
        tracer = cfg.tracer
        if tracer is not None and not tracer.enabled:
            tracer = None

        step = cfg.step
        overlap_total = 0.0
        iteration = 0
        for iteration in range(1, cfg.iterations + 1):
            force = np.zeros((n, 2), dtype=np.float64)
            force[:, 0] -= cfg.pull

            dx = cx[:, None] - cx[None, :]
            dy = cy[:, None] - cy[None, :]
            px = (w[:, None] + w[None, :]) / 2 - np.abs(dx)
            py = (h[:, None] + h[None, :]) / 2 - np.abs(dy)
            overlapping = (px > 0) & (py > 0)
            np.fill_diagonal(overlapping, False)
            overlap_total = float((px * py)[overlapping].sum()) / 2
            sx = np.where(dx == 0, tie, np.sign(dx))
            sy = np.where(dy == 0, tie, np.sign(dy))
            use_x = overlapping & (px <= py)
            use_y = overlapping & ~ (px <= py)
            force[:, 0] += cfg.repulsion * np.where(use_x, px * sx, 0.0).sum(
                axis=1
            )
            force[:, 1] += cfg.repulsion * np.where(use_y, py * sy, 0.0).sum(
                axis=1
            )

            if cfg.density > 0:
                force += cfg.density * self._overflow_gradient(
                    capacity, kinds, demand, cx, cy, w, h
                )

            move = step * np.clip(force, -3.0, 3.0)
            cx = np.clip(cx + move[:, 0], w / 2, W - w / 2)
            cy = np.clip(cy + move[:, 1], h / 2, H - h / 2)
            step *= cfg.step_decay
            mean_move = float(np.abs(move).mean())
            if tracer is not None and (
                iteration % max(1, cfg.trace_every) == 0 or iteration == 1
            ):
                tracer.emit(
                    ANALYTICAL_ITERATE,
                    iteration=iteration,
                    move=mean_move,
                    overlap=overlap_total,
                )
            if mean_move < cfg.tolerance or state.out_of_budget():
                break
        state.stats["iterations"] = iteration
        state.stats["overlap"] = overlap_total
        return cx, cy, iteration

    # ------------------------------------------------------------------
    # Legalization
    # ------------------------------------------------------------------
    @staticmethod
    def _shape_centroid(fp: Footprint) -> Tuple[float, float]:
        """Mean (dx, dy) of one shape's cells (offsets are (dy, dx))."""
        off = fp.offsets()
        return float(off[:, 1].mean()), float(off[:, 0].mean())

    def _snap(
        self, state: _State, cx: np.ndarray, cy: np.ndarray
    ) -> List[Module]:
        """Left-to-right nearest-anchor snap; least-movement alternative."""
        n = len(state.modules)
        areas = [m.primary().area for m in state.modules]
        order = sorted(range(n), key=lambda i: (cx[i], -areas[i], i))
        unplaced: List[Module] = []
        snapped = 0
        movement = 0.0
        for mi in order:
            best: Optional[Tuple[float, int, int, int]] = None
            shapes = state.modules[mi].shapes
            for si, words in enumerate(state.shape_anchors(mi)):
                ox, oy = self._shape_centroid(shapes[si])
                hit = nearest_anchor(
                    state.ledger.mask(words), cx[mi] - ox, cy[mi] - oy
                )
                if hit is None:
                    continue
                ax, ay = hit
                d2 = (ax + ox - cx[mi]) ** 2 + (ay + oy - cy[mi]) ** 2
                key = (d2, si, ax, ay)
                if best is None or key < best:
                    best = key
            if best is None:
                unplaced.append(state.modules[mi])
                continue
            d2, si, ax, ay = best
            state.commit(mi, si, ax, ay)
            snapped += 1
            movement += float(np.sqrt(d2))
        state.stats["snapped"] = snapped
        state.stats["snap_movement"] = movement
        return unplaced

    def _try_left_move(self, state: _State, mi: int, pi: int) -> bool:
        """Re-anchor one placement iff some (shape, anchor) strictly
        reduces its right edge; the floorplan stays valid throughout (the
        module only ever lands on currently-free valid anchors)."""
        p = state.placements[pi]
        state.ledger.remove(p)
        shapes = p.module.shapes
        best = min(
            (
                (x + shapes[si].width, x, y, si)
                for x, y, si in state.first_anchors(mi)
            ),
            default=None,
        )
        moved = best is not None and best[0] < p.right
        if moved:
            _, x, y, si = best
            p = state.placements[pi] = Placement(p.module, si, x, y)
        state.ledger.place(p)
        return moved

    def _compact(self, state: _State) -> int:
        """Bounded left-compaction polish; returns the move count.

        Two monotone stages (every accepted move strictly reduces one
        module's right edge, so the extent never increases): first the
        extent *frontier* is re-anchored until fixpoint — only moving
        frontier modules can reduce the objective, and touching nothing
        else preserves the holes they compact into — then full
        ascending-x sweeps tighten the interior, which helps the
        warm-started CP search and any later arrivals without being able
        to undo the frontier's gains."""
        cfg = self.config
        moves = 0
        mi_of_name = {m.name: i for i, m in enumerate(state.modules)}
        passes = max(0, cfg.compaction_passes)
        for _ in range(passes):
            if state.out_of_budget():
                break
            improved = False
            extent = state.extent()
            for pi, p in enumerate(state.placements):
                if p.right >= extent - cfg.frontier_margin:
                    if self._try_left_move(state, mi_of_name[p.module.name], pi):
                        moves += 1
                        improved = True
            if not improved:
                break
        for _ in range(passes):
            if state.out_of_budget():
                break
            improved = False
            order = sorted(
                range(len(state.placements)),
                key=lambda pi: (state.placements[pi].x, state.placements[pi].y),
            )
            for pi in order:
                p = state.placements[pi]
                if self._try_left_move(state, mi_of_name[p.module.name], pi):
                    moves += 1
                    improved = True
            if not improved:
                break
        state.stats["compaction_moves"] = moves
        return moves

    def _retry_unplaced(
        self, state: _State, unplaced: List[Module]
    ) -> List[Module]:
        """Second chance for modules the snap could not seat: compaction
        just freed space, so try again with plain bottom-left anchors."""
        mi_of_name = {m.name: i for i, m in enumerate(state.modules)}
        still: List[Module] = []
        for m in unplaced:
            mi = mi_of_name[m.name]
            best = state.bottom_left(mi)
            if best is None:
                still.append(m)
            else:
                x, y, si = best
                state.commit(mi, si, x, y)
                state.stats["snapped"] = state.stats.get("snapped", 0) + 1
        return still

    # ------------------------------------------------------------------
    def _run(self, state: _State) -> List[Module]:
        if not state.modules:
            return []
        cx, cy, _ = self._relax(state)
        unplaced = self._snap(state, cx, cy)
        if self.config.compaction_passes > 0 and state.placements:
            self._compact(state)
        if unplaced:
            unplaced = self._retry_unplaced(state, unplaced)
        return unplaced
