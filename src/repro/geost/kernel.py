"""The geost global constraint.

Non-overlap of polymorphic k-dimensional objects plus resource-typed
forbidden regions, implemented as one propagator of the CP engine:

* anchors are kept inside per-object placement bounds,
* each object's anchor bounds are filtered by the sweep algorithm against
  the forbidden anchor boxes induced by (a) other objects' compulsory
  parts and (b) the resource-typed forbidden regions,
* candidate shapes with no remaining feasible anchor are removed from the
  object's shape variable.

This is the reference implementation — faithful to the paper's description
of the extended kernel, exercised directly by unit/property tests and by
small examples.  The production FPGA path with bitmap pruning is
:class:`repro.geost.placement.PlacementKernel`; both enforce the same
relation, which the test suite checks by comparing solution sets.

Two propagation modes enforce that relation identically:

``incremental=False`` (wholesale)
    Every wake-up re-derives every object's obstacle set and forbidden
    anchor boxes and re-filters all objects in a ``while changed`` loop —
    the textbook fixpoint, kept as the differential-testing oracle.

``incremental=True`` (default)
    A per-object dirty set, fed by the engine's modification events via
    :meth:`on_event`, selects which objects to re-filter; compulsory-part
    caches and per-shape forbidden-box lists are reused across wake-ups
    and invalidated through a :class:`~repro.cp.trail.Revision` stamp that
    trail undo closures bump, so every cache rolls back with the search.
    Fixed objects are rasterized into a NumPy
    :class:`~repro.geost.bitboard.OccupancyBitboard` (together with the
    static forbidden regions) and tested by mask intersection instead of
    explicit boxes.  Both modes run each wake-up to the same least
    fixpoint of the same monotone per-object filters (chaotic-iteration
    confluence), so search trees are bit-identical — the property the
    differential suite pins.

On top of the incremental mode, ``bitboard=True`` (default) replaces the
per-point scalar sweep itself: compulsory parts of the *other* unfixed
objects are stamped into a throwaway copy of the board's all-blocking
plane, summed-area tables turn every shape's forbidden-anchor set over
the whole anchor lattice into a handful of array subtractions
(:meth:`~repro.geost.bitboard.OccupancyBitboard.forbidden_anchor_lattice`),
and per-axis bounds come from vectorized first-free scans of the free
lattice.  The scans prune the exact lexicographic extrema the scalar
sweep finds and replay its prune order (per shape, then per dimension
min/max with bounds re-read after every prune), so the three modes form
an oracle ladder — scalar / incremental / bitboard — with bit-identical
search trees all the way up.  Instances whose anchor window exceeds the
rasterization guard keep the scalar sweep and count a ``fallbacks``
tick.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.cp.engine import Engine, Inconsistent
from repro.cp.events import Event
from repro.cp.propagator import Priority, Propagator
from repro.cp.trail import Revision, Trail
from repro.fabric.masks import integral_occupancy
from repro.geost.bitboard import OccupancyBitboard, anchor_window
from repro.geost.boxes import Box
from repro.geost.forbidden import (
    ForbiddenRegion,
    compulsory_boxes,
    forbidden_anchor_boxes,
)
from repro.geost.incremental import IncStats
from repro.geost.objects import GeostObject
from repro.geost.sweep import ShapeView, SweepStats, sweep_max, sweep_min
from repro.obs.trace import GEOST_INCREMENTAL, GEOST_SHAPE_REMOVED

#: bitboard memory guard: skip rasterization when the anchor-reachable
#: window would exceed this many cells per plane (~4 MiB of bools)
_MAX_BOARD_CELLS = 1 << 22


class Geost(Propagator):
    """Non-overlap of geost objects within resource-typed regions."""

    priority = Priority.EXPENSIVE
    #: one run drains the dirty set (incremental) / loops until no change
    #: (wholesale), i.e. reaches this propagator's own fixpoint — the
    #: engine need not re-queue it for self-caused events
    idempotent = True

    def __init__(
        self,
        objects: Sequence[GeostObject],
        regions: Sequence[ForbiddenRegion] = (),
        incremental: bool = True,
        bitboard: bool = True,
    ) -> None:
        super().__init__("geost")
        if not objects:
            raise ValueError("geost needs at least one object")
        dims = {o.dim for o in objects}
        if len(dims) != 1:
            raise ValueError("geost objects must share one dimension")
        self.objects = list(objects)
        self.regions = list(regions)
        self.incremental = incremental
        #: use the vectorized lattice sweep (meaningful only when
        #: ``incremental`` — the wholesale oracle stays purely scalar)
        self.bitboard = bitboard and incremental
        self.inc_stats = IncStats()
        self.sweep_stats = SweepStats()
        # --- incremental state (unused in wholesale mode) ---
        self._trail: Optional[Trail] = None
        self._var_to_idx: Dict[int, int] = {}
        self._dirty: Set[int] = set()
        self._comp_stale: Set[int] = set()
        #: cached compulsory boxes per object, maintained under the trail
        self._comp: List[List[Box]] = []
        #: bumped whenever any obstacle (compulsory part, imprint) changes,
        #: including from undo closures — keys the forbidden-box cache
        self._rev = Revision()
        self._box_cache: Dict[Tuple[int, int], Tuple[int, List[Box]]] = {}
        self._board: Optional[OccupancyBitboard] = None
        self._imprinted: List[bool] = []
        #: fixed objects awaiting one post-fix filter before rasterization
        self._imprint_pending: Set[int] = set()

    def variables(self):
        out = []
        for o in self.objects:
            out.extend(o.origin)
            out.append(o.shape_var)
        return out

    # ------------------------------------------------------------------
    # Incremental bookkeeping
    # ------------------------------------------------------------------
    def post(self, engine: Engine) -> None:
        for v in self.variables():
            v.watch(self, Event.ANY)
        if self.incremental:
            self._trail = engine.trail
            n = len(self.objects)
            for idx, obj in enumerate(self.objects):
                for v in obj.origin:
                    self._var_to_idx[id(v)] = idx
                self._var_to_idx[id(obj.shape_var)] = idx
            self._comp = [[] for _ in range(n)]
            self._comp_stale = set(range(n))
            self._dirty = set(range(n))
            self._imprinted = [False] * n
            window = anchor_window(self.objects)
            if window.volume() <= _MAX_BOARD_CELLS:
                self._board = OccupancyBitboard(window)
                for region in self.regions:
                    self._board.add_region(region)
        engine.schedule(self)

    def on_event(self, var, event: Event) -> bool:
        if self.incremental:
            idx = self._var_to_idx.get(id(var))
            if idx is not None:
                self._dirty.add(idx)
                self._comp_stale.add(idx)
        return True

    def _refresh(self) -> None:
        """Sync compulsory caches with domains; rasterize newly fixed objects."""
        n = len(self.objects)
        while self._comp_stale:
            idx = min(self._comp_stale)
            self._comp_stale.discard(idx)
            obj = self.objects[idx]
            new = compulsory_boxes(obj)
            old = self._comp[idx]
            if new != old:
                self._comp[idx] = new
                self._rev.bump()
                assert self._trail is not None
                self._trail.push(
                    lambda idx=idx, old=old: self._restore_comp(idx, old)
                )
                # every other object's last filter ran against the old
                # obstacle set: compulsory parts only grow as domains
                # shrink, so they may now prune more
                self._dirty.update(j for j in range(n) if j != idx)
            if (
                self._board is not None
                and obj.is_fixed()
                and not self._imprinted[idx]
            ):
                self._imprint_pending.add(idx)
        # rasterize a fixed object only once it has been filtered in its
        # fixed state (left the dirty set): its own filter must not see its
        # own material on the board
        for idx in sorted(self._imprint_pending - self._dirty):
            self._imprint_pending.discard(idx)
            obj = self.objects[idx]
            if not self._imprinted[idx] and obj.is_fixed():
                self._imprint(idx, obj)

    def _restore_comp(self, idx: int, old: List[Box]) -> None:
        self._comp[idx] = old
        self._rev.bump()

    def _imprint(self, idx: int, obj: GeostObject) -> None:
        """Move a fixed object's material from explicit boxes to the board."""
        assert self._board is not None and self._trail is not None
        anchor, sid = obj.fixed_placement()
        self._board.imprint(obj.shape(sid).absolute_boxes(anchor), self._trail)
        self._imprinted[idx] = True
        self._rev.bump()
        self.inc_stats.rasterized += 1
        self._trail.push(lambda idx=idx: self._unimprint(idx))

    def _unimprint(self, idx: int) -> None:
        self._imprinted[idx] = False
        self._rev.bump()
        # conservative: if the object somehow remains fixed at this level it
        # will be re-rasterized after its next filter (is_fixed is rechecked)
        self._imprint_pending.add(idx)

    # ------------------------------------------------------------------
    def _obstacles_for(self, obj: GeostObject) -> List[Box]:
        """Compulsory material of every *other* object (wholesale path)."""
        out: List[Box] = []
        for other in self.objects:
            if other is not obj:
                out.extend(compulsory_boxes(other))
        return out

    def _per_shape_boxes(
        self, obj: GeostObject, obstacles: List[Box]
    ) -> Dict[int, List[Box]]:
        return {
            sid: forbidden_anchor_boxes(
                obj.shape(sid).boxes, obstacles, self.regions
            )
            for sid in obj.candidate_shapes()
        }

    def _shape_boxes(self, idx: int, sid: int, obstacles: List[Box]) -> List[Box]:
        """Forbidden boxes of one candidate shape, cached per revision."""
        key = (idx, sid)
        entry = self._box_cache.get(key)
        if entry is not None and entry[0] == self._rev.current:
            self.inc_stats.reused += 1
            return entry[1]
        # with a board, regions live on the raster planes; without one
        # (window too large) they stay explicit
        regions = () if self._board is not None else self.regions
        boxes = forbidden_anchor_boxes(
            self.objects[idx].shape(sid).boxes, obstacles, regions
        )
        self._box_cache[key] = (self._rev.current, boxes)
        return boxes

    # ------------------------------------------------------------------
    def propagate(self, engine: Engine) -> None:
        if not self.incremental:
            changed = True
            while changed:
                changed = False
                for obj in self.objects:
                    changed |= self._filter_object(obj, engine)
            return
        self._refresh()
        while self._dirty:
            idx = min(self._dirty)  # deterministic processing order
            self._dirty.discard(idx)
            if self._imprinted[idx]:
                # fixed, filtered while fixed, and rasterized — nothing
                # about it can have changed; conflicts with it are caught
                # when the *changed* object is filtered against the board
                continue
            self.inc_stats.dirty += 1
            self._filter_incremental(idx, engine)
            self._refresh()
        tr = engine.tracer
        if tr is not None and tr.fine:
            tr.emit(GEOST_INCREMENTAL, **self.inc_stats.as_dict())

    def _filter_object(self, obj: GeostObject, engine: Engine) -> bool:
        """Prune one object's shape and anchor variables; True if changed."""
        obstacles = self._obstacles_for(obj)
        per_shape = self._per_shape_boxes(obj, obstacles)
        return self._filter_views(obj, per_shape, engine)

    def _filter_incremental(self, idx: int, engine: Engine) -> None:
        obj = self.objects[idx]
        if self.bitboard:
            if self._board is not None:
                self._filter_bitboard(idx, obj, engine)
                return
            self.inc_stats.fallbacks += 1
        obstacles = [
            b
            for j in range(len(self.objects))
            if j != idx and not self._imprinted[j]
            for b in self._comp[j]
        ]
        per_shape: Dict[int, ShapeView] = {}
        for sid in obj.candidate_shapes():
            boxes = self._shape_boxes(idx, sid, obstacles)
            raster = (
                self._board.probe_for_shape(obj.shape(sid).boxes)
                if self._board is not None
                else None
            )
            per_shape[sid] = ShapeView(boxes, raster)
        self._filter_views(obj, per_shape, engine)

    def _filter_bitboard(self, idx: int, obj: GeostObject, engine: Engine) -> None:
        """Vectorized filter: whole-lattice masks instead of sweep points.

        Reproduces :meth:`_filter_views` prune for prune.  The forbidden
        predicate of an anchor is bounds-independent, so one free lattice
        computed over the entry bounds serves every later scan: the lattice
        restricted to shrunken bounds *is* the lattice of those bounds.
        Per-axis extrema of the free set equal the scalar sweep's
        lexicographic extrema coordinate (the sweep returns the least/
        greatest feasible point with that axis most significant), and
        bounds are re-read after every prune — exactly the scalar
        sequencing — so domain holes behind a pruned bound resolve
        identically.
        """
        board = self._board
        assert board is not None
        obstacles = [
            b
            for j in range(len(self.objects))
            if j != idx and not self._imprinted[j]
            for b in self._comp[j]
        ]
        all_integral = integral_occupancy(board.combined_occupancy(obstacles))
        bounds = [(v.min(), v.max()) for v in obj.origin]
        # 1) drop shapes with no feasible anchor at all
        union: Optional[np.ndarray] = None
        for sid in list(obj.candidate_shapes()):
            forbidden = board.forbidden_anchor_lattice(
                obj.shape(sid).boxes, bounds, all_integral
            )
            self.inc_stats.rows_tested += 1
            self.sweep_stats.rows += 1
            if forbidden.all():
                if obj.shape_var.remove(sid, cause=self):
                    if engine.tracer is not None:
                        engine.tracer.emit(
                            GEOST_SHAPE_REMOVED, object=obj.oid, shape=sid
                        )
            else:
                free = ~forbidden
                union = free if union is None else (union | free)
        if union is None:
            raise Inconsistent(f"geost: object {obj.oid} has no placement")
        # 2) bounds filtering per dimension via first/last-free scans
        k = obj.dim
        base = [lo for lo, _ in bounds]
        clip = list(bounds)
        for d, var in enumerate(obj.origin):
            for want_max in (False, True):
                sub = union[
                    tuple(
                        slice(lo - b, hi - b + 1)
                        for (lo, hi), b in zip(clip, base)
                    )
                ]
                self.inc_stats.rows_tested += 1
                self.sweep_stats.rows += 1
                axes = tuple(a for a in range(k) if a != d)
                line = sub.any(axis=axes) if axes else sub
                if not line.any():
                    raise Inconsistent(
                        f"geost: object {obj.oid} has no placement"
                    )
                if want_max:
                    pos = len(line) - 1 - int(np.argmax(line[::-1]))
                    var.remove_above(clip[d][0] + pos, cause=self)
                else:
                    pos = int(np.argmax(line))
                    var.remove_below(clip[d][0] + pos, cause=self)
                clip[d] = (var.min(), var.max())

    def _filter_views(self, obj: GeostObject, per_shape, engine: Engine) -> bool:
        """Prune one object given its per-shape forbidden spaces."""
        bounds = [(v.min(), v.max()) for v in obj.origin]
        changed = False
        # 1) drop shapes with no feasible anchor at all
        feasible_shapes: List[int] = []
        for sid, boxes in per_shape.items():
            if sweep_min(bounds, [boxes], 0, self.sweep_stats) is not None:
                feasible_shapes.append(sid)
            else:
                if obj.shape_var.remove(sid, cause=self):
                    changed = True
                    if engine.tracer is not None:
                        engine.tracer.emit(
                            GEOST_SHAPE_REMOVED, object=obj.oid, shape=sid
                        )
        if not feasible_shapes:
            raise Inconsistent(f"geost: object {obj.oid} has no placement")
        shape_boxes = [per_shape[sid] for sid in feasible_shapes]
        # 2) bounds filtering per dimension via the sweep
        for d, var in enumerate(obj.origin):
            lo_pt = sweep_min(bounds, shape_boxes, d, self.sweep_stats)
            if lo_pt is None:
                raise Inconsistent(f"geost: object {obj.oid} has no placement")
            changed |= var.remove_below(lo_pt[d], cause=self)
            hi_pt = sweep_max(
                [(v.min(), v.max()) for v in obj.origin], shape_boxes, d,
                self.sweep_stats,
            )
            if hi_pt is None:
                raise Inconsistent(f"geost: object {obj.oid} has no placement")
            changed |= var.remove_above(hi_pt[d], cause=self)
            bounds = [(v.min(), v.max()) for v in obj.origin]
        return changed

    # ------------------------------------------------------------------
    def check_fixed(self) -> bool:
        """Decision check: do the fixed objects satisfy the constraint?

        Used by tests; every object must be fixed.
        """
        placed: List[Tuple[int, List[Box]]] = []
        for obj in self.objects:
            anchor, sid = obj.fixed_placement()
            placed.append((obj.oid, obj.shape(sid).absolute_boxes(anchor)))
        # pairwise overlap
        for i in range(len(placed)):
            for j in range(i + 1, len(placed)):
                for a in placed[i][1]:
                    for b in placed[j][1]:
                        if a.intersects(b):
                            return False
        # region violation
        for obj in self.objects:
            anchor, sid = obj.fixed_placement()
            for sbox in obj.shape(sid).boxes:
                absolute = sbox.at(anchor)
                for region in self.regions:
                    if region.blocks(sbox) and absolute.intersects(region.box):
                        return False
        return True
