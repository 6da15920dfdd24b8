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
small examples.  The production FPGA path is
:class:`repro.geost.placement.PlacementKernel`; both enforce the same
relation, which the test suite checks by comparing solution sets.

Every wake-up runs the textbook fixpoint: each object's obstacle set and
per-shape forbidden anchor boxes are derived afresh and the object is
re-filtered, in a ``while changed`` loop over all objects, until one pass
prunes nothing.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.cp.engine import Engine, Inconsistent
from repro.cp.propagator import Priority, Propagator
from repro.geost.boxes import Box
from repro.geost.forbidden import (
    ForbiddenRegion,
    compulsory_boxes,
    forbidden_anchor_boxes,
)
from repro.geost.objects import GeostObject
from repro.geost.sweep import SweepStats, sweep_max, sweep_min
from repro.obs.trace import GEOST_SHAPE_REMOVED


class Geost(Propagator):
    """Non-overlap of geost objects within resource-typed regions."""

    priority = Priority.EXPENSIVE
    #: one run loops until no change, i.e. reaches this propagator's own
    #: fixpoint — the engine need not re-queue it for self-caused events
    idempotent = True

    def __init__(
        self,
        objects: Sequence[GeostObject],
        regions: Sequence[ForbiddenRegion] = (),
    ) -> None:
        super().__init__("geost")
        if not objects:
            raise ValueError("geost needs at least one object")
        dims = {o.dim for o in objects}
        if len(dims) != 1:
            raise ValueError("geost objects must share one dimension")
        self.objects = list(objects)
        self.regions = list(regions)
        self.sweep_stats = SweepStats()

    def variables(self):
        out = []
        for o in self.objects:
            out.extend(o.origin)
            out.append(o.shape_var)
        return out

    # ------------------------------------------------------------------
    def _obstacles_for(self, obj: GeostObject) -> List[Box]:
        """Compulsory material of every *other* object."""
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

    # ------------------------------------------------------------------
    def propagate(self, engine: Engine) -> None:
        changed = True
        while changed:
            changed = False
            for obj in self.objects:
                changed |= self._filter_object(obj, engine)

    def _filter_object(self, obj: GeostObject, engine: Engine) -> bool:
        """Prune one object's shape and anchor variables; True if changed."""
        obstacles = self._obstacles_for(obj)
        per_shape = self._per_shape_boxes(obj, obstacles)
        return self._filter_views(obj, per_shape, engine)

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
