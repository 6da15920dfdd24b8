"""Temporal module placement: time as a third geost dimension.

The related work's exact method for scheduling reconfigurable modules is
Fekete, Köhler & Teich (the paper's ref [6]): treat a module execution as
a *box in (x, y, t)* — its footprint extruded by its duration — and solve
3-D packing with precedence constraints.  Our geost kernel is
k-dimensional and resource-typed, so this drops out naturally:

* each task contributes one 3-D geost object; every design alternative of
  its module becomes a 3-D shape (footprint columns extruded over the
  duration),
* fabric heterogeneity becomes resource-typed forbidden regions spanning
  all of time (a BRAM column is a BRAM column forever),
* precedence ``a before b`` is the arithmetic constraint
  ``t_a + d_a <= t_b``,
* the makespan ``max(t_i + d_i)`` is minimized by branch-and-bound.

Two placers share the model:

* :class:`TemporalPlacer` runs on the *reference* kernel (interval
  sweeps) — exact but slow, the differential oracle.  Keep instances
  small.
* :class:`TemporalCPPlacer` runs on the production
  :class:`~repro.geost.placement.PlacementKernel` with a time axis —
  the same word bank as the spatial kernel with one column per
  ``(t, x)``, static words served from the shared
  :class:`~repro.fabric.cache.AnchorMaskCache`.
  This is what the ``temporal-cp`` backend and the runtime reservation
  probe use; it is pinned against :class:`TemporalPlacer` on small
  instances.

Both follow :class:`~repro.placer.base.BasePlacer`'s uniform knob
conventions (class-level ``seed`` / ``time_limit``, a cache threaded
through ``place``) so the backend adapter drives them like any other
engine.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cp.bnb import BranchAndBound, Objective
from repro.cp.branching import min_value, smallest_domain
from repro.cp.engine import Inconsistent
from repro.cp.model import Model
from repro.cp.search import SearchLimit
from repro.fabric.cache import AnchorMaskCache, footprint_signature
from repro.fabric.region import PartialRegion
from repro.fabric.resource import ResourceType
from repro.geost.boxes import Box, ShiftedBox
from repro.geost.forbidden import ForbiddenRegion
from repro.geost.kernel import Geost
from repro.geost.objects import GeostObject
from repro.geost.placement import PlacementKernel
from repro.geost.shapes import GeostShape, ShapeTable
from repro.modules.footprint import Footprint
from repro.modules.module import Module


@dataclass(frozen=True)
class TemporalTask:
    """One module execution: which module, for how many time steps."""

    module: Module
    duration: int

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError("task duration must be positive")

    @property
    def name(self) -> str:
        return self.module.name


@dataclass(frozen=True)
class ScheduledTask:
    """A placed-and-scheduled task."""

    task: TemporalTask
    shape_index: int
    x: int
    y: int
    start: int

    @property
    def end(self) -> int:
        return self.start + self.task.duration

    @property
    def footprint(self) -> Footprint:
        return self.task.module.shapes[self.shape_index]

    def cells_at(self, t: int) -> List[Tuple[int, int]]:
        """Fabric cells occupied at time t (empty if not running)."""
        if not self.start <= t < self.end:
            return []
        return [
            (self.x + dx, self.y + dy) for dx, dy, _ in self.footprint.cells
        ]


@dataclass
class TemporalResult:
    """Outcome of temporal placement."""

    region: PartialRegion
    schedule: List[ScheduledTask] = field(default_factory=list)
    makespan: Optional[int] = None
    status: str = "feasible"
    elapsed: float = 0.0

    def verify(self, precedences: Sequence[Tuple[int, int]] = ()) -> None:
        """Check resources, in-region, no spatio-temporal overlap, precedence."""
        allowed = self.region.allowed_mask()
        grid = self.region.grid.cells
        for s in self.schedule:
            for x, y, kind in (
                (self.x_abs(s, dx), self.y_abs(s, dy), k)
                for dx, dy, k in s.footprint.cells
            ):
                if not (0 <= x < self.region.width
                        and 0 <= y < self.region.height) or not allowed[y, x]:
                    raise ValueError(f"{s.task.name}: tile ({x},{y}) invalid")
                if grid[y, x] != int(kind):
                    raise ValueError(
                        f"{s.task.name}: resource mismatch at ({x},{y})"
                    )
        horizon = max((s.end for s in self.schedule), default=0)
        for t in range(horizon):
            seen: Dict[Tuple[int, int], str] = {}
            for s in self.schedule:
                for cell in s.cells_at(t):
                    if cell in seen:
                        raise ValueError(
                            f"t={t}: {s.task.name} overlaps {seen[cell]} at {cell}"
                        )
                    seen[cell] = s.task.name
        for a, b in precedences:
            if self.schedule[a].end > self.schedule[b].start:
                raise ValueError(
                    f"precedence violated: task {a} ends at "
                    f"{self.schedule[a].end}, task {b} starts at "
                    f"{self.schedule[b].start}"
                )

    @staticmethod
    def x_abs(s: ScheduledTask, dx: int) -> int:
        return s.x + dx

    @staticmethod
    def y_abs(s: ScheduledTask, dy: int) -> int:
        return s.y + dy


def _extrude(fp: Footprint, duration: int) -> GeostShape:
    """Footprint -> 3-D shape: each vertical run becomes a (1, run, d) box."""
    flat = GeostShape.from_footprint(fp)
    return GeostShape(
        [
            ShiftedBox(
                (sb.offset[0], sb.offset[1], 0),
                (sb.size[0], sb.size[1], duration),
                sb.resource,
            )
            for sb in flat.boxes
        ]
    )


def _fabric_regions(
    region: PartialRegion, kinds: Sequence[ResourceType], horizon: int
) -> List[ForbiddenRegion]:
    """Heterogeneity as time-invariant resource-typed forbidden columns.

    Also emits the four boundary walls (untyped: they block every box),
    enforcing M_a for shapes whose extent would poke past the fabric —
    anchor-domain clamps alone cannot, because alternatives differ in size.
    """
    out: List[ForbiddenRegion] = []
    allowed = region.allowed_mask()
    grid = region.grid.cells
    for kind in kinds:
        for y in range(region.height):
            for x in range(region.width):
                if not allowed[y, x] or grid[y, x] != int(kind):
                    out.append(
                        ForbiddenRegion(
                            Box((x, y, 0), (1, 1, horizon)), kind
                        )
                    )
    W, H, T = region.width, region.height, horizon
    pad = max(W, H, T) + 2
    out.extend(
        [
            ForbiddenRegion(Box((-pad, -pad, -pad), (pad, 3 * pad, 3 * pad))),
            ForbiddenRegion(Box((W, -pad, -pad), (pad, 3 * pad, 3 * pad))),
            ForbiddenRegion(Box((-pad, -pad, -pad), (3 * pad, pad, 3 * pad))),
            ForbiddenRegion(Box((-pad, H, -pad), (3 * pad, pad, 3 * pad))),
            ForbiddenRegion(Box((-pad, -pad, -pad), (3 * pad, 3 * pad, pad))),
            ForbiddenRegion(Box((-pad, -pad, T), (3 * pad, 3 * pad, pad))),
        ]
    )
    return out


def _validate_temporal(
    tasks: Sequence[TemporalTask], precedences: Sequence[Tuple[int, int]]
) -> None:
    if not tasks:
        raise ValueError("nothing to schedule")
    for a, b in precedences:
        if not (0 <= a < len(tasks) and 0 <= b < len(tasks)) or a == b:
            raise ValueError(f"invalid precedence ({a}, {b})")


class TemporalPlacer:
    """Exact spatio-temporal placement, minimizing the makespan.

    Runs on the reference geost kernel — the differential oracle the
    production :class:`TemporalCPPlacer` is pinned against.  Follows
    :class:`~repro.placer.base.BasePlacer`'s knob conventions: ``seed``
    and ``time_limit`` are uniform attributes the backend adapter
    overrides per request, and an
    :class:`~repro.fabric.cache.AnchorMaskCache` handed to ``place`` (or
    the constructor) memoizes the fabric-content-derived model pieces —
    the per-(region, horizon) forbidden-region list and the
    per-(footprint, duration) shape extrusions — via
    :meth:`~repro.fabric.cache.AnchorMaskCache.memo`.  Cached and
    uncached runs are bit-identical (the memo returns the same objects
    a fresh construction would build), pinned by the counter tests.
    """

    name = "temporal"
    #: uniform knobs (BasePlacer conventions); the reference search is
    #: deterministic, so ``seed`` only exists for the shared surface
    seed: int = 0
    time_limit: Optional[float] = 30.0

    def __init__(
        self,
        horizon: int,
        time_limit: Optional[float] = 30.0,
        seed: int = 0,
        cache: Optional[AnchorMaskCache] = None,
    ) -> None:
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        self.horizon = horizon
        self.time_limit = time_limit
        self.seed = seed
        self.cache = cache

    @staticmethod
    def _extrusion(
        cache: Optional[AnchorMaskCache], fp: Footprint, duration: int
    ) -> GeostShape:
        """The task's 3-D shape, memoized per (footprint, duration)."""
        if cache is None:
            return _extrude(fp, duration)
        return cache.memo(
            ("temporal-extrude", footprint_signature(fp), duration),
            lambda: _extrude(fp, duration),
        )

    def _forbidden(
        self,
        cache: Optional[AnchorMaskCache],
        region: PartialRegion,
        kinds: Sequence[ResourceType],
    ) -> List[ForbiddenRegion]:
        """The fabric's forbidden regions, memoized per (region, horizon)."""
        if cache is None:
            return _fabric_regions(region, kinds, self.horizon)
        return cache.memo(
            (
                "temporal-fabric",
                cache.region_key(region),
                tuple(kinds),
                self.horizon,
            ),
            lambda: _fabric_regions(region, kinds, self.horizon),
        )

    def place(
        self,
        region: PartialRegion,
        tasks: Sequence[TemporalTask],
        precedences: Sequence[Tuple[int, int]] = (),
        *,
        cache: Optional[AnchorMaskCache] = None,
    ) -> TemporalResult:
        _validate_temporal(tasks, precedences)
        cache = cache if cache is not None else self.cache
        start_time = time.monotonic()
        m = Model()
        # deduping table: tasks sharing a module (same footprints, same
        # duration) share shape ids instead of registering copies
        table = ShapeTable(dedupe=True)
        objects: List[GeostObject] = []
        #: per-task shape-id lists — the ONLY valid way to decode a shape
        #: choice back to a module alternative index (ids are shared and
        #: need not form contiguous per-task blocks)
        task_sids: List[List[int]] = []
        ends = []
        dv = []
        kinds = sorted(
            {
                k
                for task in tasks
                for fp in task.module.shapes
                for _, _, k in fp.cells
            }
        )
        try:
            for i, task in enumerate(tasks):
                sids = [
                    table.add(self._extrusion(cache, fp, task.duration))
                    for fp in task.module.shapes
                ]
                task_sids.append(sids)
                max_w = max(fp.width for fp in task.module.shapes)
                max_h = max(fp.height for fp in task.module.shapes)
                x = m.int_var(0, max(0, region.width - 1), f"x{i}")
                y = m.int_var(0, max(0, region.height - 1), f"y{i}")
                t = m.int_var(0, self.horizon - task.duration, f"t{i}")
                # exactly the task's shape ids — shared ids leave holes,
                # so a [min, max] interval would admit foreign shapes
                s = m.int_var_from(sorted(set(sids)), f"s{i}")
                objects.append(GeostObject(i, [x, y, t], s, table))
                end = m.int_var(task.duration, self.horizon, f"end{i}")
                m.add_eq(end, t, task.duration)  # end == t + duration
                ends.append(end)
                dv.extend([t, x, y, s])
            for a, b in precedences:
                # t_a + d_a <= t_b
                m.add_le(objects[a].origin[2], objects[b].origin[2],
                         tasks[a].duration)
            m.post(Geost(objects, self._forbidden(cache, region, kinds)))
            makespan = m.int_var(0, self.horizon, "makespan")
            m.add_max(makespan, ends)
        except Inconsistent:
            return TemporalResult(
                region, status="infeasible",
                elapsed=time.monotonic() - start_time,
            )

        bnb = BranchAndBound(
            m.engine,
            Objective.minimize(makespan),
            dv,
            var_select=smallest_domain,
            val_select=min_value,
            limit=SearchLimit(time_seconds=self.time_limit),
        )
        res = bnb.run()
        elapsed = time.monotonic() - start_time
        if res.best is None:
            status = "infeasible" if res.proved_optimal else "unknown"
            return TemporalResult(region, status=status, elapsed=elapsed)
        sol = res.best
        schedule = []
        for i, task in enumerate(tasks):
            # decode via the task's own sid list: offset arithmetic breaks
            # as soon as the table dedupes or ids are non-contiguous
            schedule.append(
                ScheduledTask(
                    task=task,
                    shape_index=task_sids[i].index(sol[f"s{i}"]),
                    x=sol[f"x{i}"],
                    y=sol[f"y{i}"],
                    start=sol[f"t{i}"],
                )
            )
        return TemporalResult(
            region,
            schedule=schedule,
            makespan=res.objective,
            status="optimal" if res.proved_optimal else "feasible",
            elapsed=elapsed,
        )


class TemporalCPPlacer:
    """Spatio-temporal placement on the production anchor-mask kernel.

    The same (x, y, t) model as :class:`TemporalPlacer` — extruded
    footprints, precedence offsets, makespan branch-and-bound with the
    same heuristics — propagated by
    :class:`~repro.geost.placement.PlacementKernel` running with a time
    axis: the packed-word bank instead of the reference interval
    sweeps, with the static spatial words served from the shared
    :class:`~repro.fabric.cache.AnchorMaskCache`.  Differentially pinned
    against :class:`TemporalPlacer` on small instances (equal optimal
    makespans, schedules that ``verify``).
    """

    name = "temporal-cp"
    seed: int = 0
    time_limit: Optional[float] = 30.0

    def __init__(
        self,
        horizon: int,
        time_limit: Optional[float] = 30.0,
        seed: int = 0,
        cache: Optional[AnchorMaskCache] = None,
    ) -> None:
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        self.horizon = horizon
        self.time_limit = time_limit
        self.seed = seed
        self.cache = cache

    def place(
        self,
        region: PartialRegion,
        tasks: Sequence[TemporalTask],
        precedences: Sequence[Tuple[int, int]] = (),
        *,
        cache: Optional[AnchorMaskCache] = None,
    ) -> TemporalResult:
        _validate_temporal(tasks, precedences)
        cache = cache if cache is not None else self.cache
        start_time = time.monotonic()
        m = Model()
        n = len(tasks)
        durations = [task.duration for task in tasks]
        xs = [m.int_var(0, max(0, region.width - 1), f"x{i}") for i in range(n)]
        ys = [m.int_var(0, max(0, region.height - 1), f"y{i}") for i in range(n)]
        ss = [
            m.int_var(0, len(task.module.shapes) - 1, f"s{i}")
            for i, task in enumerate(tasks)
        ]
        ts = [
            m.int_var(0, self.horizon - task.duration, f"t{i}")
            for i, task in enumerate(tasks)
        ]
        ends = []
        dv: List = []
        try:
            for i, task in enumerate(tasks):
                end = m.int_var(task.duration, self.horizon, f"end{i}")
                m.add_eq(end, ts[i], task.duration)  # end == t + duration
                ends.append(end)
                dv.extend([ts[i], xs[i], ys[i], ss[i]])
            for a, b in precedences:
                m.add_le(ts[a], ts[b], durations[a])  # t_a + d_a <= t_b
            m.post(
                PlacementKernel(
                    region,
                    [task.module for task in tasks],
                    xs,
                    ys,
                    ss,
                    cache=cache,
                    horizon=self.horizon,
                    durations=durations,
                    ts=ts,
                )
            )
            makespan = m.int_var(0, self.horizon, "makespan")
            m.add_max(makespan, ends)
        except Inconsistent:
            return TemporalResult(
                region, status="infeasible",
                elapsed=time.monotonic() - start_time,
            )

        bnb = BranchAndBound(
            m.engine,
            Objective.minimize(makespan),
            dv,
            var_select=smallest_domain,
            val_select=min_value,
            limit=SearchLimit(time_seconds=self.time_limit),
        )
        res = bnb.run()
        elapsed = time.monotonic() - start_time
        if res.best is None:
            status = "infeasible" if res.proved_optimal else "unknown"
            return TemporalResult(region, status=status, elapsed=elapsed)
        sol = res.best
        schedule = [
            ScheduledTask(
                task=task,
                shape_index=sol[f"s{i}"],
                x=sol[f"x{i}"],
                y=sol[f"y{i}"],
                start=sol[f"t{i}"],
            )
            for i, task in enumerate(tasks)
        ]
        return TemporalResult(
            region,
            schedule=schedule,
            makespan=res.objective,
            status="optimal" if res.proved_optimal else "feasible",
            elapsed=elapsed,
        )


def render_timeline(result: TemporalResult) -> str:
    """One fabric snapshot per time step, tasks drawn 0..9a..z."""
    if not result.schedule:
        return "(empty schedule)"
    horizon = max(s.end for s in result.schedule)
    chars = "0123456789abcdefghijklmnopqrstuvwxyz"
    blocks = []
    region = result.region
    for t in range(horizon):
        rows = []
        for y in range(region.height - 1, -1, -1):
            row = []
            for x in range(region.width):
                ch = "."
                for i, s in enumerate(result.schedule):
                    if (x, y) in s.cells_at(t):
                        ch = chars[i % len(chars)]
                        break
                row.append(ch)
            rows.append("".join(row))
        blocks.append(f"t={t}\n" + "\n".join(rows))
    return "\n\n".join(blocks)
