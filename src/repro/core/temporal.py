"""Temporal module placement: time as a third placement dimension.

The related work's exact method for scheduling reconfigurable modules is
Fekete, Köhler & Teich (the paper's ref [6]): treat a module execution as
a *box in (x, y, t)* — its footprint extruded by its duration — and solve
3-D packing with precedence constraints:

* each task places one of its module's design alternatives, resident for
  the task's duration,
* fabric heterogeneity spans all of time (a BRAM column is a BRAM column
  forever),
* precedence ``a before b`` is the arithmetic constraint
  ``t_a + d_a <= t_b``,
* the makespan ``max(t_i + d_i)`` is minimized by branch-and-bound.

:class:`TemporalCPPlacer` propagates this model with the production
:class:`~repro.geost.placement.PlacementKernel` running with a time
axis: the same word bank as the spatial kernel with one column per
``(t, x)``.  The ``temporal-cp`` backend and the runtime reservation
probe use it.  It follows :class:`~repro.placer.base.BasePlacer`'s
uniform knob conventions (class-level ``seed`` / ``time_limit``) so the
backend adapter drives it like any other engine.
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
from repro.fabric.region import PartialRegion
from repro.geost.placement import PlacementKernel
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


def _validate_temporal(
    tasks: Sequence[TemporalTask], precedences: Sequence[Tuple[int, int]]
) -> None:
    if not tasks:
        raise ValueError("nothing to schedule")
    for a, b in precedences:
        if not (0 <= a < len(tasks) and 0 <= b < len(tasks)) or a == b:
            raise ValueError(f"invalid precedence ({a}, {b})")


class TemporalCPPlacer:
    """Exact spatio-temporal placement, minimizing the makespan.

    Extruded footprints, precedence offsets and makespan branch-and-bound,
    propagated by :class:`~repro.geost.placement.PlacementKernel` running
    with a time axis.  The test suite pins it against the same model on
    the reference interval geost kernel on small instances (equal optimal
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
    ) -> None:
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        self.horizon = horizon
        self.time_limit = time_limit
        self.seed = seed

    def place(
        self,
        region: PartialRegion,
        tasks: Sequence[TemporalTask],
        precedences: Sequence[Tuple[int, int]] = (),
    ) -> TemporalResult:
        _validate_temporal(tasks, precedences)
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
