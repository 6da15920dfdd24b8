#!/usr/bin/env python
"""Temporal-placement smoke check: scheduler, backend and reservations.

Drives the whole production temporal surface end to end:

* the production :class:`~repro.core.temporal.TemporalCPPlacer` on one
  seeded spatio-temporal instance — it must prove the optimal makespan
  (4, the value the reference placer in ``tests/core/test_temporal.py``
  proves on the same instance) and its schedule must ``verify``
  (including precedences),
* the backend path: ``create_backend("temporal-cp")`` served a
  scheduling :class:`~repro.core.backend.PlacementRequest` (horizon,
  durations, precedences) must place every module, carry the schedule in
  ``stats`` and keep the precedences,
* a reservation-mode serving replay: a slack-heavy trace through
  :class:`~repro.core.runtime.RuntimePlacementManager` with a book-ahead
  horizon must resolve every request, balance its booking accounting
  (booked = commits + expired), and emit only schema-valid
  ``runtime.reserve`` / ``runtime.reservation.*`` events.

Exits non-zero on any problem, so it can gate CI (``make temporal-smoke``).
"""

from __future__ import annotations

import sys
import time


#: the optimal makespan of the :func:`check_scheduler` instance
SCHEDULER_MAKESPAN = 4


def check_scheduler(problems: list) -> str:
    """The production placer's proven makespan on one seeded instance."""
    from repro.core.temporal import (
        TemporalCPPlacer,
        TemporalTask,
        render_timeline,
    )
    from repro.fabric.devices import homogeneous_device
    from repro.fabric.region import PartialRegion
    from repro.modules.footprint import Footprint
    from repro.modules.module import Module

    region = PartialRegion.whole_device(homogeneous_device(6, 3))
    tasks = [
        TemporalTask(Module("a", [Footprint.rectangle(3, 2)]), 2),
        TemporalTask(Module("b", [Footprint.rectangle(3, 2)]), 2),
        TemporalTask(Module("c", [Footprint.rectangle(4, 2)]), 2),
        TemporalTask(Module("d", [Footprint.rectangle(2, 3)]), 1),
    ]
    precedences = [(0, 2)]  # c starts only after a finishes

    res = TemporalCPPlacer(horizon=8).place(region, tasks, precedences)
    if res.status != "optimal":
        problems.append(f"scheduler: status {res.status!r}")
    try:
        res.verify(precedences)
    except ValueError as exc:
        problems.append(f"scheduler: schedule invalid: {exc}")
    if res.makespan != SCHEDULER_MAKESPAN:
        problems.append(
            f"scheduler: makespan {res.makespan}, expected "
            f"{SCHEDULER_MAKESPAN}"
        )
    art = render_timeline(res)
    if not art or "t=0" not in art:
        problems.append("scheduler: render_timeline produced no timeline")
    return (
        f"         scheduler: {len(tasks)} tasks, makespan "
        f"{res.makespan} ({res.status}), {res.elapsed:.2f}s\n"
        + "\n".join("  " + line for line in art.splitlines())
    )


def check_backend(problems: list) -> str:
    """The temporal-cp backend through the uniform request surface."""
    from repro.core.backend import PlacementRequest, create_backend
    from repro.fabric.devices import homogeneous_device
    from repro.fabric.region import PartialRegion
    from repro.modules.footprint import Footprint
    from repro.modules.module import Module
    from repro.obs import RecordingTracer, validate_event

    region = PartialRegion.whole_device(homogeneous_device(4, 2))
    modules = [
        Module("a", [Footprint.rectangle(2, 2)]),
        Module("b", [Footprint.rectangle(2, 2)]),
        Module("c", [Footprint.rectangle(2, 2)]),
    ]
    tracer = RecordingTracer()
    res = create_backend("temporal-cp").place(
        PlacementRequest(
            region,
            modules,
            horizon=6,
            durations=[2, 2, 2],
            precedences=[(0, 2)],
            tracer=tracer,
        )
    )
    if res.unplaced or not res.solved:
        problems.append(f"backend: unplaced modules {res.unplaced}")
    schedule = res.stats.get("schedule", [])
    if len(schedule) != len(modules):
        problems.append(
            f"backend: stats schedule has {len(schedule)} rows, "
            f"expected {len(modules)}"
        )
    # placements may legally overlap *spatially* — the schedule must be
    # disjoint per tick and honour the precedence edge
    occupied: dict = {}
    span = {}
    for name, shape_index, x, y, start, duration in schedule:
        span[name] = (start, start + duration)
        for t in range(start, start + duration):
            for dx in range(2):
                for dy in range(2):
                    cell = (t, x + dx, y + dy)
                    if cell in occupied:
                        problems.append(
                            f"backend: {name} and {occupied[cell]} "
                            f"share cell {cell}"
                        )
                    occupied[cell] = name
    if span and span["c"][0] < span["a"][1]:
        problems.append("backend: precedence a -> c violated")
    for ev in tracer.events:
        for p in validate_event(ev.to_dict()):
            problems.append(f"backend: event {ev.kind}: {p}")
    return (
        f"           backend: temporal-cp placed {len(modules)} modules, "
        f"makespan {res.stats.get('makespan')}, "
        f"{len(tracer.events)} events"
    )


def check_reservations(problems: list) -> str:
    """A book-ahead serving replay with full event validation."""
    from repro.core.runtime import RuntimeConfig, RuntimePlacementManager
    from repro.experiments.runtime_exp import (
        reservation_runtime_region,
        slack_heavy_trace,
    )
    from repro.obs import RecordingTracer, validate_event, validate_profile

    region = reservation_runtime_region()
    trace = slack_heavy_trace(80, seed=7)
    tracer = RecordingTracer()
    manager = RuntimePlacementManager(
        region,
        RuntimeConfig(
            chain=("greedy",),
            queue_capacity=0,
            reservation_horizon=16,
            defragmenter=None,
            tracer=tracer,
            sample_timeline=False,
        ),
    )
    t0 = time.monotonic()
    log = manager.run(trace)
    elapsed = time.monotonic() - t0
    s = manager.stats

    if log.admitted + log.rejected != len(trace):
        problems.append("reservations: not every request resolved")
    if manager.reservations:
        problems.append(
            f"reservations: {len(manager.reservations)} still open "
            f"after drain"
        )
    if s.reservations_booked == 0:
        problems.append("reservations: the slack-heavy trace booked nothing")
    if s.reservations_booked != s.reservation_admits + s.reservations_expired:
        problems.append(
            f"reservations: accounting does not balance "
            f"({s.reservations_booked} booked != "
            f"{s.reservation_admits} commits + "
            f"{s.reservations_expired} expired)"
        )
    try:
        manager.result().verify()
        manager.check_invariants()
    except ValueError as exc:
        problems.append(f"reservations: final floorplan invalid: {exc}")

    reserve_events = [e for e in tracer.events if e.kind == "runtime.reserve"]
    commits = [
        e for e in tracer.events if e.kind == "runtime.reservation.commit"
    ]
    expiries = [
        e for e in tracer.events if e.kind == "runtime.reservation.expire"
    ]
    if len(reserve_events) != s.reservations_booked:
        problems.append("reservations: reserve events drifted from stats")
    if len(commits) != s.reservation_admits:
        problems.append("reservations: commit events drifted from stats")
    if len(expiries) != s.reservations_expired:
        problems.append("reservations: expire events drifted from stats")
    for ev in tracer.events:
        for p in validate_event(ev.to_dict()):
            problems.append(f"reservations: event {ev.kind}: {p}")
    profile = manager.profile()
    problems += [
        f"reservations: profile: {p}"
        for p in validate_profile(profile.to_dict())
    ]
    if profile.meta.get("runtime.reservations_booked") != s.reservations_booked:
        problems.append("reservations: profile counters drifted from stats")
    return (
        f"      reservations: {len(trace)} requests — {s.admitted} admitted "
        f"({s.reservation_admits} via booking), {s.rejected} rejected, "
        f"{s.reservations_expired} expired, {elapsed:.2f}s"
    )


def main() -> int:
    problems: list = []
    for check in (check_scheduler, check_backend, check_reservations):
        print(check(problems))
    if problems:
        print("\nFAIL:", file=sys.stderr)
        for p in problems:
            print(f"  - {p}", file=sys.stderr)
        return 1
    print("temporal smoke check OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
