#!/usr/bin/env python
"""Defrag smoke check: both strategies of ``DEFRAGMENTERS`` on the demo trace.

Serves the 60-event A6 demo trace twice through the
:class:`~repro.core.runtime.RuntimePlacementManager` — once with the
instant ``greedy-compaction`` oracle, once with the incremental
``no-break`` engine — with full move-transition verification on, then
checks the invariants the defrag engine must uphold:

* every request resolves and the final floorplan verifies,
* every no-break plan replays step by step without ever overlapping a
  running module (``verify_moves=True`` raises inside the run itself),
* move accounting balances: planned = executed + aborted + still queued
  (nothing in flight after drain),
* every ``runtime.defrag`` / ``runtime.defrag.step`` event matches the
  published schema,
* the profile carries the planned/executed/aborted counters.

Exits non-zero on any problem, so it can gate CI (``make defrag-smoke``).
"""

from __future__ import annotations

import sys
import time


def run_one(strategy: str, problems: list) -> str:
    from repro.core.runtime import RuntimeConfig, RuntimePlacementManager
    from repro.experiments.runtime_exp import (
        default_runtime_region,
        default_runtime_trace,
    )
    from repro.obs import RecordingTracer, validate_event, validate_profile

    region = default_runtime_region()
    trace = default_runtime_trace(60, seed=7)
    tracer = RecordingTracer()
    manager = RuntimePlacementManager(
        region,
        RuntimeConfig(
            chain=("greedy",),
            defragmenter=strategy,
            verify_moves=True,
            tracer=tracer,
            sample_timeline=False,
        ),
    )
    t0 = time.monotonic()
    log = manager.run(trace)
    elapsed = time.monotonic() - t0
    s = manager.stats

    if log.admitted + log.rejected != len(trace):
        problems.append(f"{strategy}: not every request resolved")
    try:
        manager.result().verify()
        manager.check_invariants()
    except ValueError as exc:
        problems.append(f"{strategy}: final floorplan invalid: {exc}")
    if manager.moves_in_flight:
        problems.append(
            f"{strategy}: {manager.moves_in_flight} moves still in flight "
            f"after drain"
        )
    if s.defrag_planned_moves != s.defrag_executed_moves + s.defrag_aborted_moves:
        problems.append(
            f"{strategy}: move accounting does not balance "
            f"({s.defrag_planned_moves} planned != "
            f"{s.defrag_executed_moves} executed + "
            f"{s.defrag_aborted_moves} aborted)"
        )
    if s.defrags == 0:
        problems.append(f"{strategy}: the demo trace triggered no defrag pass")
    steps = [e for e in tracer.events if e.kind == "runtime.defrag.step"]
    if strategy == "no-break" and not steps:
        problems.append("no-break: no runtime.defrag.step events emitted")
    completed = sum(1 for e in steps if e.data["status"] == "completed")
    aborted = sum(1 for e in steps if e.data["status"] == "aborted")
    if steps and (
        completed != s.defrag_executed_moves
        or aborted != s.defrag_aborted_moves
    ):
        # instant strategies emit no step events; incremental ones must
        # account for every executed/aborted move
        problems.append(
            f"{strategy}: step events ({completed} completed, {aborted} "
            f"aborted) drifted from stats ({s.defrag_executed_moves} "
            f"executed, {s.defrag_aborted_moves} aborted)"
        )
    for ev in tracer.events:
        for p in validate_event(ev.to_dict()):
            problems.append(f"{strategy}: event {ev.kind}: {p}")
    profile = manager.profile()
    problems += [
        f"{strategy}: profile: {p}" for p in validate_profile(profile.to_dict())
    ]
    if profile.meta.get("runtime.defrag_executed") != s.defrag_executed_moves:
        problems.append(f"{strategy}: profile counters drifted from stats")
    return (
        f"{strategy:>18}: admitted {s.admitted}, rejected {s.rejected}, "
        f"{s.defrags} passes, moves {s.defrag_planned_moves}p/"
        f"{s.defrag_executed_moves}e/{s.defrag_aborted_moves}a, "
        f"{len(steps)} step events, {elapsed:.2f}s"
    )


def main() -> int:
    from repro.core.defrag import DEFRAGMENTERS

    problems: list = []
    for strategy in sorted(DEFRAGMENTERS):
        print(run_one(strategy, problems))
    if problems:
        print("\nFAIL:", file=sys.stderr)
        for p in problems:
            print(f"  - {p}", file=sys.stderr)
        return 1
    print("defrag smoke check OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
