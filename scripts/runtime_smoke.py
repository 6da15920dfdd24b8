#!/usr/bin/env python
"""Runtime smoke check: a ~2-second seeded serving run, validated end to end.

Streams a seeded Table-I-style workload through the
:class:`~repro.core.runtime.RuntimePlacementManager` (the
``("cp", "greedy")`` chain of pick rules, defrag on rejection), then checks
the invariants a serving loop must uphold:

* every request resolves to admitted or rejected (nothing left queued),
* the final floorplan verifies,
* every emitted ``runtime.*`` trace event matches the published schema,
* the manager's :class:`~repro.obs.SolveProfile` validates and its
  counters are consistent with the outcomes.

Exits non-zero on any problem, so it can gate CI (``make runtime-smoke``).
"""

from __future__ import annotations

import sys
import time


def main() -> int:
    from repro.core.runtime import (
        RuntimeConfig,
        RuntimePlacementManager,
        generate_workload,
    )
    from repro.fabric.devices import irregular_device
    from repro.fabric.region import PartialRegion
    from repro.modules.generator import GeneratorConfig
    from repro.obs import RecordingTracer, validate_event, validate_profile

    problems: list[str] = []

    region = PartialRegion.whole_device(irregular_device(48, 12, seed=9))
    trace = generate_workload(
        80,
        seed=11,
        mean_lifetime=20,
        generator_config=GeneratorConfig(
            clb_min=12, clb_max=48, bram_max=2, height_min=3, height_max=6
        ),
    )
    tracer = RecordingTracer()
    manager = RuntimePlacementManager(
        region,
        RuntimeConfig(chain=("cp", "greedy"), tracer=tracer),
    )
    t0 = time.monotonic()
    log = manager.run(trace)
    elapsed = time.monotonic() - t0

    if log.admitted + log.rejected != len(trace):
        problems.append(
            f"{len(trace)} requests but only "
            f"{log.admitted + log.rejected} resolved"
        )
    if manager.pending_count:
        problems.append(f"{manager.pending_count} requests left queued")
    for outcome in log.outcomes:
        if outcome.status == "rejected" and outcome.reason is None:
            problems.append(
                f"{outcome.request.module.name}: rejection without a reason"
            )
    try:
        manager.result().verify()
    except ValueError as exc:
        problems.append(f"final floorplan invalid: {exc}")

    if tracer.count("runtime.arrival") != len(trace):
        problems.append("arrival events do not match the trace length")
    for ev in tracer.events:
        for p in validate_event(ev.to_dict()):
            problems.append(f"event {ev.kind}: {p}")

    profile = manager.profile()
    problems += [f"profile: {p}" for p in validate_profile(profile.to_dict())]
    if profile.meta.get("runtime.admitted") != log.admitted:
        problems.append("profile counters drifted from the log")

    print(
        f"served {len(trace)} requests in {elapsed:.2f}s "
        f"({len(trace) / elapsed:.0f} req/s): "
        f"admitted {log.admitted}, rejected {log.rejected}, "
        f"defrags {log.stats.defrags}, "
        f"mean util {log.mean_utilization():.1%}"
    )
    print(f"trace: {len(tracer)} events over {len(tracer.kinds())} kinds")
    if problems:
        print("\nFAIL:", file=sys.stderr)
        for p in problems:
            print(f"  - {p}", file=sys.stderr)
        return 1
    print("runtime smoke check OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
