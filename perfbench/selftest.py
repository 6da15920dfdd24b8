"""Self-test of the benchmark harness at toy size (a few seconds).

    python3 perfbench/selftest.py

Checks that every workload, on a tiny trace or a tiny node budget, emits
every end-to-end metric (untraced) and every per-layer metric (traced)
that ``BENCHMARK.json`` names, with its unit; that each measured time is
scaled by the reference-loop timings around it; and that the gates trip:
the floorplan gate on a deliberately overlapping placement, the
determinism gate on a pass whose digest differs.  Exits 1 on the first
failed check.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
from time import perf_counter

import run

sys.path.insert(0, os.path.join(run.ROOT, "src"))

TOY = {
    "serve": {"n_requests": 40},
    "solve": {"n_modules": 6, "module_sets": 1, "node_limit": 30},
}


def expect(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}")
        sys.exit(1)


def check_metrics_emitted() -> None:
    bench = run.load_benchmark()
    for name, spec in run.load_contract()["workloads"].items():
        params = dict(spec["params"], **TOY[spec["kind"]])
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = run.run_workload(name, seed=3, seconds=0.0,
                                        trace=bool(trace),
                                        import_t0=perf_counter(),
                                        params=params)
            result = json.loads(out.getvalue().strip().splitlines()[-1])
            expect(code == 0 and result["correct"],
                   f"{name} trace={trace} failed its gates:\n{out.getvalue()}")
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                   f"{name}: result keys {sorted(result)}")
            emitted = {m: v["unit"] for m, v in result["metrics"].items()}
            wanted = {m["name"]: m["unit"] for m in bench[group]}
            expect(emitted == wanted,
                   f"{name} trace={trace}: emitted {sorted(emitted)} "
                   f"instead of {sorted(wanted)} (or units differ)")
            if trace:
                expect(result["metrics"]["trace.coverage_pct"]["value"] > 50,
                       f"{name}: layer self times cover under half the time")
            print(f"ok  {name} trace={trace}: {len(emitted)} metrics")


def check_gates_trip() -> None:
    from repro.core.result import Placement
    from repro.core.runtime import (
        RuntimeConfig,
        RuntimePlacementManager,
        RuntimeRequest,
    )
    from repro.fabric.devices import homogeneous_device
    from repro.fabric.region import PartialRegion
    from repro.modules.footprint import Footprint
    from repro.modules.module import Module
    from workloads import PassResult, check_shards

    region = PartialRegion.whole_device(homogeneous_device(8, 4))
    manager = RuntimePlacementManager(
        region, RuntimeConfig(chain=("greedy",), sample_timeline=False)
    )
    outcome = manager.submit(
        RuntimeRequest(Module("a", [Footprint.rectangle(2, 2)]), 0, 10)
    )
    expect(outcome.admitted, "toy request was not admitted")
    expect(check_shards([manager]) == [], "gate tripped on a valid floorplan")
    # fault injection: a second module on the first one's cells
    at = outcome.placement
    clash = Placement(Module("b", [Footprint.rectangle(2, 2)]), 0, at.x, at.y)
    manager._placements["b"] = clash
    manager._imprint(clash, True)
    problems = check_shards([manager])
    expect(any("overlaps" in p for p in problems),
           f"floorplan gate missed an overlapping placement: {problems}")
    print("ok  floorplan gate trips on an overlapping placement")

    same = PassResult([0.1], 0.1, "d1", 0, 1, 1, 0.5)
    other = PassResult([0.1, 0.2], 0.3, "d2", 0, 1, 1, 0.5)
    problems, failed = run.judge([same, same])
    expect(problems == [] and failed == 0, "determinism gate tripped on equal digests")
    problems, failed = run.judge([same, other])
    expect(len(problems) == 1 and failed == 2,
           "determinism gate missed a differing digest")
    print("ok  determinism gate trips on a differing digest")


def check_scaling() -> None:
    from hostspeed import REFERENCE_S, HostSpeed

    speed = HostSpeed()
    # loop timings before op 0, between ops 0 and 1, and between ops 2 and 3
    speed.marks = [0, 1, 3]
    speed.loops = [REFERENCE_S, 2 * REFERENCE_S, 4 * REFERENCE_S]
    got = speed.scaled([1.0, 1.0, 1.0, 1.0])
    want = [1 / 1.5, 1 / 3, 1 / 3, 1 / 3]
    expect(all(math.isclose(g, w) for g, w in zip(got, want)),
           f"host-speed scaling gave {got} instead of {want}")
    print("ok  each time is scaled by the loop timings around it")


def main() -> int:
    check_scaling()
    check_gates_trip()
    check_metrics_emitted()
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
