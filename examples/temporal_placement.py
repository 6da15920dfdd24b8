#!/usr/bin/env python3
"""Spatio-temporal placement: modules scheduled in (x, y, t).

Following Fekete/Köhler/Teich (the paper's ref [6]), each module
execution is a 3-D box — footprint × duration — and the placement
kernel, run with a time axis, packs them exactly, with precedence
constraints as plain arithmetic and the makespan minimized by
branch-and-bound.  Design
alternatives pay off in the time dimension too: a rotated layout can run
*beside* another module instead of *after* it.

Run:  python examples/temporal_placement.py
"""

from repro.core.temporal import TemporalCPPlacer, TemporalTask, render_timeline
from repro.fabric.grid import FabricGrid
from repro.fabric.region import PartialRegion
from repro.modules.footprint import Footprint
from repro.modules.module import Module
from repro.modules.transform import rotate90


def main() -> None:
    region = PartialRegion.whole_device(
        FabricGrid.from_rows(["....", "....", "...."])
    )
    wide = Footprint.rectangle(3, 1)
    tasks = [
        TemporalTask(Module("filter", [Footprint.rectangle(2, 3)]), 3),
        TemporalTask(Module("fft", [wide, rotate90(wide)]), 2),
        TemporalTask(Module("crc", [Footprint.rectangle(2, 1)]), 2),
    ]
    precedences = [(1, 2)]  # crc consumes the fft's output

    placer = TemporalCPPlacer(horizon=10, time_limit=30.0)
    result = placer.place(region, tasks, precedences)
    result.verify(precedences)
    print(f"status={result.status} makespan={result.makespan} "
          f"({result.elapsed:.2f}s)\n")
    for s in result.schedule:
        print(f"  {s.task.name:<8} alt {s.shape_index} at ({s.x},{s.y}), "
              f"runs t=[{s.start},{s.end})")
    print("\ntimeline (one fabric snapshot per step):\n")
    print(render_timeline(result))

    # the same system with single-layout modules: the fft cannot stand
    # upright beside the filter, so it waits — a longer schedule
    mono = [
        TemporalTask(t.module.restricted(1), t.duration) for t in tasks
    ]
    result_mono = placer.place(region, mono, precedences)
    print(
        f"\nwithout design alternatives the optimal makespan grows from "
        f"{result.makespan} to {result_mono.makespan} steps."
    )


if __name__ == "__main__":
    main()
