#!/usr/bin/env python
"""Backend smoke check: every named backend, end to end.

Drives each name in :data:`repro.core.backend.BACKENDS` through the
uniform :class:`~repro.core.backend.PlacementRequest` surface on one
small seeded instance (short budget, recording tracer) and checks the
contract every backend promises:

* ``place()`` returns without raising and the placements verify,
* every backend emits a matching ``backend.start`` / ``backend.result``
  event pair and all events satisfy the published schema,
* ``solved`` / ``proved_optimal`` flags are honest (solved means every
  module placed), and ``stats["backend"]`` names the backend,
* the runtime's default admission chain names only the manager's pick
  rules on its free-space ledger (:data:`repro.core.runtime.PICK_RULES`).

Exits non-zero on any problem, so it can gate CI (``make backends-smoke``).
"""

from __future__ import annotations

import sys
import time

BUDGET_S = 0.5


def main() -> int:
    from repro.core.backend import BACKENDS, PlacementRequest, create_backend
    from repro.core.portfolio import PortfolioConfig
    from repro.core.runtime import PICK_RULES, RuntimeConfig
    from repro.fabric.devices import irregular_device
    from repro.fabric.region import PartialRegion
    from repro.modules.generator import GeneratorConfig, ModuleGenerator
    from repro.obs import RecordingTracer, validate_event

    problems: list[str] = []

    region = PartialRegion.whole_device(irregular_device(32, 8, seed=7))
    modules = ModuleGenerator(
        seed=13,
        config=GeneratorConfig(
            clb_min=6, clb_max=16, bram_max=1, height_min=2, height_max=3
        ),
    ).generate_set(4)
    # structural knobs the request cannot carry
    configs = {"portfolio": PortfolioConfig(n_workers=1, time_limit=BUDGET_S)}

    names = sorted(BACKENDS)

    t0 = time.monotonic()
    for name in names:
        tracer = RecordingTracer()
        try:
            backend = create_backend(name, configs.get(name))
            res = backend.place(
                PlacementRequest(
                    region, modules, seed=3, time_limit=BUDGET_S,
                    tracer=tracer,
                )
            )
        except Exception as exc:  # a backend must not crash
            problems.append(f"{name}: place() raised {type(exc).__name__}: {exc}")
            continue
        try:
            res.verify()
        except ValueError as exc:
            problems.append(f"{name}: invalid placement: {exc}")
        if res.solved and len(res.placements) != len(modules):
            problems.append(f"{name}: solved flag but not all modules placed")
        if res.proved_optimal and not res.solved:
            problems.append(f"{name}: proved_optimal without solved")
        if res.stats.get("backend") != name:
            problems.append(f"{name}: stats lack the backend name")
        starts = tracer.by_kind("backend.start")
        results = tracer.by_kind("backend.result")
        if len(starts) != 1 or len(results) != 1:
            problems.append(
                f"{name}: expected one start/result event pair, got "
                f"{len(starts)}/{len(results)}"
            )
        for ev in tracer.events:
            for p in validate_event(ev.to_dict()):
                problems.append(f"{name}: event {ev.kind}: {p}")
        print(
            f"  {name:<12} {res.status:<10} "
            f"placed {len(res.placements)}/{len(modules)} "
            f"extent {res.extent if res.extent is not None else '-':>4} "
            f"{res.elapsed:6.2f}s"
        )

    chain = tuple(RuntimeConfig().chain)
    for name in chain:
        if name not in PICK_RULES:
            problems.append(f"default chain names {name!r}, not a pick rule")

    print(
        f"exercised {len(names)} backends in "
        f"{time.monotonic() - t0:.2f}s; default chain: {', '.join(chain)}"
    )
    if problems:
        print("\nFAIL:", file=sys.stderr)
        for p in problems:
            print(f"  - {p}", file=sys.stderr)
        return 1
    print("backends smoke check OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
