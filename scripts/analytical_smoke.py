#!/usr/bin/env python
"""Analytical-backend smoke check: relaxation, warm start, A3 bar.

Drives the analytical force-directed backend end to end:

* the standalone placer on a Table-I style instance — the relaxation
  must converge (stop before its iteration cap), legalize every module,
  and the result must pass ``PlacementResult.verify``,
* the warm-start path: a CP solve seeded with ``warm_start="analytical"``
  must reach its first incumbent without opening a single search node,
  strictly fewer than the cold solve on the same instance, and must
  never return a worse extent than its seed,
* the ablation-A3 acceptance bar: annealing runs a fixed evaluation
  budget (:data:`A3_ANNEALING_EVALUATIONS`, no wall clock), and the
  analytical placer, given a quarter of annealing's measured time, must
  reach at least annealing's extent utilization.

Exits non-zero on any problem, so it can gate CI
(``make analytical-smoke``).
"""

from __future__ import annotations

import sys
import time


def _instance(seed: int = 5, n: int = 30):
    from repro.experiments.config import default_fabric
    from repro.modules.generator import ModuleGenerator

    return default_fabric(), ModuleGenerator(seed=seed).generate_set(n)


def check_relaxation(problems: list) -> str:
    """Standalone analytical placement: convergence + verification."""
    from repro.obs import RecordingTracer
    from repro.obs.trace import ANALYTICAL_ITERATE
    from repro.obs.schema import validate_event
    from repro.placer import AnalyticalConfig, AnalyticalPlacer

    region, modules = _instance()
    tracer = RecordingTracer()
    cfg = AnalyticalConfig(tracer=tracer)
    t0 = time.monotonic()
    res = AnalyticalPlacer(cfg).place(region, modules)
    elapsed = time.monotonic() - t0

    iterations = res.stats.get("iterations", 0)
    if iterations >= cfg.iterations:
        problems.append(
            f"relaxation: hit the iteration cap ({iterations}) instead of "
            "converging"
        )
    if not res.all_placed:
        problems.append(
            f"relaxation: {len(res.unplaced)} module(s) failed to legalize"
        )
    try:
        res.verify()
    except ValueError as exc:
        problems.append(f"relaxation: legalized placement invalid: {exc}")
    samples = tracer.by_kind(ANALYTICAL_ITERATE)
    if not samples:
        problems.append("relaxation: no analytical.iterate events emitted")
    for ev in samples:
        for p in validate_event(ev.to_dict()):
            problems.append(f"relaxation: event: {p}")
    return (
        f"        relaxation: {len(modules)} modules legalized in "
        f"{iterations} iterations, extent {res.extent}, {elapsed:.2f}s"
    )


def check_warm_start(problems: list) -> str:
    """Warm-started CP: a free first incumbent, never worse than the seed."""
    from repro.core.placer import CPPlacer, PlacerConfig

    region, modules = _instance()
    t0 = time.monotonic()
    cold = CPPlacer(PlacerConfig(time_limit=3.0)).place(region, modules)
    warm = CPPlacer(
        PlacerConfig(time_limit=3.0, warm_start="analytical")
    ).place(region, modules)
    elapsed = time.monotonic() - t0

    cold_nodes = cold.stats.get("first_incumbent_nodes")
    warm_nodes = warm.stats.get("first_incumbent_nodes")
    if warm_nodes != 0:
        problems.append(
            f"warm start: first incumbent cost {warm_nodes} nodes (want 0)"
        )
    if cold_nodes is None or not (warm_nodes < cold_nodes):
        problems.append(
            f"warm start: not strictly cheaper than cold "
            f"({warm_nodes} vs {cold_nodes} nodes)"
        )
    seed_objective = warm.stats.get("warm_start", {}).get("objective")
    if seed_objective is None:
        problems.append("warm start: stats carry no warm_start section")
    elif warm.extent is not None and warm.extent > seed_objective:
        problems.append(
            f"warm start: returned extent {warm.extent} worse than its "
            f"seed {seed_objective}"
        )
    try:
        warm.verify()
    except ValueError as exc:
        problems.append(f"warm start: placement invalid: {exc}")
    return (
        f"        warm start: first incumbent at {warm_nodes} nodes "
        f"(cold: {cold_nodes}), seed extent {seed_objective} -> "
        f"final {warm.extent}, {elapsed:.2f}s"
    )


#: annealing's work budget in the A3 bar: decode evaluations, so the
#: annealing side of the bar does not depend on host or decode speed
#: (seed 5 reaches its best extent, 71.9% utilization, by 1,800)
A3_ANNEALING_EVALUATIONS = 2_000


def check_a3_bar(problems: list) -> str:
    """A3 acceptance: >= annealing utilization at <= 25% of its time."""
    from repro.metrics.utilization import extent_utilization
    from repro.placer import (
        AnalyticalConfig,
        AnalyticalPlacer,
        AnnealingConfig,
        AnnealingPlacer,
    )

    region, modules = _instance()
    annealing = AnnealingPlacer(
        AnnealingConfig(
            time_limit=None, seed=5, max_evaluations=A3_ANNEALING_EVALUATIONS
        )
    ).place(region, modules)
    budget = annealing.elapsed
    t0 = time.monotonic()
    analytical = AnalyticalPlacer(
        AnalyticalConfig(time_limit=budget / 4, seed=5)
    ).place(region, modules)
    analytical_elapsed = time.monotonic() - t0

    u_ann = extent_utilization(annealing)
    u_ana = extent_utilization(analytical)
    if not analytical.all_placed:
        problems.append(
            f"A3: analytical left {len(analytical.unplaced)} unplaced"
        )
    if u_ana < u_ann:
        problems.append(
            f"A3: analytical utilization {u_ana:.3f} below annealing "
            f"{u_ann:.3f} (must be >= at a quarter of the budget)"
        )
    if analytical_elapsed > budget / 4 + 1.0:
        problems.append(
            f"A3: analytical overran its quarter budget "
            f"({analytical_elapsed:.2f}s > {budget / 4:.2f}s + slack)"
        )
    return (
        f"            A3 bar: analytical {u_ana:.1%} in "
        f"{analytical_elapsed:.2f}s vs annealing {u_ann:.1%} in "
        f"{annealing.elapsed:.2f}s ({annealing.stats['evaluations']} "
        f"evaluations)"
    )


def main() -> int:
    problems: list = []
    for check in (check_relaxation, check_warm_start, check_a3_bar):
        print(check(problems))
    if problems:
        print("\nFAIL:", file=sys.stderr)
        for p in problems:
            print(f"  - {p}", file=sys.stderr)
        return 1
    print("analytical smoke check OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
