"""Large-neighborhood search around the CP placer.

Pure branch-and-bound proves optimality on small instances but improves
slowly on 30-module instances: after the first greedy-dive solution the
bound forces a global restructuring that chronological backtracking
explores inefficiently.  LNS is the standard CP remedy and keeps the exact
kernel: every iteration *freezes* most modules at their incumbent
positions, masks their cells out of the region, and re-solves the
remaining modules as a small CP subproblem constrained to beat the
incumbent extent.  Neighborhoods are biased toward the extent frontier —
the modules whose right edges define the objective — because only moving
those can reduce it.

The paper itself solves the whole model monolithically (Section IV) on
SICStus; LNS here is an orchestration layer above the same constraint
model, not a relaxation: every incumbent it returns is a solution of the
full model (and is re-verified by ``PlacementResult.verify`` in tests).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

from repro.core.placer import CPPlacer, PlacerConfig, warm_start_seed
from repro.core.result import Placement, PlacementResult
from repro.fabric.region import PartialRegion
from repro.modules.module import Module
from repro.obs.profile import SolveProfile
from repro.obs.trace import LNS_IMPROVED, LNS_NEIGHBORHOOD, Tracer


@dataclass
class LNSConfig:
    """Knobs of the LNS driver."""

    #: overall wall-clock budget in seconds
    time_limit: float = 10.0
    #: per-subproblem CP budget in seconds
    sub_time_limit: float = 1.5
    #: how many modules to unfix per iteration
    neighborhood: int = 8
    #: stop after this many consecutive non-improving iterations (None = run
    #: out the clock)
    stall_limit: Optional[int] = 12
    #: margin (in columns) defining the extent frontier
    frontier_margin: int = 2
    seed: int = 0
    #: configuration of the initial full solve
    initial: Optional[PlacerConfig] = None
    #: aggregate per-propagator profiles across all CP subsolves into
    #: ``result.stats["profile"]``
    profile: bool = False
    #: structured event sink for LNS-level events (neighborhood chosen,
    #: incumbent improved) — also threaded into every CP subsolve
    tracer: Optional[Tracer] = None
    #: name of a backend (usually ``"analytical"``) whose
    #: legalized placement replaces the CP-dive/greedy bootstrap as the
    #: initial incumbent (None = cold construction ladder)
    warm_start: Optional[str] = None


class LNSPlacer:
    """Anytime extent minimization: CP construction + LNS improvement."""

    def __init__(self, config: Optional[LNSConfig] = None) -> None:
        self.config = config or LNSConfig()
        self._profile_total: Optional[SolveProfile] = None

    # ------------------------------------------------------------------
    def place(
        self, region: PartialRegion, modules: Sequence[Module]
    ) -> PlacementResult:
        cfg = self.config
        rng = random.Random(cfg.seed)
        start = time.monotonic()
        deadline = start + cfg.time_limit
        tracer = cfg.tracer if cfg.tracer is not None and cfg.tracer.enabled else None
        self._profile_total: Optional[SolveProfile] = (
            SolveProfile(meta={"placer": "lns", "seed": cfg.seed})
            if cfg.profile
            else None
        )

        # warm start: a seeder backend (the analytical relaxation) can
        # hand over a verified full placement, skipping the construction
        # ladder entirely — the improvement loop starts optimizing at once
        base: Optional[PlacementResult] = None
        warm_stats = {}
        if cfg.warm_start and modules:
            warm = warm_start_seed(
                cfg.warm_start, region, modules, seed=cfg.seed,
                time_limit=cfg.time_limit, tracer=tracer,
            )
            if warm is not None:
                base = warm
                warm_stats = {
                    "backend": cfg.warm_start,
                    "objective": max(p.right for p in warm.placements),
                    "elapsed": warm.elapsed,
                }

        # construction: CP dive first (usually sub-second); if it thrashes,
        # fall back to the bottom-left heuristic — LNS only needs *some*
        # incumbent, the improvement loop does the optimization
        if base is None:
            initial_cfg = cfg.initial or PlacerConfig(
                time_limit=min(cfg.time_limit / 2, 5.0),
                first_solution_only=True,
            )
            if cfg.profile or tracer is not None:
                initial_cfg = replace(
                    initial_cfg, profile=cfg.profile, tracer=tracer
                )
            base = CPPlacer(initial_cfg).place(region, modules)
            self._absorb_profile(base)
        if not base.placements or not base.all_placed:
            from repro.placer.greedy import BottomLeftPlacer

            greedy = BottomLeftPlacer().place(region, modules)
            if greedy.all_placed and greedy.placements:
                base = greedy
        if not base.placements or not base.all_placed:
            # last resort: randomized Luby restarts with the remaining budget
            restart_cfg = PlacerConfig(
                time_limit=max(0.5, deadline - time.monotonic()),
                first_solution_only=True,
                construction="restart",
                seed=cfg.seed,
                profile=cfg.profile,
                tracer=tracer,
            )
            restarted = CPPlacer(restart_cfg).place(region, modules)
            self._absorb_profile(restarted)
            if restarted.all_placed and restarted.placements:
                base = restarted
            else:
                base.elapsed = time.monotonic() - start
                return base

        best: List[Placement] = list(base.placements)
        best_extent = max(p.right for p in best)
        trajectory: List[Tuple[float, int]] = [
            (time.monotonic() - start, best_extent)
        ]
        iterations = 0
        stall = 0
        while time.monotonic() < deadline:
            if cfg.stall_limit is not None and stall >= cfg.stall_limit:
                break
            iterations += 1
            free_idx = self._neighborhood(best, best_extent, rng)
            if tracer is not None:
                tracer.emit(
                    LNS_NEIGHBORHOOD,
                    iteration=iterations,
                    free=len(free_idx),
                    frontier=sum(
                        1
                        for i in free_idx
                        if best[i].right >= best_extent - cfg.frontier_margin
                    ),
                )
            improved = self._reoptimize(
                region, best, free_idx, best_extent, deadline, tracer
            )
            if improved is not None:
                best = improved
                best_extent = max(p.right for p in best)
                trajectory.append((time.monotonic() - start, best_extent))
                stall = 0
                if tracer is not None:
                    tracer.emit(
                        LNS_IMPROVED, iteration=iterations, extent=best_extent
                    )
            else:
                stall += 1

        stats = {
            "method": "lns",
            "iterations": iterations,
            "trajectory": trajectory,
            "initial_extent": trajectory[0][1],
            "shapes_considered": sum(m.n_alternatives for m in modules),
        }
        if warm_stats:
            stats["warm_start"] = warm_stats
        if self._profile_total is not None:
            stats["profile"] = self._profile_total
        return PlacementResult(
            region,
            best,
            [],
            extent=best_extent,
            status="feasible",
            elapsed=time.monotonic() - start,
            stats=stats,
        )

    def _absorb_profile(self, result: PlacementResult) -> None:
        """Fold one CP subsolve's profile into the LNS aggregate."""
        if self._profile_total is None:
            return
        sub = result.stats.get("profile")
        if sub is not None:
            self._profile_total = self._profile_total + sub

    # ------------------------------------------------------------------
    def _neighborhood(
        self, placements: List[Placement], extent: int, rng: random.Random
    ) -> List[int]:
        """Indices to unfix: the extent frontier plus random filler."""
        cfg = self.config
        frontier = [
            i
            for i, p in enumerate(placements)
            if p.right >= extent - cfg.frontier_margin
        ]
        in_frontier = set(frontier)
        rest = [i for i in range(len(placements)) if i not in in_frontier]
        rng.shuffle(rest)
        take = max(0, cfg.neighborhood - len(frontier))
        return frontier + rest[:take]

    def _reoptimize(
        self,
        region: PartialRegion,
        placements: List[Placement],
        free_idx: List[int],
        best_extent: int,
        deadline: float,
        tracer: Optional[Tracer] = None,
    ) -> Optional[List[Placement]]:
        """Re-place ``free_idx`` modules; None unless strictly better."""
        cfg = self.config
        frozen = [p for i, p in enumerate(placements) if i not in free_idx]
        frozen_extent = max((p.right for p in frozen), default=0)
        if frozen_extent >= best_extent:
            return None  # this neighborhood cannot beat the incumbent

        # carve frozen modules' cells out of the reconfigurable area
        free = region.reconfigurable.copy()
        for p in frozen:
            free[p.cell_index()] = False
        sub_region = PartialRegion(region.grid, free, f"{region.name}-lns")

        budget = min(cfg.sub_time_limit, max(0.1, deadline - time.monotonic()))
        sub_cfg = PlacerConfig(
            time_limit=budget, profile=cfg.profile, tracer=tracer
        )
        free_modules = [placements[i].module for i in free_idx]
        placer = CPPlacer(sub_cfg)
        # beat the incumbent: every free module must end left of it
        result = placer.place_bounded(sub_region, free_modules, best_extent - 1)
        self._absorb_profile(result)
        if not result.placements or not result.all_placed:
            return None
        new_extent = max(
            frozen_extent, max(p.right for p in result.placements)
        )
        if new_extent >= best_extent:
            return None
        return frozen + list(result.placements)
