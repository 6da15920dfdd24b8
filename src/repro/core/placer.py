"""The CP placer: optimal / anytime placement with design alternatives.

Search strategy: modules are branched hardest-first (decreasing area) and
per module the anchor column is fixed first with the smallest value
(bottom-left packing, aligned with the min-extent objective of Eq. 6),
then the row, then the shape alternative — usually already fixed by kernel
propagation once the anchor is known.  Branch-and-bound tightens the
extent after every solution; interrupted runs return the best placement
found, which makes the Table I experiments budget-controllable.

One request shape skips the model: a single module, stopped at its first
solution under the min-extent objective, with no warm start, extent
clamp, restarts or node budget (:func:`closed_form_applies`, the runtime
admission probe).  That dive provably lands on the minimum ``(x, y,
shape)`` over the shapes' valid anchors, so :meth:`CPPlacer._place`
returns :func:`~repro.fabric.masks.bottom_left_pick` over the shapes'
anchor words, or a proven ``"infeasible"`` when no shape has an
anchor.  The full model stays the test oracle
(``tests/support.py::full_cp_model``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.cp.bnb import BranchAndBound, Objective
from repro.cp.branching import input_order, min_value
from repro.cp.engine import Inconsistent
from repro.cp.search import SearchLimit
from repro.core.objective import ObjectiveKind
from repro.core.placement_model import PlacementModel
from repro.core.result import Placement, PlacementResult
from repro.fabric.masks import anchor_words, bottom_left_pick, column_words
from repro.fabric.region import PartialRegion
from repro.modules.module import Module
from repro.obs import context as obs_context
from repro.obs.profile import SolveProfile
from repro.obs.trace import Tracer


#: fraction of the solve's ``time_limit`` granted to a warm-start seeder
WARM_START_BUDGET = 0.25


@dataclass
class PlacerConfig:
    """Knobs of the CP placer."""

    objective: ObjectiveKind = ObjectiveKind.MIN_EXTENT_X
    #: anytime budget in seconds (None = run to proven optimality)
    time_limit: Optional[float] = 10.0
    node_limit: Optional[int] = None
    #: variable selection: "fail-first" picks the unplaced module with the
    #: fewest remaining anchors at every node (dynamic, kernel-driven);
    #: "static" follows the fixed module order
    strategy: str = "fail-first"
    #: construction mode for ``first_solution_only``: "dive" is one DFS
    #: descent; "restart" adds Luby restarts with randomized value tails —
    #: slower on easy instances, far more robust on thrashing-prone ones
    construction: str = "dive"
    #: random seed for the "restart" construction
    seed: int = 0
    symmetry_breaking: bool = True
    #: stop at the first solution instead of optimizing (service mode)
    first_solution_only: bool = False
    #: per-propagator accounting; the run's :class:`SolveProfile` lands in
    #: ``result.stats["profile"]`` (also forced on by an active
    #: :func:`repro.obs.profiling_session`)
    profile: bool = False
    #: structured event sink threaded into the engine (None = off)
    tracer: Optional[Tracer] = None
    #: name of a registered backend (usually ``"analytical"``) whose
    #: legalized placement becomes the initial incumbent: the objective is
    #: clamped to beat it before search starts, so the branch-and-bound
    #: never spends nodes reaching feasibility (None = cold start)
    warm_start: Optional[str] = None


def warm_start_seed(
    backend: str,
    region: PartialRegion,
    modules: Sequence[Module],
    seed: int,
    time_limit: Optional[float],
    tracer: Optional[Tracer],
) -> Optional[PlacementResult]:
    """Run the seeder ``backend``; None when its answer is unusable.

    The seeder gets :data:`WARM_START_BUDGET` of ``time_limit``.  Unusable
    = partial or failing verification — the caller then falls back to its
    cold path, never to a wrong incumbent.
    """
    # function-local imports: the backend adapters import this module
    from repro.core.backend.protocol import PlacementRequest
    from repro.core.backend.registry import create_backend

    budget = time_limit * WARM_START_BUDGET if time_limit is not None else None
    result = create_backend(backend).place(
        PlacementRequest(
            region,
            list(modules),
            seed=seed,
            time_limit=budget,
            tracer=tracer,
        )
    )
    if not result.placements or not result.all_placed:
        return None
    try:
        result.verify()
    except ValueError:
        return None
    return result


class CPPlacer:
    """Places a module library on a partial region via CP + B&B."""

    def __init__(self, config: Optional[PlacerConfig] = None) -> None:
        self.config = config or PlacerConfig()

    # ------------------------------------------------------------------
    def place(
        self, region: PartialRegion, modules: Sequence[Module]
    ) -> PlacementResult:
        return self._place(region, modules, None)

    def place_bounded(
        self,
        region: PartialRegion,
        modules: Sequence[Module],
        max_extent: int,
    ) -> PlacementResult:
        """Place with a hard upper bound on the extent objective.

        Used by the LNS driver: the subproblem must strictly beat the
        incumbent, so its objective is clamped before search starts.
        """
        return self._place(region, modules, max_extent)

    def _warm_solve(
        self,
        region: PartialRegion,
        modules: Sequence[Module],
        max_extent: Optional[int],
    ) -> Optional[PlacementResult]:
        """The warm-start seed, or None when it breaks ``max_extent``."""
        cfg = self.config
        result = warm_start_seed(
            cfg.warm_start, region, modules, seed=cfg.seed,
            time_limit=cfg.time_limit, tracer=cfg.tracer,
        )
        if result is None:
            return None
        value = _objective_value(result.placements, cfg.objective)
        if max_extent is not None and value > max_extent:
            return None
        return result

    def _place(
        self,
        region: PartialRegion,
        modules: Sequence[Module],
        max_extent: Optional[int],
    ) -> PlacementResult:
        cfg = self.config
        start = time.monotonic()
        profiling = cfg.profile or obs_context.current() is not None

        if closed_form_applies(cfg, modules, max_extent):
            # one module, first solution, min extent: the dive's answer is
            # the bottom-left pick over the shapes' masks, no search required
            return self._closed_form(region, modules[0], start, profiling)

        warm_placements: Optional[List[Placement]] = None
        warm_value: Optional[int] = None
        warm_stats: Dict[str, object] = {}
        if cfg.warm_start and modules:
            warm = self._warm_solve(region, modules, max_extent)
            if warm is not None:
                warm_placements = [
                    Placement(p.module, p.shape_index, p.x, p.y)
                    for p in warm.placements
                ]
                warm_value = _objective_value(warm_placements, cfg.objective)
                warm_stats = {
                    "backend": cfg.warm_start,
                    "objective": warm_value,
                    "elapsed": warm.elapsed,
                }

        if warm_placements is not None and cfg.first_solution_only:
            # service mode only needs *a* feasible placement — the warm
            # seeder already produced a verified one, no search required
            elapsed = time.monotonic() - start
            stats: Dict[str, object] = {
                "warm_start": warm_stats,
                "first_incumbent_nodes": 0,
            }
            if profiling:
                profile = SolveProfile(
                    elapsed=elapsed,
                    stop_reason="warm-start",
                    meta={"placer": "cp", "warm_start": cfg.warm_start},
                )
                session = obs_context.current()
                if session is not None:
                    session.record(profile)
                stats["profile"] = profile
            return PlacementResult(
                region,
                warm_placements,
                [],
                status="feasible",
                elapsed=elapsed,
                stats=stats,
            )

        try:
            pm = PlacementModel(
                region,
                modules,
                objective=cfg.objective,
                symmetry_breaking=cfg.symmetry_breaking,
                tracer=cfg.tracer,
                profile=profiling,
            )
            if max_extent is not None:
                pm.objective_var.remove_above(max_extent)
                pm.model.engine.fixpoint()
        except Inconsistent:
            return PlacementResult(
                region, [], list(modules), status="infeasible",
                elapsed=time.monotonic() - start,
            )

        if warm_value is not None:
            # incumbent injection: the search may only visit solutions
            # strictly better than the warm placement
            try:
                pm.objective_var.remove_above(warm_value - 1)
                pm.model.engine.fixpoint()
            except Inconsistent:
                # nothing beats the incumbent — it is proven optimal
                elapsed = time.monotonic() - start
                stats = {
                    "warm_start": warm_stats,
                    "first_incumbent_nodes": 0,
                }
                if profiling:
                    stats["profile"] = self._capture_profile(
                        pm, None, region, modules
                    )
                return PlacementResult(
                    region,
                    warm_placements,
                    [],
                    status="optimal",
                    elapsed=elapsed,
                    stats=stats,
                )

        decision_vars = pm.decision_vars(pm.area_order())
        var_select = (
            _kernel_fail_first(pm) if cfg.strategy == "fail-first" else input_order
        )

        if cfg.first_solution_only and cfg.construction == "restart":
            return self._construct_with_restarts(
                pm, region, modules, decision_vars, var_select, start, profiling
            )

        limit = SearchLimit(
            time_seconds=cfg.time_limit,
            nodes=cfg.node_limit,
            solutions=1 if cfg.first_solution_only else None,
        )

        best_placements: List[List[Placement]] = []

        def on_improve(solution, value) -> None:
            # engine state reflects the solution while the callback runs
            best_placements.append(
                [
                    Placement(p.module, p.shape_index, p.x, p.y)
                    for p in pm.kernel.placements()
                ]
            )

        bnb = BranchAndBound(
            pm.model.engine,
            Objective.minimize(pm.objective_var),
            decision_vars,
            var_select=var_select,
            val_select=min_value,
            limit=limit,
            on_improve=on_improve,
        )
        res = bnb.run()
        elapsed = time.monotonic() - start

        if res.best is None:
            if warm_placements is not None:
                # the clamped search found nothing better: the warm
                # incumbent stands — proven optimal iff the search space
                # below it was exhausted
                status = "optimal" if res.proved_optimal else "feasible"
                stats = {
                    "search": res.stats,
                    "warm_start": warm_stats,
                    "first_incumbent_nodes": 0,
                }
                if profiling:
                    stats["profile"] = self._capture_profile(
                        pm, res.stats, region, modules
                    )
                return PlacementResult(
                    region,
                    warm_placements,
                    [],
                    status=status,
                    elapsed=elapsed,
                    stats=stats,
                )
            status = "infeasible" if res.proved_optimal else "unknown"
            stats = {"search": res.stats}
            if profiling:
                stats["profile"] = self._capture_profile(
                    pm, res.stats, region, modules
                )
            return PlacementResult(
                region, [], list(modules), status=status, elapsed=elapsed,
                stats=stats,
            )

        placements = best_placements[-1]
        status = "optimal" if res.proved_optimal else "feasible"
        stats = {
            "search": res.stats,
            "trajectory": res.trajectory,
            "shapes_considered": sum(m.n_alternatives for m in modules),
            "first_incumbent_nodes": (
                0 if warm_placements is not None else res.first_incumbent_nodes
            ),
        }
        if warm_placements is not None:
            stats["warm_start"] = warm_stats
        if profiling:
            stats["profile"] = self._capture_profile(
                pm, res.stats, region, modules
            )
        return PlacementResult(
            region,
            placements,
            [],
            extent=res.objective,
            status=status,
            elapsed=elapsed,
            stats=stats,
        )

    def _closed_form(
        self,
        region: PartialRegion,
        module: Module,
        start: float,
        profiling: bool,
    ) -> PlacementResult:
        """Answer a :func:`closed_form_applies` request without a model.

        Builds each shape's anchor words as the kernel does and returns
        the bottom-left ``(x, y, shape)`` over them, or a proven
        ``"infeasible"`` when no shape has an anchor; no ``(H, W)`` mask is
        built.  As with the dive, the answer is ``"optimal"`` only when it
        is the one anchor there is (root propagation then fixes every
        variable): exactly one bit set across the shapes' words.  Otherwise
        it is ``"feasible"``.
        """
        words = anchor_words(column_words(region), module.shapes)
        pick = bottom_left_pick(words)
        elapsed = time.monotonic() - start
        stats: Dict[str, object] = {
            "shapes_considered": module.n_alternatives,
            "first_incumbent_nodes": 0,
        }
        if profiling:
            profile = SolveProfile(
                elapsed=elapsed,
                stop_reason="closed-form",
                meta={"instance": region.name, "modules": 1, "placer": "cp"},
            )
            session = obs_context.current()
            if session is not None:
                session.record(profile)
            stats["profile"] = profile
        if pick is None:
            return PlacementResult(
                region, [], [module], status="infeasible", elapsed=elapsed,
                stats=stats,
            )
        x, y, si = pick
        placement = Placement(module, si, x, y)
        stacked = np.stack(words)
        set_words = stacked[stacked != 0]
        # one nonzero word, and a power of two: a single anchor
        unique = set_words.size == 1 and not (
            int(set_words[0]) & (int(set_words[0]) - 1)
        )
        return PlacementResult(
            region,
            [placement],
            [],
            extent=placement.right,
            status="optimal" if unique else "feasible",
            elapsed=elapsed,
            stats=stats,
        )

    def _capture_profile(
        self, pm, search_stats, region, modules, restarts: int = 0
    ) -> SolveProfile:
        """Snapshot the engine into a profile and feed any active session."""
        profile = SolveProfile.capture(
            pm.model.engine,
            search_stats,
            instance=region.name,
            modules=len(modules),
            placer="cp",
        )
        profile.restarts = restarts
        inc = pm.kernel.inc_stats
        profile.geost_dirty = inc.dirty
        profile.geost_reused = inc.reused
        profile.geost_rasterized = inc.rasterized
        profile.bitboard_rows_tested = inc.rows_tested
        profile.bitboard_fallbacks = inc.fallbacks
        session = obs_context.current()
        if session is not None:
            session.record(profile)
        return profile


    def _construct_with_restarts(
        self, pm, region, modules, decision_vars, var_select, start,
        profiling: bool = False,
    ) -> PlacementResult:
        from repro.cp.restart import RestartingSearch

        cfg = self.config
        captured: List[List[Placement]] = []

        def on_solution(_sol) -> None:
            captured.append(
                [
                    Placement(p.module, p.shape_index, p.x, p.y)
                    for p in pm.kernel.placements()
                ]
            )

        search = RestartingSearch(
            pm.model.engine,
            decision_vars,
            var_select=var_select,
            time_limit=cfg.time_limit,
            seed=cfg.seed,
            on_solution=on_solution,
        )
        solution = search.first_solution()
        elapsed = time.monotonic() - start
        if solution is None or not captured:
            status = (
                "infeasible"
                if search.stats.stop_reason == "exhausted"
                else "unknown"
            )
            stats = {"search": search.stats, "restarts": search.restarts}
            if profiling:
                stats["profile"] = self._capture_profile(
                    pm, search.stats, region, modules, restarts=search.restarts
                )
            return PlacementResult(
                region, [], list(modules), status=status, elapsed=elapsed,
                stats=stats,
            )
        placements = captured[-1]
        stats = {
            "search": search.stats,
            "restarts": search.restarts,
            "shapes_considered": sum(m.n_alternatives for m in modules),
        }
        if profiling:
            stats["profile"] = self._capture_profile(
                pm, search.stats, region, modules, restarts=search.restarts
            )
        return PlacementResult(
            region,
            placements,
            [],
            extent=max(p.right for p in placements),
            status="feasible",
            elapsed=elapsed,
            stats=stats,
        )


def closed_form_applies(
    cfg: PlacerConfig, modules: Sequence[Module], max_extent: Optional[int]
) -> bool:
    """True when the CP dive provably returns the bottom-left pick.

    One module, stopped at its first solution under the min-extent
    objective, with no warm start, no extent clamp, the plain dive and no
    node budget: branching x, then y, then shape at the smallest value
    finds the minimum ``(x, y, shape)`` over the shapes' valid anchors,
    and an empty mask set is the proof of no fit.
    """
    return (
        len(modules) == 1
        and cfg.first_solution_only
        and cfg.objective is ObjectiveKind.MIN_EXTENT_X
        and cfg.warm_start is None
        and max_extent is None
        and cfg.construction == "dive"
        and cfg.node_limit is None
    )


def _objective_value(
    placements: Sequence[Placement], kind: ObjectiveKind
) -> int:
    """Objective value of a complete placement, matching the CP model."""
    if kind is ObjectiveKind.MIN_EXTENT_Y:
        return max(p.top for p in placements)
    if kind is ObjectiveKind.MIN_TOTAL_RIGHT:
        return sum(p.right for p in placements)
    return max(p.right for p in placements)


def _kernel_fail_first(pm: PlacementModel):
    """Dynamic variable selection: branch the most constrained module.

    At every node, pick the unplaced module with the fewest remaining
    (shape, x, y) anchors — the classic fail-first principle, computed from
    the kernel's live anchor masks — and branch its first unfixed variable
    in x, y, s order (fixing x lets the kernel collapse y and s).  Falls
    back to input order for auxiliary variables (objective coupling).
    Ties break on anchor count, then area (hardest first), then module
    index — all explicit key components, so the chosen branch never
    depends on container iteration order.
    """
    kernel = pm.kernel

    def select(variables):
        best_item = None
        best_key = None
        for item in kernel.items:
            if item.placed or item.is_fixed():
                continue
            key = (
                kernel.anchor_count(item.index),
                -item.module.primary().area,
                item.index,
            )
            if best_key is None or key < best_key:
                best_key, best_item = key, item
        if best_item is not None:
            for v in (best_item.x, best_item.y, best_item.s):
                if not v.is_fixed():
                    return v
        for v in variables:  # auxiliary vars (sizes, edges, objective)
            if not v.is_fixed():
                return v
        return None

    return select


def place(
    region: PartialRegion,
    modules: Sequence[Module],
    time_limit: Optional[float] = 10.0,
    **kwargs,
) -> PlacementResult:
    """Convenience wrapper: place with default configuration."""
    cfg = PlacerConfig(time_limit=time_limit, **kwargs)
    return CPPlacer(cfg).place(region, modules)
