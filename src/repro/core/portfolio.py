"""Parallel portfolio placement.

Packing search has a heavy-tailed runtime/quality distribution: different
random seeds explore very different regions.  A *portfolio* runs several
independent placement backends (all-LNS by default; any registered
backend names via ``PortfolioConfig.members``) in parallel worker
processes and keeps the best incumbent — near-linear
quality-per-wall-clock scaling for free, and the natural way to use a
multi-core workstation for the paper's workload.

Implementation notes (per the HPC guides, keep the parallel layer thin
and the data exchange explicit): workers receive only JSON-serializable
payloads (region spec + module specs + scalar knobs) and return plain
tuples.  Nothing solver-internal crosses the process boundary, which keeps
the workers independent and the results deterministic per (seed, budget).
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.result import Placement, PlacementResult
from repro.fabric.io import region_from_dict, region_to_dict
from repro.fabric.region import PartialRegion
from repro.modules.module import Module
from repro.modules.spec import module_from_dict, module_to_dict
from repro.obs.profile import SolveProfile
from repro.obs.trace import PORTFOLIO_RESULT, Tracer

#: (module name, shape index, x, y)
_PlacementTuple = Tuple[str, int, int, int]

#: (seed, extent-or-None, placements, profile-dict-or-None) — the profile
#: crosses the process boundary as a plain dict (JSON-serializable), never
#: as a solver-internal object
_WorkerResult = Tuple[int, Optional[int], List[_PlacementTuple], Optional[dict]]


def _worker(
    region_payload: dict,
    module_payloads: List[dict],
    time_limit: float,
    seed: int,
    profile: bool = False,
    backend: str = "lns",
) -> _WorkerResult:
    """Solve one portfolio member; returns (seed, extent, placements, profile)."""
    # lazy import: the backend package imports this module for its adapter
    from repro.core.backend import PlacementRequest, create_backend

    region = region_from_dict(region_payload)
    modules = [module_from_dict(p) for p in module_payloads]
    result = create_backend(backend).place(
        PlacementRequest(
            region,
            modules,
            seed=seed,
            time_limit=time_limit,
            profile=profile,
        )
    )
    profile_payload = None
    if profile:
        captured = result.stats.get("profile")
        if captured is not None:
            profile_payload = captured.to_dict()
    if not result.placements or not result.all_placed:
        return seed, None, [], profile_payload
    return (
        seed,
        result.extent,
        [
            (p.module.name, p.shape_index, p.x, p.y)
            for p in result.placements
        ],
        profile_payload,
    )


@dataclass
class PortfolioConfig:
    """Knobs of the parallel portfolio."""

    #: independent members (= worker processes)
    n_workers: int = 4
    #: per-member wall-clock budget in seconds
    time_limit: float = 8.0
    base_seed: int = 0
    #: registered backend names cycled across the workers (worker k runs
    #: ``members[k % len(members)]``); None = all-LNS, today's default
    members: Optional[Sequence[str]] = None
    #: collect per-member SolveProfiles (returned across the process
    #: boundary as plain dicts) and merge them into ``stats["profile"]``
    profile: bool = False
    #: event sink for ``portfolio.result`` events (parent process only —
    #: tracers do not cross into workers)
    tracer: Optional[Tracer] = None


class PortfolioPlacer:
    """Best-of-N parallel placement over registered backends (default LNS)."""

    def __init__(self, config: Optional[PortfolioConfig] = None) -> None:
        self.config = config or PortfolioConfig()
        if self.config.n_workers < 1:
            raise ValueError("need at least one worker")
        if self.config.members is not None:
            from repro.core.backend import available_backends

            if not self.config.members:
                raise ValueError("members must name at least one backend")
            registered = set(available_backends())
            for name in self.config.members:
                if name not in registered:
                    raise ValueError(
                        f"unknown backend {name!r} in portfolio members; "
                        f"registered: {', '.join(sorted(registered))}"
                    )

    def _member_names(self) -> List[str]:
        cfg = self.config
        names = list(cfg.members) if cfg.members is not None else ["lns"]
        return [names[k % len(names)] for k in range(cfg.n_workers)]

    def place(
        self, region: PartialRegion, modules: Sequence[Module]
    ) -> PlacementResult:
        cfg = self.config
        start = time.monotonic()
        region_payload = region_to_dict(region)
        module_payloads = [module_to_dict(m) for m in modules]
        by_name: Dict[str, Module] = {m.name: m for m in modules}
        tracer = (
            cfg.tracer if cfg.tracer is not None and cfg.tracer.enabled else None
        )

        member_names = self._member_names()
        outcomes: List[_WorkerResult] = []
        crashed: Dict[int, str] = {}

        def record_crash(seed: int, exc: BaseException) -> None:
            # keep the member's real seed and its exception text; a crash
            # is an unsolved outcome, never a silently healthy member
            crashed[seed] = f"{type(exc).__name__}: {exc}"
            outcomes.append((seed, None, [], None))

        if cfg.n_workers == 1:
            try:
                outcomes.append(
                    _worker(region_payload, module_payloads, cfg.time_limit,
                            cfg.base_seed, cfg.profile, member_names[0])
                )
            except Exception as exc:
                record_crash(cfg.base_seed, exc)
        else:
            with ProcessPoolExecutor(max_workers=cfg.n_workers) as pool:
                futures = {
                    pool.submit(
                        _worker,
                        region_payload,
                        module_payloads,
                        cfg.time_limit,
                        cfg.base_seed + k,
                        cfg.profile,
                        member_names[k],
                    ): cfg.base_seed + k
                    for k in range(cfg.n_workers)
                }
                for fut in as_completed(futures):
                    try:
                        outcomes.append(fut.result())
                    except Exception as exc:  # must not sink the rest
                        record_crash(futures[fut], exc)

        backend_by_seed = {
            cfg.base_seed + k: member_names[k] for k in range(cfg.n_workers)
        }
        if tracer is not None:
            for seed, extent, _tuples, _prof in outcomes:
                payload = dict(
                    seed=seed, extent=extent, solved=extent is not None,
                    backend=backend_by_seed.get(seed, "lns"),
                )
                if seed in crashed:
                    payload["error"] = crashed[seed]
                tracer.emit(PORTFOLIO_RESULT, **payload)

        stats: Dict = {
            "method": "portfolio",
            "members": len(outcomes),
            "member_backends": member_names,
            "crashed_members": dict(crashed),
        }
        if cfg.profile:
            member_profiles = {
                seed: prof
                for seed, _e, _t, prof in outcomes
                if prof is not None
            }
            stats["member_profiles"] = member_profiles
            merged = SolveProfile(meta={"placer": "portfolio"})
            for prof in member_profiles.values():
                merged = merged + SolveProfile.from_dict(prof)
            stats["profile"] = merged

        solved = [(s, e, p) for s, e, p, _ in outcomes if e is not None]
        elapsed = time.monotonic() - start
        if not solved:
            stats["status_members"] = 0
            return PlacementResult(
                region, [], list(modules), status="unknown", elapsed=elapsed,
                stats=stats,
            )
        best_seed, best_extent, tuples = min(solved, key=lambda t: t[1])
        placements = [
            Placement(by_name[name], sid, x, y)
            for name, sid, x, y in tuples
        ]
        stats.update(
            solved_members=len(solved),
            winning_seed=best_seed,
            member_extents=sorted(e for _, e, _ in solved),
        )
        return PlacementResult(
            region,
            placements,
            [],
            extent=best_extent,
            status="feasible",
            elapsed=elapsed,
            stats=stats,
        )
