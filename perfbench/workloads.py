"""The benchmark workloads: set-up, one measured pass, and the gates.

A *pass* is one replay of the seeded trace through a fresh service
(serve workloads) or one sweep over every seeded module set, solved
without and with design alternatives (solve workload).  Every pass of a
run reads the same inputs, so every pass must give the same outcome
digest; the gates (invariants, verification, accounting, determinism)
run outside the timed intervals and collect problems instead of raising,
so a run reports every violation it saw.

``run_pass`` takes ``measure``, a context-manager factory that encloses
exactly the measured calls (the submit loop, or one solve); the traced
passes install the layer clock through it, so layer times never include
the drain, the gates or the building of a fresh service.  It calls
``after_op`` after each measured operation, outside its timed interval
(the untraced passes time the host's speed there, see ``hostspeed.py``).
"""

from __future__ import annotations

import hashlib
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, ContextManager, Dict, List, Optional, Sequence

from repro.core.backend import CPBackend, PlacementRequest
from repro.core.placer import PlacerConfig
from repro.core.result import PlacementResult
from repro.core.runtime import RuntimeRequest, generate_workload
from repro.core.service import ShardedPlacementService
from repro.experiments.config import default_fabric
from repro.experiments.service_load import serving_config
from repro.fabric.cache import AnchorMaskCache
from repro.fabric.region import PartialRegion
from repro.metrics.utilization import extent_utilization
from repro.modules.generator import GeneratorConfig, ModuleGenerator
from repro.modules.module import Module

#: submits between two live-floorplan checks in a pass that checks them
CHECK_EVERY = 10


@dataclass
class PassResult:
    """What one pass measured and what its gates found."""

    #: wall seconds of each timed operation (submit, or solve with
    #: alternatives)
    ops_s: List[float]
    #: wall seconds of every measured call in the pass (all submits, or
    #: every solve of both conditions) — the coverage and overhead base
    busy_s: float
    #: outcome digest; equal inputs must give equal digests
    digest: str
    #: operations that failed: errored requests, or unplaced/unverified
    #: solves
    failed: int
    #: units placed and units asked for (requests or modules)
    admitted: int
    submitted: int
    #: mean utilization of the pass in [0, 1]
    util: float
    problems: List[str] = field(default_factory=list)
    #: workload-specific exact counters read after the pass
    counters: Dict[str, float] = field(default_factory=dict)


def _digest(rows: Sequence[tuple]) -> str:
    return hashlib.blake2b(repr(list(rows)).encode(), digest_size=12).hexdigest()


# ----------------------------------------------------------------------
# Serving: closed-loop trace replay through the sharded service
# ----------------------------------------------------------------------
class ServeWorkload:
    def __init__(self, params: Dict) -> None:
        self.p = params
        self._fresh: Optional[ShardedPlacementService] = None
        self._fresh_cache: Optional[AnchorMaskCache] = None
        self.regions: List[PartialRegion] = []
        self.trace: List[RuntimeRequest] = []

    def _service(self):
        p = self.p
        cfg = serving_config(
            router=p["router"],
            chain=tuple(p["chain"]),
            queue_capacity=p["queue_capacity"],
            defrag=p["defrag"],
            reservation_horizon=p["reservation_horizon"],
        )
        # the shared cache is handed in so its counters can be read back
        cache = AnchorMaskCache()
        cfg.runtime.cache = cache
        return ShardedPlacementService(self.regions, cfg), cache

    def setup(self, seed: int) -> None:
        """Fabric, shard split, trace generation, service construction."""
        p = self.p
        self.regions = ShardedPlacementService.split(
            default_fabric(), p["shards"]
        )
        trace = generate_workload(
            p["n_requests"],
            seed=seed,
            mean_interarrival=p["mean_interarrival"],
            mean_lifetime=p["mean_lifetime"],
        )
        self.trace = sorted(trace, key=lambda r: r.arrival)
        self._fresh, self._fresh_cache = self._service()

    def run_pass(
        self,
        check_floorplan: bool,
        measure: Callable[[], ContextManager] = nullcontext,
        after_op: Callable[[], None] = lambda: None,
    ) -> PassResult:
        """Replay the trace once; ``check_floorplan`` additionally checks
        every shard's live floorplan every ``CHECK_EVERY`` submits."""
        if self._fresh is not None:
            service, cache = self._fresh, self._fresh_cache
            self._fresh = self._fresh_cache = None
        else:
            service, cache = self._service()
        every = CHECK_EVERY if check_floorplan else 0
        capacity = sum(r.available_area() for r in self.regions)
        problems: List[str] = []
        ops: List[float] = []
        occupied: List[int] = []
        outcomes = []
        with measure():
            for i, request in enumerate(self.trace, 1):
                t0 = perf_counter()
                outcome = service.submit(request)
                ops.append(perf_counter() - t0)
                outcomes.append(outcome)
                occupied.append(
                    sum(
                        p.footprint.area
                        for shard in service.shards
                        for p in shard.placements
                    )
                )
                if every and i % every == 0:
                    problems += check_shards(service.shards)
                after_op()
        service.drain()
        service.close()
        # the shard that recorded each outcome (its offer admitted it, or
        # its park queued/refused it) — the service log's shard map is
        # not used: it is built after drain and is always empty
        recorded_by = {
            id(o): shard.region
            for shard in service.shards
            for o in shard.outcomes
        }
        stats = service.stats
        problems += check_shards(service.shards)
        problems += check_outcomes(stats, outcomes, recorded_by)
        rows = []
        for o in outcomes:
            pl = o.placement
            region = recorded_by.get(id(o))
            rows.append((
                o.request.module.name, o.status, str(o.reason), o.method,
                None if region is None else region.name,
                None if pl is None else (pl.shape_index, pl.x, pl.y),
                o.admitted_at,
            ))
        cache_stats = cache.stats()
        lookups = cache_stats["hits"] + cache_stats["misses"]
        counters = {
            "runtime.queued_admits": stats.queued_admits,
            "runtime.reservations_booked": stats.reservations_booked,
            "runtime.reservation_admit_ratio": _ratio(
                stats.reservation_admits, stats.reservations_booked
            ),
            "runtime.deadline_rejects": stats.rejected_by_reason.get(
                "deadline_expired", 0
            ),
            "defrag.move_ratio": _ratio(
                stats.defrag_executed_moves, stats.defrag_planned_moves
            ),
            "defrag.aborted_moves": stats.defrag_aborted_moves,
            "masks.cache_hit_ratio": _ratio(cache_stats["hits"], lookups),
            "masks.cache_entries": cache_stats["entries"],
        }
        return PassResult(
            ops_s=ops,
            busy_s=sum(ops),
            digest=_digest(rows),
            failed=sum(1 for o in outcomes if o.errors),
            admitted=sum(1 for o in outcomes if o.admitted),
            submitted=len(outcomes),
            util=sum(occupied) / (len(occupied) * capacity) if occupied else 0.0,
            problems=problems,
            counters=counters,
        )


def check_shards(shards) -> List[str]:
    """Live-floorplan gate: every shard's invariants hold."""
    problems = []
    for shard in shards:
        try:
            shard.check_invariants()
        except ValueError as exc:
            problems.append(f"{shard.region.name} at clock {shard.clock}: {exc}")
    return problems


def check_outcomes(stats, outcomes, recorded_by) -> List[str]:
    """After-drain gate: every request settled, counts add up, and every
    admitted placement is valid on the shard that recorded it."""
    problems = []
    submitted = len(outcomes)
    if stats.admitted + stats.rejected != submitted:
        problems.append(
            f"admitted {stats.admitted} + rejected {stats.rejected} "
            f"!= submitted {submitted}"
        )
    unsettled = [o.status for o in outcomes if o.status not in ("admitted", "rejected")]
    if unsettled:
        problems.append(f"{len(unsettled)} requests unsettled after drain")
    if sum(1 for o in outcomes if o.admitted) != stats.admitted:
        problems.append("admitted outcomes disagree with the service stats")
    for o in outcomes:
        if not o.admitted:
            continue
        region = recorded_by.get(id(o))
        if region is None or o.placement is None:
            problems.append(f"{o.request.module.name}: admitted without a shard or placement")
            continue
        try:
            PlacementResult(region, [o.placement]).verify()
        except ValueError as exc:
            problems.append(f"{o.request.module.name}: {exc}")
    return problems


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# ----------------------------------------------------------------------
# Solving: Table I, with and without design alternatives
# ----------------------------------------------------------------------
class SolveWorkload:
    def __init__(self, params: Dict) -> None:
        self.p = params
        self.region: Optional[PartialRegion] = None
        self.module_sets: List[List[Module]] = []
        self.backend: Optional[CPBackend] = None

    def setup(self, seed: int) -> None:
        """Fabric, module generation, backend construction."""
        p = self.p
        self.region = default_fabric()
        cfg = GeneratorConfig(n_alternatives=p["n_alternatives"])
        # set i of seed s draws from generator seed s * 1000 + i
        self.module_sets = [
            ModuleGenerator(seed=seed * 1000 + i, config=cfg).generate_set(
                p["n_modules"]
            )
            for i in range(p["module_sets"])
        ]
        self.backend = CPBackend(
            PlacerConfig(time_limit=None, node_limit=p["node_limit"])
        )

    def run_pass(
        self,
        check_floorplan: bool,
        measure: Callable[[], ContextManager] = nullcontext,
        after_op: Callable[[], None] = lambda: None,
    ) -> PassResult:
        """Solve every module set without, then with, alternatives.

        The solves with alternatives are the measured operations and must
        place every module.  The primary-shape solves are the paper's
        reference condition: they must verify, but the cold CP dive can
        spend its whole node budget on one without finding a placement
        (4 of 48 sets over seeds 0-11 at 400 nodes), so an unplaced one is
        counted in ``unplaced_primary`` and its set leaves the paired gain.
        """
        n = self.p["n_modules"]
        ops: List[float] = []
        busy = 0.0
        rows = []
        problems: List[str] = []
        failed = placed = unplaced_primary = 0
        util_alt: List[float] = []
        util_primary: List[float] = []
        gains: List[float] = []
        for i, modules in enumerate(self.module_sets):
            primary: Optional[float] = None
            for with_alts in (False, True):
                mods = modules if with_alts else [m.restricted(1) for m in modules]
                request = PlacementRequest(self.region, mods)
                with measure():
                    t0 = perf_counter()
                    result = self.backend.place(request)
                    dt = perf_counter() - t0
                busy += dt
                label = f"set {i} {'with' if with_alts else 'without'} alternatives"
                valid = True
                try:
                    result.verify()
                except ValueError as exc:
                    problems.append(f"{label}: {exc}")
                    valid = False
                complete = len(result.placements) == n and result.all_placed
                util = extent_utilization(result)
                if with_alts:
                    ops.append(dt)
                    after_op()
                    placed += len(result.placements)
                    if not complete:
                        problems.append(
                            f"{label}: placed {len(result.placements)} of {n}"
                        )
                    failed += not (valid and complete)
                    util_alt.append(util)
                    if primary is not None:
                        gains.append(util - primary)
                elif complete:
                    primary = util
                    util_primary.append(util)
                else:
                    unplaced_primary += 1
                rows.append((
                    i, with_alts, result.extent,
                    sorted((p.module.name, p.shape_index, p.x, p.y)
                           for p in result.placements),
                ))
        return PassResult(
            ops_s=ops,
            busy_s=busy,
            digest=_digest(rows),
            failed=failed,
            admitted=placed,
            submitted=n * len(self.module_sets),
            util=sum(util_alt) / len(util_alt),
            problems=problems,
            counters={
                "util_noalt_pct": 100.0 * _mean(util_primary),
                "util_gain_pts": 100.0 * _mean(gains),
                "unplaced_primary": unplaced_primary,
            },
        )


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else float("nan")


def make_workload(kind: str, params: Dict):
    return {"serve": ServeWorkload, "solve": SolveWorkload}[kind](params)
