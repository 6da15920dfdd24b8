"""Sharded multi-device placement service.

The paper evaluates design alternatives on one device; its admission
story only becomes interesting at *service* scale — a fleet of
reconfigurable fabrics fed from one arrival stream.
:class:`ShardedPlacementService` owns N fabric shards (each a
:class:`~repro.core.runtime.RuntimePlacementManager` over its own
:class:`~repro.fabric.region.PartialRegion`) and adds the two things a
single manager cannot express:

* **Routing** — a policy named in :data:`ROUTERS` ranks the shards per
  arrival (round-robin, least-loaded, least-fragmented, module-name
  affinity).  Routers return a *preference order*, not a single pick,
  which is what makes spill (below) a policy property rather than a
  hard-coded loop.  The least-fragmented policy keeps admission coupled
  to per-shard fragmentation — the router observes exactly the metric
  the defragmentation literature says admission quality depends on.
* **Spill** — a request declined by its routed shard is *offered* to the
  next-best shards before it counts against anyone: only the shard that
  finally admits records the arrival, and only the primary shard queues
  or rejects it after every candidate declined
  (:meth:`RuntimePlacementManager.offer` /
  :meth:`~repro.core.runtime.RuntimePlacementManager.park`).

Every admission runs in-process, down the owning shard's own chain of
pick rules on its free-space ledger, so queueing, deadlines and defrag
semantics stay in the one manager code path.

With **one** shard the service delegates :meth:`submit` straight to the
shard's own :meth:`~repro.core.runtime.RuntimePlacementManager.submit`,
so single-shard mode is bit-identical to a bare manager — pinned by the
determinism tests.

Observability: routing decisions emit ``service.route``, spills
``service.spill``, drains ``service.drain``; per-shard stats merge via
``RuntimeStats.__add__`` and per-shard profiles (labelled with their
shard name) via ``SolveProfile.__add__``.  Shards peak at different
ticks, so the merged ``peak_occupied_cells`` is the service's own
sample of the fleet's total occupancy after every submit.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core.result import Placement
from repro.core.runtime import (
    RequestOutcome,
    RuntimeConfig,
    RuntimePlacementManager,
    RuntimeRequest,
    RuntimeStats,
    runtime_profile,
)
from repro.fabric.grid import FabricGrid
from repro.fabric.region import PartialRegion
from repro.obs.profile import SolveProfile
from repro.obs.trace import (
    SERVICE_DRAIN,
    SERVICE_ROUTE,
    SERVICE_SPILL,
    Tracer,
)


# ----------------------------------------------------------------------
# Routers: preference order over shards, named in ROUTERS
# ----------------------------------------------------------------------
class Router:
    """Ranks shards for one arrival; index 0 is the primary shard.

    Routers see the live managers (read-only) so load- and
    fragmentation-aware policies can observe current state.  They must
    be deterministic functions of (request, shard states, own internal
    counters) — the service's determinism tests replay traces and expect
    identical routes.
    """

    name = "router"

    def order(
        self,
        request: RuntimeRequest,
        shards: Sequence[RuntimePlacementManager],
    ) -> List[int]:
        raise NotImplementedError


class RoundRobinRouter(Router):
    """Cycle the primary shard; spill order continues the rotation."""

    name = "round-robin"

    def __init__(self) -> None:
        self._next = 0

    def order(self, request, shards) -> List[int]:
        n = len(shards)
        first = self._next % n
        self._next = (self._next + 1) % n
        return [(first + k) % n for k in range(n)]


class LeastLoadedRouter(Router):
    """Prefer the shard with the lowest occupied fraction.

    Load is occupied cells over available area — no geometry scan.
    Outstanding reservations count at their planned footprint: booked
    cells are promised capacity the shard cannot offer a new arrival,
    exactly like placed cells.  Ties break on shard index.
    """

    name = "least-loaded"

    @staticmethod
    def _load(shard: RuntimePlacementManager) -> float:
        area = shard.region.available_area()
        if area == 0:
            return 1.0
        occupied = shard.occupied_cells + sum(
            r.placement.footprint.area for r in shard.reservations
        )
        return occupied / area

    def order(self, request, shards) -> List[int]:
        return sorted(
            range(len(shards)), key=lambda i: (self._load(shards[i]), i)
        )


class LeastFragmentedRouter(Router):
    """Prefer the shard whose free space is least shattered.

    Runs the external-fragmentation metric per shard per arrival — a
    pure-Python maximal-rectangles pass, the expensive policy.  Use it
    when admission quality matters more than routing throughput.  Ranks
    by :meth:`RuntimePlacementManager.planning_fragmentation`, so booked
    reservation cells shatter a shard's free space exactly like placed
    cells do.
    """

    name = "least-fragmented"

    def order(self, request, shards) -> List[int]:
        return sorted(
            range(len(shards)),
            key=lambda i: (shards[i].planning_fragmentation(), i),
        )


class AffinityRouter(Router):
    """Pin each module name to a shard via a stable content hash.

    Uses CRC-32 of the module name — *not* Python's randomized
    ``hash()`` — so the same trace routes identically across runs and
    interpreter restarts.  Spill order continues round the ring.
    """

    name = "affinity"

    def order(self, request, shards) -> List[int]:
        n = len(shards)
        first = zlib.crc32(request.module.name.encode("utf-8")) % n
        return [(first + k) % n for k in range(n)]


#: every routing policy by name (``ServiceConfig.router``)
ROUTERS: Dict[str, Callable[[], Router]] = {
    cls.name: cls
    for cls in (
        RoundRobinRouter,
        LeastLoadedRouter,
        LeastFragmentedRouter,
        AffinityRouter,
    )
}


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------
@dataclass
class ServiceConfig:
    """Knobs of the sharded placement service."""

    #: :data:`ROUTERS` name picking the shard preference order
    router: str = "round-robin"
    #: template for every shard's manager; each shard gets its own copy
    runtime: RuntimeConfig = field(default_factory=RuntimeConfig)
    #: may a declined request spill to the next-best shards?
    spill: bool = True
    #: event sink for ``service.*`` events (shards inherit
    #: ``runtime.tracer`` for their ``runtime.*`` events)
    tracer: Optional[Tracer] = None

    def validate(self) -> None:
        if self.router not in ROUTERS:
            raise ValueError(
                f"unknown router {self.router!r}; routers: "
                f"{', '.join(sorted(ROUTERS))}"
            )
        self.runtime.validate()


@dataclass
class ServiceLog:
    """Everything :meth:`ShardedPlacementService.run` observed."""

    #: outcomes in submission order (the admitting/owning shard's record)
    outcomes: List[RequestOutcome]
    #: merged service-level stats (see :meth:`ShardedPlacementService.stats`)
    stats: RuntimeStats
    #: per-shard stats keyed by shard name
    per_shard: Dict[str, RuntimeStats]
    #: admitted module name -> shard name that held it
    shard_of: Dict[str, str] = field(default_factory=dict)

    @property
    def admitted(self) -> int:
        return self.stats.admitted

    @property
    def rejected(self) -> int:
        return self.stats.rejected


# ----------------------------------------------------------------------
# The service
# ----------------------------------------------------------------------
class ShardedPlacementService:
    """Serves one arrival stream against a fleet of fabric shards."""

    def __init__(
        self,
        regions: Sequence[PartialRegion],
        config: Optional[ServiceConfig] = None,
    ) -> None:
        if not regions:
            raise ValueError("need at least one shard region")
        self.config = config or ServiceConfig()
        self.config.validate()
        cfg = self.config
        self._router = ROUTERS[cfg.router]()
        self.shards: List[RuntimePlacementManager] = [
            RuntimePlacementManager(region, replace(cfg.runtime))
            for region in regions
        ]
        tracer = cfg.tracer
        self._tracer = (
            tracer if tracer is not None and tracer.enabled else None
        )
        #: largest total occupancy sampled across shards (after submits)
        self._peak_occupied = 0

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def replicated(
        cls,
        region: PartialRegion,
        n: int,
        config: Optional[ServiceConfig] = None,
    ) -> "ShardedPlacementService":
        """N structurally identical shards of one region (a device fleet)."""
        if n < 1:
            raise ValueError("need at least one shard")
        shards = [
            PartialRegion(
                region.grid,
                region.reconfigurable.copy(),
                name=f"{region.name}-s{k}",
            )
            for k in range(n)
        ]
        return cls(shards, config)

    @staticmethod
    def split(region: PartialRegion, n: int) -> List[PartialRegion]:
        """Column-split one fabric into ``n`` near-equal vertical slabs.

        Models one physical device partitioned into independently
        reconfigurable shards (smaller regions also make every anchor
        sweep proportionally cheaper).  Cut columns are not bridged:
        a module must fit entirely inside one slab.
        """
        if n < 1:
            raise ValueError("need at least one shard")
        if n > region.width:
            raise ValueError(
                f"cannot split width {region.width} into {n} shards"
            )
        out: List[PartialRegion] = []
        for k, cols in enumerate(np.array_split(np.arange(region.width), n)):
            a, b = int(cols[0]), int(cols[-1]) + 1
            out.append(
                PartialRegion(
                    FabricGrid(region.grid.cells[:, a:b].copy()),
                    region.reconfigurable[:, a:b].copy(),
                    name=f"{region.name}-cols{a}-{b}",
                )
            )
        return out

    # ------------------------------------------------------------------
    # State views
    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return len(self.shards)

    @property
    def clock(self) -> int:
        return max(s.clock for s in self.shards)

    @property
    def stats(self) -> RuntimeStats:
        """The per-shard stats merged into one record; the peak is the
        larger of the sampled fleet total and the largest shard peak (a
        shard can peak between two submits)."""
        merged = RuntimeStats()
        for shard in self.shards:
            merged = merged + shard.stats
        merged.peak_occupied_cells = max(
            merged.peak_occupied_cells, self._peak_occupied
        )
        return merged

    def shard_stats(self) -> Dict[str, RuntimeStats]:
        return {s.region.name: s.stats for s in self.shards}

    def shard_of(self, name: str) -> Optional[str]:
        """The shard currently holding module ``name`` (None if absent)."""
        for shard in self.shards:
            if any(p.module.name == name for p in shard.placements):
                return shard.region.name
        return None

    def profiles(self) -> List[SolveProfile]:
        """Per-shard profiles, each labelled with its shard name."""
        return [s.profile(shard=s.region.name) for s in self.shards]

    def profile(self) -> SolveProfile:
        """The merged service-level record over all shards.

        Built from the merged :class:`RuntimeStats` (profile ``meta``
        entries do not sum under ``SolveProfile.__add__``).
        """
        return runtime_profile(
            self.stats,
            "service",
            shards=self.n_shards,
            router=self.config.router,
            defragmenter=self.config.runtime.defragmenter,
        )

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def submit(self, request: RuntimeRequest) -> RequestOutcome:
        """Route one arrival; spill across shards before rejecting.

        Single-shard services delegate to the shard's own ``submit`` —
        bit-identical to a bare manager by construction.  Afterwards
        every shard sits at the arrival tick, so the summed occupancy is
        a true simultaneous sample.
        """
        outcome = self._route(request)
        self._peak_occupied = max(
            self._peak_occupied,
            sum(shard.occupied_cells for shard in self.shards),
        )
        return outcome

    def _route(self, request: RuntimeRequest) -> RequestOutcome:
        if self.n_shards == 1:
            return self.shards[0].submit(request)
        # every shard observes the clock advance (departures are played
        # out) *before* routing, so load/fragmentation policies rank
        # current state, not stale snapshots
        for shard in self.shards:
            shard.advance_to(request.arrival)
        order = self._router.order(request, self.shards)
        candidates = order if self.config.spill else order[:1]
        # one outcome per request: every declined probe adds its latency
        # and errors to it, and the shard that records it inherits them
        outcome = RequestOutcome(request)
        prev = None
        for rank, index in enumerate(candidates):
            shard = self.shards[index]
            if prev is not None:
                self._emit(
                    SERVICE_SPILL,
                    module=request.module.name,
                    from_shard=prev,
                    to_shard=shard.region.name,
                )
            if shard.offer(request, outcome) is not None:
                self._emit(
                    SERVICE_ROUTE,
                    module=request.module.name,
                    shard=shard.region.name,
                    policy=self.config.router,
                    rank=rank,
                )
                return outcome
            prev = shard.region.name
        # nobody admitted: the request belongs to its primary shard,
        # which queues or rejects it under the backpressure rules
        primary = self.shards[order[0]]
        self._emit(
            SERVICE_ROUTE,
            module=request.module.name,
            shard=primary.region.name,
            policy=self.config.router,
            rank=0,
        )
        return primary.park(request, outcome)

    def depart(self, name: str) -> Optional[Placement]:
        """Explicitly remove a module from whichever shard holds it."""
        for shard in self.shards:
            placement = shard.depart(name)
            if placement is not None:
                return placement
        return None

    def advance_to(self, t: int) -> None:
        for shard in self.shards:
            shard.advance_to(t)

    def drain(self) -> None:
        """Drain every shard, then settle all clocks to the service max."""
        for shard in self.shards:
            shard.drain()
        settle = self.clock
        for shard in self.shards:
            shard.advance_to(settle)
        self._emit(SERVICE_DRAIN, shards=self.n_shards, clock=settle)

    def run(self, trace: Sequence[RuntimeRequest]) -> ServiceLog:
        """Consume a whole trace, then drain; returns the service log."""
        outcomes: List[RequestOutcome] = []
        for request in sorted(trace, key=lambda r: r.arrival):
            outcomes.append(self.submit(request))
        self.drain()
        return ServiceLog(
            outcomes=outcomes,
            stats=self.stats,
            per_shard=self.shard_stats(),
            shard_of={
                o.request.module.name: o.shard for o in outcomes if o.admitted
            },
        )

    def close(self) -> None:
        """Release the service.  A no-op: every admission runs
        in-process, so the service holds no pool, thread or file; callers
        that close a service after a replay keep working."""

    def _emit(self, kind: str, **data) -> None:
        if self._tracer is not None:
            self._tracer.emit(kind, **data)
