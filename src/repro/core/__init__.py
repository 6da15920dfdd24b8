"""The paper's primary contribution: CP placement with design alternatives.

Builds the constraint model of Section III (sets M_a, M_b, M_c and the
disjoint union over modules), solves it as a minimization problem
(Eq. 6: minimal x extent = maximal average resource utilization) with
branch-and-bound, and reports placements.

Entry point: :class:`repro.core.placer.CPPlacer` (or the convenience
function :func:`repro.core.placer.place`).
"""

from repro.core.result import Placement, PlacementResult
from repro.core.placement_model import PlacementModel
from repro.core.objective import ObjectiveKind
from repro.core.placer import CPPlacer, PlacerConfig, place
from repro.core.alternatives import expand_alternatives, legal_rigid_transforms
from repro.core.lns import LNSConfig, LNSPlacer
from repro.core.relocation import (
    RelocationSite,
    relocatability_report,
    relocation_sites,
)
from repro.core.defrag import (
    DEFRAGMENTERS,
    DefragPlan,
    Defragmenter,
    GreedyCompactionDefragmenter,
    NoBreakDefragmenter,
    PlannedMove,
    defragment,
    plan_states,
)
from repro.core.comm import CommAwarePlacer, CommConfig, CommResult
from repro.core.portfolio import PortfolioConfig, PortfolioPlacer
from repro.core.region_alloc import (
    AllocationResult,
    allocate_regions,
    minimal_region_width,
)
from repro.core.temporal import (
    ScheduledTask,
    TemporalCPPlacer,
    TemporalResult,
    TemporalTask,
    render_timeline,
)
from repro.core.runtime import (
    RejectReason,
    RequestOutcome,
    Reservation,
    RuntimeConfig,
    RuntimeLog,
    RuntimePlacementManager,
    RuntimeRequest,
    RuntimeStats,
    generate_workload,
)
from repro.core.service import (
    ROUTERS,
    AffinityRouter,
    LeastFragmentedRouter,
    LeastLoadedRouter,
    RoundRobinRouter,
    Router,
    ServiceConfig,
    ServiceLog,
    ShardedPlacementService,
)
from repro.core.report import placement_report, render_placement

__all__ = [
    "Placement",
    "PlacementResult",
    "PlacementModel",
    "ObjectiveKind",
    "CPPlacer",
    "PlacerConfig",
    "place",
    "expand_alternatives",
    "legal_rigid_transforms",
    "LNSPlacer",
    "LNSConfig",
    "RelocationSite",
    "relocation_sites",
    "relocatability_report",
    "DEFRAGMENTERS",
    "DefragPlan",
    "Defragmenter",
    "GreedyCompactionDefragmenter",
    "NoBreakDefragmenter",
    "PlannedMove",
    "defragment",
    "plan_states",
    "CommAwarePlacer",
    "CommConfig",
    "CommResult",
    "PortfolioPlacer",
    "PortfolioConfig",
    "AllocationResult",
    "allocate_regions",
    "minimal_region_width",
    "TemporalCPPlacer",
    "TemporalResult",
    "TemporalTask",
    "ScheduledTask",
    "render_timeline",
    "placement_report",
    "render_placement",
    "RuntimePlacementManager",
    "RuntimeConfig",
    "RuntimeRequest",
    "RequestOutcome",
    "RejectReason",
    "Reservation",
    "RuntimeLog",
    "RuntimeStats",
    "generate_workload",
    "ShardedPlacementService",
    "ServiceConfig",
    "ServiceLog",
    "Router",
    "RoundRobinRouter",
    "LeastLoadedRouter",
    "LeastFragmentedRouter",
    "AffinityRouter",
    "ROUTERS",
]
