"""Backend adapters for every placement engine in the repo.

Each adapter maps the uniform :class:`~repro.core.backend.protocol.PlacementRequest`
knobs onto one engine's native config and delegates; request overrides
always win over the backend's construction-time config, and ``None``
request fields leave the engine's defaults untouched.  The module tail
names the fleet in :data:`BACKENDS`:

=============  ===========================================================
``cp``         exact CP kernel (B&B extent minimization)
``lns``        large-neighborhood search over the CP kernel
``portfolio``  best-of-N parallel LNS (process pool)
``greedy``     alias of ``bottom-left``
``bottom-left``/``first-fit``/``best-fit``  greedy offline heuristics
``kamer``      Bazargan-style maximal-empty-rectangle placement
``annealing``  simulated annealing over (order, alternative) encodings
               (deterministic per seed: the adapter derives an evaluation
               cap from the request budget instead of racing the clock)
``analytical`` force-directed relaxation + nearest-anchor legalization,
               also the ``warm_start`` seeder of ``cp`` and ``lns``
``1d-slots``   historical fixed-slot model
``temporal-cp``  joint place-and-schedule over a bounded horizon
                 (honors ``horizon`` / ``durations`` / ``precedences``;
                 spatial requests degrade to a one-tick horizon)
=============  ===========================================================
"""

from __future__ import annotations

from dataclasses import replace as dc_replace
from typing import Callable, Dict, Optional

from repro.core.backend.protocol import PlacementBackend
from repro.core.lns import LNSConfig, LNSPlacer
from repro.core.placer import CPPlacer, PlacerConfig
from repro.core.portfolio import PortfolioConfig, PortfolioPlacer
from repro.core.result import PlacementResult
from repro.obs.profile import SolveProfile
from repro.obs.trace import Tracer
from repro.placer import (
    AnalyticalConfig,
    AnalyticalPlacer,
    AnnealingConfig,
    AnnealingPlacer,
    BasePlacer,
    BestFitPlacer,
    BottomLeftPlacer,
    FirstFitPlacer,
    KamerPlacer,
    SlotPlacer,
)


class CPBackend(PlacementBackend):
    """The exact CP kernel behind the uniform surface."""

    name = "cp"
    session_self_recording = True  # CPPlacer feeds the session itself

    def __init__(self, config: Optional[PlacerConfig] = None) -> None:
        self.config = config or PlacerConfig()

    def _solve(self, request, tracer, profiling):
        cfg = self.config
        updates = {}
        if request.time_limit is not None:
            updates["time_limit"] = request.time_limit
        if request.node_limit is not None:
            updates["node_limit"] = request.node_limit
        if request.seed is not None:
            updates["seed"] = request.seed
        if request.first_solution_only:
            updates["first_solution_only"] = True
        if request.profile:
            updates["profile"] = True
        if tracer is not None:
            updates["tracer"] = tracer
        if request.warm_start is not None:
            updates["warm_start"] = request.warm_start
        if updates:
            cfg = dc_replace(cfg, **updates)
        return CPPlacer(cfg).place(request.region, list(request.modules))


class LNSBackend(PlacementBackend):
    """LNS improvement loop over the CP kernel."""

    name = "lns"
    session_self_recording = True  # its CP subsolves feed the session

    def __init__(self, config: Optional[LNSConfig] = None) -> None:
        self.config = config or LNSConfig()

    def _solve(self, request, tracer, profiling):
        cfg = self.config
        updates = {}
        if request.time_limit is not None:
            updates["time_limit"] = request.time_limit
        if request.seed is not None:
            updates["seed"] = request.seed
        if request.profile:
            updates["profile"] = True
        if tracer is not None:
            updates["tracer"] = tracer
        if request.warm_start is not None:
            updates["warm_start"] = request.warm_start
        if updates:
            cfg = dc_replace(cfg, **updates)
        return LNSPlacer(cfg).place(request.region, list(request.modules))


class PortfolioBackend(PlacementBackend):
    """Best-of-N parallel LNS (per-request process pool)."""

    name = "portfolio"
    session_self_recording = False  # workers can't reach this session

    def __init__(self, config: Optional[PortfolioConfig] = None) -> None:
        self.config = config or PortfolioConfig()

    def _solve(self, request, tracer, profiling):
        cfg = self.config
        updates = {}
        if request.time_limit is not None:
            updates["time_limit"] = request.time_limit
        if request.seed is not None:
            updates["base_seed"] = request.seed
        if profiling:
            # the merged member profile is what place() records
            updates["profile"] = True
        if tracer is not None:
            updates["tracer"] = tracer
        if updates:
            cfg = dc_replace(cfg, **updates)
        return PortfolioPlacer(cfg).place(request.region, list(request.modules))


class TemporalCPBackend(PlacementBackend):
    """Joint place-and-schedule: ``(anchor, start_time)`` per module.

    Wraps :class:`~repro.core.temporal.TemporalCPPlacer` (the production
    anchor-mask kernel with a time axis).  ``request.horizon`` /
    ``durations`` / ``precedences`` select the scheduling window; a
    request without them is served as the degenerate one-tick schedule —
    plain spatial packing through the same temporal code path — so the
    backend composes with every spatial caller, including the
    cross-backend differential suite.

    The schedule rides in ``stats["schedule"]`` as ``(module, shape,
    x, y, start, duration)`` rows next to ``stats["makespan"]`` and
    ``stats["horizon"]``.  Status never claims ``"optimal"``: what the
    branch-and-bound proves optimal is the *makespan*, not the spatial
    extent the rest of the fleet optimizes; makespan optimality is
    reported honestly in ``stats["makespan_optimal"]``.

    Note that with ``horizon > 1`` two placements may legitimately share
    fabric cells — they run at different ticks.  Such results satisfy
    :meth:`~repro.core.temporal.TemporalResult.verify` (time-aware), not
    the purely spatial ``PlacementResult.verify``; only degenerate
    one-tick results are spatially disjoint.
    """

    name = "temporal-cp"
    session_self_recording = False

    #: horizon used when the request carries none (spatial degenerate mode)
    DEFAULT_HORIZON = 1

    def __init__(self, config: Optional[int] = None) -> None:
        #: optional construction-time default horizon (an int, kept as
        #: simple as the factories' config pass-through allows)
        if config is not None and config <= 0:
            raise ValueError("horizon must be positive")
        self.default_horizon = (
            config if config is not None else self.DEFAULT_HORIZON
        )

    def _solve(self, request, tracer, profiling):
        from repro.core.result import Placement
        from repro.core.temporal import TemporalCPPlacer, TemporalTask

        modules = list(request.modules)
        horizon = (
            request.horizon
            if request.horizon is not None
            else self.default_horizon
        )
        durations = (
            list(request.durations)
            if request.durations is not None
            else [1] * len(modules)
        )
        if len(durations) != len(modules):
            raise ValueError("durations must align with modules")
        placer = TemporalCPPlacer(horizon=horizon)
        if request.seed is not None:
            placer.seed = request.seed
        if request.time_limit is not None:
            placer.time_limit = request.time_limit
        tasks = [
            TemporalTask(module, d) for module, d in zip(modules, durations)
        ]
        tres = placer.place(request.region, tasks, list(request.precedences))
        placements = [
            Placement(s.task.module, s.shape_index, s.x, s.y)
            for s in tres.schedule
        ]
        status = "feasible" if tres.status == "optimal" else tres.status
        return PlacementResult(
            request.region,
            placements,
            unplaced=[] if tres.schedule else modules,
            status=status,
            elapsed=tres.elapsed,
            stats={
                "method": self.name,
                "horizon": horizon,
                "makespan": tres.makespan,
                "makespan_optimal": tres.status == "optimal",
                "schedule": [
                    (
                        s.task.module.name,
                        s.shape_index,
                        s.x,
                        s.y,
                        s.start,
                        s.task.duration,
                    )
                    for s in tres.schedule
                ],
            },
        )


class BaselineBackend(PlacementBackend):
    """Adapter running one :class:`BasePlacer` heuristic per request.

    A fresh placer is built per call (they are stateful across ``_run``),
    and the request's seed / budget land on the uniform ``BasePlacer``
    knobs — no per-placer plumbing.
    """

    session_self_recording = False

    def __init__(
        self,
        factory: Callable[[], BasePlacer],
        name: str,
    ) -> None:
        self._factory = factory
        self.name = name

    def _solve(self, request, tracer, profiling):
        placer = self._factory()
        if request.seed is not None:
            placer.seed = request.seed
        if request.time_limit is not None:
            placer.time_limit = request.time_limit
        return placer.place(request.region, list(request.modules))


class AnalyticalBackend(PlacementBackend):
    """Force-directed relaxation + nearest-anchor legalization.

    Wraps :class:`~repro.placer.analytical.AnalyticalPlacer`.  The request
    seed / budget / tracer land on :class:`AnalyticalConfig`, and
    the relaxation/legalization counters are surfaced as the
    ``analytical_*`` profile counters so profiling sessions can attribute
    warm-start cost.  Not anytime: the relaxation must finish (or hit its
    budget) before legalization produces any placement at all.
    """

    name = "analytical"
    session_self_recording = False

    def __init__(self, config: Optional[AnalyticalConfig] = None) -> None:
        self.config = config or AnalyticalConfig()

    def _solve(self, request, tracer, profiling):
        cfg = self.config
        updates = {}
        if request.seed is not None:
            updates["seed"] = request.seed
        if request.time_limit is not None:
            updates["time_limit"] = request.time_limit
        if tracer is not None:
            updates["tracer"] = tracer
        if updates:
            cfg = dc_replace(cfg, **updates)
        result = AnalyticalPlacer(cfg).place(
            request.region, list(request.modules)
        )
        if profiling:
            profile = SolveProfile(
                elapsed=result.elapsed,
                stop_reason=result.status,
                meta={
                    "backend": self.name,
                    "placed": len(result.placements),
                    "unplaced": len(result.unplaced),
                },
            )
            profile.analytical_iterations = int(
                result.stats.get("iterations", 0)
            )
            profile.analytical_snapped = int(result.stats.get("snapped", 0))
            result.stats["profile"] = profile
        return result


class AnnealingBackend(PlacementBackend):
    """Simulated annealing with a budget-derived deterministic eval cap.

    With ``max_evaluations=None`` the raw placer stops on the wall clock,
    so the same seed explores a machine-load-dependent number of states —
    results differ between a loaded CI box and a fast laptop.  This
    adapter derives a deterministic cap from the effective time budget
    (``EVALS_PER_MODULE_SECOND`` calibrated so the cap lands near what the
    clock would have allowed; decode cost scales with the module count),
    keeping the wall clock only as a safety net.  Same request + same
    seed is therefore bit-identical anywhere.
    """

    name = "annealing"
    session_self_recording = False

    #: decode throughput assumed when converting seconds to evaluations
    EVALS_PER_MODULE_SECOND = 2500

    def __init__(self, config: Optional[AnnealingConfig] = None) -> None:
        self.config = config or AnnealingConfig()

    def _solve(self, request, tracer, profiling):
        cfg = self.config
        updates = {}
        if request.seed is not None:
            updates["seed"] = request.seed
        if request.time_limit is not None:
            updates["time_limit"] = request.time_limit
        budget = (
            request.time_limit
            if request.time_limit is not None
            else cfg.time_limit
        )
        if cfg.max_evaluations is None and budget is not None:
            n = max(1, len(request.modules))
            updates["max_evaluations"] = max(
                1, int(budget * self.EVALS_PER_MODULE_SECOND / n)
            )
        if updates:
            cfg = dc_replace(cfg, **updates)
        return AnnealingPlacer(cfg).place(
            request.region, list(request.modules)
        )


# ----------------------------------------------------------------------
# The fleet, by name
# ----------------------------------------------------------------------
#: factory signature: ``factory(config=None) -> PlacementBackend``
BackendFactory = Callable[..., PlacementBackend]


def _baseline_factory(placer_cls, name: str) -> BackendFactory:
    def factory(config=None) -> BaselineBackend:
        make = (lambda: placer_cls(config)) if config is not None else placer_cls
        return BaselineBackend(make, name)

    return factory


#: every placement backend by name; orchestration layers (the portfolio
#: member list, the runner's ``--backend`` flag, warm-start seeders)
#: address engines by these names only
BACKENDS: Dict[str, BackendFactory] = {
    "cp": CPBackend,
    "lns": LNSBackend,
    "portfolio": PortfolioBackend,
    "temporal-cp": TemporalCPBackend,
    "analytical": AnalyticalBackend,
    "annealing": AnnealingBackend,
}
for _name, _cls in (
    # "greedy" is the historical name of the bottom-left placer; both
    # names resolve to it
    ("greedy", BottomLeftPlacer),
    ("bottom-left", BottomLeftPlacer),
    ("first-fit", FirstFitPlacer),
    ("best-fit", BestFitPlacer),
    ("kamer", KamerPlacer),
    ("1d-slots", SlotPlacer),
):
    BACKENDS[_name] = _baseline_factory(_cls, _name)


def create_backend(name: str, config=None) -> PlacementBackend:
    """Instantiate the backend ``name`` of :data:`BACKENDS`.

    ``config`` is handed to the factory verbatim (an engine-specific
    config object such as ``PlacerConfig`` / ``LNSConfig`` /
    ``PortfolioConfig`` / ``AnnealingConfig``); ``None`` means the
    backend's defaults.
    """
    try:
        factory = BACKENDS[name]
    except KeyError:
        raise KeyError(
            f"unknown placement backend {name!r}; backends: "
            f"{', '.join(sorted(BACKENDS))}"
        ) from None
    return factory(config)
