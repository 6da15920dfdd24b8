"""The uniform placement-backend surface.

Every placement engine in the repo — the CP kernel, LNS, the parallel
portfolio and all the related-work baselines — is reachable through one
request/response protocol:

* :class:`PlacementRequest` carries the instance (region + modules) and
  the uniform knobs every engine understands a subset of: seed, wall-clock
  / node budget, first-solution mode and a
  :class:`~repro.obs.trace.Tracer`.
* :class:`PlacementBackend.place` normalizes the tracer, emits the
  ``backend.start`` / ``backend.result`` event pair, guarantees a
  per-backend :class:`~repro.obs.profile.SolveProfile` section whenever
  profiling is requested (explicitly or by an active
  :func:`~repro.obs.context.profiling_session`), and stamps
  ``stats["backend"]``.  Concrete adapters only implement ``_solve``.
* :class:`BackendCapabilities` declares what a backend can honestly do, so
  orchestration layers (the runtime admission chain, the experiment
  runner) can validate a configuration instead of failing at serve time.
* :func:`sweep_chain` is the one pass down an admission chain that the
  runtime manager and the remote worker solve share: the first placement
  wins, and a rung's proof of no fit ends the pass.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple

from repro.core.result import PlacementResult
from repro.fabric.region import PartialRegion
from repro.modules.module import Module
from repro.obs import context as obs_context
from repro.obs.profile import SolveProfile
from repro.obs.trace import BACKEND_RESULT, BACKEND_START, Tracer


@dataclass(frozen=True)
class BackendCapabilities:
    """What a backend can honestly claim to do."""

    #: considers every design alternative of a module (False = primary
    #: shape only, or the engine ignores the alternative set)
    supports_alternatives: bool = True
    #: optimizes the extent objective (Eq. 6) rather than just finding a
    #: feasible packing
    supports_objective: bool = False
    #: can be interrupted and still return its best incumbent
    anytime: bool = False
    #: placements remain individually valid when neighbours move or leave,
    #: so the backend can serve incremental residual-region requests (the
    #: runtime admission chain requires this)
    relocatable: bool = True
    #: places *and* schedules: honors ``PlacementRequest.horizon`` /
    #: ``durations`` and returns per-module start ticks (the schedule in
    #: ``stats["schedule"]``) instead of place-now-or-fail
    schedules: bool = False


@dataclass
class PlacementRequest:
    """One uniform placement request (any backend)."""

    region: PartialRegion
    modules: Sequence[Module]
    #: RNG seed override (None = keep the backend's configured seed)
    seed: Optional[int] = None
    #: wall-clock budget override in seconds (None = backend default)
    time_limit: Optional[float] = None
    #: search-node budget override (backends without node budgets ignore it)
    node_limit: Optional[int] = None
    #: stop at the first feasible solution (objective backends only)
    first_solution_only: bool = False
    #: force profile collection even without an active profiling session
    profile: bool = False
    #: event sink for ``backend.*`` (and engine-level) trace events
    tracer: Optional[Tracer] = None
    #: scheduling horizon in ticks for backends with ``schedules=True``
    #: (None = degenerate single-tick horizon: a purely spatial request)
    horizon: Optional[int] = None
    #: per-module execution durations, aligned with ``modules`` (None =
    #: every module runs for one tick); requires ``horizon``
    durations: Optional[Sequence[int]] = None
    #: precedence edges ``(a, b)`` — module a must finish before module b
    #: starts; only honored by scheduling backends
    precedences: Sequence = ()
    #: name of a registered backend whose legalized placement seeds the
    #: solve (honored by the optimizing backends: CP clamps its objective
    #: below the seed, LNS adopts it as the bootstrap incumbent)
    warm_start: Optional[str] = None


class PlacementBackend:
    """Base class of every registered placement backend.

    ``place`` is the only public entry point; subclasses implement
    ``_solve(request, tracer, profiling)`` and declare ``name`` /
    ``capabilities``.  ``session_self_recording`` marks engines whose
    internals already feed the active profiling session (the CP kernel
    records each solve itself) so the shared scaffolding does not record
    their profile twice.
    """

    name: str = "backend"
    capabilities: BackendCapabilities = BackendCapabilities()
    #: True when the wrapped engine records its own SolveProfile into the
    #: process profiling session (CP and LNS-over-CP do)
    session_self_recording: bool = False

    # ------------------------------------------------------------------
    def place(self, request: PlacementRequest) -> PlacementResult:
        tracer = request.tracer
        if tracer is not None and not tracer.enabled:
            tracer = None
        if tracer is not None:
            tracer.emit(
                BACKEND_START, backend=self.name, modules=len(request.modules)
            )
        session = obs_context.current()
        profiling = request.profile or session is not None
        start = time.monotonic()
        try:
            result = self._solve(request, tracer, profiling)
        except Exception as exc:
            if tracer is not None:
                tracer.emit(
                    BACKEND_RESULT,
                    backend=self.name,
                    status="error",
                    placed=0,
                    elapsed=time.monotonic() - start,
                    error=f"{type(exc).__name__}: {exc}",
                )
            raise
        result.stats.setdefault("backend", self.name)
        if profiling:
            self._ensure_profile(result, session)
        if tracer is not None:
            tracer.emit(
                BACKEND_RESULT,
                backend=self.name,
                status=result.status,
                placed=len(result.placements),
                elapsed=result.elapsed,
            )
        return result

    def _ensure_profile(self, result: PlacementResult, session) -> None:
        """Guarantee a per-backend profile section and feed the session."""
        profile = result.stats.get("profile")
        if profile is None:
            profile = SolveProfile(
                elapsed=result.elapsed,
                stop_reason=result.status,
                meta={
                    "backend": self.name,
                    "placed": len(result.placements),
                    "unplaced": len(result.unplaced),
                },
            )
            result.stats["profile"] = profile
        elif isinstance(profile, SolveProfile):
            profile.meta.setdefault("backend", self.name)
        if session is not None and not self.session_self_recording:
            session.record(
                profile
                if isinstance(profile, SolveProfile)
                else SolveProfile.from_dict(profile)
            )

    # ------------------------------------------------------------------
    def _solve(
        self,
        request: PlacementRequest,
        tracer: Optional[Tracer],
        profiling: bool,
    ) -> PlacementResult:
        raise NotImplementedError


def sweep_chain(
    chain: Sequence[str],
    backend_of: Callable[[str], PlacementBackend],
    request: PlacementRequest,
    on_error: Callable[[str, Exception], None],
) -> Tuple[Optional[PlacementResult], str]:
    """One pass of ``request`` down an admission chain of backend names.

    Returns the result and name of the rung that ended the pass: the
    first one that placed, or the first one whose status is
    ``"infeasible"``.  That status is a proof that nothing fits, so no
    later rung could place either.  A rung that returns ``"unknown"`` or
    ``"partial"`` (out of budget, or a heuristic miss) falls through, and
    one that raises is handed to ``on_error`` and falls through too.
    Returns ``(None, "none")`` when every rung fell through.
    """
    for name in chain:
        try:
            result = backend_of(name).place(request)
        except Exception as exc:  # graceful: fall through to the next rung
            on_error(name, exc)
            continue
        if result.placements or result.status == "infeasible":
            return result, name
    return None, "none"
