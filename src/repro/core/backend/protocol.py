"""The uniform placement-backend surface.

Every placement engine in the repo — the CP kernel, LNS, the parallel
portfolio and all the related-work baselines — is reachable through one
request/response protocol:

* :class:`PlacementRequest` carries the instance (region + modules) and
  the uniform knobs every engine understands a subset of: seed, wall-clock
  / node budget, first-solution mode and a
  :class:`~repro.obs.trace.Tracer`.
* :class:`PlacementBackend.place` refuses a scheduling request
  (``horizon``, ``durations`` or ``precedences``) unless the backend
  schedules, normalizes the tracer, emits the
  ``backend.start`` / ``backend.result`` event pair, guarantees a
  per-backend :class:`~repro.obs.profile.SolveProfile` section whenever
  profiling is requested (explicitly or by an active
  :func:`~repro.obs.context.profiling_session`), and stamps
  ``stats["backend"]``.  Concrete adapters only implement ``_solve``.

The runtime manager places one module per arrival with a pick rule on
its free-space ledger (:data:`repro.core.runtime.PICK_RULES`), not
through a backend: the backends serve whole-instance requests.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.core.result import PlacementResult
from repro.fabric.region import PartialRegion
from repro.modules.module import Module
from repro.obs import context as obs_context
from repro.obs.profile import SolveProfile
from repro.obs.trace import BACKEND_RESULT, BACKEND_START, Tracer


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
    #: scheduling horizon in ticks, honored by the scheduling backend
    #: ``temporal-cp`` (None = degenerate single-tick horizon: a purely
    #: spatial request)
    horizon: Optional[int] = None
    #: per-module execution durations, aligned with ``modules`` (None =
    #: every module runs for one tick); requires ``horizon``
    durations: Optional[Sequence[int]] = None
    #: precedence edges ``(a, b)`` — module a must finish before module b
    #: starts; only honored by scheduling backends
    precedences: Sequence = ()
    #: name of a backend (:data:`~repro.core.backend.adapters.BACKENDS`)
    #: whose legalized placement seeds the solve (honored by the
    #: optimizing backends: CP clamps its objective below the seed, LNS
    #: adopts it as the bootstrap incumbent)
    warm_start: Optional[str] = None


class PlacementBackend:
    """Base class of every placement backend.

    ``place`` is the only public entry point; subclasses implement
    ``_solve(request, tracer, profiling)`` and declare ``name``.  ``session_self_recording`` marks engines whose
    internals already feed the active profiling session (the CP kernel
    records each solve itself) so the shared scaffolding does not record
    their profile twice.
    """

    name: str = "backend"
    #: True when the wrapped engine records its own SolveProfile into the
    #: process profiling session (CP and LNS-over-CP do)
    session_self_recording: bool = False
    #: True for a scheduling backend, the only kind that honors
    #: ``horizon`` / ``durations`` / ``precedences``
    schedules: bool = False

    # ------------------------------------------------------------------
    def place(self, request: PlacementRequest) -> PlacementResult:
        if not self.schedules and (
            request.horizon is not None
            or request.durations is not None
            or request.precedences
        ):
            # answering the spatial problem alone would drop the schedule
            # without saying so
            raise ValueError(
                f"backend {self.name!r} places, it does not schedule: "
                "horizon, durations and precedences need 'temporal-cp'"
            )
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
