"""Phase-based reconfiguration scheduling.

Runtime reconfigurable applications run in *phases* (Styles & Luk's
phase-optimized systems, the paper's ref [10]): each phase needs a set of
modules, and transitions reconfigure the fabric.  Since reconfiguration
time is proportional to the configuration frames written (the overhead the
paper's introduction worries about), a scheduler should keep modules that
survive a transition *in place* and only write frames for what changes.

:class:`ReconfigurationScheduler` plans placements for a phase sequence
under two policies:

* **sticky** — one :class:`~repro.core.runtime.RuntimePlacementManager`
  lives across all phases: departures leave through ``depart()`` and
  arrivals are placed by the ``cp`` pick rule on its free-space ledger
  through ``submit()``, with the queue off and ``defragmenter=None``, so
  modules present in consecutive phases never move;
* **naive** — every phase is placed from scratch (each transition rewrites
  everything that moved).

Transition cost counts the configuration frames that must be *written*:
the columns touched by modules that are new or moved.  Departed modules
cost nothing — real systems leave stale configuration in place until it is
overwritten (cf. Becker et al. on partial bitstreams); the mock bitstream
diff remains available for full-image comparisons.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.lns import LNSConfig, LNSPlacer
from repro.core.result import PlacementResult
from repro.core.runtime import (
    RuntimeConfig,
    RuntimePlacementManager,
    RuntimeRequest,
)
from repro.fabric.region import PartialRegion
from repro.modules.module import Module


def _written_frames(
    previous: Optional[PlacementResult], current: PlacementResult
) -> int:
    """Configuration frames (columns) written by this transition.

    A module costs its footprint's columns iff it is new or its placement
    changed; surviving modules in unchanged positions are free, and
    departed modules leave stale configuration at no cost.
    """
    prev_pos = {}
    if previous is not None:
        prev_pos = {
            p.module.name: (p.shape_index, p.x, p.y)
            for p in previous.placements
        }
    columns = set()
    for p in current.placements:
        if prev_pos.get(p.module.name) == (p.shape_index, p.x, p.y):
            continue
        columns.update(p.x + dx for dx, _, _ in p.footprint.cells)
    return len(columns)


@dataclass(frozen=True)
class Phase:
    """One application phase: a name and its active module set."""

    name: str
    modules: Tuple[Module, ...]

    def __init__(self, name: str, modules: Sequence[Module]) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "modules", tuple(modules))
        names = [m.name for m in self.modules]
        if len(names) != len(set(names)):
            raise ValueError(f"phase {name!r} lists a module twice")

    def module_names(self) -> List[str]:
        return [m.name for m in self.modules]


@dataclass
class Transition:
    """Cost record of one phase change."""

    from_phase: str
    to_phase: str
    frames: int
    arrived: List[str]
    departed: List[str]
    kept: List[str]


@dataclass
class ScheduleResult:
    """Outcome of scheduling a phase sequence."""

    #: placements per phase, in sequence order
    phases: List[PlacementResult]
    transitions: List[Transition]
    #: module names that could not be placed, per phase name
    failures: Dict[str, List[str]] = field(default_factory=dict)
    elapsed: float = 0.0

    @property
    def total_frames(self) -> int:
        return sum(t.frames for t in self.transitions)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        return (
            f"phases={len(self.phases)} total_frames={self.total_frames} "
            f"failures={sum(len(v) for v in self.failures.values())} "
            f"elapsed={self.elapsed:.2f}s"
        )


#: lifetime of a scheduled module: phases never advance the manager's
#: clock, so placements leave only through an explicit ``depart()``
_RESIDENT = 1


class ReconfigurationScheduler:
    """Plan placements across phases, minimizing rewritten frames."""

    def __init__(
        self,
        region: PartialRegion,
        sticky: bool = True,
        fresh_time_limit: float = 4.0,
    ) -> None:
        self.region = region
        self.sticky = sticky
        self.fresh_time_limit = fresh_time_limit

    def _manager(self) -> RuntimePlacementManager:
        """A manager that CP-places arrivals and never moves a module."""
        return RuntimePlacementManager(
            self.region,
            RuntimeConfig(
                chain=("cp",),
                queue_capacity=0,
                defragmenter=None,
            ),
        )

    @staticmethod
    def _admit(
        manager: RuntimePlacementManager, modules: Sequence[Module]
    ) -> List[str]:
        """Submit modules one by one; returns the names that did not fit."""
        return [
            m.name
            for m in modules
            if not manager.submit(RuntimeRequest(m, 0, _RESIDENT)).admitted
        ]

    # ------------------------------------------------------------------
    def schedule(self, phases: Sequence[Phase]) -> ScheduleResult:
        """Place every phase; record transition frame costs."""
        start = time.monotonic()
        results: List[PlacementResult] = []
        transitions: List[Transition] = []
        failures: Dict[str, List[str]] = {}
        previous: Optional[PlacementResult] = None
        prev_phase_name = "<empty>"

        manager = self._manager() if self.sticky else None
        for phase in phases:
            if manager is not None:
                result, failed = self._sticky_step(manager, phase)
            else:
                result, failed = self._fresh_step(phase)
            if failed:
                failures[phase.name] = failed
            result.verify()
            frames = _written_frames(previous, result)
            prev_names = (
                {p.module.name for p in previous.placements}
                if previous is not None
                else set()
            )
            new_names = {p.module.name for p in result.placements}
            transitions.append(
                Transition(
                    from_phase=prev_phase_name,
                    to_phase=phase.name,
                    frames=frames,
                    arrived=sorted(new_names - prev_names),
                    departed=sorted(prev_names - new_names),
                    kept=sorted(prev_names & new_names),
                )
            )
            results.append(result)
            previous = result
            prev_phase_name = phase.name

        return ScheduleResult(
            phases=results,
            transitions=transitions,
            failures=failures,
            elapsed=time.monotonic() - start,
        )

    # ------------------------------------------------------------------
    def _fresh_step(
        self, phase: Phase
    ) -> Tuple[PlacementResult, List[str]]:
        """Place the whole phase from scratch (naive policy)."""
        placer = LNSPlacer(
            LNSConfig(time_limit=self.fresh_time_limit, seed=0)
        )
        result = placer.place(self.region, list(phase.modules))
        if result.all_placed and result.placements:
            return result, []
        # partial fallback: place one by one so the schedule can
        # continue and report precisely what did not fit
        manager = self._manager()
        rejected = self._admit(manager, phase.modules)
        return manager.result(), rejected

    def _sticky_step(
        self, manager: RuntimePlacementManager, phase: Phase
    ) -> Tuple[PlacementResult, List[str]]:
        """Keep surviving modules in place; place only the arrivals."""
        wanted = set(phase.module_names())
        for p in manager.placements:
            if p.module.name not in wanted:
                manager.depart(p.module.name)
        placed = {p.module.name for p in manager.placements}
        arrivals = [m for m in phase.modules if m.name not in placed]
        rejected = self._admit(manager, arrivals)
        return manager.result(), rejected


def compare_policies(
    region: PartialRegion, phases: Sequence[Phase], **kwargs
) -> Tuple[ScheduleResult, ScheduleResult]:
    """(sticky, naive) schedules of the same phase sequence."""
    sticky = ReconfigurationScheduler(
        region, sticky=True, **kwargs
    ).schedule(phases)
    naive = ReconfigurationScheduler(
        region, sticky=False, **kwargs
    ).schedule(phases)
    return sticky, naive
