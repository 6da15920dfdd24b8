"""Online runtime placement: admission control, backpressure, defrag triggers.

The paper measures its utilization win offline, but its whole framing is
*runtime* reconfigurable systems: modules arrive, run for a while and
leave, and the free space shatters (Fekete et al. on dynamic
defragmentation, Ahmadinia et al. on online free-space management).
:class:`RuntimePlacementManager` is the serving loop that drives the
repo's existing parts under such a load:

* **Admission** — each arrival goes down a deterministic chain of pick
  rules on the free-space ledger, named by ``RuntimeConfig.chain``, then
  is rejected.  A rule (:data:`PICK_RULES`) picks one ``(x, y, shape)``
  from the shapes' anchor words: ``cp`` and ``greedy`` the bottom-left
  anchor (a one-module, first-solution CP dive under the min-extent
  objective lands there), ``first-fit`` the first shape that has an
  anchor.  No anchor is the proof of no fit that ends the sweep
  (:meth:`RuntimePlacementManager._place_once`), so a rule after the
  first (``("cp", "greedy")``) only runs when the first one raised.
* **Fragmentation control** — external fragmentation of the live
  floorplan is monitored (:mod:`repro.metrics.fragmentation`); crossing a
  threshold, or any rejection, triggers a pass of the configured
  defragmenter (:mod:`repro.core.defrag`) honoring either shape-change
  policy; ``defragmenter=None`` turns both triggers off.
* **Backpressure** — rejected arrivals wait in a bounded pending queue
  with per-request deadlines; the queue is retried after every departure
  and defrag pass, expired or overflowing requests are rejected
  *gracefully* with machine-readable :class:`RejectReason` codes — no
  exception escapes the manager on the serving path.
* **Reservations** — with ``RuntimeConfig.reservation_horizon > 0`` an
  arrival that cannot run *now* is probed against the departures due
  within the horizon and booked at the first tick where its anchor
  masks fit the projected floorplan (:class:`Reservation`); the booked
  cells are promised (blocked for every other admission) until the
  reservation commits, replans, or expires with
  :attr:`RejectReason.RESERVATION_EXPIRED`.  At ``horizon == 0`` every
  reservation path is dormant and the manager replays bit-identically
  to the pre-reservation code — pinned by the differential tests.
* **Free space** — one :class:`~repro.core.occupancy.Occupancy` ledger
  holds the placed, move-window and reserved cells as packed column
  words; every fit query is one anchor-word kernel call on it, with no
  residual region or backend request.
* **Observability** — every lifecycle step emits a structured trace event
  (``runtime.arrival`` / ``runtime.reject`` / ``runtime.defrag`` /
  ``runtime.depart``) and the per-request latency / occupancy counters
  aggregate into a :class:`~repro.obs.profile.SolveProfile` through the
  existing :mod:`repro.obs` layer.

Time model: the manager runs on the *logical* clock carried by the
requests (arrival/lifetime/deadline are simulation time units).
:meth:`RuntimePlacementManager.next_due` is the earliest tick at which
anything can happen: a departure, the end of a move window, a
reservation start, a pending deadline, or every tick while a
defragmenter runs with ``frag_threshold < 1.0``.  An advance to an
earlier tick only sets the clock, so a driver may advance a manager on
every arrival at the cost of one comparison (the sharded service does,
for every shard).  The wall clock feeds only the latency and defrag-time
counters: no decision reads it.
"""

from __future__ import annotations

import heapq
import time
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.defrag import DEFRAGMENTERS, Defragmenter, PlannedMove
from repro.core.occupancy import Occupancy
from repro.core.result import Placement, PlacementResult
from repro.fabric.masks import bottom_left_pick, first_anchor, first_fit_pick
from repro.fabric.region import PartialRegion
from repro.metrics.fragmentation import external_fragmentation
from repro.metrics.utilization import region_utilization
from repro.modules.generator import GeneratorConfig, ModuleGenerator
from repro.modules.module import Module
from repro.obs import context as obs_context
from repro.obs.profile import SolveProfile, merge_records
from repro.obs.trace import (
    BACKEND_RESULT,
    BACKEND_START,
    RUNTIME_ARRIVAL,
    RUNTIME_DEFRAG,
    RUNTIME_DEFRAG_STEP,
    RUNTIME_DEPART,
    RUNTIME_REJECT,
    RUNTIME_RESERVATION_COMMIT,
    RUNTIME_RESERVATION_EXPIRE,
    RUNTIME_RESERVE,
    Tracer,
)

#: one module's ``(x, y, shape index)`` from its per-shape anchor words,
#: or None when no shape has an anchor
PickRule = Callable[[Sequence[np.ndarray]], Optional[Tuple[int, int, int]]]

#: the admission rules ``RuntimeConfig.chain`` names.  ``cp`` and
#: ``greedy`` are both the bottom-left pick: a one-module, first-solution
#: CP dive under the min-extent objective branches x, then y, then shape
#: at the smallest value and lands there, and the greedy baseline places
#: there by rule; both labels stay, as the admitted outcomes' ``method``.
#: ``first-fit`` is the first-fit baseline's pick.
PICK_RULES: Dict[str, PickRule] = {
    "cp": bottom_left_pick,
    "greedy": bottom_left_pick,
    "first-fit": first_fit_pick,
}


# ----------------------------------------------------------------------
# Requests and outcomes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RuntimeRequest:
    """One module arrival in the online stream."""

    module: Module
    #: logical arrival time
    arrival: int
    #: logical time the module stays placed once admitted
    lifetime: int
    #: latest logical time admission is still useful (None = arrival +
    #: the manager's ``max_queue_wait``)
    deadline: Optional[int] = None

    def __post_init__(self) -> None:
        if self.lifetime <= 0:
            raise ValueError("request lifetime must be positive")


class RejectReason(str, Enum):
    """Machine-readable rejection codes (the manager never raises)."""

    #: no admission rule found an anchor
    NO_FIT = "no_fit"
    #: the pending queue was at capacity when the request arrived
    QUEUE_FULL = "queue_full"
    #: the request waited in the queue past its deadline
    DEADLINE = "deadline_expired"
    #: a module with the same name is already placed or pending
    DUPLICATE = "duplicate"
    #: the manager drained while the request still waited — its deadline
    #: had *not* passed; the serving run simply ended (reject-rate
    #: experiments must not conflate this with a real deadline miss)
    DRAINED = "drained"
    #: the request held a reservation whose planned cells never became
    #: usable before the deadline (reservation mode only)
    RESERVATION_EXPIRED = "reservation_expired"

    def __str__(self) -> str:  # "no_fit", not "RejectReason.NO_FIT"
        return self.value


@dataclass
class RequestOutcome:
    """The manager's answer for one request (mutated when a queued
    request is later admitted or expires)."""

    request: RuntimeRequest
    #: "admitted" | "queued" | "reserved" | "rejected"
    status: str = "rejected"
    #: chain rule that produced the placement ("cp", "greedy"),
    #: suffixed "+defrag" after a reject-triggered pass, or
    #: "reservation" / "reservation+<rule>" for a booking; None when
    #: rejected
    method: Optional[str] = None
    reason: Optional[RejectReason] = None
    placement: Optional[Placement] = None
    #: logical time of admission (>= arrival when served from the queue)
    admitted_at: Optional[int] = None
    #: wall-clock seconds spent in admission attempts for this request
    latency_s: float = 0.0
    #: errors swallowed on the probe path (graceful degradation)
    errors: List[str] = field(default_factory=list)
    #: name of the region whose manager recorded this request (the
    #: owning shard under the sharded service)
    shard: Optional[str] = None

    @property
    def admitted(self) -> bool:
        return self.status == "admitted"


@dataclass
class RuntimeConfig:
    """Knobs of the runtime placement manager."""

    #: admit with the full alternative set (False = primary shape only)
    with_alternatives: bool = True
    #: admission chain as :data:`PICK_RULES` names, tried in order.  A
    #: rule's no-fit is a proof that ends the sweep, so the default is the
    #: ``cp`` rule alone; a later rule (("cp", "greedy")) only runs after
    #: an earlier one raised.
    chain: Sequence[str] = ("cp",)
    #: bounded pending queue (0 = reject immediately, no queueing)
    queue_capacity: int = 8
    #: default per-request deadline: arrival + this many logical ticks
    max_queue_wait: int = 16
    #: reservation lookahead in logical ticks: when an arrival cannot be
    #: admitted now, probe the departures due within this horizon and
    #: book the request at the first tick where it fits (0 = disabled —
    #: the manager behaves bit-identically to the pre-reservation code)
    reservation_horizon: int = 0
    #: bound on simultaneously outstanding reservations
    reservation_capacity: int = 8
    #: trigger a defrag pass when external fragmentation exceeds this
    frag_threshold: float = 0.6
    #: may defrag pick a different design alternative? (the paper's
    #: stateful-module assumption says no; True is valid for
    #: stateless/restartable modules)
    allow_shape_change: bool = False
    #: minimum logical ticks between fragmentation-triggered passes
    defrag_cooldown: int = 4
    #: defragmentation strategy as a :data:`DEFRAGMENTERS` name, run once
    #: when an arrival cannot be placed and whenever fragmentation exceeds
    #: ``frag_threshold``; both run the same compaction pass and differ in
    #: the move rule: "greedy-compaction" teleports and the manager
    #: applies the whole plan atomically (the oracle); "no-break" plans
    #: slides and copies that respect running modules and executes them
    #: move by move on the logical clock.  None = no defrag at all
    defragmenter: Optional[str] = "greedy-compaction"
    #: reconfiguration frames rewritten per logical tick — a planned
    #: move's window lasts ceil(frames / this) ticks, during which the
    #: mover occupies both source and target
    defrag_frames_per_tick: int = 8
    #: verify the live floorplan (including in-flight move windows) at
    #: every move transition — O(cells) per check, for tests/experiments
    verify_moves: bool = False
    #: structured event sink for runtime.* events (None = off)
    tracer: Optional[Tracer] = None
    #: sample (clock, occupancy, utilization, fragmentation) into the log
    #: timeline after every request — the fragmentation metric is a pure
    #: Python maximal-rectangles pass, so high-throughput serving loops
    #: (the sharded service) switch it off
    sample_timeline: bool = True

    def validate(self) -> None:
        chain = tuple(self.chain)
        if not chain:
            raise ValueError("admission chain must name at least one rule")
        for name in chain:
            if name not in PICK_RULES:
                raise ValueError(
                    f"unknown admission rule {name!r} in chain; "
                    f"rules: {', '.join(sorted(PICK_RULES))}"
                )
        if self.queue_capacity < 0:
            raise ValueError("queue_capacity must be >= 0")
        if self.max_queue_wait < 0:
            raise ValueError("max_queue_wait must be >= 0")
        if self.reservation_horizon < 0:
            raise ValueError("reservation_horizon must be >= 0")
        if self.reservation_capacity < 0:
            raise ValueError("reservation_capacity must be >= 0")
        if not 0.0 <= self.frag_threshold <= 1.0:
            raise ValueError("frag_threshold must be within [0, 1]")
        if (
            self.defragmenter is not None
            and self.defragmenter not in DEFRAGMENTERS
        ):
            raise ValueError(
                f"unknown defragmenter {self.defragmenter!r}; defragmenters: "
                f"{', '.join(sorted(DEFRAGMENTERS))} (or None)"
            )
        if self.defrag_frames_per_tick < 1:
            raise ValueError("defrag_frames_per_tick must be >= 1")


@dataclass
class RuntimeStats:
    """Aggregate counters of one manager lifetime."""

    arrivals: int = 0
    admitted: int = 0
    rejected: int = 0
    departures: int = 0
    defrags: int = 0
    defrag_moves: int = 0
    #: no-break accounting: moves a plan scheduled, moves that actually
    #: completed on the clock, moves cancelled (stale after an arrival,
    #: or their mover departed mid-window).  Instant passes count every
    #: move as planned+executed.
    defrag_planned_moves: int = 0
    defrag_executed_moves: int = 0
    defrag_aborted_moves: int = 0
    #: wall-clock seconds spent planning/applying defrag passes — kept
    #: out of per-request ``latency_s`` (a reject-triggered pass is
    #: floorplan maintenance, not the triggering request's work; charging
    #: it there skewed the p99 admission-latency gate)
    defrag_time_s: float = 0.0
    probe_errors: int = 0
    queued_admits: int = 0
    #: reservation accounting: bookings made, bookings that committed
    #: (directly or replanned), bookings that expired past their deadline
    reservations_booked: int = 0
    reservation_admits: int = 0
    reservations_expired: int = 0
    rejected_by_reason: Dict[str, int] = field(default_factory=dict)
    admits_by_method: Dict[str, int] = field(default_factory=dict)
    total_latency_s: float = 0.0
    max_latency_s: float = 0.0
    peak_occupied_cells: int = 0

    @property
    def mean_latency_s(self) -> float:
        total = self.admitted + self.rejected
        return self.total_latency_s / total if total else 0.0

    def charge_latency(self, latency_s: float) -> None:
        """Charge one terminal outcome's probe time (admitted or
        rejected, exactly once), so the mean covers every outcome it
        divides by."""
        self.total_latency_s += latency_s
        self.max_latency_s = max(self.max_latency_s, latency_s)

    def count_reject(self, reason: RejectReason) -> None:
        self.rejected += 1
        key = str(reason)
        self.rejected_by_reason[key] = self.rejected_by_reason.get(key, 0) + 1

    def count_admit(self, method: str, queued: bool) -> None:
        self.admitted += 1
        self.admits_by_method[method] = self.admits_by_method.get(method, 0) + 1
        if queued:
            self.queued_admits += 1

    def __add__(self, other: "RuntimeStats") -> "RuntimeStats":
        """Merge shard-local stats into one service-level record (the
        peak is the larger shard peak: shards peak at different ticks,
        so only the service can sample their simultaneous total)."""
        return merge_records(self, other)


@dataclass
class RuntimeLog:
    """Everything :meth:`RuntimePlacementManager.run` observed."""

    outcomes: List[RequestOutcome]
    stats: RuntimeStats
    #: (clock, occupied_cells, region_utilization, external_fragmentation)
    #: sampled after every processed event
    timeline: List[Tuple[int, int, float, float]] = field(default_factory=list)

    @property
    def admitted(self) -> int:
        return self.stats.admitted

    @property
    def rejected(self) -> int:
        return self.stats.rejected

    def mean_utilization(self) -> float:
        """Time-weighted mean region utilization over the run."""
        if len(self.timeline) < 2:
            return self.timeline[0][2] if self.timeline else 0.0
        area = 0.0
        span = 0
        for (t0, _, u0, _), (t1, _, _, _) in zip(
            self.timeline, self.timeline[1:]
        ):
            area += u0 * (t1 - t0)
            span += t1 - t0
        return area / span if span else self.timeline[-1][2]


@dataclass
class _Pending:
    """A queued request plus its mutable outcome."""

    request: RuntimeRequest
    outcome: RequestOutcome
    deadline: int


@dataclass
class Reservation:
    """Capacity booked ahead of time for a request that cannot run *now*.

    A reservation pins a concrete planned placement to a future start
    tick (a departure the admission probe identified inside the
    reservation horizon).  When the clock reaches ``start`` the manager
    commits the planned placement if its cells are actually free,
    replans on the then-current floorplan if they are not, and expires
    the reservation honestly (:attr:`RejectReason.RESERVATION_EXPIRED`)
    once ``deadline`` passes without either succeeding.
    """

    request: RuntimeRequest
    outcome: RequestOutcome
    #: the planned placement (cells to hold free until ``start``)
    placement: Placement
    #: logical tick the reservation becomes due
    start: int
    #: latest logical tick a commit is still useful
    deadline: int


@dataclass
class _ActiveMove:
    """A no-break move in flight: its window ends at logical ``ends``."""

    move: PlannedMove
    ends: int
    #: the window cells as ledger words
    window: np.ndarray


def _closed_form_profile(
    instance: str, rule: str, elapsed: float
) -> SolveProfile:
    """The profile of one admission rule's answer on region ``instance``."""
    return SolveProfile(
        elapsed=elapsed,
        stop_reason="closed-form",
        meta={"instance": instance, "modules": 1, "placer": rule,
              "backend": rule},
    )


def _closed_form_status(words: Sequence[np.ndarray]) -> str:
    """The status of a pick over the shapes' anchor words (at least one
    bit set): ``"optimal"`` when it is the one anchor there is, so a CP
    dive's root propagation would fix every variable, else
    ``"feasible"``."""
    stacked = np.stack(words)
    set_words = stacked[stacked != 0]
    # one nonzero word, and a power of two: a single anchor
    unique = set_words.size == 1 and not (
        int(set_words[0]) & (int(set_words[0]) - 1)
    )
    return "optimal" if unique else "feasible"


# ----------------------------------------------------------------------
# The manager
# ----------------------------------------------------------------------
class RuntimePlacementManager:
    """Serves an online arrival/departure stream against a live fabric."""

    def __init__(
        self,
        region: PartialRegion,
        config: Optional[RuntimeConfig] = None,
    ) -> None:
        self.region = region
        self.config = config or RuntimeConfig()
        self.config.validate()
        self.clock = 0
        self.stats = RuntimeStats()
        self.outcomes: List[RequestOutcome] = []
        self._placements: Dict[str, Placement] = {}
        self._departures: List[Tuple[int, str]] = []  # heap
        self._pending: Deque[_Pending] = deque()
        #: outstanding reservations, kept sorted by start tick
        self._reservations: List[Reservation] = []
        self._last_defrag_clock: Optional[int] = None
        #: the placement table of the last empty defrag plan: the planner
        #: is a pure function of it, so while it is unchanged a replan
        #: would come back empty again
        self._empty_plan_key: Optional[Tuple[Placement, ...]] = None
        #: the live free-space ledger; its revision stamp covers the whole
        #: plannable floorplan, so the fragmentation memo invalidates
        #: without grid comparisons
        self._ledger = Occupancy(region)
        #: memoized fragmentation per view: "live"/"planning" -> (rev, value)
        self._frag_cache: Dict[str, Tuple[int, float]] = {}
        cfg = self.config
        #: the defragmentation strategy (planner); None = defrag off
        self._defragmenter: Optional[Defragmenter] = (
            DEFRAGMENTERS[cfg.defragmenter]()
            if cfg.defragmenter is not None
            else None
        )
        #: no-break plan execution state: moves waiting their turn, and
        #: the single move currently holding its window on the fabric
        self._move_queue: Deque[PlannedMove] = deque()
        self._active_move: Optional[_ActiveMove] = None
        tracer = cfg.tracer
        self._tracer = tracer if tracer is not None and tracer.enabled else None

    # ------------------------------------------------------------------
    # State views
    # ------------------------------------------------------------------
    @property
    def placements(self) -> List[Placement]:
        return list(self._placements.values())

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    @property
    def reservations(self) -> List[Reservation]:
        """Outstanding reservations (sorted by start tick)."""
        return list(self._reservations)

    @property
    def moves_in_flight(self) -> int:
        """Planned moves not yet completed (active + queued)."""
        return (self._active_move is not None) + len(self._move_queue)

    def result(self) -> PlacementResult:
        return PlacementResult(self.region, self.placements)

    def occupancy_mask(self) -> np.ndarray:
        """(H, W) booleans of the held cells (placed modules and the
        active move window)."""
        ledger = self._ledger
        return ledger.mask(ledger.held).copy()

    @property
    def occupied_cells(self) -> int:
        """Cells covered by placed modules."""
        return self._ledger.occupied_cells

    def _blocked(self, exclude: Optional[Reservation] = None) -> np.ndarray:
        """The ledger words an admission may not use: the held cells and
        the booked ones, except those of reservation ``exclude``
        (replanned on its own cells)."""
        ledger = self._ledger
        if exclude is None:
            return ledger.held | ledger.reserved
        return ledger.held | ledger.words_of(
            r.placement for r in self._reservations if r is not exclude
        )

    # -- occupancy maintenance -----------------------------------------
    def _imprint(self, placement: Placement, value: bool) -> None:
        """Place (``value``) or remove one module's cells in the ledger."""
        if value:
            self._ledger.place(placement)
        else:
            self._ledger.remove(placement)

    def _note_booking(self) -> None:
        """The reservations changed: the ledger's reserved cells follow."""
        self._ledger.reserve(r.placement for r in self._reservations)

    def _note_peak(self) -> None:
        self.stats.peak_occupied_cells = max(
            self.stats.peak_occupied_cells, self._ledger.occupied_cells
        )

    def fragmentation(self) -> float:
        """External fragmentation of the live floorplan, memoized on the
        occupancy revision: the least-fragmented router probes it once
        per candidate shard per request, and the KAMER staircase behind
        the metric is pure Python — recomputing it on an unchanged
        floorplan was the serving hot path's dominant cost."""
        rev = self._ledger.revision
        cached = self._frag_cache.get("live")
        if cached is not None and cached[0] == rev:
            return cached[1]
        value = external_fragmentation(self.result())
        self._frag_cache["live"] = (rev, value)
        return value

    def planning_fragmentation(self) -> float:
        """External fragmentation of the *plannable* floorplan: live
        placements plus the cells promised to outstanding reservations.
        This is the free-space picture an admission router should rank
        by — booked cells shatter usable space exactly like placed ones.
        Equals :meth:`fragmentation` when no reservations are
        outstanding.  Memoized like :meth:`fragmentation` (reservation
        churn bumps the same revision stamp)."""
        if not self._reservations:
            return self.fragmentation()
        rev = self._ledger.revision
        cached = self._frag_cache.get("planning")
        if cached is not None and cached[0] == rev:
            return cached[1]
        placements = self.placements + [
            r.placement for r in self._reservations
        ]
        value = external_fragmentation(
            PlacementResult(self.region, placements)
        )
        self._frag_cache["planning"] = (rev, value)
        return value

    # ------------------------------------------------------------------
    # Event intake
    # ------------------------------------------------------------------
    def submit(self, request: RuntimeRequest) -> RequestOutcome:
        """Process one arrival (advancing the logical clock first)."""
        self.advance_to(request.arrival)
        outcome = self._record(RequestOutcome(request))
        if self._is_duplicate(request.module.name):
            self._reject(outcome, RejectReason.DUPLICATE)
            return outcome
        if self._try_admit(request, outcome, allow_defrag=True):
            return outcome
        self._queue_or_reject(request, outcome)
        return outcome

    def offer(
        self, request: RuntimeRequest, outcome: RequestOutcome
    ) -> Optional[RequestOutcome]:
        """Spill probe (service hook): admit *now* or decline untraced.

        Advances the clock and attempts the full admission chain, but —
        unlike :meth:`submit` — a failure records nothing: no arrival, no
        queueing, no rejection.  The sharded service probes spill-over
        shards through this, so a declined probe does not distort the
        shard's log.  On success the admitted outcome is recorded exactly
        as a submitted arrival would be.

        ``outcome`` carries the request across the spill walk: a
        declined probe still adds its latency and errors to it.
        """
        self.advance_to(request.arrival)
        if self._is_duplicate(request.module.name):
            return None
        if not self._try_admit(request, outcome, allow_defrag=True):
            return None
        return self._record(outcome)

    def park(
        self, request: RuntimeRequest, outcome: RequestOutcome
    ) -> RequestOutcome:
        """Record an arrival that failed its spill probes (service hook).

        The request already failed :meth:`offer` on every candidate shard
        — including this one — so the admission chain is *not* re-run;
        the request goes straight under the backpressure rules (queue,
        or reject honestly).  ``outcome`` is the one the declined offers
        filled in.
        """
        self._record(outcome)
        if self._is_duplicate(request.module.name):
            self._reject(outcome, RejectReason.DUPLICATE)
            return outcome
        self._queue_or_reject(request, outcome)
        return outcome

    def _record(self, outcome: RequestOutcome) -> RequestOutcome:
        """Count, trace and log one arrival this manager owns."""
        outcome.shard = self.region.name
        self.stats.arrivals += 1
        self._emit(
            RUNTIME_ARRIVAL,
            module=outcome.request.module.name,
            clock=self.clock,
            queue=len(self._pending),
        )
        self.outcomes.append(outcome)
        return outcome

    def _queue_or_reject(
        self, request: RuntimeRequest, outcome: RequestOutcome
    ) -> None:
        """No rule fit right now: reserve ahead if the horizon allows,
        else queue under the backpressure rules."""
        if self.config.reservation_horizon > 0 and self._try_reserve(
            request, outcome
        ):
            return
        if self.config.queue_capacity == 0:
            # queueing disabled: the honest reason is the failed placement
            self._reject(outcome, RejectReason.NO_FIT)
            return
        if self.config.queue_capacity <= len(self._pending):
            self._reject(outcome, RejectReason.QUEUE_FULL)
            return
        deadline = self._deadline(request)
        if deadline <= self.clock:
            self._reject(outcome, RejectReason.DEADLINE)
            return
        outcome.status = "queued"
        self._pending.append(_Pending(request, outcome, deadline))

    def depart(self, name: str) -> Optional[Placement]:
        """Explicitly remove a placed module (None if unknown)."""
        placement = self._depart(name)
        if placement is not None:
            self._after_space_freed()
        return placement

    def _depart(self, name: str) -> Optional[Placement]:
        placement = self._placements.pop(name, None)
        if placement is not None:
            self._remove_cells(name, placement)
            self.stats.departures += 1
            self._emit(RUNTIME_DEPART, module=name, clock=self.clock)
        return placement

    def next_due(self) -> Optional[int]:
        """The earliest tick at which :meth:`advance_to` does more than
        set the clock (None: nothing is scheduled).

        Conservative: the head of the departure heap (a stale entry for
        an explicitly departed module only makes it earlier), the end of
        the active no-break move, the earliest reservation start (at or
        before the clock while a due booking is still uncommitted), the
        earliest pending deadline — and the clock itself whenever a
        defragmenter runs with ``frag_threshold < 1.0``, since a
        fragmentation-triggered pass may then fire on any tick."""
        if self.config.frag_threshold < 1.0 and self._defragmenter is not None:
            return self.clock
        due = self._departures[0][0] if self._departures else None
        active = self._active_move
        if active is not None and (due is None or active.ends < due):
            due = active.ends
        if self._reservations:
            start = self._reservations[0].start  # sorted by start
            if due is None or start < due:
                due = start
        if self._pending:
            deadline = min(item.deadline for item in self._pending)
            if due is None or deadline < due:
                due = deadline
        return due

    def advance_to(self, t: int) -> None:
        """Advance the logical clock: move completions, departures and
        due reservations in time order (a completion due at the same
        tick lands first, so the freed source cells are visible to that
        tick's departures' retry pass; a departure lands before a
        same-tick reservation so the booked cells are actually free at
        commit), then queue upkeep.

        Before :meth:`next_due` nothing can happen, so an advance to an
        earlier tick only sets the clock: a shard with nothing due pays
        one comparison per arrival."""
        if t < self.clock:
            raise ValueError(
                f"clock may not go backwards ({t} < {self.clock})"
            )
        due = self.next_due()
        if due is None or t < due:
            self.clock = t
            return
        # a due reservation that fails to commit (and has not expired)
        # stays booked — attempt each at most once per advance, or the
        # event loop would spin on it
        attempted: set = set()
        while True:
            dep = self._departures[0][0] if self._departures else None
            active = self._active_move
            fin = active.ends if active is not None else None
            resv = min(
                (
                    r.start
                    for r in self._reservations
                    if id(r) not in attempted
                ),
                default=None,
            )
            if (
                fin is not None
                and fin <= t
                and (dep is None or fin <= dep)
                and (resv is None or fin <= resv)
            ):
                self.clock = max(self.clock, fin)
                self._complete_active_move()
                continue
            if dep is not None and dep <= t and (resv is None or dep <= resv):
                due, name = heapq.heappop(self._departures)
                self.clock = max(self.clock, due)
                if self._depart(name) is not None:
                    self._expire_pending()
                    self._after_space_freed()
                continue
            if resv is not None and resv <= t:
                self.clock = max(self.clock, resv)
                for r in self._reservations:
                    if r.start <= self.clock:
                        attempted.add(id(r))
                self._commit_due_reservations()
                continue
            break
        self.clock = max(self.clock, t)
        self._expire_pending()
        if self._reservations:
            self._commit_due_reservations()
        self._maybe_defrag(trigger="fragmentation")

    def _play_out(self) -> None:
        """Advance until no departure or move completion is scheduled.

        A queued request admitted during the playback gets a departure
        later than every one known when the playback started, so this
        loops until the departure heap is empty rather than advancing
        once to the latest known departure.  No-break plans still
        executing finish (or abort) so the final floorplan reflects every
        move that could complete.
        """
        while self._departures or self._active_move is not None:
            if self._departures:
                self.advance_to(max(t for t, _ in self._departures))
            else:
                self.advance_to(self._active_move.ends)

    def drain(self) -> None:
        """Play out every scheduled departure and settle the queue."""
        self._play_out()
        # settle every outstanding reservation: step to each remaining
        # start (commits add new departures — re-drain those), then to
        # the deadlines so blocked bookings expire honestly rather than
        # dangle.  Terminates: every step removes at least the earliest
        # due reservation (commit or expiry) or strictly advances the
        # clock toward one.
        while self._reservations:
            future = [
                r.start for r in self._reservations if r.start > self.clock
            ]
            if future:
                self.advance_to(min(future))
            else:
                self.advance_to(
                    min(
                        max(r.deadline, self.clock)
                        for r in self._reservations
                    )
                )
            self._play_out()
        # whatever is still pending can never be admitted: its module
        # didn't fit an otherwise empty(er) fabric.  Label honestly —
        # only requests whose deadline actually passed are deadline
        # rejections; the rest were cut off by the drain itself.
        while self._pending:
            item = self._pending.popleft()
            reason = (
                RejectReason.DEADLINE
                if item.deadline <= self.clock
                else RejectReason.DRAINED
            )
            self._reject(item.outcome, reason)

    def run(self, trace: Sequence[RuntimeRequest]) -> RuntimeLog:
        """Consume a whole trace, then drain; returns the full log."""
        sample = self.config.sample_timeline
        log = RuntimeLog(outcomes=self.outcomes, stats=self.stats)
        for request in sorted(trace, key=lambda r: r.arrival):
            self.submit(request)
            if sample:
                log.timeline.append(self._sample())
        self.drain()
        if sample:
            log.timeline.append(self._sample())
        self._record_profile()
        return log

    # ------------------------------------------------------------------
    # Admission (the chain of pick rules)
    # ------------------------------------------------------------------
    def _try_admit(
        self,
        request: RuntimeRequest,
        outcome: RequestOutcome,
        allow_defrag: bool,
        queued: bool = False,
    ) -> bool:
        module = self._admitted_shapes(request)
        start = time.monotonic()
        defrag_before = self.stats.defrag_time_s
        placement, method = self._place_once(module, outcome)
        if placement is None and allow_defrag and self._defrag(
            trigger="reject"
        ):
            placement, method = self._place_once(module, outcome)
            method = f"{method}+defrag" if placement is not None else method
        # a reject-triggered defrag pass is floorplan maintenance, not
        # this request's work: charge it to stats.defrag_time_s (already
        # accumulated inside _defrag), not to the request's latency —
        # the old accounting skewed the p99 admission-latency gate
        elapsed = time.monotonic() - start
        outcome.latency_s += max(
            0.0, elapsed - (self.stats.defrag_time_s - defrag_before)
        )
        if placement is None:
            return False
        self._commit(request, outcome, placement, method, queued)
        return True

    def _place_once(
        self,
        module: Module,
        outcome: RequestOutcome,
        exclude: Optional[Reservation] = None,
    ) -> Tuple[Optional[Placement], str]:
        """One sweep down the chain of pick rules.

        The first rule that answers ends the sweep: with its placement, or
        with no anchor, the proof that nothing fits, so no later rule
        could place either.  A rule that raises is counted in
        ``probe_errors``, recorded on the outcome and falls through to the
        next one.  Returns the placement and the name of the rule that
        placed it, or ``(None, "none")``.  ``exclude`` is a reservation
        being replanned: its own booked cells are free to it, its
        siblings' stay blocked.
        """
        for name in self.config.chain:
            try:
                placement = self._pick(name, module, exclude)
            except Exception as exc:  # graceful: fall through to the next rule
                self.stats.probe_errors += 1
                outcome.errors.append(f"{name}: {exc}")
                continue
            if placement is not None:
                return placement, name
            break
        return None, "none"

    def _pick(
        self, name: str, module: Module, exclude: Optional[Reservation]
    ) -> Optional[Placement]:
        """Rule ``name``'s placement of ``module`` on the ledger, with the
        :meth:`_blocked` cells taken (None: no anchor).

        With a tracer or a profiling session on, the rule reports as a
        placement backend would: the ``backend.start`` /
        ``backend.result`` pair under the rule's name, with the status of
        the one-module CP dive (:func:`_closed_form_status`, or
        ``"infeasible"``), and one ``"closed-form"`` profile.
        """
        tracer = self._tracer
        session = obs_context.current()
        observed = tracer is not None or session is not None
        if tracer is not None:
            tracer.emit(BACKEND_START, backend=name, modules=1)
        start = time.monotonic() if observed else 0.0
        try:
            words = self._ledger.anchors(module.shapes, self._blocked(exclude))
            pick = PICK_RULES[name](words)
        except Exception as exc:
            if tracer is not None:
                tracer.emit(
                    BACKEND_RESULT,
                    backend=name,
                    status="error",
                    placed=0,
                    elapsed=time.monotonic() - start,
                    error=f"{type(exc).__name__}: {exc}",
                )
            raise
        placement = None
        if pick is not None:
            x, y, si = pick
            placement = Placement(module, si, x, y)
        if observed:
            elapsed = time.monotonic() - start
            if session is not None:
                session.record(
                    _closed_form_profile(self.region.name, name, elapsed)
                )
            if tracer is not None:
                tracer.emit(
                    BACKEND_RESULT,
                    backend=name,
                    status=(
                        "infeasible"
                        if pick is None
                        else _closed_form_status(words)
                    ),
                    placed=int(pick is not None),
                    elapsed=elapsed,
                )
        return placement

    def _commit(
        self,
        request: RuntimeRequest,
        outcome: RequestOutcome,
        placement: Placement,
        method: str,
        queued: bool,
    ) -> None:
        self._placements[placement.module.name] = placement
        self._imprint(placement, True)
        heapq.heappush(
            self._departures,
            (self.clock + request.lifetime, placement.module.name),
        )
        outcome.status = "admitted"
        outcome.method = method
        outcome.placement = placement
        outcome.admitted_at = self.clock
        self.stats.count_admit(method, queued)
        self.stats.charge_latency(outcome.latency_s)
        self._note_peak()

    def _reject(self, outcome: RequestOutcome, reason: RejectReason) -> None:
        outcome.status = "rejected"
        outcome.reason = reason
        self.stats.count_reject(reason)
        self.stats.charge_latency(outcome.latency_s)
        self._emit(
            RUNTIME_REJECT,
            module=outcome.request.module.name,
            clock=self.clock,
            reason=str(reason),
        )

    def _admitted_shapes(self, request: RuntimeRequest) -> Module:
        """The request's module as admission sees it (primary shape only
        unless ``with_alternatives``)."""
        if self.config.with_alternatives:
            return request.module
        return request.module.restricted(1)

    def _deadline(self, request: RuntimeRequest) -> int:
        if request.deadline is not None:
            return request.deadline
        return request.arrival + self.config.max_queue_wait

    def _is_duplicate(self, name: str) -> bool:
        return (
            name in self._placements
            or any(
                item.request.module.name == name for item in self._pending
            )
            or any(
                r.request.module.name == name for r in self._reservations
            )
        )

    # ------------------------------------------------------------------
    # Reservations (horizon-bounded book-ahead admission)
    # ------------------------------------------------------------------
    def _try_reserve(
        self, request: RuntimeRequest, outcome: RequestOutcome
    ) -> bool:
        """Book the request at a future departure tick inside the horizon.

        The probe walks the departure ticks due within
        ``reservation_horizon`` in time order; at each candidate tick it
        projects the held cells forward (modules still resident then, an
        in-flight move window, sibling reservations whose run window
        overlaps the request's) and reads the request's anchor words on
        the ledger with those cells blocked.  The first tick with a
        feasible anchor books a concrete planned placement at its
        bottom-left anchor (:func:`~repro.fabric.masks.bottom_left_pick`).
        """
        cfg = self.config
        if len(self._reservations) >= cfg.reservation_capacity:
            return False
        module = self._admitted_shapes(request)
        deadline = self._deadline(request)
        # earliest scheduled departure per live module (the heap may hold
        # stale entries for explicitly departed names)
        dep_of: Dict[str, int] = {}
        for due, name in self._departures:
            if name in self._placements:
                prev = dep_of.get(name)
                dep_of[name] = due if prev is None else min(prev, due)
        ticks = sorted(
            {
                due
                for due in dep_of.values()
                if self.clock < due <= self.clock + cfg.reservation_horizon
                and due <= deadline
            }
        )
        if not ticks:
            return False
        for start in ticks:
            future = self._projected_occupancy(
                start, request.lifetime, dep_of
            )
            best = bottom_left_pick(self._ledger.anchors(module.shapes, future))
            if best is None:
                continue
            x, y, si = best
            reservation = Reservation(
                request=request,
                outcome=outcome,
                placement=Placement(module, si, x, y),
                start=start,
                deadline=deadline,
            )
            self._reservations.append(reservation)
            self._reservations.sort(key=lambda r: r.start)
            self._note_booking()
            outcome.status = "reserved"
            self.stats.reservations_booked += 1
            self._emit(
                RUNTIME_RESERVE,
                module=request.module.name,
                clock=self.clock,
                start=start,
            )
            return True
        return False

    def _projected_occupancy(
        self, tick: int, lifetime: int, dep_of: Dict[str, int]
    ) -> np.ndarray:
        """The held cells projected to ``tick`` as ledger words: modules
        still resident then (placed modules never overlap, so clearing the
        ones gone by ``tick`` leaves them), an in-flight move window, and
        sibling reservations whose run window overlaps ``[tick, tick +
        lifetime)``."""
        ledger = self._ledger
        occ = ledger.held.copy()
        for name, due in dep_of.items():
            if due <= tick:
                ledger.write(occ, self._placements[name], False)
        active = self._active_move
        if active is not None:
            occ |= active.window
        end = tick + lifetime
        for r in self._reservations:
            if r.start < end and tick < r.start + r.request.lifetime:
                ledger.write(occ, r.placement, True)
        return occ

    def _commit_due_reservations(self) -> None:
        """Land every due reservation (``start <= clock``): commit the
        planned placement when its cells are free, replan on the live
        floorplan when they are not, expire past the deadline."""
        for r in list(self._reservations):
            if r.start > self.clock:
                break  # sorted by start
            if self._commit_reservation(r):
                self._reservations.remove(r)
                self._note_booking()
            elif r.deadline <= self.clock:
                self._reservations.remove(r)
                self._note_booking()
                self.stats.reservations_expired += 1
                self._emit(
                    RUNTIME_RESERVATION_EXPIRE,
                    module=r.request.module.name,
                    clock=self.clock,
                    deadline=r.deadline,
                )
                self._reject(r.outcome, RejectReason.RESERVATION_EXPIRED)

    def _commit_reservation(self, r: Reservation) -> bool:
        """One commit attempt; True when the request landed (either on
        its planned cells or replanned on the current floorplan)."""
        placement, method = r.placement, "reservation"
        if self._ledger.overlaps(placement):
            # the planned cells were claimed since booking (a defrag
            # window, an instant pass teleporting a module onto them):
            # replan on the live floorplan with the sibling bookings
            # still protected
            placement, rule = self._place_once(
                self._admitted_shapes(r.request), r.outcome, exclude=r
            )
            if placement is None:
                return False
            method = f"reservation+{rule}"
        self._commit(r.request, r.outcome, placement, method, queued=False)
        self.stats.reservation_admits += 1
        self._emit(
            RUNTIME_RESERVATION_COMMIT,
            module=r.request.module.name,
            clock=self.clock,
            start=r.start,
        )
        return True

    # ------------------------------------------------------------------
    # Queue upkeep and defragmentation
    # ------------------------------------------------------------------
    def _expire_pending(self) -> None:
        if not self._pending:
            return
        kept: Deque[_Pending] = deque()
        while self._pending:
            item = self._pending.popleft()
            if item.deadline <= self.clock:
                self._reject(item.outcome, RejectReason.DEADLINE)
            else:
                kept.append(item)
        self._pending = kept

    def _retry_pending(self) -> None:
        """FIFO retry of queued requests against the current floorplan."""
        if not self._pending:
            return
        remaining: Deque[_Pending] = deque()
        while self._pending:
            item = self._pending.popleft()
            if item.deadline <= self.clock:
                self._reject(item.outcome, RejectReason.DEADLINE)
                continue
            if not self._try_admit(
                item.request, item.outcome, allow_defrag=False, queued=True
            ):
                remaining.append(item)
        self._pending = remaining

    def _after_space_freed(self) -> None:
        # due reservations hold seniority over the pending queue: they
        # were booked against exactly this kind of departure
        if self._reservations:
            self._commit_due_reservations()
        self._retry_pending()
        self._maybe_defrag(trigger="fragmentation")

    def _maybe_defrag(self, trigger: str) -> None:
        cfg = self.config
        # a threshold of 1.0 can never be exceeded (external fragmentation
        # is a ratio in [0, 1]) — skip the metric, a pure-Python
        # maximal-rectangles pass that would otherwise run per event
        if self._defragmenter is None or cfg.frag_threshold >= 1.0:
            return
        if self._active_move is not None or self._move_queue:
            return
        if len(self._placements) < 2:
            return
        if (
            self._last_defrag_clock is not None
            and self.clock - self._last_defrag_clock < cfg.defrag_cooldown
        ):
            return
        if self.fragmentation() <= cfg.frag_threshold:
            return
        self._defrag(trigger=trigger)

    def _defrag(self, trigger: str) -> bool:
        """One defrag pass over the live floorplan; True when an instant
        plan moved modules, the only case in which an immediate admission
        retry can succeed (a started no-break plan only adds window
        cells, so the free space shrinks until its moves complete).

        Every instant pass that moved modules retries the pending queue:
        compaction frees usable space exactly like a departure does.
        Without this, a reject-triggered pass inside :meth:`submit` left
        queued requests starving until the next departure even when they
        fit the compacted floorplan (the retry lived only on the
        departure path) — the regression is pinned in the tests.

        The planner is a pure function of the placement table, so a
        table whose last plan came back empty is not planned again: the
        pass returns at once (still stamping the cooldown clock) until a
        departure, admission or move changes the table.  The memo is keyed
        on the table itself, not on the ledger's revision, which
        reservation bookings bump although the planner never reads them.
        """
        if self._defragmenter is None or not self._placements:
            return False
        if self._active_move is not None or self._move_queue:
            # one plan at a time: replanning mid-execution would move
            # modules whose recorded positions are about to change
            return False
        t0 = time.monotonic()
        try:
            key = tuple(self._placements.values())
            if key == self._empty_plan_key:
                self._last_defrag_clock = self.clock
                return False
            plan = self._defragmenter.plan(
                self.result(),
                allow_shape_change=self.config.allow_shape_change,
            )
            self._last_defrag_clock = self.clock
            if not plan.moves:
                self._empty_plan_key = key
                return False
            self.stats.defrags += 1
            self.stats.defrag_planned_moves += len(plan.moves)
            self._emit(
                RUNTIME_DEFRAG,
                clock=self.clock,
                trigger=trigger,
                moves=len(plan.moves),
                extent_before=plan.initial_extent,
                extent_after=plan.final_extent,
            )
            if plan.instant:
                self._placements = {
                    p.module.name: p for p in plan.result.placements
                }
                self._ledger.reset(self._placements.values())
                self._note_peak()
                self.stats.defrag_moves += len(plan.moves)
                self.stats.defrag_executed_moves += len(plan.moves)
                self._retry_pending()
                return True
            # incremental: the plan starts holding its first window now
            # and completes move by move as the clock advances; space is
            # freed gradually, so the pending retry fires per completion
            self._move_queue.extend(plan.moves)
            self._start_next_move()
            return False
        finally:
            self.stats.defrag_time_s += time.monotonic() - t0

    # ------------------------------------------------------------------
    # No-break move execution
    # ------------------------------------------------------------------
    def _move_duration(self, move: PlannedMove) -> int:
        """Logical ticks the move window lasts (at least one)."""
        per_tick = self.config.defrag_frames_per_tick
        return max(1, -(-move.frames // per_tick))

    def _validate_move(self, move: PlannedMove) -> Optional[np.ndarray]:
        """The move's window words if the planned move is still
        executable right now, else None.

        Arrivals interleave with plan execution: the mover may have
        departed, been teleported by an instant pass, or an admission
        may have claimed part of the move window since planning.
        """
        p = self._placements.get(move.module)
        if (
            p is None
            or p.shape_index != move.from_shape
            or (p.x, p.y) != move.from_pos
        ):
            return None
        ledger = self._ledger
        window = ledger.cell_words(move.window_cells)
        if (window & ledger.lifted(p)).any():
            return None
        return window

    def _start_next_move(self) -> None:
        """Pop queued moves until one validates and holds its window."""
        while self._move_queue:
            move = self._move_queue.popleft()
            window = self._validate_move(move)
            if window is not None:
                self._active_move = _ActiveMove(
                    move, self.clock + self._move_duration(move), window
                )
                self._ledger.hold(window)
                self._emit(
                    RUNTIME_DEFRAG_STEP,
                    module=move.module,
                    clock=self.clock,
                    status="started",
                    move_kind=move.kind,
                    frames=move.frames,
                )
                self._check_moves()
                return
            self.stats.defrag_aborted_moves += 1
            self._emit(
                RUNTIME_DEFRAG_STEP,
                module=move.module,
                clock=self.clock,
                status="aborted",
                move_kind=move.kind,
                frames=move.frames,
            )

    def _complete_active_move(self) -> None:
        """The active move's window elapsed: switch over to the target."""
        active = self._active_move
        self._active_move = None
        move = active.move
        # the window covers the source cells: releasing it clears them
        self._ledger.release(active.window)
        p = self._placements[move.module]
        new_p = Placement(p.module, move.to_shape, *move.to_pos)
        self._placements[move.module] = new_p
        self._imprint(p, False)
        self._imprint(new_p, True)
        self._note_peak()
        self.stats.defrag_moves += 1
        self.stats.defrag_executed_moves += 1
        self._emit(
            RUNTIME_DEFRAG_STEP,
            module=move.module,
            clock=self.clock,
            status="completed",
            move_kind=move.kind,
            frames=move.frames,
        )
        self._check_moves()
        self._expire_pending()
        self._retry_pending()
        self._start_next_move()

    def _remove_cells(self, name: str, placement: Placement) -> None:
        """Clear a departing module's cells, cancelling its in-flight
        move (the caller already popped it from the placement table)."""
        self._imprint(placement, False)
        active = self._active_move
        if active is not None and active.move.module == name:
            self._active_move = None
            self._ledger.release(active.window)
            self.stats.defrag_aborted_moves += 1
            self._emit(
                RUNTIME_DEFRAG_STEP,
                module=name,
                clock=self.clock,
                status="aborted",
                move_kind=active.move.kind,
                frames=active.move.frames,
            )
            self._start_next_move()

    def check_invariants(self) -> None:
        """Verify the live floorplan, including any in-flight window.

        Raises ValueError on the first violation: an invalid placement
        (via :meth:`PlacementResult.verify`), a move window overlapping
        a placed module or leaving the allowed region, or ledger words
        out of sync with the placement table + window.
        """
        result = self.result()
        result.verify()
        expected = Occupancy(self.region, result.placements)
        active = self._active_move
        if active is not None:
            move = active.move
            window = expected.cell_words(move.window_cells)
            allowed = np.bitwise_or.reduce(expected.static, axis=0)
            p = self._placements.get(move.module)
            placed = expected.held if p is None else expected.lifted(p)
            for bad, what in (
                (window & ~allowed, "is outside the allowed region"),
                (window & placed, "overlaps a placed module"),
            ):
                cell = first_anchor(bad)
                if cell is not None:
                    raise ValueError(
                        f"move window cell ({cell[0]},{cell[1]}) of "
                        f"{move.module!r} {what}"
                    )
            expected.hold(window)
        if not np.array_equal(expected.held, self._ledger.held):
            raise ValueError(
                "ledger words out of sync with placements + move window"
            )
        area = expected.occupied_cells
        if self._ledger.occupied_cells != area:
            raise ValueError(
                f"occupied-cell count {self._ledger.occupied_cells} out of "
                f"sync with the placed area {area}"
            )

    def _check_moves(self) -> None:
        if self.config.verify_moves:
            self.check_invariants()

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def _emit(self, event: str, **data) -> None:
        # positional-style first param: event payloads may carry a field
        # literally named "kind" (runtime.defrag.step does)
        if self._tracer is not None:
            self._tracer.emit(event, **data)

    def _sample(self) -> Tuple[int, int, float, float]:
        res = self.result()
        return (
            self.clock,
            res.used_cells(),
            region_utilization(res),
            external_fragmentation(res),
        )

    def profile(self, shard: Optional[str] = None) -> SolveProfile:
        """The manager's counters as a mergeable SolveProfile record.

        ``shard`` labels the record for service-level merges (the sharded
        service passes its shard name so per-shard profiles stay
        attributable after a ``+`` merge).
        """
        profile = runtime_profile(self.stats, "runtime")
        if shard is not None:
            profile.meta["shard"] = shard
        return profile

    def _record_profile(self) -> None:
        session = obs_context.current()
        if session is not None:
            session.record(self.profile())


def runtime_profile(
    stats: RuntimeStats, stop_reason: str, **meta
) -> SolveProfile:
    """A :class:`SolveProfile` of runtime counters: ``meta`` first, then
    the ``runtime.*`` entries."""
    s = stats
    profile = SolveProfile(
        elapsed=s.total_latency_s,
        stop_reason=stop_reason,
        meta={
            **meta,
            "runtime.arrivals": s.arrivals,
            "runtime.admitted": s.admitted,
            "runtime.rejected": s.rejected,
            "runtime.departures": s.departures,
            "runtime.defrags": s.defrags,
            "runtime.defrag_moves": s.defrag_moves,
            "runtime.defrag_planned": s.defrag_planned_moves,
            "runtime.defrag_executed": s.defrag_executed_moves,
            "runtime.defrag_aborted": s.defrag_aborted_moves,
            "runtime.defrag_time_s": round(s.defrag_time_s, 6),
            "runtime.probe_errors": s.probe_errors,
            "runtime.queued_admits": s.queued_admits,
            "runtime.reservations_booked": s.reservations_booked,
            "runtime.reservation_admits": s.reservation_admits,
            "runtime.reservations_expired": s.reservations_expired,
            "runtime.mean_latency_s": round(s.mean_latency_s, 6),
            "runtime.max_latency_s": round(s.max_latency_s, 6),
            "runtime.peak_occupied_cells": s.peak_occupied_cells,
        },
    )
    return profile


# ----------------------------------------------------------------------
# Workload generation (the Table-I module distribution, made online)
# ----------------------------------------------------------------------
def generate_workload(
    n_requests: int,
    seed: int = 0,
    mean_interarrival: int = 2,
    mean_lifetime: int = 24,
    deadline_slack: Optional[int] = None,
    generator_config: Optional[GeneratorConfig] = None,
    profile: str = "uniform",
) -> List[RuntimeRequest]:
    """A seeded arrival/lifetime trace over the Table-I distribution.

    Interarrival gaps and lifetimes are uniform around their means (all
    driven by one seeded :class:`random.Random`), module footprints come
    from :class:`~repro.modules.generator.ModuleGenerator` — by default
    the paper's Table-I workload (20–100 CLBs, 0–4 BRAMs, four design
    alternatives per module).

    ``profile`` selects the arrival process:

    * ``"uniform"`` (default) — the historical uniform-gap trace.  It
      draws from the RNG in exactly the historical order, so existing
      ``(seed, kwargs)`` combinations reproduce byte-identical traces —
      pinned by the workload fingerprints in the tests.
    * ``"slack-heavy"`` — bursty arrivals (bursts of ~4 requests sharing
      one tick separated by long gaps), short lifetimes and generous
      deadlines (``deadline_slack`` defaults to ``2 * mean_lifetime``).
      The trace reservation-based admission is built for: admit-now
      managers reject burst overflow that a horizon probe can book onto
      the imminent departures.
    """
    import random

    if n_requests < 0:
        raise ValueError("n_requests must be >= 0")
    if profile not in ("uniform", "slack-heavy"):
        raise ValueError(f"unknown workload profile {profile!r}")
    rng = random.Random(seed)
    gen = ModuleGenerator(seed=seed, config=generator_config)
    t = 0
    out: List[RuntimeRequest] = []
    for i in range(n_requests):
        if profile == "slack-heavy":
            if i % 4 == 0:  # burst boundary: one long gap, then pile up
                t += max(1, 4 * mean_interarrival)
            lifetime = rng.randint(2, max(2, mean_lifetime))
            slack = (
                deadline_slack
                if deadline_slack is not None
                else 2 * mean_lifetime
            )
            deadline: Optional[int] = t + slack
        else:
            t += rng.randint(1, max(1, 2 * mean_interarrival - 1))
            lifetime = rng.randint(2, max(2, 2 * mean_lifetime - 2))
            deadline = None if deadline_slack is None else t + deadline_slack
        out.append(
            RuntimeRequest(
                module=gen.generate(),
                arrival=t,
                lifetime=lifetime,
                deadline=deadline,
            )
        )
    return out
