"""The due tick: ``RuntimePlacementManager.next_due`` and the early return
of ``advance_to`` before it.

``next_due()`` is the earliest tick at which ``advance_to`` does more than
set the clock.  Each case below builds one source of due work (a move
window ending, a pending deadline, a due reservation whose commit is
blocked, a fragmentation threshold below 1 with a defragmenter) and
checks both the answer and that an advance to that tick does the work on
that tick; without a defragmenter the threshold makes nothing due.  The last
test counts the advances that reach the event loop on a
``serve-steady``-shaped replay: only the ones with something due do.
"""

from __future__ import annotations

import heapq

from repro.core.runtime import (
    RejectReason,
    RuntimeConfig,
    RuntimePlacementManager,
    RuntimeRequest,
    generate_workload,
)
from repro.core.service import ShardedPlacementService
from repro.experiments.config import default_fabric
from repro.experiments.service_load import serving_config
from repro.fabric.devices import homogeneous_device
from repro.fabric.region import PartialRegion
from repro.modules.footprint import Footprint
from repro.modules.module import Module
from repro.obs import RecordingTracer


def region(w, h):
    return PartialRegion.whole_device(homogeneous_device(w, h))


def req(name, arrival, lifetime, deadline=None, w=2, h=2):
    return RuntimeRequest(
        Module(name, [Footprint.rectangle(w, h)]),
        arrival=arrival,
        lifetime=lifetime,
        deadline=deadline,
    )


def config(**kw):
    kw.setdefault("chain", ("greedy",))
    kw.setdefault("frag_threshold", 1.0)
    kw.setdefault("defragmenter", None)
    kw.setdefault("sample_timeline", False)
    return RuntimeConfig(**kw)


class TestNextDue:
    def test_nothing_scheduled(self):
        mgr = RuntimePlacementManager(region(4, 2), config())
        assert mgr.next_due() is None
        mgr.advance_to(9)
        assert mgr.clock == 9

    def test_departure_heap_head(self):
        mgr = RuntimePlacementManager(region(4, 2), config())
        mgr.submit(req("a", 1, 5))
        mgr.submit(req("b", 1, 7))
        assert mgr.next_due() == 6
        mgr.advance_to(5)
        assert mgr.stats.departures == 0
        mgr.advance_to(6)
        assert mgr.stats.departures == 1
        assert mgr.next_due() == 8

    def test_move_end(self):
        # a(2)|b(2)|c(2) in an 8x1 corridor; b leaves at 5, and the
        # 4-wide d arriving at 6 triggers a no-break slide of c into b's
        # gap, whose window lasts one tick (4 frames at 8 per tick)
        mgr = RuntimePlacementManager(
            region(8, 1),
            config(defragmenter="no-break"),
        )
        mgr.submit(req("a", 0, 100, w=2, h=1))
        mgr.submit(req("b", 0, 5, w=2, h=1))
        mgr.submit(req("c", 0, 100, w=2, h=1))
        d = mgr.submit(req("d", 6, 100, w=4, h=1))
        assert d.status == "queued"
        assert mgr.moves_in_flight == 1
        assert mgr.next_due() == 7  # before d's deadline and a/c's departure
        mgr.advance_to(7)
        assert mgr.moves_in_flight == 0
        assert d.admitted and d.admitted_at == 7

    def test_pending_deadline(self):
        tracer = RecordingTracer()
        mgr = RuntimePlacementManager(region(4, 2), config(tracer=tracer))
        mgr.submit(req("a", 0, 50, w=4))
        b = mgr.submit(req("b", 1, 5, deadline=5))
        assert b.status == "queued"
        assert mgr.next_due() == 5
        mgr.advance_to(4)
        assert b.status == "queued"
        mgr.advance_to(6)
        assert b.reason is RejectReason.DEADLINE
        # the first advance at or past the deadline expires the request
        [reject] = tracer.by_kind("runtime.reject")
        assert reject.data["clock"] == 6

    def test_due_but_blocked_reservation(self):
        mgr = RuntimePlacementManager(
            region(4, 2), config(queue_capacity=0, reservation_horizon=10)
        )
        mgr.submit(req("a", 1, 50))
        mgr.submit(req("b", 1, 5))
        c = mgr.submit(req("c", 2, 30, deadline=9))
        assert c.status == "reserved"
        assert mgr.next_due() == 6  # b's departure and c's start
        # b overstays its declared lifetime (white-box: postpone its
        # departure), so c's booked cells are still taken at its start
        mgr._departures = [
            (100 if name == "b" else t, name) for t, name in mgr._departures
        ]
        heapq.heapify(mgr._departures)
        mgr.advance_to(7)
        assert c.status == "reserved"
        # still due: every advance retries the commit until the deadline
        assert mgr.next_due() == 6 <= mgr.clock
        mgr.advance_to(9)
        assert c.reason is RejectReason.RESERVATION_EXPIRED
        assert mgr.next_due() == 51

    def test_fragmentation_threshold_below_one(self):
        mgr = RuntimePlacementManager(
            region(4, 2),
            config(frag_threshold=0.6, defragmenter="greedy-compaction"),
        )
        assert mgr.next_due() == 0
        mgr.advance_to(3)
        assert mgr.next_due() == 3

    @staticmethod
    def _fragmented(defragmenter):
        """a(1)|b(1)|c(1)|d(1)|e(1) in a 6x1 corridor; b and d leave at
        5, so the free cells 1, 3 and 5 are three 1-wide holes."""
        mgr = RuntimePlacementManager(
            region(6, 1),
            config(
                frag_threshold=0.6,
                defrag_cooldown=0,
                defragmenter=defragmenter,
            ),
        )
        for name, lifetime in zip("abcde", (100, 5, 100, 5, 100)):
            assert mgr.submit(req(name, 0, lifetime, w=1, h=1)).admitted
        return mgr

    def test_fragmented_floorplan_without_defragmenter(self):
        """With ``defragmenter=None`` a fragmentation threshold below 1
        runs no pass, and ``next_due()`` is the next departure, not the
        clock on every tick.  The same floorplan with a defragmenter is
        due every tick and compacts on the departures' tick."""
        mgr = self._fragmented(None)
        assert mgr.next_due() == 5
        mgr.advance_to(5)
        assert mgr.fragmentation() > 0.6
        assert mgr.stats.defrags == 0
        assert mgr.next_due() == 100
        mgr.advance_to(50)
        assert mgr.stats.defrags == 0
        assert mgr.next_due() == 100

        mgr = self._fragmented("greedy-compaction")
        assert mgr.next_due() == 0
        mgr.advance_to(5)
        assert mgr.stats.defrags == 1
        assert mgr.next_due() == 5


def test_advances_reach_the_event_loop_only_when_due(monkeypatch):
    """On a ``serve-steady``-shaped replay the service advances every
    shard before each arrival and the offered shard again, about five
    calls per request; only the ones with something due run the event
    loop and queue upkeep (seen as a call of ``_expire_pending``)."""
    advance = RuntimePlacementManager.advance_to
    expire = RuntimePlacementManager._expire_pending
    seen = {"calls": 0, "reached": 0, "hit": False}

    def counting_advance(self, t):
        seen["calls"] += 1
        seen["hit"] = False
        advance(self, t)
        seen["reached"] += seen["hit"]

    def counting_expire(self):
        seen["hit"] = True
        expire(self)

    monkeypatch.setattr(RuntimePlacementManager, "advance_to", counting_advance)
    monkeypatch.setattr(RuntimePlacementManager, "_expire_pending", counting_expire)
    n = 500
    service = ShardedPlacementService(
        ShardedPlacementService.split(default_fabric(), 4),
        serving_config(router="affinity", chain=("cp", "greedy")),
    )
    log = service.run(
        generate_workload(n, seed=0, mean_interarrival=2, mean_lifetime=24)
    )
    s = log.stats
    # the service loop still advances every shard per arrival
    assert seen["calls"] >= 4 * n
    # each advance past the early return consumes a due event: a
    # departure (one per admission), a completed move, a reservation
    # start or a pending deadline
    events = (
        s.admitted
        + s.defrag_executed_moves
        + s.reservations_booked
        + s.rejected_by_reason.get(str(RejectReason.DEADLINE), 0)
    )
    assert seen["reached"] <= events
