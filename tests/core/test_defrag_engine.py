"""The defragmenter table and no-break execution on the runtime clock.

Covers the engine surface the property suite doesn't: the name table
(like the backends' and routers'), config validation, the S2
latency-accounting split, and deterministic no-break scenarios where
move windows interact with admissions, departures and the drain.
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np
import pytest

from repro.core.defrag import (
    DEFRAGMENTERS,
    DefragPlan,
    Defragmenter,
    GreedyCompactionDefragmenter,
    NoBreakDefragmenter,
)
from repro.core.runtime import (
    RuntimeConfig,
    RuntimePlacementManager,
    RuntimeRequest,
)
from repro.fabric.devices import homogeneous_device
from repro.fabric.region import PartialRegion
from repro.modules.footprint import Footprint
from repro.modules.module import Module
from repro.obs.schema import validate_event
from repro.obs.trace import RecordingTracer


def rect(name, w, h=1):
    return Module(name, [Footprint.rectangle(w, h)])


def req(module, arrival, lifetime=100):
    return RuntimeRequest(module=module, arrival=arrival, lifetime=lifetime)


def corridor(width=8):
    return PartialRegion.whole_device(homogeneous_device(width, 1))


def no_break_cfg(**kw):
    kw.setdefault("chain", ("greedy",))
    kw.setdefault("defragmenter", "no-break")
    kw.setdefault("frag_threshold", 1.0)  # reject-triggered passes only
    kw.setdefault("verify_moves", True)
    kw.setdefault("sample_timeline", False)
    return RuntimeConfig(**kw)


# ----------------------------------------------------------------------
# The name table
# ----------------------------------------------------------------------
class TestDefragmenterRegistry:
    def test_builtins_registered(self):
        assert DEFRAGMENTERS == {
            "greedy-compaction": GreedyCompactionDefragmenter,
            "no-break": NoBreakDefragmenter,
        }

    def test_create_returns_fresh_instances(self):
        """Every manager plans with its own planner instance."""
        cfg = RuntimeConfig(defragmenter="no-break")
        a = RuntimePlacementManager(corridor(), cfg)._defragmenter
        b = RuntimePlacementManager(corridor(), cfg)._defragmenter
        assert isinstance(a, NoBreakDefragmenter)
        assert a is not b

    def test_unknown_name_is_loud_and_lists_known(self):
        with pytest.raises(ValueError, match="no-break"):
            RuntimeConfig(defragmenter="definitely-not-registered").validate()

    def test_config_validates_defragmenter_name(self):
        with pytest.raises(ValueError, match="unknown defragmenter"):
            RuntimeConfig(defragmenter="nope").validate()
        RuntimeConfig(defragmenter=None).validate()
        with pytest.raises(ValueError, match="defrag_frames_per_tick"):
            RuntimeConfig(defrag_frames_per_tick=0).validate()


# ----------------------------------------------------------------------
# S2: defrag wall time is not the triggering request's latency
# ----------------------------------------------------------------------
class _SlowNoopDefragmenter(Defragmenter):
    """Sleeps, then plans nothing — pure measurable defrag overhead."""

    name = "slow-noop-test"
    instant = True

    def plan(self, result, allow_shape_change=False, max_moves=None):
        time.sleep(0.08)
        extent = result.extent or 0
        return DefragPlan(
            result=result, moves=[],
            initial_extent=extent, final_extent=extent, instant=True,
        )


class TestDefragLatencyAccounting:
    def test_reject_triggered_pass_charged_to_defrag_time(self, monkeypatch):
        """Regression: ``_try_admit`` charged the whole reject-triggered
        defrag pass to the triggering request's ``latency_s``, skewing
        the p99 admission-latency gate.  The pass belongs in
        ``RuntimeStats.defrag_time_s``; the request's latency stays its
        own placement-probe time."""
        monkeypatch.setitem(
            DEFRAGMENTERS, "slow-noop-test", _SlowNoopDefragmenter
        )
        mgr = RuntimePlacementManager(
            corridor(8),
            RuntimeConfig(
                chain=("greedy",),
                defragmenter="slow-noop-test",
                frag_threshold=1.0,
                queue_capacity=0,
                sample_timeline=False,
            ),
        )
        assert mgr.submit(req(rect("a", 2), 0)).admitted
        # 9 wide never fits the 8-wide corridor -> reject path,
        # which triggers the (slow) defrag pass
        outcome = mgr.submit(req(rect("big", 9), 1))
        assert outcome.status == "rejected"
        assert mgr.stats.defrag_time_s >= 0.08
        assert outcome.latency_s < mgr.stats.defrag_time_s
        # the split is exclusive: the request's own latency did not
        # absorb the sleep
        assert outcome.latency_s < 0.04


# ----------------------------------------------------------------------
# No-break execution on the logical clock
# ----------------------------------------------------------------------
class TestNoBreakExecution:
    def _fragmented_corridor(self, tracer=None, **cfg_kw):
        """a(2)|b(2)|c(2) in an 8-corridor; b departs at t=5, leaving
        the gap a..[gap]..c that blocks a 4-wide arrival."""
        mgr = RuntimePlacementManager(
            corridor(8), no_break_cfg(tracer=tracer, **cfg_kw)
        )
        assert mgr.submit(req(rect("a", 2), 0)).admitted
        assert mgr.submit(req(rect("b", 2), 0, lifetime=5)).admitted
        assert mgr.submit(req(rect("c", 2), 0)).admitted
        assert [p.x for p in mgr.placements] == [0, 2, 4]
        return mgr

    def test_move_window_holds_both_source_and_target(self):
        tracer = RecordingTracer()
        mgr = self._fragmented_corridor(tracer=tracer)
        # t=6: b is gone; d(4) does not fit (free: x=2..3, 6..7) -> the
        # reject triggers a no-break plan: slide c from x=4 to x=2
        outcome = mgr.submit(req(rect("d", 4), 6))
        assert outcome.status == "queued"
        assert mgr.moves_in_flight == 1
        # during the window the slide holds x=2..5: source, target and
        # every glided-over cell are all occupied
        occ = mgr.occupancy_mask()
        assert occ[0, 2] and occ[0, 3] and occ[0, 4] and occ[0, 5]
        started = [
            e for e in tracer.events
            if e.kind == "runtime.defrag.step"
            and e.data["status"] == "started"
        ]
        assert len(started) == 1
        assert started[0].data["move_kind"] == "slide"

    def test_completion_frees_space_and_admits_pending(self):
        mgr = self._fragmented_corridor()
        outcome = mgr.submit(req(rect("d", 4), 6))
        assert outcome.status == "queued"
        mgr.advance_to(7)  # the 4-frame slide lasts 1 tick at 8 f/tick
        assert mgr.moves_in_flight == 0
        assert outcome.status == "admitted"
        assert outcome.admitted_at == 7
        placed = {p.module.name: p.x for p in mgr.placements}
        assert placed["c"] == 2  # slid left into b's gap
        assert placed["d"] == 4  # admitted into the freed right half
        assert mgr.stats.defrag_executed_moves == 1
        assert mgr.stats.defrag_aborted_moves == 0
        mgr.check_invariants()

    def test_mover_departure_mid_window_aborts(self):
        tracer = RecordingTracer()
        mgr = RuntimePlacementManager(
            corridor(8),
            no_break_cfg(tracer=tracer, defrag_frames_per_tick=1),
        )
        assert mgr.submit(req(rect("a", 2), 0)).admitted
        assert mgr.submit(req(rect("b", 2), 0, lifetime=5)).admitted
        # c's lifetime ends at t=8, inside the 4-tick window starting t=6
        assert mgr.submit(req(rect("c", 2), 0, lifetime=8)).admitted
        mgr.submit(req(rect("d", 4), 6))  # queues; plan starts at t=6
        assert mgr.moves_in_flight == 1
        mgr.advance_to(20)
        assert mgr.stats.defrag_executed_moves == 0
        assert mgr.stats.defrag_aborted_moves == 1
        aborted = [
            e for e in tracer.events
            if e.kind == "runtime.defrag.step"
            and e.data["status"] == "aborted"
        ]
        assert [e.data["module"] for e in aborted] == ["c"]
        # the window was released with the mover: d fit once c left
        assert {p.module.name for p in mgr.placements} >= {"a", "d"}
        mgr.check_invariants()

    def test_drain_finishes_in_flight_moves(self):
        mgr = self._fragmented_corridor()
        outcome = mgr.submit(req(rect("d", 4), 6))
        assert mgr.moves_in_flight == 1
        mgr.drain()
        assert mgr.moves_in_flight == 0
        assert outcome.status == "admitted"
        mgr.check_invariants()

    def test_step_events_validate_against_schema(self):
        tracer = RecordingTracer()
        mgr = self._fragmented_corridor(tracer=tracer)
        mgr.submit(req(rect("d", 4), 6))
        mgr.drain()
        steps = [
            e for e in tracer.events if e.kind == "runtime.defrag.step"
        ]
        assert steps
        for event in steps:
            assert validate_event(event.to_dict()) == []

    def test_profile_carries_move_counters(self):
        mgr = self._fragmented_corridor()
        mgr.submit(req(rect("d", 4), 6))
        mgr.drain()
        meta = mgr.profile().meta
        assert meta["runtime.defrag_planned"] == 1
        assert meta["runtime.defrag_executed"] == 1
        assert meta["runtime.defrag_aborted"] == 0
        assert meta["runtime.defrag_time_s"] >= 0.0

    def test_window_cells_rejected_for_admission(self):
        """An arrival during the move window may not claim window cells:
        d(2) arriving mid-window must go to x=6, not into the still-held
        slide corridor."""
        mgr = self._fragmented_corridor()
        mgr.submit(req(rect("big", 4), 6))  # queues, starts the slide
        small = mgr.submit(req(rect("s", 2), 6))
        assert small.admitted
        assert small.placement.x == 6
        mgr.check_invariants()


class TestInvariantCheckTrips:
    """``check_invariants`` compares the live ledger with one rebuilt from
    the placements: each drift it guards against raises its own error."""

    def _mid_slide(self):
        # x = 7 is static; at t = 6 b has left, d(4) does not fit, and the
        # reject starts a slide of c from x = 4 to x = 2 (window x = 2..5)
        mask = np.ones((1, 8), dtype=bool)
        mask[0, 7] = False
        mgr = RuntimePlacementManager(
            PartialRegion(homogeneous_device(8, 1), mask),
            no_break_cfg(verify_moves=False),
        )
        assert mgr.submit(req(rect("a", 2), 0)).admitted
        assert mgr.submit(req(rect("b", 2), 0, lifetime=5)).admitted
        assert mgr.submit(req(rect("c", 2), 0)).admitted
        assert mgr.submit(req(rect("d", 4), 6)).status == "queued"
        assert mgr.moves_in_flight == 1
        mgr.check_invariants()
        return mgr

    def _with_window(self, mgr, cells):
        active = mgr._active_move
        mgr._active_move = replace(
            active, move=replace(active.move, window_cells=tuple(cells))
        )

    def test_stray_held_cell(self):
        mgr = self._mid_slide()
        mgr._ledger.held[6, 0] |= np.uint64(1)  # cell (6, 0) is free
        with pytest.raises(ValueError, match="out of sync"):
            mgr.check_invariants()

    def test_occupied_count_drift(self):
        mgr = self._mid_slide()
        mgr._ledger.occupied_cells += 1
        with pytest.raises(ValueError, match="occupied-cell count"):
            mgr.check_invariants()

    def test_window_over_a_placed_module(self):
        mgr = self._mid_slide()
        self._with_window(mgr, [(1, 0), (2, 0), (3, 0), (4, 0), (5, 0)])
        with pytest.raises(
            ValueError, match=r"cell \(1,0\) of 'c' overlaps a placed module"
        ):
            mgr.check_invariants()

    def test_window_outside_the_allowed_region(self):
        mgr = self._mid_slide()
        self._with_window(mgr, [(2, 0), (3, 0), (4, 0), (5, 0), (7, 0)])
        with pytest.raises(
            ValueError, match=r"cell \(7,0\) of 'c' is outside the allowed"
        ):
            mgr.check_invariants()
