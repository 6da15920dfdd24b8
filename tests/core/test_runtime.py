"""The online runtime placement manager: admission, backpressure, defrag.

Scenario tests run on tiny scripted fabrics so every admission decision
is forced; the end-to-end comparison rides the seeded Table-I-style
workload of the experiment layer.
"""

from __future__ import annotations

import pytest

from repro.core.runtime import (
    RejectReason,
    RequestOutcome,
    RuntimeConfig,
    RuntimePlacementManager,
    RuntimeRequest,
    generate_workload,
)
from repro.modules.generator import GeneratorConfig
from repro.fabric.devices import homogeneous_device
from repro.fabric.region import PartialRegion
from repro.modules.footprint import Footprint
from repro.modules.module import Module
from repro.obs import RecordingTracer, profiling_session, validate_event
from repro.fabric.masks import bottom_left_pick
from tests.support import SlowDecline, installed_rules


def region_w(width: int, height: int = 2) -> PartialRegion:
    return PartialRegion.whole_device(homogeneous_device(width, height))


def rect(name: str, w: int, h: int = 2) -> Module:
    return Module(name, [Footprint.rectangle(w, h)])


def req(module: Module, arrival: int, lifetime: int = 100, deadline=None):
    return RuntimeRequest(module, arrival, lifetime, deadline)


def greedy_cfg(**kw) -> RuntimeConfig:
    return RuntimeConfig(chain=("greedy",), **kw)


class TestAdmissionBasics:
    def test_admit_and_depart(self):
        mgr = RuntimePlacementManager(region_w(6), greedy_cfg())
        out = mgr.submit(req(rect("a", 2), arrival=1, lifetime=3))
        assert out.admitted and out.method == "greedy"
        assert out.placement is not None and out.admitted_at == 1
        mgr.result().verify()
        mgr.advance_to(10)  # departure at t=4
        assert mgr.placements == []
        assert mgr.stats.departures == 1

    def test_reject_no_fit_is_graceful(self):
        mgr = RuntimePlacementManager(
            region_w(4), greedy_cfg(queue_capacity=0)
        )
        out = mgr.submit(req(rect("big", 6), arrival=1))
        assert out.status == "rejected"
        assert out.reason == RejectReason.NO_FIT
        assert mgr.stats.rejected_by_reason == {"no_fit": 1}

    def test_duplicate_names_rejected(self):
        mgr = RuntimePlacementManager(region_w(8), greedy_cfg())
        assert mgr.submit(req(rect("m", 2), 1)).admitted
        dup = mgr.submit(req(rect("m", 2), 2))
        assert dup.reason == RejectReason.DUPLICATE

    def test_alternatives_restricted_when_disabled(self):
        # 1x2 fits only via the second alternative: off → reject, on → fit
        tall = Module(
            "t", [Footprint.rectangle(4, 1), Footprint.rectangle(1, 2)]
        )
        blocker = Module("b", [Footprint.rectangle(3, 2)])
        for with_alts, expect in ((False, "rejected"), (True, "admitted")):
            mgr = RuntimePlacementManager(
                region_w(4),
                greedy_cfg(
                    with_alternatives=with_alts, queue_capacity=0,
                    defragmenter=None,
                ),
            )
            assert mgr.submit(req(blocker, 1)).admitted
            assert mgr.submit(req(tall, 2)).status == expect

    def test_clock_never_goes_backwards(self):
        mgr = RuntimePlacementManager(region_w(6), greedy_cfg())
        mgr.submit(req(rect("a", 2), arrival=5))
        with pytest.raises(ValueError):
            mgr.advance_to(3)


class TestDefragAdmission:
    """A rejected arrival is admitted after a defrag pass (the tentpole
    scenario), pinned for both shape-change policies."""

    @pytest.mark.parametrize("allow_shape_change", [False, True])
    def test_defrag_unlocks_admission(self, allow_shape_change):
        # 6x2 fabric: a(2)|b(1)|c(2) leaves one free column at x=5;
        # b departs -> two 1-wide holes; d(2x2) needs defrag to fit
        tracer = RecordingTracer()
        mgr = RuntimePlacementManager(
            region_w(6),
            greedy_cfg(
                allow_shape_change=allow_shape_change, tracer=tracer,
            ),
        )
        assert mgr.submit(req(rect("a", 2), 1, lifetime=100)).admitted
        assert mgr.submit(req(rect("b", 1), 1, lifetime=3)).admitted
        assert mgr.submit(req(rect("c", 2), 2, lifetime=100)).admitted
        # b departs at t=4; free space is now cols {2, 5} (shattered)
        out = mgr.submit(req(rect("d", 2), 5, lifetime=100))
        assert out.admitted
        assert out.method == "greedy+defrag"
        assert mgr.stats.defrags >= 1
        mgr.result().verify()
        assert tracer.count("runtime.defrag") >= 1

    def test_without_defrag_the_same_trace_rejects(self):
        mgr = RuntimePlacementManager(
            region_w(6),
            greedy_cfg(
                defragmenter=None, queue_capacity=0,
            ),
        )
        assert mgr.submit(req(rect("a", 2), 1, lifetime=100)).admitted
        assert mgr.submit(req(rect("b", 1), 1, lifetime=3)).admitted
        assert mgr.submit(req(rect("c", 2), 2, lifetime=100)).admitted
        out = mgr.submit(req(rect("d", 2), 5, lifetime=100))
        assert out.status == "rejected"
        assert out.reason == RejectReason.NO_FIT


class TestEmptyPlanMemo:
    """A floorplan whose last defrag plan came back empty is not planned
    again until its placement table changes; the cooldown clock is
    still stamped on every pass."""

    def manager(self):
        mgr = RuntimePlacementManager(
            region_w(8), greedy_cfg(frag_threshold=1.0, queue_capacity=0)
        )
        planner = mgr._defragmenter
        plan = planner.plan
        calls = []

        def counted(*args, **kwargs):
            calls.append(mgr.clock)
            return plan(*args, **kwargs)

        planner.plan = counted
        # a|b|c packed from the left, columns 6-7 free: already compact
        for name in "abc":
            assert mgr.submit(req(rect(name, 2), 1)).admitted
        return mgr, calls

    @staticmethod
    def decline(mgr, name, width, arrival):
        request = req(rect(name, width), arrival)
        assert mgr.offer(request, RequestOutcome(request)) is None
        assert mgr._last_defrag_clock == arrival

    def test_unchanged_floorplan_plans_once(self):
        mgr, calls = self.manager()
        self.decline(mgr, "x", 3, 2)
        self.decline(mgr, "y", 3, 3)
        assert calls == [2]
        assert mgr.stats.defrags == 0

    def test_departure_replans(self):
        mgr, calls = self.manager()
        self.decline(mgr, "x", 3, 2)
        assert mgr.depart("c") is not None
        self.decline(mgr, "y", 5, 3)
        self.decline(mgr, "z", 5, 4)
        assert calls == [2, 3]

    def test_admission_replans(self):
        mgr, calls = self.manager()
        self.decline(mgr, "x", 3, 2)
        request = req(rect("f", 1), 3)
        assert mgr.offer(request, RequestOutcome(request)) is not None
        self.decline(mgr, "y", 3, 4)
        self.decline(mgr, "z", 3, 5)
        assert calls == [2, 4]


class TestBackpressure:
    def test_queue_full_rejects_immediately(self):
        mgr = RuntimePlacementManager(
            region_w(2), greedy_cfg(queue_capacity=1)
        )
        assert mgr.submit(req(rect("a", 2), 1, lifetime=50)).admitted
        assert mgr.submit(req(rect("b", 2), 2)).status == "queued"
        out = mgr.submit(req(rect("c", 2), 3))
        assert out.reason == RejectReason.QUEUE_FULL
        assert mgr.pending_count == 1

    def test_queued_request_admitted_after_departure(self):
        mgr = RuntimePlacementManager(
            region_w(2), greedy_cfg(queue_capacity=2, max_queue_wait=20)
        )
        assert mgr.submit(req(rect("a", 2), 1, lifetime=4)).admitted
        queued = mgr.submit(req(rect("b", 2), 2, lifetime=5))
        assert queued.status == "queued"
        mgr.advance_to(10)  # a departs at t=5, b is retried
        assert queued.admitted
        assert queued.admitted_at == 5 and queued.request.arrival == 2
        assert mgr.stats.queued_admits == 1

    def test_deadline_expires_in_queue(self):
        tracer = RecordingTracer()
        mgr = RuntimePlacementManager(
            region_w(2), greedy_cfg(queue_capacity=2, tracer=tracer)
        )
        assert mgr.submit(req(rect("a", 2), 1, lifetime=50)).admitted
        queued = mgr.submit(req(rect("b", 2), 2, deadline=5))
        assert queued.status == "queued"
        mgr.advance_to(6)
        assert queued.status == "rejected"
        assert queued.reason == RejectReason.DEADLINE
        kinds = tracer.kinds()
        assert kinds.get("runtime.reject") == 1

    def test_drain_settles_everything(self):
        mgr = RuntimePlacementManager(
            region_w(2), greedy_cfg(queue_capacity=4, max_queue_wait=100)
        )
        mgr.submit(req(rect("a", 2), 1, lifetime=3))
        mgr.submit(req(rect("b", 2), 2, lifetime=3))  # queued
        mgr.submit(req(rect("c", 2), 2, lifetime=3))  # queued behind b
        mgr.drain()
        assert mgr.pending_count == 0
        statuses = [o.status for o in mgr.outcomes]
        assert statuses[0] == "admitted" and "queued" not in statuses


class TestQueueRegressions:
    """Pinned queue bugs: both tests fail on the pre-fix manager."""

    def test_reject_triggered_defrag_retries_the_pending_queue(self):
        """Starvation regression: defrag frees space, queue must be retried.

        8x2 fabric. a(3)|b(2)|c(2) leave col 7 free; q(3) queues. b
        departs -> free cols {3,4,7}, still no 3-wide window, q stays
        queued.  e(4) arrives, cannot fit, and its reject-triggered
        defrag compacts a+c -> cols 5-7 free and contiguous.  q now
        fits — but pre-fix only departures retried the queue, so q sat
        starving until drain despite fitting the compacted floorplan.
        """
        mgr = RuntimePlacementManager(
            region_w(8),
            greedy_cfg(
                queue_capacity=4,
                max_queue_wait=100,
                frag_threshold=1.0,  # never fragmentation-triggered
                defrag_cooldown=0,
            ),
        )
        assert mgr.submit(req(rect("a", 3), 1, lifetime=100)).admitted
        assert mgr.submit(req(rect("b", 2), 1, lifetime=4)).admitted
        assert mgr.submit(req(rect("c", 2), 2, lifetime=100)).admitted
        q = mgr.submit(req(rect("q", 3), 3, lifetime=100))
        assert q.status == "queued"
        mgr.advance_to(6)  # b departed at t=5; {3,4,7} free, q still queued
        assert q.status == "queued"
        e = mgr.submit(req(rect("e", 4), 6, lifetime=100))
        assert mgr.stats.defrags >= 1  # e's rejection triggered a pass
        assert not e.admitted
        # the defrag pass freed a 3-wide window: q must be admitted NOW,
        # not at the next departure (pre-fix: still "queued" here)
        assert q.admitted
        assert q.admitted_at == 6
        assert mgr.stats.queued_admits == 1
        mgr.result().verify()

    def test_drain_labels_unexpired_pending_as_drained(self):
        """Drain regression: an unexpired queued request is not a
        deadline miss — pre-fix it was reported as DEADLINE even though
        its deadline lay far in the future."""
        mgr = RuntimePlacementManager(
            region_w(2), greedy_cfg(queue_capacity=4)
        )
        # 3-wide on a 2-wide fabric: can never fit, queues forever
        never = mgr.submit(req(rect("never", 3), 1, deadline=1000))
        assert never.status == "queued"
        mgr.drain()
        assert never.status == "rejected"
        assert never.reason == RejectReason.DRAINED  # pre-fix: DEADLINE
        assert mgr.clock < 1000  # its deadline genuinely had not passed

    def test_drain_plays_out_departures_of_queue_admissions(self):
        """Drain regression: a request admitted from the queue while drain
        plays out departures gets a departure later than every one known
        when drain started.  Pre-fix, drain advanced once to the latest
        known departure (A's, t=10) and left B placed at clock 10."""
        mgr = RuntimePlacementManager(
            PartialRegion.whole_device(homogeneous_device(4, 4)),
            greedy_cfg(queue_capacity=4, defragmenter=None),
        )
        a = mgr.submit(req(rect("A", 4, 4), 0, lifetime=10))
        b = mgr.submit(req(rect("B", 4, 4), 1, lifetime=50))
        assert a.admitted and b.status == "queued"
        mgr.drain()
        assert b.admitted and b.admitted_at == 10
        assert not mgr.placements  # pre-fix: B still placed
        assert mgr.clock == 60  # B's departure was played
        assert mgr.stats.departures == 2
        mgr.check_invariants()

    def test_drain_still_reports_real_deadline_misses(self):
        """The honest counterpart: a queued request whose deadline passes
        while drain plays out departures is still a DEADLINE reject."""
        mgr = RuntimePlacementManager(
            region_w(2), greedy_cfg(queue_capacity=4)
        )
        assert mgr.submit(req(rect("a", 2), 1, lifetime=10)).admitted
        expired = mgr.submit(req(rect("late", 3), 2, deadline=6))
        assert expired.status == "queued"
        mgr.drain()  # advances to a's departure at t=11, past deadline 6
        assert expired.reason == RejectReason.DEADLINE


class TestCrashInjection:
    """No exception escapes the manager's serving path."""

    def test_cp_probe_crash_falls_back_to_greedy(self, monkeypatch):
        import repro.core.runtime as runtime

        def boom(masks):
            raise RuntimeError("injected solver crash")

        # only the cp entry: greedy shares its pick
        monkeypatch.setitem(runtime.PICK_RULES, "cp", boom)
        mgr = RuntimePlacementManager(region_w(6), RuntimeConfig(chain=("cp", "greedy")))
        out = mgr.submit(req(rect("a", 2), 1))
        assert out.admitted and out.method == "greedy"
        assert out.errors and "injected" in out.errors[0]
        assert mgr.stats.probe_errors == 1

    def test_cp_probe_crash_is_traced(self, monkeypatch):
        import repro.core.runtime as runtime

        def boom(masks):
            raise RuntimeError("injected solver crash")

        monkeypatch.setitem(runtime.PICK_RULES, "cp", boom)
        tracer = RecordingTracer()
        mgr = RuntimePlacementManager(
            region_w(6), RuntimeConfig(chain=("cp", "greedy"), tracer=tracer)
        )
        assert mgr.submit(req(rect("a", 2), 1)).method == "greedy"
        cp, greedy = (e.data for e in tracer.by_kind("backend.result"))
        assert (cp["backend"], cp["status"]) == ("cp", "error")
        assert "injected" in cp["error"] and greedy["backend"] == "greedy"
        for e in tracer.events:
            assert validate_event(e.to_dict()) == []

    def test_total_probe_failure_rejects_gracefully(self, monkeypatch):
        import repro.core.runtime as runtime

        def boom(masks):
            raise RuntimeError("cp down")

        def greedy_boom(masks):
            raise RuntimeError("mask kernel down")

        monkeypatch.setitem(runtime.PICK_RULES, "cp", boom)
        monkeypatch.setitem(runtime.PICK_RULES, "greedy", greedy_boom)
        mgr = RuntimePlacementManager(
            region_w(6), RuntimeConfig(chain=("cp", "greedy"), queue_capacity=0)
        )
        out = mgr.submit(req(rect("a", 2), 1))
        assert out.status == "rejected"
        assert out.reason == RejectReason.NO_FIT
        assert len(out.errors) >= 2
        assert mgr.stats.probe_errors >= 2


class TestChainSweep:
    """A rule's proof of no fit ends the sweep."""

    @pytest.fixture
    def rungs(self, monkeypatch):
        """Installs a ``spy`` rule (the bottom-left pick) and logs the
        name of every module it is asked to place; yields the log."""
        import repro.core.runtime as runtime

        calls = []
        pick = RuntimePlacementManager._pick

        def logged(self, name, module, exclude):
            if name == "spy":
                calls.append(module.name)
            return pick(self, name, module, exclude)

        monkeypatch.setitem(runtime.PICK_RULES, "spy", bottom_left_pick)
        monkeypatch.setattr(RuntimePlacementManager, "_pick", logged)
        yield calls

    @staticmethod
    def _submit(chain, module):
        mgr = RuntimePlacementManager(
            region_w(4),
            RuntimeConfig(
                chain=chain, queue_capacity=0, defragmenter=None
            ),
        )
        return mgr.submit(req(module, 1))

    def test_proof_of_no_fit_ends_the_sweep(self, rungs):
        big = rect("big", 6)
        out = self._submit(("cp", "spy"), big)
        assert out.reason == RejectReason.NO_FIT and not out.errors
        assert rungs == []

    def test_each_cp_probe_records_one_profile(self):
        tracer = RecordingTracer()
        with profiling_session("cp") as session:
            mgr = RuntimePlacementManager(
                region_w(8),
                RuntimeConfig(
                    chain=("cp",), queue_capacity=0, defragmenter=None,
                    tracer=tracer,
                ),
            )
            # the 6-wide arrivals only fit while the fabric is empty, so
            # the replay probes both outcomes
            mgr.run(
                [req(rect(f"m{i}", 6 if i % 3 else 2), i, lifetime=2)
                 for i in range(12)]
            )
        probes = [
            e for e in tracer.by_kind("backend.start")
            if e.data["backend"] == "cp"
        ]
        recorded = [
            p for p in session.profiles if p.meta.get("placer") == "cp"
        ]
        assert mgr.stats.admitted and mgr.stats.rejected
        assert len(recorded) == len(probes) == 12
        assert {p.stop_reason for p in recorded} == {"closed-form"}

    def test_started_no_break_plan_is_not_resweeped(self, rungs):
        """A reject-triggered no-break plan only adds move-window cells,
        so an immediate second sweep could never admit: the arrival is
        swept once and goes straight to the queue."""
        mgr = RuntimePlacementManager(
            region_w(8),
            RuntimeConfig(
                chain=("spy",), defragmenter="no-break", frag_threshold=1.0,
                sample_timeline=False,
            ),
        )
        assert mgr.submit(req(rect("a", 2), 0)).admitted
        assert mgr.submit(req(rect("b", 2), 0, lifetime=5)).admitted
        assert mgr.submit(req(rect("c", 2), 0)).admitted
        # t=6: b is gone; d(4) does not fit the two 2-wide holes -> the
        # reject starts a plan that slides c into b's gap
        out = mgr.submit(req(rect("d", 4), 6))
        assert out.status == "queued"
        assert mgr.moves_in_flight == 1
        assert rungs.count("d") == 1
        mgr.advance_to(7)  # the slide completes; the queue retry admits
        assert out.admitted and rungs.count("d") == 2


class TestLatencyAccounting:
    def test_rejected_probe_time_counts_into_the_mean(self):
        """Every terminal outcome's ``latency_s`` is charged once, so
        ``mean_latency_s`` (divided by admitted + rejected) does not read
        low when requests are rejected."""
        with installed_rules(SlowDecline):
            mgr = RuntimePlacementManager(
                region_w(4),
                RuntimeConfig(
                    chain=("slow-decline",), queue_capacity=0,
                    sample_timeline=False,
                ),
            )
            out = mgr.submit(req(rect("a", 2), 0))
        assert out.reason == RejectReason.NO_FIT
        assert out.latency_s >= SlowDecline.pause_s
        assert mgr.stats.total_latency_s >= out.latency_s
        assert mgr.stats.max_latency_s == out.latency_s
        assert mgr.stats.mean_latency_s == pytest.approx(out.latency_s)


class TestObservability:
    # modules small enough for the 8x2 scenario fabric
    SMALL = GeneratorConfig(
        clb_min=4, clb_max=8, bram_max=0, height_min=2, height_max=2
    )

    def test_events_conform_to_schema(self):
        tracer = RecordingTracer()
        region = region_w(8)
        mgr = RuntimePlacementManager(region, greedy_cfg(tracer=tracer))
        mgr.run(
            generate_workload(
                12, seed=2, mean_lifetime=6, generator_config=self.SMALL
            )
        )
        kinds = tracer.kinds()
        assert kinds.get("runtime.arrival") == 12
        assert kinds.get("runtime.depart", 0) >= 1
        for event in tracer.events:
            assert validate_event(event.to_dict()) == []

    def test_profile_lands_in_session(self):
        region = region_w(8)
        with profiling_session("runtime") as session:
            mgr = RuntimePlacementManager(region, greedy_cfg())
            mgr.run(
                generate_workload(
                    8, seed=2, mean_lifetime=6, generator_config=self.SMALL
                )
            )
        merged = session.merged()
        assert merged.meta["runtime.arrivals"] == 8
        assert (
            merged.meta["runtime.admitted"]
            + merged.meta["runtime.rejected"]
            == 8
        )

    def test_timeline_and_mean_utilization(self):
        mgr = RuntimePlacementManager(region_w(8), greedy_cfg())
        log = mgr.run(
            [req(rect("a", 4), 1, lifetime=4), req(rect("b", 4), 3, lifetime=4)]
        )
        assert len(log.timeline) == 3
        assert 0.0 < log.mean_utilization() <= 1.0
        # everything departed by drain time
        assert log.timeline[-1][1] == 0


class TestWorkloadGenerator:
    def test_seeded_and_ordered(self):
        a = generate_workload(15, seed=4)
        b = generate_workload(15, seed=4)
        c = generate_workload(15, seed=5)
        assert [r.arrival for r in a] == sorted(r.arrival for r in a)
        assert [(r.module.name, r.arrival, r.lifetime) for r in a] == [
            (r.module.name, r.arrival, r.lifetime) for r in b
        ]
        assert [(r.arrival, r.lifetime) for r in a] != [
            (r.arrival, r.lifetime) for r in c
        ]

    def test_table1_distribution_by_default(self):
        trace = generate_workload(10, seed=1)
        for r in trace:
            assert r.lifetime > 0
            assert 1 <= r.module.n_alternatives <= 4

    def test_deadline_slack(self):
        trace = generate_workload(5, seed=1, deadline_slack=7)
        assert all(r.deadline == r.arrival + 7 for r in trace)

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_workload(-1)
        with pytest.raises(ValueError):
            RuntimeRequest(rect("x", 1), arrival=0, lifetime=0)
        with pytest.raises(ValueError):
            RuntimeConfig(chain=("quantum",)).validate()


class TestAlternativesServeMore:
    """The acceptance demo: on the seeded 60-event trace, alternatives
    strictly reduce the rejection count (and never on any tested seed
    increase it)."""

    def test_60_event_demo_trace(self):
        from repro.experiments.runtime_exp import runtime_comparison

        rows = {r.label: r for r in runtime_comparison(60, seed=7)}
        mono = rows["runtime (1 shape)"]
        poly = rows["runtime (alternatives)"]
        assert mono.total == poly.total == 60
        assert poly.rejected < mono.rejected
        assert poly.mean_utilization > mono.mean_utilization
