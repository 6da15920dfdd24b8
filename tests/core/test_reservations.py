"""Reservation-based admission: booking, commit, expiry — and the
bit-identity of the ``reservation_horizon == 0`` replay with the
pre-reservation manager, pinned by golden fingerprints captured on the
commit that introduced the feature."""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core.runtime import (
    RejectReason,
    Reservation,
    RuntimeConfig,
    RuntimePlacementManager,
    RuntimeRequest,
    generate_workload,
)
from repro.core.service import ServiceConfig, ShardedPlacementService
from repro.experiments.runtime_exp import (
    default_runtime_region,
    default_runtime_trace,
)
from repro.fabric.devices import homogeneous_device
from repro.fabric.region import PartialRegion
from repro.modules.footprint import Footprint
from repro.modules.generator import GeneratorConfig
from repro.modules.module import Module
from repro.obs import RecordingTracer, validate_event
from tests.support import ledger_residual


# ----------------------------------------------------------------------
# Golden fingerprints: the horizon=0 replay must stay bit-identical to
# the pre-reservation manager (captured on the parent commit)
# ----------------------------------------------------------------------
# re-pinned when SolveProfile lost its anchor-mask cache counters: the
# profile row is the meta entries alone since (the counters read 0 on this
# path), and the outcome rows are the ones captured on the parent commit;
# the commit before the change gives these digests for the same layout
MANAGER_FP = "2c905710b1b22c541f6ddffd453c053a"
SERVICE_FP = {
    "least-loaded": "622400e4612c557e9b5e59502d6fdb45",
    "least-fragmented": "053123729f14868bc36ffd8b422a4b08",
}
WORKLOAD_FP = {
    "w12_s0": "651a92103930bf9b3e71c056629ee7de",
    "w60_s7": "7b6b7fb46f6e3a1395653b9d74950504",
    "w30_s5_slack": "25f767b530eb2e439b683b9c4a9b260a",
}


#: outcome-only digests of the same golden replays (the manager and every
#: registered router): outcome rows plus the owning shard, no profile
#: counters, so a change to what the profile reports cannot move them
OUTCOME_FP = {
    "manager": "d03296834c8a1eb867dcf1a3d93202fe",
    "affinity": "436f40c126d29032f9c2328ea3790b37",
    "least-fragmented": "82da12cb10b21d661989034df574a20a",
    "least-loaded": "507fae34516d3045d2df1aaeaf80c7e8",
    "round-robin": "8e3994c098296f3f68abb0b42fac8eed",
}


def _outcome_row(o):
    p = o.placement
    return (
        o.request.module.name,
        o.status,
        o.method,
        str(o.reason) if o.reason is not None else None,
        (p.module.name, p.shape_index, p.x, p.y) if p is not None else None,
        o.admitted_at,
    )


def _profile_row(profile):
    # wall-clock fields can never be deterministic; reservation counters
    # post-date the golden capture (asserted zero separately below)
    meta = {
        k: v
        for k, v in sorted(profile.meta.items())
        if not k.endswith("_s")
        and not k.endswith("latency_s")
        and "reservation" not in k
    }
    return {"meta": meta}


def _fingerprint(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, default=str).encode()
    return hashlib.blake2b(blob, digest_size=16).hexdigest()


class TestHorizonZeroBitIdentity:
    def test_manager_replay_matches_golden(self):
        mgr = RuntimePlacementManager(
            default_runtime_region(), RuntimeConfig(chain=("greedy",))
        )
        log = mgr.run(default_runtime_trace(60, seed=7))
        payload = {
            "outcomes": [_outcome_row(o) for o in log.outcomes],
            "profile": _profile_row(mgr.profile()),
        }
        assert _fingerprint(payload) == MANAGER_FP
        # at horizon 0 the reservation machinery must be fully dormant
        s = mgr.stats
        assert s.reservations_booked == 0
        assert s.reservation_admits == 0
        assert s.reservations_expired == 0
        assert not mgr.reservations

    @pytest.mark.parametrize("router", sorted(SERVICE_FP))
    def test_service_replay_matches_golden(self, router):
        shards = ShardedPlacementService.split(default_runtime_region(), 4)
        svc = ShardedPlacementService(
            shards,
            ServiceConfig(
                router=router,
                runtime=RuntimeConfig(chain=("greedy",), sample_timeline=False),
            ),
        )
        trace = default_runtime_trace(60, seed=7)
        slog = svc.run(trace)
        # the golden capture predates three fixes: shard_of listed only
        # the modules still resident after the drain, the merged peak was
        # the sum of the shard peaks, and the drain advanced once to the
        # latest departure known when it started, so a module admitted
        # from the queue during that playback with a later departure was
        # never played out — rebuild that legacy payload, then check the
        # fixed values
        admitted = [o for o in slog.outcomes if o.admitted]
        due = {
            o.request.module.name: o.admitted_at + o.request.lifetime
            for o in admitted
        }
        drain_start = max(r.arrival for r in trace)
        legacy_clock = max(
            [drain_start]
            + [
                due[o.request.module.name]
                for o in admitted
                if o.admitted_at <= drain_start
            ]
        )
        legacy_resident = {
            o.request.module.name: o.shard
            for o in admitted
            if due[o.request.module.name] > legacy_clock
        }
        profile = _profile_row(svc.profile())
        meta = profile["meta"]
        departures = meta["runtime.departures"]
        meta["runtime.departures"] = departures - len(legacy_resident)
        shard_peaks = [s.peak_occupied_cells for s in slog.per_shard.values()]
        peak = meta["runtime.peak_occupied_cells"]
        meta["runtime.peak_occupied_cells"] = sum(shard_peaks)
        payload = {
            "outcomes": [_outcome_row(o) for o in slog.outcomes],
            "shard_of": dict(sorted(legacy_resident.items())),
            "profile": profile,
        }
        assert _fingerprint(payload) == SERVICE_FP[router]
        # the drain plays every departure out: nothing stays placed
        assert departures == len(admitted)
        assert all(svc.shard_of(name) is None for name in due)
        assert svc.clock >= max(due.values())
        assert slog.stats.reservations_booked == 0
        assert slog.shard_of == {
            o.request.module.name: o.shard for o in admitted
        }
        assert len(slog.shard_of) == len(admitted) > 0
        assert set(slog.shard_of.values()) <= set(slog.per_shard)
        assert peak == slog.stats.peak_occupied_cells
        assert max(shard_peaks) <= peak < sum(shard_peaks)

    def test_manager_outcomes_match_pin(self):
        mgr = RuntimePlacementManager(
            default_runtime_region(), RuntimeConfig(chain=("greedy",))
        )
        log = mgr.run(default_runtime_trace(60, seed=7))
        rows = [(*_outcome_row(o), o.shard) for o in log.outcomes]
        assert _fingerprint(rows) == OUTCOME_FP["manager"]

    @pytest.mark.parametrize(
        "router", sorted(k for k in OUTCOME_FP if k != "manager")
    )
    def test_service_outcomes_match_pin(self, router):
        svc = ShardedPlacementService(
            ShardedPlacementService.split(default_runtime_region(), 4),
            ServiceConfig(
                router=router,
                runtime=RuntimeConfig(chain=("greedy",), sample_timeline=False),
            ),
        )
        slog = svc.run(default_runtime_trace(60, seed=7))
        rows = [(*_outcome_row(o), o.shard) for o in slog.outcomes]
        assert _fingerprint(rows) == OUTCOME_FP[router]

    def test_workload_traces_byte_identical(self):
        def blob(reqs):
            rows = [
                (
                    r.module.name,
                    sorted(
                        tuple(c) for fp in r.module.shapes for c in fp.cells
                    ),
                    r.arrival,
                    r.lifetime,
                    r.deadline,
                )
                for r in reqs
            ]
            return _fingerprint(rows)

        assert blob(generate_workload(12, seed=0)) == WORKLOAD_FP["w12_s0"]
        assert (
            blob(
                generate_workload(
                    60,
                    seed=7,
                    mean_interarrival=2,
                    mean_lifetime=24,
                    generator_config=GeneratorConfig(
                        clb_min=12,
                        clb_max=48,
                        bram_max=2,
                        height_min=3,
                        height_max=6,
                    ),
                )
            )
            == WORKLOAD_FP["w60_s7"]
        )
        assert (
            blob(generate_workload(30, seed=5, deadline_slack=40))
            == WORKLOAD_FP["w30_s5_slack"]
        )


# ----------------------------------------------------------------------
# Reservation mechanics on a hand-built fabric
# ----------------------------------------------------------------------
def tiny_region(w=4, h=2):
    return PartialRegion.whole_device(homogeneous_device(w, h))


def block(name, w=2, h=2):
    return Module(name, [Footprint.rectangle(w, h)])


def req(name, arrival, lifetime, deadline=None, w=2, h=2):
    return RuntimeRequest(
        block(name, w, h), arrival=arrival, lifetime=lifetime,
        deadline=deadline,
    )


def resv_config(**kw):
    kw.setdefault("chain", ("greedy",))
    kw.setdefault("queue_capacity", 0)
    kw.setdefault("reservation_horizon", 10)
    kw.setdefault("frag_threshold", 1.0)
    kw.setdefault("defragmenter", None)
    return RuntimeConfig(**kw)


class TestBooking:
    def test_full_fabric_books_at_next_departure(self):
        mgr = RuntimePlacementManager(tiny_region(), resv_config())
        a = mgr.submit(req("a", 1, 5))
        b = mgr.submit(req("b", 1, 5))
        assert a.admitted and b.admitted
        c = mgr.submit(req("c", 2, 4, deadline=20))
        assert c.status == "reserved"
        [r] = mgr.reservations
        assert r.start == 6  # a/b depart at 1 + 5
        assert r.deadline == 20
        assert isinstance(r, Reservation)
        assert mgr.stats.reservations_booked == 1

    def test_reservation_commits_on_departure(self):
        mgr = RuntimePlacementManager(tiny_region(), resv_config())
        mgr.submit(req("a", 1, 5))
        mgr.submit(req("b", 1, 5))
        c = mgr.submit(req("c", 2, 4, deadline=20))
        mgr.advance_to(6)
        assert c.admitted
        assert c.method == "reservation"
        assert c.admitted_at == 6
        assert not mgr.reservations
        assert mgr.stats.reservation_admits == 1
        mgr.check_invariants()

    def test_horizon_zero_never_reserves(self):
        mgr = RuntimePlacementManager(
            tiny_region(), resv_config(reservation_horizon=0)
        )
        mgr.submit(req("a", 1, 5))
        mgr.submit(req("b", 1, 5))
        c = mgr.submit(req("c", 2, 4))
        assert c.status == "rejected"
        assert c.reason is RejectReason.NO_FIT

    def test_departure_beyond_horizon_not_bookable(self):
        mgr = RuntimePlacementManager(
            tiny_region(), resv_config(reservation_horizon=3)
        )
        mgr.submit(req("a", 1, 50))
        mgr.submit(req("b", 1, 50))
        c = mgr.submit(req("c", 2, 4))
        assert c.status == "rejected" and c.reason is RejectReason.NO_FIT

    def test_deadline_before_departure_not_bookable(self):
        mgr = RuntimePlacementManager(tiny_region(), resv_config())
        mgr.submit(req("a", 1, 5))
        mgr.submit(req("b", 1, 5))
        c = mgr.submit(req("c", 2, 4, deadline=4))  # departures at 6
        assert c.status == "rejected" and c.reason is RejectReason.NO_FIT

    def test_capacity_bounds_outstanding_reservations(self):
        mgr = RuntimePlacementManager(
            tiny_region(8, 2), resv_config(reservation_capacity=1)
        )
        for name in ("a", "b", "c", "d"):
            assert mgr.submit(req(name, 1, 5)).admitted
        e = mgr.submit(req("e", 2, 3, deadline=20))
        assert e.status == "reserved"
        f = mgr.submit(req("f", 2, 3, deadline=20))
        assert f.status == "rejected"  # capacity 1 already taken

    def test_duplicate_names_cover_reservations(self):
        mgr = RuntimePlacementManager(tiny_region(), resv_config())
        mgr.submit(req("a", 1, 5))
        mgr.submit(req("b", 1, 5))
        c1 = mgr.submit(req("c", 2, 4, deadline=20))
        assert c1.status == "reserved"
        c2 = mgr.submit(req("c", 3, 4, deadline=20))
        assert c2.status == "rejected"
        assert c2.reason is RejectReason.DUPLICATE

    def test_booked_cells_are_promised_in_residual(self):
        mgr = RuntimePlacementManager(tiny_region(), resv_config())
        mgr.submit(req("a", 1, 5))
        mgr.submit(req("b", 1, 5))
        c = mgr.submit(req("c", 2, 4, deadline=20, w=4, h=2))
        assert c.status == "reserved"
        # the whole fabric is promised to c once a/b depart: the
        # residual region offers no free cell
        residual = ledger_residual(mgr._ledger, mgr._blocked())
        assert not residual.reconfigurable.any()

    def test_next_due_sees_reservation_starts(self):
        mgr = RuntimePlacementManager(tiny_region(), resv_config())
        mgr.submit(req("a", 1, 5))
        mgr.submit(req("b", 1, 7))
        c = mgr.submit(req("c", 2, 4, deadline=20))
        assert c.status == "reserved"
        assert mgr.next_due() == 6  # min(departure 6, start 6)


class TestCommitAndExpiry:
    def test_expiry_labels_honestly(self):
        mgr = RuntimePlacementManager(tiny_region(), resv_config())
        mgr.submit(req("a", 1, 5))
        mgr.submit(req("b", 1, 5))
        c = mgr.submit(req("c", 2, 40, deadline=8))
        assert c.status == "reserved"
        # at start=6 the fabric frees and d (below) has already squatted
        # nothing — force a conflict instead: fill the fabric again via
        # a fresh arrival landing exactly at the departure tick
        mgr.submit(req("d", 6, 40, w=4, h=2))
        # d arrived at the departure tick: the due reservation holds
        # seniority, so it committed first and d could not fit
        assert c.admitted
        mgr2 = RuntimePlacementManager(tiny_region(), resv_config())
        mgr2.submit(req("a", 1, 50))
        mgr2.submit(req("b", 1, 5))
        c2 = mgr2.submit(req("c", 2, 4, deadline=8, w=4, h=2))
        # c2 needs the whole fabric; only b's half frees inside the
        # horizon... no tick fits, honest immediate reject
        assert c2.status == "rejected"

    def test_expired_reservation_rejects_with_reason(self):
        region = tiny_region()
        cfg = resv_config(defragmenter=None)
        mgr = RuntimePlacementManager(region, cfg)
        mgr.submit(req("a", 1, 5))
        mgr.submit(req("b", 1, 5))
        c = mgr.submit(req("c", 2, 10, deadline=9))
        assert c.status == "reserved"
        # steal the freed space at the same tick via a *later-seniority*
        # path is impossible (reservations commit first), so emulate a
        # blocked commit: occupy the planned cells through a move-free
        # arrival race by advancing in two steps and squatting
        mgr.advance_to(5)
        # nothing freed yet; now at tick 6 the commit fires and succeeds
        mgr.advance_to(12)
        assert c.admitted

    def test_drain_settles_future_reservations(self):
        mgr = RuntimePlacementManager(tiny_region(), resv_config())
        mgr.submit(req("a", 1, 5))
        mgr.submit(req("b", 1, 5))
        c = mgr.submit(req("c", 2, 4, deadline=20))
        assert c.status == "reserved"
        mgr.drain()
        assert not mgr.reservations
        assert c.admitted
        assert c.method == "reservation"

    def test_events_validate_against_schema(self):
        tracer = RecordingTracer()
        mgr = RuntimePlacementManager(
            tiny_region(), resv_config(tracer=tracer)
        )
        mgr.submit(req("a", 1, 5))
        mgr.submit(req("b", 1, 5))
        mgr.submit(req("c", 2, 4, deadline=20))
        mgr.drain()
        kinds = [e.kind for e in tracer.events]
        assert "runtime.reserve" in kinds
        assert "runtime.reservation.commit" in kinds
        for event in tracer.events:
            assert validate_event(event.to_dict()) == [], event

    def test_sibling_overlap_is_never_double_booked(self):
        # two requests competing for the same departure tick: the probe
        # books the first and honestly declines the second (its run
        # window overlaps the sibling's promised cells)
        mgr = RuntimePlacementManager(tiny_region(), resv_config())
        mgr.submit(req("a", 1, 5, w=4, h=2))
        c = mgr.submit(req("c", 2, 30, deadline=20, w=4, h=2))
        d = mgr.submit(req("d", 3, 30, deadline=9, w=4, h=2))
        assert c.status == "reserved"
        assert d.status == "rejected" and d.reason is RejectReason.NO_FIT
        mgr.drain()
        assert c.admitted
        assert mgr.stats.reservation_admits == 1

    def test_expire_event_and_stats(self):
        import heapq

        tracer = RecordingTracer()
        mgr = RuntimePlacementManager(
            tiny_region(), resv_config(tracer=tracer)
        )
        mgr.submit(req("a", 1, 50))         # resident throughout
        mgr.submit(req("b", 1, 5))          # departs at 6 — the booked tick
        c = mgr.submit(req("c", 2, 30, deadline=9))
        assert c.status == "reserved"
        # the race the probe is optimistic about: the departing module
        # overstays its declared lifetime, so the booked cells never
        # free before the deadline (white-box: postpone b's departure)
        mgr._departures = [
            (100 if name == "b" else t, name) for t, name in mgr._departures
        ]
        heapq.heapify(mgr._departures)
        mgr.advance_to(12)  # past start (6) and deadline (9)
        assert c.status == "rejected"
        assert c.reason is RejectReason.RESERVATION_EXPIRED
        assert mgr.stats.reservations_expired == 1
        assert not mgr.reservations
        assert "runtime.reservation.expire" in [
            e.kind for e in tracer.events
        ]


class TestDefragOnBookedCells:
    """Defrag plans against the live placements only (``result()``), so a
    planned move may land on cells booked for a reservation.  The
    designed answer is the commit-time replan: the booking lands
    elsewhere as ``reservation+<rung>`` or expires, never silently
    overlapping the module that moved in."""

    #: (name, width, arrival, lifetime) on an 8x1 fabric
    TRACE = [
        ("m0", 2, 0, 1), ("m1", 2, 2, 7), ("m2", 2, 4, 12),
        ("m3", 2, 4, 1), ("m4", 3, 4, 1), ("m5", 1, 4, 7),
        ("m6", 3, 4, 6), ("m7", 1, 4, 10), ("m8", 3, 5, 10),
        ("m9", 3, 5, 10),
    ]

    def test_move_onto_booked_cells_replans_at_commit(self):
        taken = []

        class Manager(RuntimePlacementManager):
            def _start_next_move(self):
                super()._start_next_move()
                if self._active_move is None:
                    return
                window = set(self._active_move.move.window_cells)
                for r in self.reservations:
                    booked = {
                        (x, y) for x, y, _ in r.placement.absolute_cells()
                    }
                    if window & booked:
                        taken.append(r.request.module.name)

        mgr = Manager(
            PartialRegion.whole_device(homogeneous_device(8, 1)),
            resv_config(
                queue_capacity=8,
                reservation_horizon=8,
                defragmenter="no-break",
                verify_moves=True,
            ),
        )
        log = mgr.run([
            req(name, arrival, lifetime, w=w, h=1)
            for name, w, arrival, lifetime in self.TRACE
        ])
        assert taken and set(taken) == {"m4"}
        m4 = next(o for o in log.outcomes if o.request.module.name == "m4")
        assert m4.admitted and m4.method == "reservation+greedy"
        s = mgr.stats
        assert s.reservations_booked == (
            s.reservation_admits + s.reservations_expired
        )
        assert not mgr.reservations
        mgr.check_invariants()


class TestLedgerRung:
    """The ``cp`` rule reads the free-space ledger: the manager has no
    residual region and builds no backend request, and a reservation
    replan lands where the ``cp`` backend on the residual region lands
    it."""

    @staticmethod
    def _replay(manager_cls=RuntimePlacementManager):
        mgr = manager_cls(
            PartialRegion.whole_device(homogeneous_device(8, 1)),
            resv_config(
                chain=("cp", "greedy"),
                queue_capacity=8,
                reservation_horizon=8,
                defragmenter="no-break",
                verify_moves=True,
            ),
        )
        log = mgr.run([
            req(name, arrival, lifetime, w=w, h=1)
            for name, w, arrival, lifetime in TestDefragOnBookedCells.TRACE
        ])
        return mgr, log

    def test_no_residual_region_or_request(self, monkeypatch):
        from repro.core.backend import PlacementRequest

        assert not hasattr(RuntimePlacementManager, "residual_region")
        requests = []
        init = PlacementRequest.__init__

        def counted_init(self, *args, **kwargs):
            requests.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(PlacementRequest, "__init__", counted_init)
        mgr, log = self._replay()
        methods = {o.method for o in log.outcomes}
        assert mgr.stats.reservations_booked and "reservation+cp" in methods
        assert requests == []

    def test_replan_matches_the_residual_region_path(self):
        from repro.core.backend import CPBackend, PlacementRequest

        replans = []

        class Manager(RuntimePlacementManager):
            def _commit_reservation(self, r):
                if not self._ledger.overlaps(r.placement):
                    return super()._commit_reservation(r)
                old = CPBackend().place(
                    PlacementRequest(
                        ledger_residual(self._ledger, self._blocked(r)),
                        [self._admitted_shapes(r.request)],
                        first_solution_only=True,
                    )
                )
                landed = super()._commit_reservation(r)
                replans.append((old, landed, r.outcome.placement))
                return landed

        _, log = self._replay(Manager)
        assert replans
        for old, landed, placement in replans:
            assert landed == bool(old.placements)
            if landed:
                (p,) = old.placements
                assert (placement.shape_index, placement.x, placement.y) == (
                    p.shape_index, p.x, p.y
                )
        m4 = next(o for o in log.outcomes if o.request.module.name == "m4")
        assert m4.admitted and m4.method == "reservation+cp"


class TestServiceIntegration:
    def test_reservations_count_toward_shard_load(self):
        region = tiny_region(8, 2)
        shards = ShardedPlacementService.split(region, 2)
        svc = ShardedPlacementService(
            shards,
            ServiceConfig(
                router="least-loaded",
                spill=False,
                runtime=resv_config(sample_timeline=False),
            ),
        )
        # fill shard 0 (cols 0-4) and book a reservation on it; the
        # router must then prefer shard 1 even though shard 0's *placed*
        # load will drop at the departure
        from repro.core.service import LeastLoadedRouter

        s0 = svc.shards[0]
        s0.submit(req("a", 1, 5, w=4, h=2))
        s0.submit(req("r", 2, 4, deadline=20, w=4, h=2))
        assert len(s0.reservations) == 1
        load0 = LeastLoadedRouter._load(svc.shards[0])
        load1 = LeastLoadedRouter._load(svc.shards[1])
        assert load0 > load1
        # and planning fragmentation treats booked cells as occupied
        assert (
            svc.shards[0].planning_fragmentation()
            >= svc.shards[0].fragmentation()
            or not svc.shards[0].reservations
        )

    def test_service_drain_resolves_every_reservation(self):
        shards = ShardedPlacementService.split(default_runtime_region(), 4)
        svc = ShardedPlacementService(
            shards,
            ServiceConfig(
                router="least-fragmented",
                runtime=resv_config(
                    reservation_horizon=10,
                    queue_capacity=2,
                    sample_timeline=False,
                ),
            ),
        )
        slog = svc.run(default_runtime_trace(120, seed=11))
        s = slog.stats
        assert s.reservations_booked > 0  # the trace exercises the path
        assert (
            s.reservations_booked
            == s.reservation_admits + s.reservations_expired
        )
        for shard in svc.shards:
            assert not shard.reservations
            shard.check_invariants()
        assert all(
            o.status in ("admitted", "rejected") for o in slog.outcomes
        )

    def test_stats_merge_sums_reservation_counters(self):
        from repro.core.runtime import RuntimeStats

        a = RuntimeStats(
            reservations_booked=2, reservation_admits=1,
            reservations_expired=1,
        )
        b = RuntimeStats(reservations_booked=3, reservation_admits=3)
        merged = a + b
        assert merged.reservations_booked == 5
        assert merged.reservation_admits == 4
        assert merged.reservations_expired == 1


class TestConfigValidation:
    def test_negative_horizon_rejected(self):
        with pytest.raises(ValueError, match="reservation_horizon"):
            RuntimeConfig(reservation_horizon=-1).validate()

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError, match="reservation_capacity"):
            RuntimeConfig(reservation_capacity=-1).validate()

    def test_workload_kwargs_validation(self):
        with pytest.raises(ValueError, match="profile"):
            generate_workload(4, profile="nope")

    def test_slack_heavy_profile_shape(self):
        trace = generate_workload(
            16, seed=5, mean_interarrival=2, mean_lifetime=12,
            profile="slack-heavy",
        )
        arrivals = [r.arrival for r in trace]
        # bursts of four share one tick, separated by long gaps
        assert arrivals[0] == arrivals[3]
        assert arrivals[4] - arrivals[3] >= 4
        assert all(r.deadline == r.arrival + 24 for r in trace)
        assert all(r.lifetime <= 12 for r in trace)
