"""The sharded placement service: routing, spill, determinism.

The load-bearing guarantees:

* **Single-shard bit-identity** — a 1-shard service must behave exactly
  like a bare :class:`RuntimePlacementManager` on the same trace
  (submit delegates directly, so there is nothing to drift).
* **Shard determinism** — the same seeded Table-I trace through N shards
  under affinity routing yields the same merged outcome multiset run to
  run (stable content-hash routing, a pick rule on the ledger: no
  wall-clock budgets anywhere on the path).

Scenario tests run greedy-only so every admission decision is forced.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core.defrag import DEFRAGMENTERS
from repro.core.runtime import (
    RejectReason,
    RuntimeConfig,
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
    ServiceConfig,
    ShardedPlacementService,
)
from repro.experiments.config import default_fabric
from repro.experiments.service_load import serving_config
from repro.fabric.cache import AnchorMaskCache
from repro.fabric.devices import homogeneous_device
from repro.fabric.region import PartialRegion
from repro.modules.footprint import Footprint
from repro.modules.module import Module
from repro.obs import RecordingTracer, validate_event
from tests.support import DownRung, SlowDecline, installed_rules


def region_w(width: int, height: int = 2, name: str = "pr") -> PartialRegion:
    return PartialRegion.whole_device(homogeneous_device(width, height), name)


def rect(name: str, w: int, h: int = 2) -> Module:
    return Module(name, [Footprint.rectangle(w, h)])


def req(module: Module, arrival: int, lifetime: int = 100, deadline=None):
    return RuntimeRequest(module, arrival, lifetime, deadline)


def greedy_service_cfg(**kw) -> ServiceConfig:
    runtime_kw = kw.pop("runtime_kw", {})
    runtime_kw.setdefault("chain", ("greedy",))
    runtime_kw.setdefault("frag_threshold", 1.0)
    runtime_kw.setdefault("sample_timeline", False)
    return ServiceConfig(runtime=RuntimeConfig(**runtime_kw), **kw)


def outcome_key(o):
    """Order-independent fingerprint of one outcome."""
    placed = (
        (o.placement.module.name, o.placement.shape_index,
         o.placement.x, o.placement.y)
        if o.placement is not None
        else None
    )
    return (
        o.request.module.name, o.status, o.method,
        str(o.reason) if o.reason else None, o.admitted_at, placed,
    )


def outcome_multiset(outcomes):
    return sorted(outcome_key(o) for o in outcomes)


# ----------------------------------------------------------------------
# Router table + policies
# ----------------------------------------------------------------------
class TestRouterRegistry:
    def test_default_policies_registered(self):
        assert ROUTERS == {
            "round-robin": RoundRobinRouter,
            "least-loaded": LeastLoadedRouter,
            "least-fragmented": LeastFragmentedRouter,
            "affinity": AffinityRouter,
        }

    def test_create_unknown_router_is_loud(self):
        with pytest.raises(ValueError, match="unknown router.*round-robin"):
            ServiceConfig(router="definitely-not-registered").validate()

    def test_config_validates_router_name(self):
        with pytest.raises(ValueError, match="unknown router"):
            ShardedPlacementService(
                [region_w(4)], ServiceConfig(router="nope")
            )


class TestRouterPolicies:
    def _shards(self, n=3, width=8):
        return [
            RuntimePlacementManager(
                region_w(width, name=f"s{k}"),
                RuntimeConfig(chain=("greedy",), frag_threshold=1.0),
            )
            for k in range(n)
        ]

    def test_round_robin_cycles_and_spills_in_rotation(self):
        router = RoundRobinRouter()
        shards = self._shards(3)
        r = req(rect("m", 2), 1)
        assert router.order(r, shards) == [0, 1, 2]
        assert router.order(r, shards) == [1, 2, 0]
        assert router.order(r, shards) == [2, 0, 1]
        assert router.order(r, shards) == [0, 1, 2]

    def test_least_loaded_prefers_emptier_shard(self):
        shards = self._shards(3)
        shards[0].submit(req(rect("a", 6), 1))
        shards[2].submit(req(rect("b", 2), 1))
        order = LeastLoadedRouter().order(req(rect("m", 2), 2), shards)
        assert order == [1, 2, 0]  # empty < lightly loaded < heavy

    def test_least_fragmented_prefers_compact_shard(self):
        shards = self._shards(2, width=8)
        # shard 0: two modules with a gap between them (fragmented free
        # space); shard 1: one compact block at the left edge
        shards[0].submit(req(rect("a", 2), 1))
        shards[0].submit(req(rect("gap", 2), 1))
        shards[0].submit(req(rect("c", 2), 1))
        shards[0].depart("gap")
        shards[1].submit(req(rect("d", 2), 1))
        frag0 = shards[0].fragmentation()
        frag1 = shards[1].fragmentation()
        assert frag0 > frag1
        order = LeastFragmentedRouter().order(req(rect("m", 2), 2), shards)
        assert order == [1, 0]

    def test_affinity_is_stable_and_name_driven(self):
        shards = self._shards(4)
        router = AffinityRouter()
        orders = {
            name: router.order(req(rect(name, 2), 1), shards)
            for name in ("mod-a", "mod-b", "mod-c", "mod-d", "mod-e")
        }
        # same name -> same order, every time (stable content hash)
        again = AffinityRouter()
        for name, order in orders.items():
            assert again.order(req(rect(name, 2), 1), shards) == order
            # spill continues round the ring from the primary
            first = order[0]
            assert order == [(first + k) % 4 for k in range(4)]
        # distinct names actually spread (not all pinned to one shard)
        assert len({o[0] for o in orders.values()}) > 1


# ----------------------------------------------------------------------
# Construction helpers
# ----------------------------------------------------------------------
class TestConstruction:
    def test_replicated_shards_are_independent(self):
        svc = ShardedPlacementService.replicated(
            region_w(6, name="dev"), 3, greedy_service_cfg()
        )
        assert svc.n_shards == 3
        names = [s.region.name for s in svc.shards]
        assert names == ["dev-s0", "dev-s1", "dev-s2"]
        svc.shards[0].submit(req(rect("a", 2), 1))
        assert svc.shards[1].placements == []

    def test_split_partitions_columns_exactly(self):
        fabric = default_fabric(40, 8)
        shards = ShardedPlacementService.split(fabric, 4)
        assert [s.width for s in shards] == [10, 10, 10, 10]
        assert all(s.height == fabric.height for s in shards)
        # cells are partitioned, never duplicated or dropped
        total = sum(s.available_area() for s in shards)
        assert total == fabric.available_area()

    def test_split_rejects_impossible_counts(self):
        with pytest.raises(ValueError):
            ShardedPlacementService.split(region_w(4), 0)
        with pytest.raises(ValueError):
            ShardedPlacementService.split(region_w(4), 5)

    def test_empty_region_list_rejected(self):
        with pytest.raises(ValueError, match="at least one shard"):
            ShardedPlacementService([], greedy_service_cfg())


# ----------------------------------------------------------------------
# Spill semantics
# ----------------------------------------------------------------------
class TestSpill:
    def test_request_spills_to_next_best_shard(self):
        tracer = RecordingTracer()
        svc = ShardedPlacementService(
            [region_w(2, name="s0"), region_w(4, name="s1")],
            greedy_service_cfg(router="round-robin", tracer=tracer),
        )
        # round-robin: fill -> s0 (now full), b -> s1; the third request
        # rotates back to s0 first, which must spill to s1, not queue
        assert svc.submit(req(rect("fill", 2), 1)).admitted
        assert svc.submit(req(rect("b", 2), 1)).admitted
        out = svc.submit(req(rect("spilled", 2), 2))
        assert out.admitted
        assert svc.shard_of("spilled") == "s1"
        spills = [e.data for e in tracer.by_kind("service.spill")]
        assert {"module": "spilled", "from_shard": "s0",
                "to_shard": "s1"} in spills
        # the route event names the shard that actually admitted
        routes = [e.data for e in tracer.by_kind("service.route")]
        assert {"module": "spilled", "shard": "s1",
                "policy": "round-robin", "rank": 1} in routes

    def test_spill_failure_parks_on_primary_only(self):
        tracer = RecordingTracer()
        svc = ShardedPlacementService(
            [region_w(2, name="s0"), region_w(2, name="s1")],
            greedy_service_cfg(
                router="round-robin", tracer=tracer,
                runtime_kw={"chain": ("greedy",), "frag_threshold": 1.0,
                            "queue_capacity": 4},
            ),
        )
        assert svc.submit(req(rect("a", 2), 1)).admitted
        assert svc.submit(req(rect("b", 2), 1)).admitted
        out = svc.submit(req(rect("c", 2), 2))
        assert out.status == "queued"
        # exactly one shard recorded the arrival (the primary); the
        # declined offer on the other shard left no trace in its stats
        arrivals = [s.stats.arrivals for s in svc.shards]
        assert sorted(arrivals) == [1, 2]
        assert svc.stats.arrivals == 3

    def test_spill_disabled_never_crosses_shards(self):
        svc = ShardedPlacementService(
            [region_w(2, name="s0"), region_w(4, name="s1")],
            greedy_service_cfg(
                router="round-robin", spill=False,
                runtime_kw={"chain": ("greedy",), "frag_threshold": 1.0,
                            "queue_capacity": 4},
            ),
        )
        # rotation: fill -> s0 (full), b -> s1; "stuck" routes to s0
        assert svc.submit(req(rect("fill", 2), 1)).admitted
        assert svc.submit(req(rect("b", 2), 1)).admitted
        out = svc.submit(req(rect("stuck", 2), 2))
        assert out.status == "queued"  # parked on full s0...
        assert svc.shards[1].stats.arrivals == 1  # ...s1 saw only b
        assert len(svc.shards[1].placements) == 1  # though it had room

    def test_parked_outcome_carries_every_declined_probe(self):
        """A request no shard admits is charged the probe time of every
        shard it was offered to, and the service's latency total is the
        sum over its outcomes."""
        pause = SlowDecline.pause_s
        with installed_rules(DownRung, SlowDecline):
            # each shard's first rule raises (the error rides along) and
            # its second sleeps, then proves no fit
            svc = ShardedPlacementService(
                [region_w(4, name="s0"), region_w(1, name="s1")],
                greedy_service_cfg(
                    router="round-robin",
                    runtime_kw={"chain": ("down", "slow-decline"),
                                "queue_capacity": 0},
                ),
            )
            out = svc.submit(req(rect("a", 2), 1))
            assert out.status == "rejected"
            assert out.reason == RejectReason.NO_FIT
            # s0 and s1 both raised, then slept
            assert out.latency_s >= 2 * pause
            assert out.errors == ["down: rung down", "down: rung down"]
            assert svc.stats.total_latency_s == pytest.approx(out.latency_s)
            outcomes = [out] + [
                svc.submit(req(rect(name, 2), 2)) for name in ("b", "c")
            ]
        assert all(o.status == "rejected" for o in outcomes)
        assert min(o.latency_s for o in outcomes[1:]) >= 2 * pause
        assert svc.stats.total_latency_s == pytest.approx(
            sum(o.latency_s for o in outcomes)
        )

    def test_depart_finds_module_across_shards(self):
        svc = ShardedPlacementService(
            [region_w(2, name="s0"), region_w(2, name="s1")],
            greedy_service_cfg(router="round-robin"),
        )
        svc.submit(req(rect("a", 2), 1))
        svc.submit(req(rect("b", 2), 1))  # round-robin -> s1
        assert svc.shard_of("b") == "s1"
        assert svc.depart("b") is not None
        assert svc.shard_of("b") is None
        assert svc.depart("b") is None


# ----------------------------------------------------------------------
# Service log and merged stats
# ----------------------------------------------------------------------
class TestServiceLog:
    def test_shard_of_names_every_admitted_module(self):
        # round-robin primaries: fill->s0, b->s1, spilled->s0 (spills to
        # s1), c->s1 (everything full: queued, admitted when b departs)
        svc = ShardedPlacementService(
            [region_w(2, name="s0"), region_w(4, name="s1")],
            greedy_service_cfg(
                router="round-robin",
                runtime_kw={"chain": ("greedy",), "frag_threshold": 1.0,
                            "queue_capacity": 4},
            ),
        )
        slog = svc.run([
            req(rect("fill", 2), 1, lifetime=10),
            req(rect("b", 2), 1, lifetime=3),
            req(rect("spilled", 2), 2, lifetime=20),
            req(rect("c", 2), 3, lifetime=5),
        ])
        assert all(o.admitted for o in slog.outcomes)
        assert slog.shard_of == {
            "fill": "s0", "b": "s1", "spilled": "s1", "c": "s1",
        }
        # the map outlives residency: the drain departed every module
        assert all(not s.placements for s in svc.shards)

    def test_merged_peak_is_the_simultaneous_peak(self):
        # s0 peaks at t0 (a: 6 cells), s1 at t5 (b + d: 8 cells); the
        # fleet total after each submit is 6, 8, 4 (a left at t3), 10
        svc = ShardedPlacementService(
            [region_w(4, name="s0"), region_w(4, name="s1")],
            greedy_service_cfg(router="round-robin"),
        )
        slog = svc.run([
            req(rect("a", 3), 0, lifetime=3),
            req(rect("b", 1), 1, lifetime=20),
            req(rect("c", 1), 4, lifetime=20),
            req(rect("d", 3), 5, lifetime=20),
        ])
        peaks = {k: s.peak_occupied_cells for k, s in slog.per_shard.items()}
        assert peaks == {"s0": 6, "s1": 8}
        assert slog.stats.peak_occupied_cells == 10
        assert svc.profile().meta["runtime.peak_occupied_cells"] == 10
        assert [o.shard for o in slog.outcomes] == ["s0", "s1", "s0", "s1"]

    def test_stats_merge_by_field_rule(self):
        a = RuntimeStats(
            admitted=2, max_latency_s=0.5, peak_occupied_cells=7,
            rejected_by_reason={"no_fit": 1},
        )
        b = RuntimeStats(
            admitted=3, max_latency_s=0.2, peak_occupied_cells=9,
            rejected_by_reason={"no_fit": 2, "duplicate": 1},
        )
        merged = a + b
        assert merged.admitted == 5
        assert merged.max_latency_s == 0.5
        assert merged.peak_occupied_cells == 9
        assert merged.rejected_by_reason == {"no_fit": 3, "duplicate": 1}
        assert a.rejected_by_reason == {"no_fit": 1}  # inputs untouched


# ----------------------------------------------------------------------
# Determinism (the satellite pins)
# ----------------------------------------------------------------------
#: outcome digest of the contended replay below, re-pinned when the
#: reject-triggered defrag pass left the spill probe: it runs once per
#: parked request, on the primary shard, and starts only a plan whose end
#: state has an anchor for the request
CONTENDED_FP = "5305c6ca7566a87fec49a88d199f57ba"


def contended_replay(seed: int = 0):
    """300 requests of the overloaded benchmark profile on the 4-shard
    Table-I fabric: CP chain, no-break defrag, queue and a 16-tick
    reservation horizon all run."""
    cfg = serving_config(
        router="affinity", chain=("cp", "greedy"), queue_capacity=8,
        defrag="no-break", reservation_horizon=16,
    )
    svc = ShardedPlacementService(
        ShardedPlacementService.split(default_fabric(), 4), cfg
    )
    trace = generate_workload(
        300, seed=seed, mean_interarrival=1, mean_lifetime=40
    )
    return svc.run(trace)


def replay_digest(outcomes) -> str:
    rows = [(*outcome_key(o), o.shard) for o in outcomes]
    blob = json.dumps(rows, sort_keys=True, default=str).encode()
    return hashlib.blake2b(blob, digest_size=16).hexdigest()


@pytest.fixture
def plan_calls(monkeypatch):
    """Counts every call of the no-break planner; yields the count list."""
    calls = []
    planner = DEFRAGMENTERS["no-break"]

    class Counted(planner):
        def plan(self, *args, **kwargs):
            calls.append(1)
            return super().plan(*args, **kwargs)

    monkeypatch.setitem(DEFRAGMENTERS, "no-break", Counted)
    yield calls


class TestContendedReplay:
    def test_outcomes_match_pin(self):
        slog = contended_replay()
        stats = slog.stats
        # every serving path ran: defrag plans, bookings, queue admits
        assert stats.defrag_planned_moves > 0
        assert stats.reservations_booked > 0
        assert stats.queued_admits > 0
        assert replay_digest(slog.outcomes) == CONTENDED_FP

    def test_empty_plan_memo_moves_no_outcome(self, monkeypatch, plan_calls):
        """The replay with every floorplan replanned (the plan memo
        cleared before each pass) serves exactly the pinned outcomes;
        the memo only saves planner calls."""
        assert replay_digest(contended_replay().outcomes) == CONTENDED_FP
        with_memo = len(plan_calls)
        defrag = RuntimePlacementManager._defrag

        def forgetful(self, goal=None):
            self._last_plan = None
            return defrag(self, goal)

        monkeypatch.setattr(RuntimePlacementManager, "_defrag", forgetful)
        assert replay_digest(contended_replay().outcomes) == CONTENDED_FP
        assert 0 < with_memo < len(plan_calls) - with_memo

    def test_makes_no_anchor_cache_lookups(self, monkeypatch):
        """Every fit query on the serving path reads the free-space
        ledger: nothing is looked up
        in, stored in or keyed for an anchor-mask cache."""
        import repro.fabric.cache as cache_mod

        calls = []

        def counting(name, original):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            return wrapper

        for name in ("anchor_words", "__init__"):
            original = getattr(AnchorMaskCache, name)
            monkeypatch.setattr(AnchorMaskCache, name, counting(name, original))
        monkeypatch.setattr(
            cache_mod, "region_fingerprint",
            counting("region_fingerprint", cache_mod.region_fingerprint),
        )
        slog = contended_replay()
        assert slog.stats.defrag_planned_moves > 0
        assert calls == []


class TestRejectTrigger:
    """A declined spill probe runs no defrag pass: the request that no
    shard admits gets one pass, on its primary shard, when it is parked."""

    @pytest.mark.parametrize("seed", [0, 7919])
    def test_at_most_one_plan_per_parked_request(
        self, monkeypatch, plan_calls, seed
    ):
        parked = []
        park = RuntimePlacementManager.park

        def counted(self, request, outcome):
            parked.append(request.module.name)
            return park(self, request, outcome)

        monkeypatch.setattr(RuntimePlacementManager, "park", counted)
        offer = RuntimePlacementManager.offer
        declined = []

        def probe(self, request, outcome):
            answer = offer(self, request, outcome)
            declined.append(answer is None)
            return answer

        monkeypatch.setattr(RuntimePlacementManager, "offer", probe)
        contended_replay(seed)
        # the spill walk declines many more probes than it parks requests
        assert len(parked) < sum(declined)
        assert 0 < len(plan_calls) <= len(parked)


class TestDeterminism:
    def _table1_trace(self, n=80, seed=11):
        return generate_workload(n, seed=seed)

    def test_single_shard_is_bit_identical_to_bare_manager(self):
        trace = self._table1_trace()
        bare = RuntimePlacementManager(
            default_fabric(60, 12),
            RuntimeConfig(chain=("greedy",), frag_threshold=1.0,
                          sample_timeline=False),
        )
        bare_log = bare.run(trace)
        svc = ShardedPlacementService(
            [default_fabric(60, 12)], greedy_service_cfg(router="affinity")
        )
        svc_log = svc.run(trace)
        # same outcomes in the same order, placement for placement
        assert [outcome_key(o) for o in svc_log.outcomes] == [
            outcome_key(o) for o in bare_log.outcomes
        ]
        # every logical counter matches (wall-clock latency sums differ
        # between two runs by nature)
        for fieldname in (
            "arrivals", "admitted", "rejected", "departures", "defrags",
            "defrag_moves", "probe_errors", "queued_admits",
            "rejected_by_reason", "admits_by_method",
            "peak_occupied_cells",
        ):
            assert getattr(svc_log.stats, fieldname) == getattr(
                bare.stats, fieldname
            ), fieldname

    @pytest.mark.parametrize("n_shards", [2, 4])
    def test_affinity_replay_is_reproducible_run_to_run(self, n_shards):
        trace = self._table1_trace()

        def replay():
            svc = ShardedPlacementService(
                ShardedPlacementService.split(
                    default_fabric(80, 12), n_shards
                ),
                greedy_service_cfg(router="affinity"),
            )
            log = svc.run(trace)
            return outcome_multiset(log.outcomes), {
                name: (s.admitted, s.rejected)
                for name, s in log.per_shard.items()
            }

        first_outcomes, first_shards = replay()
        second_outcomes, second_shards = replay()
        assert first_outcomes == second_outcomes
        assert first_shards == second_shards
        # and the merged multiset covers every submitted request
        assert len(first_outcomes) == len(trace)

    def test_one_vs_many_shards_serve_the_same_stream(self):
        """1 shard and N shards replay the same trace: arrivals conserved
        and every admitted module lands somewhere exactly once."""
        trace = self._table1_trace(60)
        one = ShardedPlacementService(
            [default_fabric(80, 12)], greedy_service_cfg(router="affinity")
        ).run(trace)
        four = ShardedPlacementService(
            ShardedPlacementService.split(default_fabric(80, 12), 4),
            greedy_service_cfg(router="affinity"),
        ).run(trace)
        assert one.stats.arrivals == four.stats.arrivals == len(trace)
        assert one.admitted + one.rejected == len(trace)
        assert four.admitted + four.rejected == len(trace)
        admitted_names = [
            o.request.module.name for o in four.outcomes if o.admitted
        ]
        assert len(admitted_names) == len(set(admitted_names))


# ----------------------------------------------------------------------
# Lifecycle
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_close_is_an_idempotent_noop(self):
        svc = ShardedPlacementService([region_w(4)], greedy_service_cfg())
        svc.close()
        svc.close()
        assert svc.submit(req(rect("a", 2), 1)).admitted


# ----------------------------------------------------------------------
# Observability
# ----------------------------------------------------------------------
class TestObservability:
    def test_service_events_validate_against_schema(self):
        tracer = RecordingTracer()
        svc = ShardedPlacementService(
            [region_w(2, name="s0"), region_w(4, name="s1")],
            greedy_service_cfg(router="round-robin", tracer=tracer),
        )
        svc.submit(req(rect("fill", 2), 1))
        svc.submit(req(rect("b", 2), 1))
        svc.submit(req(rect("spilled", 2), 2))  # s0 full -> spills to s1
        svc.drain()
        kinds = tracer.kinds()
        assert kinds.get("service.route", 0) >= 3
        assert kinds.get("service.spill", 0) >= 1
        assert kinds.get("service.drain") == 1
        for event in tracer.events:
            assert validate_event(event.to_dict()) == []

    def test_merged_profile_sums_shards_and_keeps_labels(self):
        svc = ShardedPlacementService(
            ShardedPlacementService.split(default_fabric(40, 8), 2),
            greedy_service_cfg(router="round-robin"),
        )
        svc.run(generate_workload(12, seed=2))
        per_shard = svc.profiles()
        assert [p.meta["shard"] for p in per_shard] == [
            s.region.name for s in svc.shards
        ]
        merged = svc.profile()
        assert merged.meta["shards"] == 2
        assert merged.meta["runtime.arrivals"] == sum(
            p.meta["runtime.arrivals"] for p in per_shard
        ) == 12

    def test_profile_names_the_defragmenter_or_none(self):
        """``meta["defragmenter"]`` is the strategy the shards run: None
        for a service built with defrag disabled."""
        regions = ShardedPlacementService.split(default_fabric(40, 8), 2)
        for defrag, expected in (
            ("disabled", None),
            ("no-break", "no-break"),
        ):
            svc = ShardedPlacementService(
                regions, serving_config(defrag=defrag)
            )
            assert svc.profile().meta["defragmenter"] == expected
            assert all(
                (s._defragmenter is None) == (expected is None)
                for s in svc.shards
            )

    def test_shard_stats_merge_matches_service_stats(self):
        svc = ShardedPlacementService(
            ShardedPlacementService.split(default_fabric(40, 8), 2),
            greedy_service_cfg(router="least-loaded"),
        )
        log = svc.run(generate_workload(15, seed=4))
        merged = svc.stats
        assert merged.arrivals == sum(
            s.arrivals for s in log.per_shard.values()
        )
        assert merged.admitted == log.admitted
        assert merged.rejected == log.rejected
