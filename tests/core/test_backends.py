"""The uniform placement-backend layer: protocol, name table, adapters.

Three layers of coverage:

* the name table (the fleet it names, unknown-name errors),
* adapter parity — the named backends must behave exactly like the
  engines they wrap (greedy ≡ bottom-left, annealing seeding, runtime
  chain and portfolio member configuration reproduce the defaults), and
* the seeded cross-backend differential suite: every named backend
  placed on the same ~20-instance set must return placements that pass
  ``PlacementResult.verify``, respect its wall-clock budget, and report
  honest ``solved`` / ``proved_optimal`` flags.
"""

from __future__ import annotations

import pytest

from repro.core.backend import (
    BACKENDS,
    PlacementBackend,
    PlacementRequest,
    create_backend,
)
from repro.core.lns import LNSConfig
from repro.core.portfolio import PortfolioConfig, PortfolioPlacer
from repro.core.runtime import (
    RuntimeConfig,
    RuntimePlacementManager,
    RuntimeRequest,
    generate_workload,
)
from repro.fabric.devices import homogeneous_device, irregular_device
from repro.fabric.region import PartialRegion
from repro.modules.footprint import Footprint
from repro.modules.generator import GeneratorConfig, ModuleGenerator
from repro.modules.module import Module
from repro.obs import RecordingTracer, profiling_session, validate_event
from repro.placer import AnnealingConfig, AnnealingPlacer, BottomLeftPlacer

EXPECTED_BACKENDS = {
    "cp", "lns", "portfolio", "greedy", "bottom-left", "first-fit",
    "best-fit", "kamer", "annealing", "analytical", "1d-slots",
    "temporal-cp",
}


# ----------------------------------------------------------------------
# The name table
# ----------------------------------------------------------------------
class TestRegistry:
    def test_default_fleet_registered(self):
        assert set(BACKENDS) == EXPECTED_BACKENDS
        for name in BACKENDS:
            backend = create_backend(name)
            assert isinstance(backend, PlacementBackend)
            assert backend.name == name

    def test_unknown_name_lists_the_registry(self):
        with pytest.raises(KeyError, match="cp"):
            create_backend("definitely-not-a-backend")


class TestCapabilities:
    def test_runtime_chain_eligibility(self):
        """The runtime chain names pick rules on the ledger: ``cp``,
        ``greedy`` and ``first-fit``.  No other backend serves it."""
        for name in ("cp", "greedy", "first-fit"):
            RuntimeConfig(chain=(name,)).validate()
        for name in sorted(set(BACKENDS) - {"cp", "greedy", "first-fit"}):
            with pytest.raises(ValueError, match="unknown admission rule"):
                RuntimeConfig(chain=(name,)).validate()


# ----------------------------------------------------------------------
# Adapter parity with the wrapped engines
# ----------------------------------------------------------------------
def small_instance(seed: int = 3, n: int = 4):
    region = PartialRegion.whole_device(irregular_device(32, 8, seed=seed))
    cfg = GeneratorConfig(
        clb_min=6, clb_max=14, bram_max=1, height_min=2, height_max=3
    )
    return region, ModuleGenerator(seed=seed, config=cfg).generate_set(n)


class TestAdapterParity:
    def test_greedy_alias_matches_bottom_left_placer(self):
        region, modules = small_instance()
        direct = BottomLeftPlacer().place(region, modules)
        for name in ("greedy", "bottom-left"):
            via = create_backend(name).place(PlacementRequest(region, modules))
            assert via.placements == direct.placements, name
            assert via.extent == direct.extent

    def test_annealing_request_seed_matches_native_config(self):
        region, modules = small_instance()
        cfg = AnnealingConfig(time_limit=30.0, seed=9, max_evaluations=80)
        direct = AnnealingPlacer(cfg).place(region, modules)
        via = create_backend("annealing", cfg).place(
            PlacementRequest(region, modules)
        )
        assert via.placements == direct.placements
        assert via.stats["evaluations"] == direct.stats["evaluations"]
        # a request seed overrides the config seed deterministically
        a = create_backend(
            "annealing", AnnealingConfig(time_limit=30.0, max_evaluations=80)
        ).place(PlacementRequest(region, modules, seed=9))
        assert a.placements == direct.placements

    def test_annealing_result_verifies_through_shared_scaffolding(self):
        region, modules = small_instance(seed=5, n=5)
        res = create_backend(
            "annealing", AnnealingConfig(time_limit=30.0, max_evaluations=60)
        ).place(PlacementRequest(region, modules))
        res.verify()
        assert res.stats["method"] == "annealing"
        assert res.stats["backend"] == "annealing"

    def test_annealing_budget_runs_are_bit_identical(self):
        # with max_evaluations=None the raw placer raced the wall clock,
        # so the same seed gave machine-load-dependent answers; the
        # adapter derives a deterministic evaluation cap from the budget
        region, modules = small_instance(seed=11, n=5)

        def run():
            res = create_backend(
                "annealing", AnnealingConfig(max_evaluations=None)
            ).place(PlacementRequest(region, modules, seed=4, time_limit=0.5))
            return (
                [(p.module.name, p.shape_index, p.x, p.y)
                 for p in res.placements],
                res.extent,
                res.stats["evaluations"],
            )

        first, second = run(), run()
        assert first == second
        # the cap is actually in force (not falling back to the clock)
        evals = first[2]
        backend = create_backend("annealing")
        expected = max(
            1,
            int(0.5 * backend.EVALS_PER_MODULE_SECOND / len(modules)),
        )
        assert evals <= expected


class TestBackendObservability:
    def test_start_result_event_pair(self):
        region, modules = small_instance()
        tracer = RecordingTracer()
        create_backend("greedy").place(
            PlacementRequest(region, modules, tracer=tracer)
        )
        (start,) = tracer.by_kind("backend.start")
        (result,) = tracer.by_kind("backend.result")
        assert start.data["backend"] == "greedy"
        assert start.data["modules"] == len(modules)
        assert result.data["status"] in ("feasible", "partial")
        assert result.data["placed"] == len(modules)
        for ev in tracer.events:
            assert validate_event(ev.to_dict()) == []

    def test_error_emits_result_event_and_reraises(self):
        class _Boom(PlacementBackend):
            name = "boom"

            def _solve(self, request, tracer, profiling):
                raise RuntimeError("engine down")

        region, modules = small_instance()
        tracer = RecordingTracer()
        with pytest.raises(RuntimeError, match="engine down"):
            _Boom().place(PlacementRequest(region, modules, tracer=tracer))
        (result,) = tracer.by_kind("backend.result")
        assert result.data["status"] == "error"
        assert "engine down" in result.data["error"]
        assert validate_event(result.to_dict()) == []

    def test_profile_section_lands_in_session(self):
        region, modules = small_instance()
        with profiling_session("backends") as session:
            res = create_backend("kamer").place(
                PlacementRequest(region, modules)
            )
        profile = res.stats["profile"]
        assert profile.meta["backend"] == "kamer"
        assert session.merged().meta.get("backend") == "kamer"


# ----------------------------------------------------------------------
# Declarative orchestration wiring
# ----------------------------------------------------------------------
class TestRuntimeChainConfig:
    def _workload(self):
        return generate_workload(
            16, seed=3, mean_lifetime=8,
            generator_config=GeneratorConfig(
                clb_min=4, clb_max=10, bram_max=0, height_min=2, height_max=2
            ),
        )

    def test_default_chain_is_the_cp_rung(self):
        """The cp rung's no-fit is a proof, so a greedy rung behind it
        only runs after a crash: the one-rung default admits the same."""
        assert tuple(RuntimeConfig().chain) == ("cp",)
        region = PartialRegion.whole_device(homogeneous_device(10, 2))
        by_default = RuntimePlacementManager(
            region, RuntimeConfig()
        ).run(self._workload())
        by_chain = RuntimePlacementManager(
            region, RuntimeConfig(chain=("cp", "greedy"))
        ).run(self._workload())
        assert [
            (o.status, o.method, o.placement) for o in by_default.outcomes
        ] == [(o.status, o.method, o.placement) for o in by_chain.outcomes]

    def test_custom_chain_method_labels_are_backend_names(self):
        region = PartialRegion.whole_device(homogeneous_device(10, 2))
        mgr = RuntimePlacementManager(
            region, RuntimeConfig(chain=("first-fit",))
        )
        out = mgr.submit(
            RuntimeRequest(
                Module("m", [Footprint.rectangle(2, 2)]), arrival=1, lifetime=5
            )
        )
        assert out.admitted and out.method == "first-fit"

    def test_chain_validation(self):
        with pytest.raises(
            ValueError, match="rules: cp, first-fit, greedy"
        ):
            RuntimeConfig(chain=("not-a-backend",)).validate()
        with pytest.raises(ValueError, match="unknown admission rule"):
            RuntimeConfig(chain=("1d-slots",)).validate()
        with pytest.raises(ValueError, match="at least one"):
            RuntimeConfig(chain=()).validate()


class TestPortfolioMembersConfig:
    def test_members_validated_against_registry(self):
        with pytest.raises(ValueError, match="unknown backend"):
            PortfolioPlacer(PortfolioConfig(members=("nope",)))
        with pytest.raises(ValueError, match="at least one"):
            PortfolioPlacer(PortfolioConfig(members=()))

    def test_heterogeneous_members_report_their_backends(self):
        region, modules = small_instance()
        res = PortfolioPlacer(
            PortfolioConfig(
                n_workers=1, time_limit=1.0, members=("bottom-left",)
            )
        ).place(region, modules)
        assert res.stats["member_backends"] == ["bottom-left"]
        assert res.all_placed
        res.verify()


# ----------------------------------------------------------------------
# The seeded cross-backend differential suite
# ----------------------------------------------------------------------
BUDGET_S = 0.4
#: wall-clock slack over the budget: process startup, one in-flight CP
#: subsolve, CI jitter
SLACK_S = 2.0


def _differential_instances():
    """~20 seeded instances: irregular and homogeneous fabrics."""
    out = []
    small = GeneratorConfig(
        clb_min=4, clb_max=10, bram_max=1, height_min=2, height_max=3
    )
    clb_only = GeneratorConfig(
        clb_min=4, clb_max=12, bram_max=0, height_min=2, height_max=3
    )
    for i in range(10):
        region = PartialRegion.whole_device(irregular_device(24, 8, seed=i))
        modules = ModuleGenerator(seed=100 + i, config=small).generate_set(3)
        out.append(pytest.param(region, modules, id=f"irr{i}"))
    for i in range(10):
        region = PartialRegion.whole_device(homogeneous_device(16, 6))
        modules = ModuleGenerator(seed=200 + i, config=clb_only).generate_set(3)
        out.append(pytest.param(region, modules, id=f"hom{i}"))
    return out


#: structural config overrides keeping heavy backends test-sized
_DIFF_CONFIGS = {
    "lns": LNSConfig(time_limit=BUDGET_S, sub_time_limit=0.2, stall_limit=2),
    "portfolio": PortfolioConfig(n_workers=1, time_limit=BUDGET_S),
}

_INSTANCES = _differential_instances()


@pytest.mark.parametrize("backend_name", sorted(EXPECTED_BACKENDS))
class TestCrossBackendDifferential:
    @pytest.mark.parametrize("region,modules", _INSTANCES)
    def test_verified_honest_and_budgeted(self, backend_name, region, modules):
        backend = create_backend(backend_name, _DIFF_CONFIGS.get(backend_name))
        res = backend.place(
            PlacementRequest(region, modules, seed=7, time_limit=BUDGET_S)
        )
        # every placement a backend returns must satisfy M_a / M_b / M_c
        res.verify()
        assert res.status in (
            "optimal", "feasible", "infeasible", "unknown", "partial"
        )
        # honest flags: solved means the whole instance is placed
        assert len(res.placements) + len(res.unplaced) == len(modules)
        if res.solved:
            assert res.all_placed
            assert len(res.placements) == len(modules)
            assert res.extent is not None and res.extent > 0
        if res.proved_optimal:
            assert res.solved
        # deadlines are respected (greedy baselines finish instantly;
        # anytime engines must stop near the budget)
        assert res.elapsed <= BUDGET_S + SLACK_S
        assert res.stats.get("backend") == backend_name


# ----------------------------------------------------------------------
# The scheduling backend (temporal-cp)
# ----------------------------------------------------------------------
def _tight_region(w=4, h=2):
    return PartialRegion.whole_device(homogeneous_device(w, h))


class TestTemporalBackend:
    def test_spatial_request_degrades_to_one_tick(self):
        region, modules = small_instance()
        res = create_backend("temporal-cp").place(
            PlacementRequest(region, modules)
        )
        # degenerate mode is plain spatial packing: results verify
        res.verify()
        assert res.solved
        assert res.stats["horizon"] == 1
        assert res.stats["makespan"] == 1
        for _, _, _, _, start, duration in res.stats["schedule"]:
            assert start == 0 and duration == 1

    def test_scheduling_request_returns_schedule_rows(self):
        region = _tight_region(4, 2)
        modules = [
            Module(f"m{i}", [Footprint.rectangle(2, 2)]) for i in range(3)
        ]
        res = create_backend("temporal-cp").place(
            PlacementRequest(
                region,
                modules,
                horizon=6,
                durations=[2, 2, 2],
                precedences=[(0, 2)],
            )
        )
        assert res.solved
        sched = res.stats["schedule"]
        assert len(sched) == 3
        rows = {name: (x, y, start, d) for name, _, x, y, start, d in sched}
        # precedence: m0 finishes before m2 starts
        assert rows["m0"][2] + rows["m0"][3] <= rows["m2"][2]
        # spatio-temporal disjointness: concurrent tasks never share cells
        placements = {p.module.name: p for p in res.placements}
        names = list(rows)
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                (_, _, sa, da), (_, _, sb, db) = rows[a], rows[b]
                if sa < sb + db and sb < sa + da:  # overlap in time
                    ca = {(x, y) for x, y, _ in placements[a].absolute_cells()}
                    cb = {(x, y) for x, y, _ in placements[b].absolute_cells()}
                    assert not (ca & cb), (a, b)
        # two 2x2 tasks fit side by side; the third (serialized after m0)
        # pushes the makespan to 4
        assert res.stats["makespan"] == 4

    def test_status_never_claims_extent_optimality(self):
        region = _tight_region(4, 2)
        modules = [Module("solo", [Footprint.rectangle(2, 2)])]
        res = create_backend("temporal-cp").place(
            PlacementRequest(region, modules, horizon=4, durations=[3])
        )
        # the BnB proves *makespan* optimality; the spatial extent the
        # fleet optimizes is untouched, so status stays "feasible"
        assert res.status == "feasible"
        assert res.stats["makespan_optimal"] is True
        assert not res.proved_optimal

    def test_production_path_matches_reference_oracle(self):
        from repro.core.temporal import TemporalTask
        from tests.support import TemporalPlacer

        region = _tight_region(4, 4)
        specs = [("a", 2, 2, 2), ("b", 2, 2, 3), ("c", 2, 4, 2)]
        modules = [
            Module(n, [Footprint.rectangle(w, h)]) for n, w, h, _ in specs
        ]
        durations = [d for _, _, _, d in specs]
        res = create_backend("temporal-cp").place(
            PlacementRequest(
                region, modules, horizon=8, durations=durations,
                precedences=[(0, 1)],
            )
        )
        oracle = TemporalPlacer(horizon=8).place(
            region,
            [TemporalTask(m, d) for m, d in zip(modules, durations)],
            precedences=[(0, 1)],
        )
        assert oracle.status == "optimal"
        assert res.stats["makespan_optimal"]
        assert res.stats["makespan"] == oracle.makespan

    def test_infeasible_horizon_is_reported_honestly(self):
        region = _tight_region(2, 2)
        modules = [
            Module(f"m{i}", [Footprint.rectangle(2, 2)]) for i in range(3)
        ]
        res = create_backend("temporal-cp").place(
            PlacementRequest(region, modules, horizon=2, durations=[1, 1, 1])
        )
        assert res.status == "infeasible"
        assert not res.placements
        assert len(res.unplaced) == 3

    def test_misaligned_durations_rejected(self):
        region = _tight_region()
        modules = [Module("m", [Footprint.rectangle(1, 1)])]
        with pytest.raises(ValueError, match="align"):
            create_backend("temporal-cp").place(
                PlacementRequest(region, modules, horizon=3, durations=[1, 2])
            )

    @pytest.mark.parametrize("horizon", [0, -3])
    def test_non_positive_default_horizon_rejected_at_construction(
        self, horizon
    ):
        # a horizon of 0 must not silently become the one-tick default
        with pytest.raises(ValueError, match="horizon must be positive"):
            create_backend("temporal-cp", horizon)

    def test_construction_horizon_is_the_request_default(self):
        region = _tight_region(4, 2)
        modules = [
            Module(f"m{i}", [Footprint.rectangle(2, 2)]) for i in range(3)
        ]
        res = create_backend("temporal-cp", 4).place(
            PlacementRequest(region, modules)
        )
        assert res.solved
        assert res.stats["horizon"] == 4
        assert res.stats["makespan"] == 2
