"""Warm-started solves: the analytical seeder feeding CP and LNS.

The warm placement is an *incumbent*, never a constraint relaxation: CP
clamps its objective strictly below the seed (so every node works toward
beating it), LNS adopts it instead of the construction ladder.  Both must
fall back to their cold paths when the seeder's answer is unusable.
"""

from __future__ import annotations

import pytest

from repro.core.backend import (
    BACKENDS,
    PlacementBackend,
    PlacementRequest,
    create_backend,
)
from repro.core.lns import LNSConfig, LNSPlacer
from repro.core.placer import CPPlacer, PlacerConfig
from repro.core.result import Placement, PlacementResult
from repro.fabric.devices import homogeneous_device, irregular_device
from repro.fabric.region import PartialRegion
from repro.modules.footprint import Footprint
from repro.modules.generator import GeneratorConfig, ModuleGenerator
from repro.modules.module import Module


def instance(n=8, seed=2, w=48, h=12):
    region = PartialRegion.whole_device(irregular_device(w, h, seed=7))
    cfg = GeneratorConfig(
        clb_min=6, clb_max=16, bram_max=1, height_min=2, height_max=4
    )
    return region, ModuleGenerator(seed=seed, config=cfg).generate_set(n)


class TestWarmStartedCP:
    def test_first_incumbent_is_free(self):
        region, modules = instance()
        cold = CPPlacer(PlacerConfig(time_limit=3.0)).place(region, modules)
        warm = CPPlacer(
            PlacerConfig(time_limit=3.0, warm_start="analytical")
        ).place(region, modules)
        warm.verify()
        assert warm.solved
        assert warm.stats["first_incumbent_nodes"] == 0
        assert cold.stats["first_incumbent_nodes"] > 0
        assert warm.stats["warm_start"]["backend"] == "analytical"

    def test_search_only_improves_on_the_seed(self):
        region, modules = instance(seed=5)
        warm = CPPlacer(
            PlacerConfig(time_limit=3.0, warm_start="analytical")
        ).place(region, modules)
        assert warm.solved
        seed_objective = warm.stats["warm_start"]["objective"]
        assert warm.extent is None or warm.extent <= seed_objective

    def test_first_solution_only_returns_the_seed_immediately(self):
        region, modules = instance()
        res = CPPlacer(
            PlacerConfig(
                time_limit=3.0,
                warm_start="analytical",
                first_solution_only=True,
            )
        ).place(region, modules)
        res.verify()
        assert res.status == "feasible"
        assert res.stats["first_incumbent_nodes"] == 0
        # no search stats at all: the CP model was never built
        assert "search" not in res.stats

    def test_unbeatable_seed_is_proven_optimal(self):
        # a single 2x2 module on a tiny fabric: the seed is trivially
        # optimal, so clamping strictly below it is Inconsistent at the
        # root and the warm placement comes back as status "optimal"
        region = PartialRegion.whole_device(homogeneous_device(2, 2))
        modules = [Module("solo", [Footprint.rectangle(2, 2)])]
        res = CPPlacer(
            PlacerConfig(time_limit=3.0, warm_start="analytical")
        ).place(region, modules)
        res.verify()
        assert res.status == "optimal"
        assert res.stats["first_incumbent_nodes"] == 0

    def test_unusable_seed_falls_back_to_cold_search(self, monkeypatch):
        class _Partial(PlacementBackend):
            name = "partial-seeder"

            def _solve(self, request, tracer, profiling):
                return PlacementResult(
                    request.region,
                    [],
                    list(request.modules),
                    status="partial",
                )

        monkeypatch.setitem(
            BACKENDS, "partial-seeder", lambda config=None: _Partial()
        )
        region, modules = instance(n=4)
        res = CPPlacer(
            PlacerConfig(time_limit=3.0, warm_start="partial-seeder")
        ).place(region, modules)
        res.verify()
        assert res.solved
        # cold-path bookkeeping: the incumbent cost real nodes
        assert "warm_start" not in res.stats
        assert res.stats["first_incumbent_nodes"] > 0

    def test_request_threads_warm_start_through_backend(self):
        region, modules = instance(n=5)
        res = create_backend("cp").place(
            PlacementRequest(
                region, modules, time_limit=3.0, warm_start="analytical"
            )
        )
        res.verify()
        assert res.stats["first_incumbent_nodes"] == 0


class TestWarmStartedLNS:
    def test_seed_replaces_the_construction_ladder(self):
        region, modules = instance()
        res = LNSPlacer(
            LNSConfig(time_limit=2.0, warm_start="analytical", seed=3)
        ).place(region, modules)
        res.verify()
        assert res.all_placed
        warm = res.stats["warm_start"]
        assert warm["backend"] == "analytical"
        # the trajectory starts at the seed's objective and never worsens
        assert res.stats["initial_extent"] == warm["objective"]
        assert res.extent <= warm["objective"]

    def test_unusable_seed_falls_back_to_the_ladder(self, monkeypatch):
        class _Broken(PlacementBackend):
            name = "broken-seeder"

            def _solve(self, request, tracer, profiling):
                return PlacementResult(
                    request.region,
                    [],
                    list(request.modules),
                    status="partial",
                )

        monkeypatch.setitem(
            BACKENDS, "broken-seeder", lambda config=None: _Broken()
        )
        region, modules = instance(n=4)
        res = LNSPlacer(
            LNSConfig(time_limit=2.0, warm_start="broken-seeder", seed=3)
        ).place(region, modules)
        res.verify()
        assert res.all_placed
        assert "warm_start" not in res.stats
