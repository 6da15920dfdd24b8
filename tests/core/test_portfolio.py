"""Parallel portfolio placer."""

from __future__ import annotations

import multiprocessing

import pytest

import repro.core.portfolio as portfolio_mod
from repro.core.portfolio import PortfolioConfig, PortfolioPlacer, _worker
from repro.fabric.devices import homogeneous_device, irregular_device
from repro.fabric.io import region_to_dict
from repro.fabric.region import PartialRegion
from repro.modules.footprint import Footprint
from repro.modules.generator import GeneratorConfig, ModuleGenerator
from repro.modules.module import Module
from repro.modules.spec import module_to_dict


def small_instance():
    region = PartialRegion.whole_device(irregular_device(64, 16, seed=7))
    cfg = GeneratorConfig(clb_min=10, clb_max=24, bram_max=1,
                          height_min=3, height_max=5)
    modules = ModuleGenerator(seed=2, config=cfg).generate_set(6)
    return region, modules


class TestWorkerPayloads:
    def test_worker_round_trip(self):
        """The worker operates entirely on serialized payloads."""
        region, modules = small_instance()
        seed, extent, tuples, profile = _worker(
            region_to_dict(region),
            [module_to_dict(m) for m in modules],
            time_limit=2.0,
            seed=5,
        )
        assert seed == 5
        assert extent is not None
        assert len(tuples) == len(modules)
        names = {t[0] for t in tuples}
        assert names == {m.name for m in modules}
        assert profile is None  # not requested

    def test_worker_reports_failure(self):
        region = PartialRegion.whole_device(homogeneous_device(2, 2))
        module = Module("big", [Footprint.rectangle(3, 3)])
        seed, extent, tuples, profile = _worker(
            region_to_dict(region), [module_to_dict(module)], 0.5, 0
        )
        assert extent is None and tuples == []

    def test_worker_profile_is_plain_dict(self):
        """Profiles cross the process boundary as JSON-serializable dicts."""
        import json

        from repro.obs import SolveProfile, validate_profile

        region, modules = small_instance()
        _, extent, _, profile = _worker(
            region_to_dict(region),
            [module_to_dict(m) for m in modules],
            time_limit=2.0,
            seed=5,
            profile=True,
        )
        assert extent is not None
        assert isinstance(profile, dict)
        json.dumps(profile)  # must survive pickling AND json
        assert validate_profile(profile) == []
        restored = SolveProfile.from_dict(profile)
        assert restored.nodes > 0 and restored.propagations > 0


class TestPortfolio:
    def test_single_worker_inline(self):
        region, modules = small_instance()
        res = PortfolioPlacer(
            PortfolioConfig(n_workers=1, time_limit=2.0)
        ).place(region, modules)
        assert res.all_placed
        res.verify()
        assert res.stats["members"] == 1

    def test_parallel_members_and_best_selection(self):
        region, modules = small_instance()
        res = PortfolioPlacer(
            PortfolioConfig(n_workers=2, time_limit=2.0, base_seed=3)
        ).place(region, modules)
        assert res.all_placed
        res.verify()
        extents = res.stats["member_extents"]
        assert res.extent == min(extents)
        assert len(extents) == res.stats["solved_members"] <= 2

    def test_infeasible_instance(self):
        region = PartialRegion.whole_device(homogeneous_device(2, 2))
        modules = [Module("big", [Footprint.rectangle(3, 3)])]
        res = PortfolioPlacer(
            PortfolioConfig(n_workers=1, time_limit=0.5)
        ).place(region, modules)
        assert not res.placements
        assert res.status == "unknown"

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PortfolioPlacer(PortfolioConfig(n_workers=0))

    def test_wall_clock_is_parallel(self):
        """2 workers x T budget must finish well under 2T."""
        region, modules = small_instance()
        res = PortfolioPlacer(
            PortfolioConfig(n_workers=2, time_limit=3.0)
        ).place(region, modules)
        assert res.elapsed < 5.5  # budget + process startup slack

    def test_single_worker_stats_have_no_crashes(self):
        region, modules = small_instance()
        res = PortfolioPlacer(
            PortfolioConfig(n_workers=1, time_limit=1.0)
        ).place(region, modules)
        assert res.stats["crashed_members"] == {}

    def test_profile_merged_across_members(self):
        from repro.obs import RecordingTracer, SolveProfile
        from repro.obs.trace import PORTFOLIO_RESULT

        region, modules = small_instance()
        tracer = RecordingTracer()
        res = PortfolioPlacer(
            PortfolioConfig(
                n_workers=2, time_limit=2.0, profile=True, tracer=tracer
            )
        ).place(region, modules)
        assert res.all_placed
        assert tracer.count(PORTFOLIO_RESULT) == 2
        merged = res.stats["profile"]
        assert isinstance(merged, SolveProfile)
        members = res.stats["member_profiles"]
        assert len(members) == 2
        # the merge is the exact sum of the members' counters
        total = SolveProfile(meta={"placer": "portfolio"})
        for doc in members.values():
            total = total + SolveProfile.from_dict(doc)
        assert merged.counts() == total.counts()
        assert merged.nodes > 0


# ----------------------------------------------------------------------
# Crash handling: a dying member must be reported under its real seed and
# must never sink the surviving members.
#
# The raising replacements live at module scope so ProcessPoolExecutor can
# pickle them by reference; with the "fork" start method the children
# inherit the monkeypatched ``portfolio._worker`` binding.
# ----------------------------------------------------------------------

def _crashing_worker(region_payload, module_payloads, time_limit, seed,
                     profile=False, backend="lns"):
    raise RuntimeError(f"boom-{seed}")


def _odd_seed_crashing_worker(region_payload, module_payloads, time_limit,
                              seed, profile=False, backend="lns"):
    if seed % 2 == 1:
        raise RuntimeError(f"boom-{seed}")
    return _worker(region_payload, module_payloads, time_limit, seed, profile,
                   backend)


needs_fork = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="monkeypatched workers only propagate to forked children",
)


class TestCrashHandling:
    def test_inline_crash_recorded_under_real_seed(self, monkeypatch):
        from repro.obs import RecordingTracer
        from repro.obs.trace import PORTFOLIO_RESULT

        region, modules = small_instance()
        monkeypatch.setattr(portfolio_mod, "_worker", _crashing_worker)
        tracer = RecordingTracer()
        res = PortfolioPlacer(
            PortfolioConfig(
                n_workers=1, time_limit=0.5, base_seed=17, tracer=tracer
            )
        ).place(region, modules)

        assert not res.placements and res.status == "unknown"
        assert res.stats["members"] == 1
        assert res.stats["crashed_members"] == {17: "RuntimeError: boom-17"}
        (event,) = tracer.by_kind(PORTFOLIO_RESULT)
        assert event.data["seed"] == 17  # the member's real seed, not -1
        assert event.data["solved"] is False
        assert event.data["error"] == "RuntimeError: boom-17"

    @needs_fork
    def test_parallel_crash_keeps_survivors(self, monkeypatch):
        from repro.obs import RecordingTracer
        from repro.obs.trace import PORTFOLIO_RESULT

        region, modules = small_instance()
        monkeypatch.setattr(
            portfolio_mod, "_worker", _odd_seed_crashing_worker
        )
        tracer = RecordingTracer()
        res = PortfolioPlacer(
            PortfolioConfig(
                n_workers=2, time_limit=2.0, base_seed=10, tracer=tracer
            )
        ).place(region, modules)

        # seed 11 crashed; seed 10 solved and must win unaffected
        assert res.all_placed
        res.verify()
        assert res.stats["crashed_members"] == {11: "RuntimeError: boom-11"}
        assert res.stats["members"] == 2
        assert res.stats["solved_members"] == 1
        assert res.stats["winning_seed"] == 10
        by_seed = {
            e.data["seed"]: e.data for e in tracer.by_kind(PORTFOLIO_RESULT)
        }
        assert set(by_seed) == {10, 11}
        assert by_seed[10]["solved"] is True and "error" not in by_seed[10]
        assert by_seed[11]["solved"] is False
        assert by_seed[11]["error"] == "RuntimeError: boom-11"

    @needs_fork
    def test_all_members_crashing_is_unsolved_not_fatal(self, monkeypatch):
        region, modules = small_instance()
        monkeypatch.setattr(portfolio_mod, "_worker", _crashing_worker)
        res = PortfolioPlacer(
            PortfolioConfig(n_workers=2, time_limit=0.5, base_seed=4)
        ).place(region, modules)
        assert not res.placements and res.status == "unknown"
        assert set(res.stats["crashed_members"]) == {4, 5}
        assert all(
            msg.startswith("RuntimeError: boom-")
            for msg in res.stats["crashed_members"].values()
        )
