"""LNS placer, incremental placement on the runtime manager, alternative
expansion."""

from __future__ import annotations

import pytest

from repro.core.alternatives import (
    expand_alternatives,
    legal_rigid_transforms,
    with_alternatives,
)
from repro.core.lns import LNSConfig, LNSPlacer
from repro.core.runtime import (
    RejectReason,
    RuntimeConfig,
    RuntimePlacementManager,
    RuntimeRequest,
)
from repro.fabric.devices import homogeneous_device, irregular_device
from repro.fabric.region import PartialRegion
from repro.fabric.resource import ResourceType
from repro.modules.footprint import Footprint
from repro.modules.generator import GeneratorConfig, ModuleGenerator
from repro.modules.module import Module
from repro.modules.transform import build_body, rotate90


class TestLNS:
    def _instance(self, n=6):
        region = PartialRegion.whole_device(irregular_device(64, 16, seed=7))
        modules = ModuleGenerator(seed=2).generate_set(n)
        return region, modules

    def test_produces_valid_improving_placement(self):
        region, modules = self._instance()
        res = LNSPlacer(LNSConfig(time_limit=4.0, seed=1)).place(region, modules)
        assert res.all_placed
        res.verify()
        traj = res.stats["trajectory"]
        values = [v for _, v in traj]
        assert values == sorted(values, reverse=True)
        assert res.extent == values[-1]

    def test_respects_time_budget(self):
        region, modules = self._instance()
        res = LNSPlacer(LNSConfig(time_limit=2.0, seed=1)).place(region, modules)
        assert res.elapsed < 6.0  # budget + slack for the last subsolve

    def test_stall_limit_terminates_early(self):
        region, modules = self._instance(3)
        cfg = LNSConfig(time_limit=60.0, stall_limit=2, sub_time_limit=0.3, seed=1)
        res = LNSPlacer(cfg).place(region, modules)
        assert res.elapsed < 30.0
        assert res.all_placed

    def test_infeasible_instance_reported(self):
        region = PartialRegion.whole_device(homogeneous_device(2, 2))
        modules = [Module("big", [Footprint.rectangle(3, 3)])]
        res = LNSPlacer(LNSConfig(time_limit=1.0)).place(region, modules)
        assert not res.placements
        assert res.status in ("infeasible", "unknown")

    def test_never_worse_than_initial(self):
        region, modules = self._instance()
        cfg = LNSConfig(time_limit=3.0, seed=5)
        res = LNSPlacer(cfg).place(region, modules)
        assert res.extent <= res.stats["initial_extent"]


def interactive_manager(width, height):
    """An interactive session: CP-placed arrivals, committed modules never
    move (queue and defrag off), the clock never advances."""
    region = PartialRegion.whole_device(homogeneous_device(width, height))
    return RuntimePlacementManager(
        region,
        RuntimeConfig(
            chain=("cp",),
            queue_capacity=0,
            defragmenter=None,
        ),
    )


def add(mgr, module):
    return mgr.submit(RuntimeRequest(module, 0, 1))


class TestIncremental:
    def test_add_and_remove(self):
        mgr = interactive_manager(12, 4)
        out = add(mgr, Module("a", [Footprint.rectangle(3, 2)]))
        assert out.admitted and out.method == "cp"
        assert mgr.occupancy_mask().sum() == 6 == mgr.occupied_cells
        assert mgr.depart("a") == out.placement
        assert mgr.occupancy_mask().sum() == 0 == mgr.occupied_cells
        mgr.check_invariants()

    def test_duplicate_add_rejected(self):
        mgr = interactive_manager(12, 4)
        m = Module("a", [Footprint.rectangle(2, 2)])
        assert add(mgr, m).admitted
        dup = add(mgr, m)
        assert dup.status == "rejected"
        assert dup.reason == RejectReason.DUPLICATE
        assert len(mgr.placements) == 1

    def test_remove_unknown_rejected(self):
        mgr = interactive_manager(12, 4)
        assert mgr.depart("ghost") is None
        assert mgr.stats.departures == 0

    def test_modules_do_not_overlap(self):
        mgr = interactive_manager(12, 4)
        for i in range(4):
            assert add(mgr, Module(f"m{i}", [Footprint.rectangle(3, 2)])).admitted
        result = mgr.result()
        result.verify()
        assert len(result.placements) == 4
        mgr.check_invariants()

    def test_rejection_when_full(self):
        mgr = interactive_manager(4, 2)
        assert add(mgr, Module("a", [Footprint.rectangle(4, 2)])).admitted
        out = add(mgr, Module("b", [Footprint.rectangle(1, 1)]))
        assert out.status == "rejected" and out.reason == RejectReason.NO_FIT

    def test_add_all_reports_rejects(self):
        mgr = interactive_manager(4, 2)
        mods = [
            Module("a", [Footprint.rectangle(4, 2)]),
            Module("b", [Footprint.rectangle(2, 2)]),
        ]
        rejected = [m.name for m in mods if not add(mgr, m).admitted]
        assert rejected == ["b"]

    def test_removal_frees_space_for_new_module(self):
        mgr = interactive_manager(4, 2)
        assert add(mgr, Module("a", [Footprint.rectangle(4, 2)])).admitted
        assert not add(mgr, Module("b", [Footprint.rectangle(2, 1)])).admitted
        mgr.depart("a")
        assert add(mgr, Module("b2", [Footprint.rectangle(2, 1)])).admitted


class TestAlternatives:
    def test_bram_modules_never_rotated_90(self):
        base = build_body(12, 4, bram_cells=2, bram_column=1)
        transforms = legal_rigid_transforms(base)
        rotated = rotate90(base)
        for t in transforms:
            assert t(base) != rotated

    def test_clb_modules_may_rotate_90(self):
        base = Footprint.rectangle(3, 2)
        outputs = {t(base) for t in legal_rigid_transforms(base)}
        assert rotate90(base) in outputs

    def test_expand_produces_distinct_shapes(self):
        base = build_body(18, 5, bram_cells=2, bram_column=1)
        alts = expand_alternatives(base, max_alternatives=4)
        assert 1 <= len(alts) <= 4
        assert len(set(alts)) == len(alts)
        assert alts[0] == base

    def test_expand_respects_cap(self):
        base = build_body(18, 5)
        assert len(expand_alternatives(base, max_alternatives=2)) <= 2
        with pytest.raises(ValueError):
            expand_alternatives(base, max_alternatives=0)

    def test_with_alternatives_builds_module(self):
        m = with_alternatives("fir", build_body(12, 4), max_alternatives=3)
        assert m.name == "fir"
        assert 1 <= m.n_alternatives <= 3

    def test_alternatives_preserve_resources(self):
        base = build_body(20, 5, bram_cells=3, bram_column=2)
        for alt in expand_alternatives(base, max_alternatives=4):
            assert alt.resource_counts() == base.resource_counts()
