"""Runtime-facing benches: online service level (A5) and defragmentation.

These extend the paper's offline result into the settings its introduction
motivates: an online request stream (service level = fraction of module
requests fulfilled, the metric of refs [4, 5]) and runtime compaction by
module relocation.
"""

from __future__ import annotations

import contextlib
import time

import pytest

import repro.core.defrag as defrag_mod
from benchmarks.conftest import run_once
from repro.core.defrag import NoBreakDefragmenter, defragment
from repro.core.placer import CPPlacer, PlacerConfig
from repro.core.result import PlacementResult
from repro.experiments.runtime_exp import format_runtime, online_comparison
from repro.fabric.devices import irregular_device
from repro.fabric.masks import anchor_words, bottom_left_pick, column_words
from repro.fabric.region import PartialRegion
from repro.modules.generator import GeneratorConfig, ModuleGenerator
from tests.support import (
    blocked_prefix_counts,
    full_cp_model,
    per_cell_relocation_sites,
    prefix_count_anchor_mask,
    recorded_cp_probes,
)

#: no-break planning on the maintained occupancy grid must beat the same
#: planner probing through per-cell floorplan rebuilds by this factor
#: (same host, same floorplans; measured 2.2-2.3x on a 2-core x86 host)
DEFRAG_PLAN_SPEEDUP_MIN = 1.6
#: the closed-form one-module CP probe must beat the same probe through
#: the full CP model by this factor (same host, same recorded probes;
#: measured 3.5-4.2x over four runs on a 2-core x86 host)
CLOSED_FORM_SPEEDUP_MIN = 3.0
#: the closed form's mask stage on packed column words (region words +
#: shape words + pick) must beat the prefix-count kernel + pick by this
#: factor (same host, same recorded probes; measured 1.79-1.95x over ten
#: runs on a 2-core x86 host, median 1.85x: the gate is 2/3 of that)
PACKED_WORDS_SPEEDUP_MIN = 1.2


class TestA5Online:
    def test_bench_ablation_online(self, benchmark, report):
        rows = run_once(benchmark, online_comparison, 30, 3)
        report("A5 — online service level", format_runtime(rows))
        by = {r.label: r for r in rows}
        assert all(r.total == 30 for r in rows)
        # alternatives never lose requests, and on this loaded trace they
        # must win some (the fragmentation-reduction claim at runtime)
        assert (
            by["first-fit (alternatives)"].admitted
            > by["first-fit (1 shape)"].admitted
        )
        assert (
            by["cp (alternatives)"].admitted >= by["cp (1 shape)"].admitted
        )


def _fragmented_state() -> PlacementResult:
    region = PartialRegion.whole_device(irregular_device(72, 12, seed=9))
    gen = ModuleGenerator(
        seed=6,
        config=GeneratorConfig(clb_min=10, clb_max=24, bram_max=1,
                               height_min=3, height_max=5),
    )
    modules = gen.generate_set(8)
    res = CPPlacer(
        PlacerConfig(time_limit=4.0, first_solution_only=True)
    ).place(region, modules)
    assert res.all_placed
    return PlacementResult(region, res.placements[::2])


class TestDefrag:
    def test_bench_defrag_frozen_shapes(self, benchmark, report):
        state = _fragmented_state()
        out = run_once(benchmark, defragment, state, False)
        report(
            "defrag (frozen shapes)",
            f"extent {out.initial_extent} -> {out.final_extent} "
            f"in {len(out.moves)} moves, {out.total_frames} frames",
        )
        out.result.verify()
        assert out.final_extent <= out.initial_extent

    def test_bench_defrag_free_shapes(self, benchmark, report):
        state = _fragmented_state()
        frozen = defragment(state, allow_shape_change=False)
        free = run_once(benchmark, defragment, state, True)
        report(
            "defrag (free shapes)",
            f"extent {free.initial_extent} -> {free.final_extent} "
            f"(frozen-shape policy reached {frozen.final_extent})",
        )
        free.result.verify()
        # alternative-aware relocation compacts at least as far
        assert free.final_extent <= frozen.final_extent


def _contended_floorplans(monkeypatch, n_requests=400, keep=60):
    """Shard floorplans the no-break planner sees while the contended
    serving profile (reservations, queue, reject-triggered no-break
    defrag) replays a seeded overloaded Table-I trace; ``keep`` of them,
    evenly spaced."""
    from repro.core.runtime import generate_workload
    from repro.core.service import ShardedPlacementService
    from repro.experiments.config import default_fabric
    from repro.experiments.service_load import serving_config

    recorded = []
    plan = NoBreakDefragmenter.plan

    def record(self, result, *args, **kwargs):
        recorded.append(result)
        return plan(self, result, *args, **kwargs)

    monkeypatch.setattr(NoBreakDefragmenter, "plan", record)
    service = ShardedPlacementService(
        ShardedPlacementService.split(default_fabric(), 4),
        serving_config(defrag="no-break", reservation_horizon=16),
    )
    trace = generate_workload(
        n_requests, seed=0, mean_interarrival=1, mean_lifetime=40
    )
    for request in sorted(trace, key=lambda r: r.arrival):
        service.submit(request)
    service.close()
    monkeypatch.undo()
    return recorded[:: max(1, len(recorded) // keep)][:keep]


class TestDefragPlanOccupancy:
    def test_maintained_grid_beats_per_cell_rebuild(self, monkeypatch, report):
        """Ratio gate: ``NoBreakDefragmenter.plan`` keeping one occupancy
        grid per plan vs the same planner with the per-cell
        ``relocation_sites`` oracle patched in (a floorplan rebuild per
        probe).  Both sides must plan the same moves."""
        floorplans = _contended_floorplans(monkeypatch)
        assert len(floorplans) >= 40

        def run(oracle):
            if oracle:
                monkeypatch.setattr(
                    defrag_mod, "relocation_sites", per_cell_relocation_sites
                )
            try:
                t0 = time.perf_counter()
                plans = [NoBreakDefragmenter().plan(r) for r in floorplans]
                return time.perf_counter() - t0, [p.moves for p in plans]
            finally:
                monkeypatch.undo()

        # alternate the two sides so a drift in host speed hits both
        t_new = t_old = float("inf")
        for _ in range(5):
            elapsed, moves = run(False)
            t_new = min(t_new, elapsed)
            elapsed, ref_moves = run(True)
            t_old = min(t_old, elapsed)
            assert moves == ref_moves
        speedup = t_old / t_new
        report(
            "no-break defrag planning: maintained grid vs per-cell rebuild",
            f"{len(floorplans)} contended shard floorplans, "
            f"{sum(map(len, moves))} planned moves\n"
            f"  per-cell rebuild {t_old / len(floorplans) * 1e3:7.2f} "
            "ms/plan\n"
            f"  maintained grid  {t_new / len(floorplans) * 1e3:7.2f} "
            "ms/plan\n"
            f"  speedup          {speedup:7.2f}x  "
            f"(gate >= {DEFRAG_PLAN_SPEEDUP_MIN}x)",
        )
        assert speedup >= DEFRAG_PLAN_SPEEDUP_MIN, (
            f"maintained-grid planning only {speedup:.2f}x the per-cell oracle"
        )


class TestClosedFormAdmission:
    def test_closed_form_beats_full_cp_model(self, report):
        """Ratio gate: the serving CP probe (one module, first solution,
        min extent) answered in closed form vs the same probe through
        :func:`tests.support.full_cp_model`.  Both sides must give the
        same answers."""
        probes = recorded_cp_probes(n_requests=400, keep=200)
        assert len(probes) >= 150
        config = PlacerConfig(time_limit=None, first_solution_only=True)

        def run(full):
            placer = CPPlacer(config)
            with full_cp_model() if full else contextlib.nullcontext():
                t0 = time.perf_counter()
                results = [placer.place(r, [m]) for r, m in probes]
                elapsed = time.perf_counter() - t0
            return elapsed, [
                (r.status, [(p.shape_index, p.x, p.y) for p in r.placements])
                for r in results
            ]

        # alternate the two sides so a drift in host speed hits both
        t_closed = t_full = float("inf")
        for _ in range(5):
            elapsed, answers = run(False)
            t_closed = min(t_closed, elapsed)
            elapsed, ref_answers = run(True)
            t_full = min(t_full, elapsed)
            assert answers == ref_answers
        infeasible = sum(status == "infeasible" for status, _ in answers)
        speedup = t_full / t_closed
        report(
            "one-module CP probe: closed form vs full CP model",
            f"{len(probes)} recorded serve-contended probes, "
            f"{infeasible} with no fit\n"
            f"  full CP model {t_full / len(probes) * 1e3:7.3f} ms/probe\n"
            f"  closed form   {t_closed / len(probes) * 1e3:7.3f} ms/probe\n"
            f"  speedup       {speedup:7.2f}x  "
            f"(gate >= {CLOSED_FORM_SPEEDUP_MIN}x)",
        )
        assert speedup >= CLOSED_FORM_SPEEDUP_MIN, (
            f"closed form only {speedup:.2f}x the full CP model"
        )


class TestPackedAnchorWords:
    def test_packed_words_beat_prefix_count_kernel(self, report):
        """Ratio gate: the CP closed form's mask stage — the region's
        column words, every shape's anchor words, the bottom-left pick —
        vs the prefix-count kernel it replaced (region planes, one mask
        per shape, the same pick) on recorded serving probes.  Both
        sides must pick the same ``(x, y, shape)``."""
        probes = recorded_cp_probes(n_requests=400, keep=200)
        assert len(probes) >= 150

        def packed():
            t0 = time.perf_counter()
            picks = [
                bottom_left_pick(anchor_words(column_words(r), m.shapes))
                for r, m in probes
            ]
            return time.perf_counter() - t0, picks

        def prefix_counts():
            t0 = time.perf_counter()
            picks = []
            for r, m in probes:
                planes = blocked_prefix_counts(r)
                picks.append(
                    bottom_left_pick(
                        prefix_count_anchor_mask(r, fp, planes)
                        for fp in m.shapes
                    )
                )
            return time.perf_counter() - t0, picks

        # alternate the two sides so a drift in host speed hits both
        t_packed = t_prefix = float("inf")
        for _ in range(7):
            elapsed, picks = packed()
            t_packed = min(t_packed, elapsed)
            elapsed, ref_picks = prefix_counts()
            t_prefix = min(t_prefix, elapsed)
            assert picks == ref_picks
        speedup = t_prefix / t_packed
        report(
            "closed-form mask stage: packed words vs prefix counts",
            f"{len(probes)} recorded serve-contended probes, "
            f"{sum(p is None for p in picks)} with no fit\n"
            f"  prefix counts + pick {t_prefix / len(probes) * 1e6:7.1f} us/probe\n"
            f"  packed words + pick  {t_packed / len(probes) * 1e6:7.1f} us/probe\n"
            f"  speedup              {speedup:7.2f}x  "
            f"(gate >= {PACKED_WORDS_SPEEDUP_MIN}x)",
        )
        assert speedup >= PACKED_WORDS_SPEEDUP_MIN, (
            f"packed words only {speedup:.2f}x the prefix-count kernel"
        )


class TestRuntimeManagerThroughput:
    def test_bench_runtime_manager_throughput(self, benchmark, report):
        """Serving throughput of the online placement manager.

        The Table-I module distribution streamed through the full
        fallback chain (budgeted CP probe backed by the greedy rung).
        The pin: at least 50 requests/second end to end — admission has
        to stay cheap enough for a runtime system's serving loop.
        """
        from repro.core.runtime import (
            RuntimeConfig, RuntimePlacementManager, generate_workload,
        )
        from repro.experiments.config import default_fabric

        region = default_fabric()
        trace = generate_workload(100, seed=3)
        config = RuntimeConfig(chain=("cp", "greedy"), probe_time_limit=0.05)

        def serve():
            return RuntimePlacementManager(region, config).run(trace)

        log = run_once(benchmark, serve)
        elapsed = benchmark.stats.stats.total
        throughput = len(trace) / elapsed
        report(
            "runtime manager throughput (Table-I workload)",
            f"{len(trace)} requests in {elapsed:.2f}s = "
            f"{throughput:.0f} req/s "
            f"(admitted {log.admitted}, rejected {log.rejected}, "
            f"defrags {log.stats.defrags})",
        )
        assert log.admitted + log.rejected == len(trace)
        assert throughput >= 50.0


class TestPhaseScheduling:
    def test_bench_phase_scheduling(self, benchmark, report):
        """D2 — sticky vs naive reconfiguration cost over a phase sequence."""
        from repro.fabric.devices import irregular_device
        from repro.flow.scheduler import Phase, compare_policies

        region = PartialRegion.whole_device(irregular_device(56, 12, seed=5))
        gen = ModuleGenerator(
            seed=9,
            config=GeneratorConfig(clb_min=8, clb_max=18, bram_max=1,
                                   height_min=2, height_max=4),
        )
        mods = gen.generate_set(7)
        phases = [
            Phase("boot", mods[:3]),
            Phase("steady", mods[1:5]),
            Phase("burst", mods[1:7]),
            Phase("idle", mods[1:3]),
            Phase("steady2", mods[1:5]),
        ]
        sticky, naive = run_once(
            benchmark, compare_policies, region, phases
        )
        report(
            "D2 — phase scheduling (frames written)",
            f"sticky: {sticky.total_frames} frames in {sticky.elapsed:.2f}s\n"
            f"naive:  {naive.total_frames} frames in {naive.elapsed:.2f}s",
        )
        assert sticky.ok and naive.ok
        # keeping survivors in place never writes more frames here, and
        # planning is far cheaper because only arrivals are solved
        assert sticky.total_frames <= naive.total_frames
        assert sticky.elapsed <= naive.elapsed


class TestTemporal:
    def test_bench_temporal_placement(self, benchmark, report):
        """D3 — exact spatio-temporal scheduling (ref [6] as 3-D geost)."""
        from repro.core.temporal import TemporalPlacer, TemporalTask
        from repro.fabric.grid import FabricGrid
        from repro.modules.footprint import Footprint
        from repro.modules.module import Module
        from repro.modules.transform import rotate90

        region = PartialRegion.whole_device(
            FabricGrid.from_rows(["....", "....", "...."])
        )
        wide = Footprint.rectangle(3, 1)
        tasks = [
            TemporalTask(Module("filter", [Footprint.rectangle(2, 3)]), 3),
            TemporalTask(Module("fft", [wide, rotate90(wide)]), 2),
            TemporalTask(Module("crc", [Footprint.rectangle(2, 1)]), 2),
        ]
        placer = TemporalPlacer(horizon=10, time_limit=60.0)
        result = run_once(benchmark, placer.place, region, tasks, [(1, 2)])
        result.verify([(1, 2)])
        mono = placer.place(
            region,
            [TemporalTask(t.module.restricted(1), t.duration) for t in tasks],
            [(1, 2)],
        )
        report(
            "D3 — temporal placement (makespan)",
            f"with alternatives: makespan={result.makespan} "
            f"({result.status})\n"
            f"single layouts:    makespan={mono.makespan} ({mono.status})",
        )
        assert result.status == mono.status == "optimal"
        assert result.makespan <= mono.makespan
