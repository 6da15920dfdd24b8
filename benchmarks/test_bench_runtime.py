"""Runtime-facing benches: online service level (A5) and defragmentation.

These extend the paper's offline result into the settings its introduction
motivates: an online request stream (service level = fraction of module
requests fulfilled, the metric of refs [4, 5]) and runtime compaction by
module relocation.
"""

from __future__ import annotations

import json
import pathlib
import time

import pytest

import repro.core.defrag as defrag_mod
from benchmarks.conftest import run_once
from repro.core.backend import PlacementRequest, create_backend
from repro.core.defrag import NoBreakDefragmenter, defragment
from repro.core.placer import CPPlacer, PlacerConfig
from repro.core.result import PlacementResult
from repro.experiments.runtime_exp import format_runtime, online_comparison
from repro.fabric.devices import irregular_device
from repro.fabric.masks import anchor_words, bottom_left_pick, column_words
from repro.fabric.region import PartialRegion
from repro.modules.generator import GeneratorConfig, ModuleGenerator
from tests.support import (
    PerCellRelocationProbe,
    blocked_prefix_counts,
    ledger_residual,
    prefix_count_anchor_mask,
    recorded_probes,
)

GATES_PATH = (
    pathlib.Path(__file__).resolve().parent.parent / "BENCH_runtime.json"
)

#: no-break planning on the maintained occupancy grid, one batched
#: anchor-kernel probe per compaction step, must beat the same planner
#: probing through per-cell floorplan rebuilds by this factor (same host,
#: same floorplans; measured 4.45-4.56x over five runs on a 2-core x86
#: host: the gate is 2/3 of that)
DEFRAG_PLAN_SPEEDUP_MIN = 3.0
#: the cp rule's mask stage on packed column words (shape words over the
#: region words + pick) must beat the prefix-count kernel + pick by this
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
        grid per plan and probing every mover in one kernel call per
        step vs the same planner with the per-cell oracle patched in as
        its batched probe (a floorplan rebuild per mover).  Both sides
        must plan the same moves, and the oracle must be called."""
        floorplans = _contended_floorplans(monkeypatch)
        assert len(floorplans) >= 40

        def run(oracle):
            if oracle is not None:
                monkeypatch.setattr(defrag_mod, "RelocationProbe", oracle)
            try:
                t0 = time.perf_counter()
                plans = [NoBreakDefragmenter().plan(r) for r in floorplans]
                return time.perf_counter() - t0, [p.moves for p in plans]
            finally:
                monkeypatch.undo()

        # alternate the two sides so a drift in host speed hits both
        t_new = t_old = float("inf")
        for _ in range(5):
            elapsed, moves = run(None)
            t_new = min(t_new, elapsed)
            oracle = PerCellRelocationProbe()
            elapsed, ref_moves = run(oracle)
            t_old = min(t_old, elapsed)
            assert oracle.calls > 0
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


@pytest.fixture(scope="module")
def serving_probes():
    """The ``cp``-rule probes of a serve-contended style replay."""
    probes = recorded_probes(n_requests=400, keep=200)
    assert len(probes) >= 150
    return probes


class TestPackedAnchorWords:
    def test_packed_words_beat_prefix_count_kernel(
        self, report, serving_probes
    ):
        """Ratio gate: the cp rule's mask stage — every shape's anchor
        words over the region's column words, the bottom-left pick — vs
        the prefix-count kernel it replaced (region planes, one mask per
        shape, the same pick) on recorded serving probes.  The runtime
        manager keeps its column words in the ledger, so each probe
        region's mask is packed once before the timed loop.  Both sides
        must pick the same ``(x, y, shape)``."""
        probes = [(p.region, p.module) for p in serving_probes]
        words = [column_words(r) for r, _ in probes]

        def packed():
            t0 = time.perf_counter()
            picks = [
                bottom_left_pick(anchor_words(w, m.shapes))
                for w, (_, m) in zip(words, probes)
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
            "ledger-rung mask stage: packed words vs prefix counts",
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


class TestLedgerAdmission:
    def test_ledger_pick_beats_backend_probe(self, report, serving_probes):
        """Ratio gate: the runtime manager's ``cp`` rule, the bottom-left
        pick over anchor words read off the free-space ledger, vs the
        backend path it replaced: the residual region
        (:func:`tests.support.ledger_residual`), ``PlacementRequest`` and
        the ``greedy`` backend's ``place``, with no model.  Both sides
        must give the answers the replay recorded.  The threshold is
        ``ledger_admission_speedup_min`` in ``BENCH_runtime.json``: both
        sides pick the same bottom-left anchor, so the ratio is what the
        residual region, request, adapter and result cost on top."""
        gate = json.loads(GATES_PATH.read_text())["gates"][
            "ledger_admission_speedup_min"
        ]
        probes = serving_probes
        backend = create_backend("greedy")

        def ledger():
            t0 = time.perf_counter()
            picks = [
                bottom_left_pick(p.ledger.anchors(p.module.shapes, p.blocked))
                for p in probes
            ]
            return time.perf_counter() - t0, picks

        def backend_probe():
            t0 = time.perf_counter()
            results = [
                backend.place(
                    PlacementRequest(
                        region=ledger_residual(p.ledger, p.blocked),
                        modules=[p.module],
                        first_solution_only=True,
                    )
                )
                for p in probes
            ]
            elapsed = time.perf_counter() - t0
            return elapsed, [
                pick_of(r.placements[0] if r.placements else None)
                for r in results
            ]

        def pick_of(placement):
            if placement is None:
                return None
            return placement.x, placement.y, placement.shape_index

        recorded = [pick_of(p.placement) for p in probes]
        # alternate the two sides so a drift in host speed hits both; one
        # side's pass over the probes is ~10 ms, so take the best of many
        t_ledger = t_backend = float("inf")
        for _ in range(25):
            elapsed, picks = ledger()
            t_ledger = min(t_ledger, elapsed)
            elapsed, ref_picks = backend_probe()
            t_backend = min(t_backend, elapsed)
            assert picks == ref_picks == recorded
        speedup = t_backend / t_ledger
        report(
            "one-module admission: ledger pick vs residual region + greedy",
            f"{len(probes)} recorded serve-contended probes, "
            f"{sum(p is None for p in picks)} with no fit\n"
            f"  residual + greedy     {t_backend / len(probes) * 1e3:7.3f} "
            "ms/probe\n"
            f"  ledger pick           {t_ledger / len(probes) * 1e3:7.3f} "
            "ms/probe\n"
            f"  speedup               {speedup:7.2f}x  (gate >= {gate}x)",
        )
        assert speedup >= gate, (
            f"ledger pick only {speedup:.2f}x the residual-region probe"
        )


class TestRuntimeManagerThroughput:
    def test_bench_runtime_manager_throughput(self, benchmark, report):
        """Serving throughput of the online placement manager.

        The Table-I module distribution streamed through the
        ``("cp", "greedy")`` chain of pick rules.
        The pin: at least 50 requests/second end to end — admission has
        to stay cheap enough for a runtime system's serving loop.
        """
        from repro.core.runtime import (
            RuntimeConfig, RuntimePlacementManager, generate_workload,
        )
        from repro.experiments.config import default_fabric

        region = default_fabric()
        trace = generate_workload(100, seed=3)
        config = RuntimeConfig(chain=("cp", "greedy"))

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
        """D3 — exact spatio-temporal scheduling (ref [6] as 3-D packing)."""
        from repro.core.temporal import TemporalCPPlacer, TemporalTask
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
        placer = TemporalCPPlacer(horizon=10, time_limit=60.0)
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
