"""Geost propagation speedups on Table I: incremental and word gates.

Two acceptance bars on the Table-I workload:

* **incremental**: the production kernel with dirty-module maintenance
  and its anchor-count cache must beat wholesale re-filtering
  (``tests.support.WholesalePlacementKernel``, injected through
  ``kernel_mode(incremental=False)``);
* **words**: the production kernel on packed column words must beat the
  boolean-bank kernel it replaced (``tests.support.BoolBankKernel`` on
  its batched path) on the same fixed-node-budget CP solve, with the
  same placements.

The first is measured as search-shaped re-propagation cycles (push a
trail level, fix one anchor, run the engine to fixpoint, pop); the word
gate as whole solves, where imprints and their narrowing run.

The ratio gates are **not** hardcoded: they are read from the committed
``BENCH_geost.json`` (so tightening a gate is a reviewed one-line diff),
and every run emits the freshly measured ratios to
``bench_geost_latest.json`` — append that entry to the JSON's ``history``
when landing a perf-relevant change to keep the trajectory on record.

The ``geost_*`` counters must surface in the solve's
:class:`~repro.obs.profile.SolveProfile` so the effect is observable in
production profiles, not just here.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import time

import pytest

from repro.core.placer import CPPlacer, PlacerConfig
from repro.core.placement_model import PlacementModel
from repro.cp.engine import Inconsistent
from tests.support import BoolBankKernel, injected_kernel, kernel_mode

GATES_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_geost.json"
LATEST_PATH = "bench_geost_latest.json"


@pytest.fixture(scope="module")
def gates():
    return json.loads(GATES_PATH.read_text())["gates"]


@pytest.fixture(scope="module")
def latest():
    """Collects measured ratios; written as the trajectory artifact."""
    measured: dict = {"label": "local-run"}
    yield measured
    artifact = {
        "gates_from": GATES_PATH.name,
        "entry": measured,
    }
    pathlib.Path(LATEST_PATH).write_text(json.dumps(artifact, indent=2) + "\n")


def _repropagation_cycle(pm: PlacementModel, n_fixes: int = 24) -> None:
    """Fix one anchor per cycle under a trail level, fixpoint, roll back."""
    engine = pm.model.engine
    for i in range(n_fixes):
        x = pm.xs[i % len(pm.xs)]
        engine.push_level()
        try:
            x.fix(x.min())
            engine.fixpoint()
        except Inconsistent:
            pass
        engine.pop_level()


def _median_time(fn, repeats: int = 5) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def test_incremental_repropagation_speedup(report, table1_instance, gates, latest):
    region, modules = table1_instance

    pm_inc = PlacementModel(region, modules)
    with kernel_mode(incremental=False):
        pm_whole = PlacementModel(region, modules)

    t_inc = _median_time(lambda: _repropagation_cycle(pm_inc))
    t_whole = _median_time(lambda: _repropagation_cycle(pm_whole))
    speedup = t_whole / t_inc
    gate = gates["incremental_speedup_min"]
    latest["incremental_speedup"] = round(speedup, 2)

    inc = pm_inc.kernel.inc_stats
    report(
        "Incremental geost propagation (Table-I, 30 modules)",
        f"re-propagation cycle (24 fix/fixpoint/rollback rounds)\n"
        f"  wholesale   {t_whole * 1e3:8.2f} ms   (re-filter all modules)\n"
        f"  incremental {t_inc * 1e3:8.2f} ms   (dirty modules only)\n"
        f"  speedup     {speedup:8.2f}x  (gate >= {gate}x)\n"
        f"incremental counters  dirty={inc.dirty} reused={inc.reused} "
        f"rasterized={inc.rasterized}",
    )
    assert speedup >= gate, f"incremental speedup only {speedup:.2f}x"
    assert inc.dirty > 0


#: node budget of the word-kernel solves: the perfbench ``solve-table1``
#: budget, so every imprint, narrowing and backtrack of a real dive runs
WORD_NODE_LIMIT = 400


def _budget_solve(region, modules):
    """One fixed-node-budget CP solve, no wall clock."""
    config = PlacerConfig(time_limit=None, node_limit=WORD_NODE_LIMIT)
    return CPPlacer(config).place(region, modules)


def test_word_kernel_speedup(report, table1_instance, gates, latest):
    """Packed-word kernel vs the boolean-bank kernel, same search."""
    region, modules = table1_instance
    solve = _budget_solve

    def placements(result):
        return [(p.module.name, p.shape_index, p.x, p.y) for p in result.placements]

    words = solve(region, modules)
    with injected_kernel(BoolBankKernel):
        boolean = solve(region, modules)
    assert placements(words) == placements(boolean)
    nodes = words.stats["search"].nodes
    assert nodes == boolean.stats["search"].nodes

    t_words = _median_time(lambda: solve(region, modules), repeats=3)
    with injected_kernel(BoolBankKernel):
        t_bool = _median_time(lambda: solve(region, modules), repeats=3)
    speedup = t_bool / t_words
    gate = gates["word_kernel_speedup_min"]
    latest["word_kernel_speedup"] = round(speedup, 2)

    report(
        "Packed-word placement kernel (Table-I, 30 modules)",
        f"CP solve, {WORD_NODE_LIMIT}-node budget ({nodes} nodes)\n"
        f"  boolean bank  {t_bool * 1e3:8.2f} ms   (per-cell collision scatter)\n"
        f"  word kernel   {t_words * 1e3:8.2f} ms   (anchor_words over free cells)\n"
        f"  speedup       {speedup:8.2f}x  (gate >= {gate}x)",
    )
    assert speedup >= gate, f"word kernel speedup only {speedup:.2f}x"


def test_geost_counters_surface_in_solve_profile(report, table1_instance):
    region, modules = table1_instance
    result = CPPlacer(
        PlacerConfig(time_limit=2.0, first_solution_only=True, profile=True)
    ).place(region, modules)
    profile = result.stats["profile"]
    counts = profile.counts()
    report(
        "Incremental-geost counters in SolveProfile",
        f"geost_dirty           {counts['geost_dirty']:6d}\n"
        f"geost_reused          {counts['geost_reused']:6d}\n"
        f"geost_rasterized      {counts['geost_rasterized']:6d}\n"
        f"geost_rows_tested     {counts['geost_rows_tested']:6d}",
    )
    assert counts["geost_dirty"] > 0
    assert counts["geost_rasterized"] > 0
    assert counts["geost_rows_tested"] > 0


# ----------------------------------------------------------------------
# Warm-started branch-and-bound (the analytical seeder)
# ----------------------------------------------------------------------
def test_warmstart_first_incumbent_is_free(report, table1_instance, gates, latest):
    region, modules = table1_instance

    cold = CPPlacer(PlacerConfig(time_limit=4.0)).place(region, modules)
    warm = CPPlacer(
        PlacerConfig(time_limit=4.0, warm_start="analytical")
    ).place(region, modules)
    warm.verify()

    cold_nodes = cold.stats["first_incumbent_nodes"]
    warm_nodes = warm.stats["first_incumbent_nodes"]
    gate = gates["warmstart_first_incumbent_nodes_max"]
    latest["warmstart_first_incumbent_nodes"] = warm_nodes
    latest["cold_first_incumbent_nodes"] = cold_nodes

    seed = warm.stats["warm_start"]
    report(
        "Warm-started CP first incumbent (Table-I, 30 modules)",
        f"  cold search   first incumbent after {cold_nodes} nodes\n"
        f"  warm-started  first incumbent after {warm_nodes} nodes "
        f"(gate <= {gate})\n"
        f"  seed: {seed['backend']} objective {seed['objective']} "
        f"in {seed['elapsed']:.2f}s",
    )
    assert warm_nodes <= gate, (
        f"warm-started CP spent {warm_nodes} nodes reaching its first "
        "incumbent — the seed is not being injected"
    )
    assert cold_nodes is not None and warm_nodes < cold_nodes
