"""Differential suite: the incremental placement kernel vs the wholesale oracle.

The production :class:`~repro.geost.placement.PlacementKernel` (dirty-set
propagation, trail-aware anchor-count cache) must be *observationally
identical* to wholesale re-filtering
(:class:`tests.support.WholesalePlacementKernel`): per-module filtering
is monotone, so chaotic iteration reaches the same least fixpoint under
any fair processing order, and both therefore produce bit-identical
search trees — not just the same solutions.

100 seeded random instances (``tests.support.random_small_instance``) are
enumerated with both kernels, comparing complete solution sets plus the
search-tree counters (nodes, backtracks, solutions, max depth) and the
engine failure count.  The backend layer is exercised end-to-end through
``cp``, ``lns`` and ``portfolio`` (one in-process worker), with
:func:`tests.support.kernel_mode` swapping the wholesale kernel in under
the unchanged solver configs.
"""

from __future__ import annotations

import pytest

from repro.cp.engine import Inconsistent
from repro.cp.model import Model
from repro.cp.search import DepthFirstSearch

from tests.support import (
    BoolBankKernel,
    WholesalePlacementKernel,
    build_kernel,
    kernel_mode,
    random_small_instance,
)

#: the order-independent fingerprint of one enumeration run
_STAT_KEYS = ("nodes", "backtracks", "solutions", "max_depth", "failures")


def _kernel_run(region, modules, incremental):
    """(solution set, stats fingerprint, inc stats) for one kernel mode."""
    m = Model()
    try:
        kernel, xs, ys, ss = build_kernel(
            m, region, modules, incremental=incremental
        )
    except Inconsistent:
        return set(), ("root-infeasible",), None
    dv = []
    for x, y, s in zip(xs, ys, ss):
        dv.extend([x, y, s])
    search = DepthFirstSearch(m.engine, dv)
    sols = {
        tuple(
            (sol[f"s{i}"], sol[f"x{i}"], sol[f"y{i}"])
            for i in range(len(modules))
        )
        for sol in search.all_solutions()
    }
    st = search.stats
    fingerprint = (
        st.nodes, st.backtracks, st.solutions, st.max_depth,
        m.engine.stats.failures,
    )
    return sols, fingerprint, kernel.inc_stats


@pytest.mark.parametrize("seed", range(100))
def test_placement_kernel_bit_identical(seed):
    region, modules = random_small_instance(seed)
    inc_sols, inc_stats, _ = _kernel_run(region, modules, incremental=True)
    ora_sols, ora_stats, _ = _kernel_run(region, modules, incremental=False)
    assert inc_sols == ora_sols, f"seed={seed}: solution sets differ"
    assert inc_stats == ora_stats, (
        f"seed={seed}: search trees differ "
        f"({dict(zip(_STAT_KEYS, inc_stats))} vs "
        f"{dict(zip(_STAT_KEYS, ora_stats))})"
    )


def test_incremental_mode_actually_reuses_work():
    """The equality above is not vacuous: the fast path really engages.

    Dirty-object filtering shows up in plain enumeration; anchor-count
    reuse needs the fail-first selector, so that leg runs through
    :class:`~repro.core.placer.CPPlacer` with profiling on — which also
    checks the ``geost_*`` profile counters land in the artifact.
    """
    from repro.core.placer import CPPlacer, PlacerConfig

    dirty = 0
    for seed in range(20):
        region, modules = random_small_instance(seed)
        _, _, inc = _kernel_run(region, modules, incremental=True)
        if inc is not None:
            dirty += inc.dirty
    assert dirty > 0

    # the 4x3 instances imprint at almost every node (each imprint bumps
    # the cache revision), so anchor-count reuse needs a deeper search: a
    # corridor with three polymorphic modules leaves several unplaced
    # modules per node whose domains are untouched between selections
    from repro.fabric.devices import homogeneous_device
    from repro.fabric.region import PartialRegion
    from repro.modules.footprint import Footprint
    from repro.modules.module import Module

    region = PartialRegion.whole_device(homogeneous_device(10, 4))
    modules = [
        Module("a", [Footprint.rectangle(3, 2), Footprint.rectangle(2, 3)]),
        Module("b", [Footprint.rectangle(2, 2)]),
        Module("c", [Footprint.rectangle(4, 1), Footprint.rectangle(1, 4),
                     Footprint.rectangle(2, 2)]),
    ]
    result = CPPlacer(
        PlacerConfig(time_limit=None, profile=True)
    ).place(region, modules)
    profile = result.stats["profile"]
    assert profile.geost_dirty > 0
    assert profile.geost_reused > 0
    assert profile.geost_rasterized > 0


# ----------------------------------------------------------------------
# Backend layer: the wholesale kernel injected under each solver
# ----------------------------------------------------------------------
def _backend_placements(name, region, modules, seed, incremental, **req_kwargs):
    from repro.core.backend import PlacementRequest, create_backend

    with kernel_mode(incremental=incremental):
        result = create_backend(name).place(
            PlacementRequest(region, modules, seed=seed, **req_kwargs)
        )
    return (
        result.status,
        tuple(
            (p.module.name, p.shape_index, p.x, p.y)
            for p in result.placements
        ),
    )


def test_kernel_mode_reaches_the_solver_stack():
    import repro.core.temporal
    from repro.core.placement_model import PlacementModel
    from repro.fabric.devices import homogeneous_device
    from repro.fabric.region import PartialRegion
    from repro.geost.placement import PlacementKernel
    from repro.modules.footprint import Footprint
    from repro.modules.module import Module

    region = PartialRegion.whole_device(homogeneous_device(6, 4))
    modules = [Module("a", [Footprint.rectangle(2, 2)])]
    with kernel_mode(incremental=False, bitboard=False):
        oracle = PlacementModel(region, modules).kernel
        assert repro.core.temporal.PlacementKernel.keywords == {
            "incremental": False, "bitboard": False,
        }
    assert isinstance(oracle, BoolBankKernel)
    assert not oracle.incremental and not oracle.bitboard
    with kernel_mode(incremental=False):
        wholesale = PlacementModel(region, modules).kernel
        assert repro.core.temporal.PlacementKernel is WholesalePlacementKernel
    assert type(wholesale) is WholesalePlacementKernel
    # the swap is undone on exit
    assert repro.core.temporal.PlacementKernel is PlacementKernel
    fast = PlacementModel(region, modules).kernel
    assert type(fast) is PlacementKernel


@pytest.mark.parametrize("seed", range(8))
def test_cp_backend_differential(seed):
    region, modules = random_small_instance(seed)
    runs = {
        incremental: _backend_placements(
            "cp", region, modules, seed, time_limit=None,
            incremental=incremental,
        )
        for incremental in (True, False)
    }
    assert runs[True] == runs[False], f"seed={seed}"


@pytest.mark.parametrize("seed", range(10))
def test_lns_backend_differential(seed):
    # generous wall clock + small stall limit: termination is decided by
    # the deterministic stall counter, never the clock, on these tiny
    # instances — so both modes replay the same iteration sequence
    from repro.core.lns import LNSConfig, LNSPlacer

    region, modules = random_small_instance(seed)
    runs = {}
    for incremental in (True, False):
        cfg = LNSConfig(time_limit=60.0, stall_limit=3, seed=seed)
        with kernel_mode(incremental=incremental):
            result = LNSPlacer(cfg).place(region, modules)
        runs[incremental] = (
            result.status,
            tuple(
                (p.module.name, p.shape_index, p.x, p.y)
                for p in result.placements
            ),
        )
    assert runs[True] == runs[False], f"seed={seed}"


@pytest.mark.parametrize("seed", range(5))
def test_portfolio_backend_differential(seed):
    # n_workers=1 keeps the member in-process and deterministic
    from repro.core.portfolio import PortfolioConfig, PortfolioPlacer

    region, modules = random_small_instance(seed)
    runs = {}
    for incremental in (True, False):
        cfg = PortfolioConfig(n_workers=1, time_limit=60.0, base_seed=seed)
        with kernel_mode(incremental=incremental):
            result = PortfolioPlacer(cfg).place(region, modules)
        runs[incremental] = (
            result.status,
            tuple(
                (p.module.name, p.shape_index, p.x, p.y)
                for p in result.placements
            ),
        )
    assert runs[True] == runs[False], f"seed={seed}"
