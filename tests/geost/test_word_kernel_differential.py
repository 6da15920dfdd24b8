"""The packed-word placement kernel against its boolean-bank oracle.

:class:`~repro.geost.placement.PlacementKernel` keeps every (module,
shape) anchor domain and the occupancy as ``uint64`` column words and
narrows after an imprint through ``anchor_words`` over free cells.  The
kernel it replaced keeps one boolean row per (module, shape) and scatters
out colliding anchors cell by cell; it lives on as
:class:`tests.support.BoolBankKernel`, with its batched and per-shape
paths.  Here both run the same random fix / propagate / backtrack walk
side by side, and after every step the domains, ``anchor_count``,
``anchors_for``, every ``anchor_mask`` and ``occupied_mask()`` must be
equal, as must the steps that fail.

The regimes cover irregular fabrics, fabrics taller than one 64-bit lane
(so imprints and anchor tests shift across lanes), regions narrowed the
way an LNS subproblem is (a placed set's frozen modules carved out of the
reconfigurable area, the rest free) and a time horizon with mixed
durations.
"""

from __future__ import annotations

import functools
import random
from typing import Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cp.engine import Inconsistent
from repro.cp.model import Model
from repro.fabric.devices import homogeneous_device, irregular_device
from repro.fabric.region import PartialRegion
from repro.fabric.resource import ResourceType
from repro.geost.placement import PlacementKernel
from repro.modules.footprint import Footprint
from repro.modules.generator import GeneratorConfig, ModuleGenerator
from repro.modules.module import Module
from repro.placer.greedy import BottomLeftPlacer

from tests.support import BoolBankKernel

REGIMES = ("irregular", "tall", "narrowed", "temporal")


def _tall_footprint(rng: random.Random) -> Footprint:
    """A column-oriented shape up to 80 rows high, sometimes with a
    BRAM column or a notch, so runs start and end in different lanes."""
    w, h = rng.randint(1, 3), rng.randint(1, 80)
    cells = [(x, y, ResourceType.CLB) for x in range(w) for y in range(h)]
    if w * h > 1 and rng.random() < 0.4:
        cells = [(x, y, k) for x, y, k in cells if (x, y) != (w - 1, h - 1)]
    if rng.random() < 0.4:
        cells += [(w, y, ResourceType.BRAM) for y in range(rng.randint(1, h))]
    return Footprint(cells)


def _instance(regime: str, rng: random.Random):
    """(region, modules, kernel keyword arguments) of one regime; the
    keyword arguments hold the horizon and durations."""
    if regime == "tall":
        grid = irregular_device(
            rng.randint(4, 7), rng.randint(65, 140),
            seed=rng.randrange(1 << 16), bram_stride=3, jitter=1,
            io_edges=False,
        )
        modules = [
            Module(f"t{i}", [_tall_footprint(rng)
                             for _ in range(rng.randint(1, 3))])
            for i in range(rng.randint(2, 4))
        ]
        return PartialRegion.whole_device(grid), modules, {}
    grid = irregular_device(
        rng.randint(10, 18), rng.randint(6, 10), seed=rng.randrange(1 << 16),
        bram_stride=5, jitter=1,
    )
    region = PartialRegion.whole_device(grid)
    cfg = GeneratorConfig(clb_min=2, clb_max=8, bram_max=1,
                          height_min=1, height_max=3, max_width=3,
                          n_alternatives=rng.randint(1, 4))
    generator = ModuleGenerator(seed=rng.randrange(1 << 16), config=cfg)
    if regime == "narrowed":
        # an LNS subproblem: a bottom-left placement of the set, some of
        # its modules frozen with their cells carved out of the region,
        # the others free to be placed again
        modules = generator.generate_set(rng.randint(3, 7))
        placed = BottomLeftPlacer().place(region, modules).placements
        frozen = rng.sample(placed, rng.randint(0, max(0, len(placed) - 1)))
        free = region.reconfigurable.copy()
        for p in frozen:
            free[p.cell_index()] = False
        frozen_ids = {id(p.module) for p in frozen}
        sub = PartialRegion(region.grid, free, "lns")
        return sub, [m for m in modules if id(m) not in frozen_ids], {}
    modules = generator.generate_set(rng.randint(2, 5))
    if regime == "temporal":
        horizon = rng.randint(2, 5)
        durations = [rng.randint(1, horizon) for _ in modules]
        return region, modules, {"horizon": horizon, "durations": durations}
    return region, modules, {}


def _build(kernel_class, region, modules, extra):
    """Post one kernel over fresh variables; returns (model, kernel, vars)."""
    m = Model()
    n = len(modules)
    xs = [m.int_var(0, region.width - 1, f"x{i}") for i in range(n)]
    ys = [m.int_var(0, region.height - 1, f"y{i}") for i in range(n)]
    ss = [
        m.int_var(0, mod.n_alternatives - 1, f"s{i}")
        for i, mod in enumerate(modules)
    ]
    kwargs = {}
    variables = xs + ys + ss
    if "horizon" in extra:
        horizon, durations = extra["horizon"], extra["durations"]
        ts = [
            m.int_var(0, horizon - d, f"t{i}")
            for i, d in enumerate(durations)
        ]
        kwargs.update(horizon=horizon, durations=durations, ts=ts)
        variables += ts
    kernel = kernel_class(region, modules, xs, ys, ss, **kwargs)
    m.post(kernel)
    return m, kernel, variables


def _assert_same(word, oracle, context: str) -> None:
    assert np.array_equal(word.occupied_mask(), oracle.occupied_mask()), context
    for wi, oi in zip(word.items, oracle.items):
        where = f"{context} module {wi.index}"
        assert wi.placed == oi.placed, where
        for wv, ov in zip((wi.x, wi.y, wi.s, wi.t), (oi.x, oi.y, oi.s, oi.t)):
            if wv is not None:
                assert wv.domain == ov.domain, f"{where} {wv.name}"
        for sid in range(len(wi.module.shapes)):
            assert np.array_equal(
                word.anchor_mask(wi.index, sid),
                oracle.anchor_mask(oi.index, sid),
            ), f"{where} shape {sid}"
        if not wi.placed and not wi.is_fixed():
            i = wi.index
            assert word.anchor_count(i) == oracle.anchor_count(i), where
            assert word.anchors_for(i) == oracle.anchors_for(i), where


def _walk(
    regime: str, seed: int, batched: bool, steps: int = 20
) -> Tuple[int, int]:
    """Run one side-by-side walk; returns how many modules were imprinted
    and how many of those straddled a lane boundary."""
    rng = random.Random(seed)
    region, modules, extra = _instance(regime, rng)
    oracle_class = functools.partial(BoolBankKernel, bitboard=batched)
    try:
        m_w, word, vars_w = _build(PlacementKernel, region, modules, extra)
        word_failed = False
    except Inconsistent:
        word_failed = True
    try:
        m_o, oracle, vars_o = _build(oracle_class, region, modules, extra)
        oracle_failed = False
    except Inconsistent:
        oracle_failed = True
    assert word_failed == oracle_failed, f"{regime}/{seed}: root"
    if word_failed:
        return 0, 0
    _assert_same(word, oracle, f"{regime}/{seed} root")
    depth = imprints = straddles = 0
    for step in range(steps):
        unfixed = [i for i, v in enumerate(vars_w) if not v.is_fixed()]
        if unfixed and (depth == 0 or rng.random() < 0.65):
            i = rng.choice(unfixed)
            value = rng.choice(list(vars_w[i].domain))
            failed = []
            for m, variables in ((m_w, vars_w), (m_o, vars_o)):
                m.engine.push_level()
                try:
                    variables[i].fix(value)
                    m.engine.fixpoint()
                    failed.append(False)
                except Inconsistent:
                    failed.append(True)
            assert failed[0] == failed[1], f"{regime}/{seed} step {step}"
            if failed[0]:
                m_w.engine.pop_level()
                m_o.engine.pop_level()
            else:
                depth += 1
        elif depth:
            m_w.engine.pop_level()
            m_o.engine.pop_level()
            depth -= 1
        _assert_same(word, oracle, f"{regime}/{seed} step {step}")
        for item in word.items:
            if item.placed and item.is_fixed():
                fp = item.module.shapes[item.s.value()]
                imprints += 1
                straddles += item.y.value() % 64 + fp.height > 64
    return imprints, straddles


@pytest.mark.parametrize("regime", REGIMES)
@given(seed=st.integers(0, 1 << 30), batched=st.booleans())
@settings(max_examples=25, deadline=None)
def test_word_kernel_matches_boolean_bank(regime, seed, batched):
    _walk(regime, seed, batched)


@pytest.mark.parametrize("regime", REGIMES)
def test_walks_reach_imprints(regime):
    """The walks are not vacuous: modules get imprinted in every regime,
    and in the tall regime across a lane boundary."""
    imprints = straddles = 0
    for seed in range(12):
        got = _walk(regime, seed, True)
        imprints += got[0]
        straddles += got[1]
    assert imprints >= 6, f"{regime}: only {imprints} imprinted steps"
    if regime == "tall":
        assert straddles >= 1, "no imprint crossed a lane boundary"


def test_lane_carry_on_a_tall_fabric():
    """A 3-row module anchored at row 62 of a 100-row column: its top
    row lands in the second lane, and every view agrees."""
    region = PartialRegion.whole_device(homogeneous_device(2, 100))
    modules = [
        Module("a", [Footprint.rectangle(1, 3)]),
        Module("b", [Footprint.rectangle(1, 2)]),
    ]
    for kernel_class in (PlacementKernel, BoolBankKernel):
        m, kernel, variables = _build(kernel_class, region, modules, {})
        xs, ys = variables[:2], variables[2:4]
        xs[0].fix(0)
        ys[0].fix(62)
        variables[4].fix(0)
        m.engine.fixpoint()
        occ = kernel.occupied_mask()
        assert occ[62:65, 0].all() and occ.sum() == 3
        # module b in column 0 may only sit below row 61 or from row 65 up
        mask = kernel.anchor_mask(1, 0)[:, 0]
        assert not mask[61:65].any() and mask[60] and mask[65]
        xs[1].fix(0)
        m.engine.fixpoint()
        assert 61 not in ys[1].domain and 65 in ys[1].domain
