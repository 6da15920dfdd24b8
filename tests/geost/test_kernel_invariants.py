"""Stateful invariants of the placement kernel under random search walks.

Drives the kernel through random push/fix/pop sequences (the access
pattern of any search) and after every step re-derives its internal state
from first principles:

* the occupancy grid equals the union of placed modules' cells,
* every (module, shape) anchor mask equals the static mask minus anchors
  colliding with placed material,
* domains remain consistent with the masks (no phantom values).
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cp.engine import Inconsistent
from repro.cp.model import Model
from repro.fabric.devices import irregular_device
from repro.fabric.masks import valid_anchor_mask
from repro.fabric.region import PartialRegion
from repro.geost.placement import PlacementKernel
from repro.modules.generator import GeneratorConfig, ModuleGenerator


def build(seed: int):
    region = PartialRegion.whole_device(
        irregular_device(24, 8, seed=seed, bram_stride=6, jitter=1)
    )
    cfg = GeneratorConfig(clb_min=4, clb_max=10, bram_max=1,
                          height_min=2, height_max=3, max_width=4)
    modules = ModuleGenerator(seed=seed, config=cfg).generate_set(4)
    m = Model()
    xs = [m.int_var(0, region.width - 1, f"x{i}") for i in range(4)]
    ys = [m.int_var(0, region.height - 1, f"y{i}") for i in range(4)]
    ss = [
        m.int_var(0, mod.n_alternatives - 1, f"s{i}")
        for i, mod in enumerate(modules)
    ]
    kernel = PlacementKernel(region, modules, xs, ys, ss)
    m.post(kernel)
    return region, modules, m, kernel


def occupancy_from_scratch(kernel) -> np.ndarray:
    occ = np.zeros((kernel.H, kernel.W), dtype=bool)
    for item in kernel.items:
        if item.placed:
            off = item.module.shapes[item.s.value()].offsets().astype(int)
            x0, y0 = item.x.value(), item.y.value()
            occ[y0 + off[:, 0], x0 + off[:, 1]] = True
    return occ


def mask_from_scratch(kernel, region, item, sid) -> np.ndarray:
    """Static anchors minus collisions with currently placed material."""
    fp = item.module.shapes[sid]
    static = valid_anchor_mask(region, sorted(fp.cells))
    occ = occupancy_from_scratch(kernel)
    out = static.copy()
    ys, xs = np.nonzero(static)
    off = fp.offsets().astype(int)
    for y, x in zip(ys.tolist(), xs.tolist()):
        if occ[y + off[:, 0], x + off[:, 1]].any():
            out[y, x] = False
    return out


class TestKernelInvariants:
    @given(st.integers(0, 40), st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_random_walk_preserves_invariants(self, seed, walk_seed):
        region, modules, m, kernel = build(seed)
        rng = random.Random(walk_seed)
        depth = 0
        for _ in range(25):
            op = rng.random()
            if op < 0.55:  # descend: fix a random unfixed variable
                unfixed = [
                    v
                    for it in kernel.items
                    for v in (it.x, it.y, it.s)
                    if not v.is_fixed()
                ]
                if not unfixed:
                    continue
                var = rng.choice(unfixed)
                value = rng.choice(list(var.domain))
                m.engine.push_level()
                depth += 1
                try:
                    var.fix(value)
                    m.engine.fixpoint()
                except Inconsistent:
                    m.engine.pop_level()
                    depth -= 1
            elif depth > 0:  # backtrack
                m.engine.pop_level()
                depth -= 1

            # --- invariants ---
            assert np.array_equal(
                kernel.occupied_mask(), occupancy_from_scratch(kernel)
            )
            for item in kernel.items:
                if item.placed:
                    continue
                for sid in item.s.domain:
                    expected = mask_from_scratch(kernel, region, item, sid)
                    got = kernel.anchor_mask(item.index, sid)
                    assert np.array_equal(got, expected), (
                        f"mask drift for module {item.index} shape {sid}"
                    )

    def test_placed_flag_matches_fixedness_after_fixpoint(self):
        region, modules, m, kernel = build(3)
        for item in kernel.items:
            assert not item.placed
        # place the first module fully
        it = kernel.items[0]
        sid = it.s.min()
        anchors = kernel.anchors_for(0)
        sid, x, y = anchors[0]
        it.s.fix(sid)
        it.x.fix(x)
        it.y.fix(y)
        m.engine.fixpoint()
        assert it.placed
