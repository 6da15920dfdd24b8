"""Anchor-mask cache keys and hit accounting, and the bit-identity of
the anchor words on LNS-shaped sub-regions.

The load-bearing guarantee is *bit-identity*: a mask served from the
cache, and every static row of a kernel built on a region with frozen
cells carved out (what an LNS subproblem solves on), must equal the mask
a fresh cross-correlation would produce, anchor for anchor.  The
differential suite below checks that across 40 seeded (region,
frozen-set, module-library) instances, at both the single-mask level and
the assembled kernel-bank level.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.cp.model import Model
from repro.fabric.cache import (
    AnchorMaskCache,
    footprint_signature,
    region_fingerprint,
)
from repro.fabric.devices import irregular_device
from repro.fabric.masks import unpack_columns, valid_anchor_mask
from repro.fabric.region import PartialRegion
from repro.geost.placement import PlacementKernel
from repro.modules.footprint import Footprint
from repro.modules.generator import GeneratorConfig, ModuleGenerator


def one_mask(cache, region, fp):
    """The cache's words of one footprint, unpacked into an (H, W) mask."""
    return unpack_columns(cache.anchor_words(region, [fp])[0], region.height)


def bank_masks(kernel):
    """Every (module, shape) anchor mask of a kernel, in bank order."""
    return [
        kernel.anchor_mask(item.index, sid)
        for item in kernel.items
        for sid in range(len(item.module.shapes))
    ]


def build_kernel(region, modules):
    m = Model()
    xs = [m.int_var(0, region.width - 1, f"x{i}") for i in range(len(modules))]
    ys = [m.int_var(0, region.height - 1, f"y{i}") for i in range(len(modules))]
    ss = [
        m.int_var(0, mod.n_alternatives - 1, f"s{i}")
        for i, mod in enumerate(modules)
    ]
    return PlacementKernel(region, modules, xs, ys, ss)


def carve(region, blocked, name):
    """``region`` with the ``(y, x)`` cells of ``blocked`` made static, as
    the LNS driver carves its frozen modules out of a subproblem."""
    free = region.reconfigurable.copy()
    free[blocked[:, 0], blocked[:, 1]] = False
    return PartialRegion(region.grid, free, name)


def random_instance(seed: int):
    """One differential instance: (region, modules, blocked frozen cells).

    The frozen set mimics what the LNS driver freezes: a batch of cells
    inside the allowed area (drawn at random, which is strictly more
    varied than real placements — any blocked subset must carve
    identically).
    """
    rng = random.Random(seed)
    region = PartialRegion.whole_device(
        irregular_device(
            rng.choice([24, 32, 48]), rng.choice([8, 12, 16]),
            seed=rng.randrange(1 << 16),
        )
    )
    cfg = GeneratorConfig(clb_min=6, clb_max=18, bram_max=1,
                          height_min=2, height_max=4)
    modules = ModuleGenerator(seed=seed, config=cfg).generate_set(
        rng.randint(2, 5)
    )
    allowed = np.argwhere(region.allowed_mask())
    n_blocked = rng.randint(0, min(60, len(allowed)))
    idx = rng.sample(range(len(allowed)), n_blocked)
    blocked = allowed[idx].astype(np.int64).reshape(-1, 2)
    return region, modules, blocked


class TestKeys:
    def test_fingerprint_ignores_name_not_content(self):
        grid = irregular_device(16, 8, seed=3)
        a = PartialRegion.whole_device(grid, name="a")
        b = PartialRegion.whole_device(grid, name="something-else")
        assert region_fingerprint(a) == region_fingerprint(b)
        c = PartialRegion.with_static_box(grid, 0, 0, 2, 2, name="a")
        assert region_fingerprint(a) != region_fingerprint(c)

    def test_fingerprint_depends_on_grid_cells(self):
        a = PartialRegion.whole_device(irregular_device(16, 8, seed=3))
        b = PartialRegion.whole_device(irregular_device(16, 8, seed=4))
        assert region_fingerprint(a) != region_fingerprint(b)

    def test_footprint_signature_is_cell_identity(self):
        a = Footprint.rectangle(2, 3)
        b = Footprint.rectangle(2, 3)
        c = Footprint.rectangle(3, 2)
        assert footprint_signature(a) == footprint_signature(b)
        assert footprint_signature(a) != footprint_signature(c)


class TestCacheLookups:
    def test_hit_returns_identical_mask(self):
        region = PartialRegion.whole_device(irregular_device(24, 8, seed=1))
        fp = Footprint.rectangle(3, 2)
        cache = AnchorMaskCache()
        first = one_mask(cache, region, fp)
        again = one_mask(cache, region, fp)
        assert cache.misses == 1 and cache.hits == 1
        # the store holds the words: a hit serves the memoized array
        # itself, and the mask is unpacked from it on every read
        (words,) = cache.anchor_words(region, [fp])
        assert cache.anchor_words(region, [fp])[0] is words
        assert not words.flags.writeable
        assert np.array_equal(again, first)
        fresh = valid_anchor_mask(region, sorted(fp.cells))
        assert np.array_equal(first, fresh)

    def test_cached_masks_are_write_protected(self):
        region = PartialRegion.whole_device(irregular_device(24, 8, seed=1))
        cache = AnchorMaskCache()
        (words,) = cache.anchor_words(region, [Footprint.rectangle(2, 2)])
        with pytest.raises(ValueError):
            words[0, 0] = 0

    def test_structurally_equal_regions_share_entries(self):
        """Two deserialized copies of one payload hit the same entries."""
        grid = irregular_device(24, 8, seed=5)
        r1 = PartialRegion.whole_device(grid.copy(), name="worker-1")
        r2 = PartialRegion.whole_device(grid.copy(), name="worker-2")
        cache = AnchorMaskCache()
        fp = Footprint.rectangle(4, 2)
        one_mask(cache, r1, fp)
        one_mask(cache, r2, fp)
        assert cache.stats() == {"hits": 1, "misses": 1, "entries": 1}


class TestDifferential:
    """Cached and sub-region masks are bit-identical to fresh computation."""

    @pytest.mark.parametrize("seed", range(30))
    def test_incremental_bank_matches_fresh_bank(self, seed):
        """The bank of an LNS subproblem's kernel (built on the carved
        region) holds, row for row, the fresh boolean cross-correlation
        of each shape against the carved fabric."""
        region, modules, blocked = random_instance(seed)
        sub = carve(region, blocked, f"{region.name}-lns")
        kernel = build_kernel(sub, modules)
        reference = [
            valid_anchor_mask(sub, sorted(fp.cells))
            for mod in modules
            for fp in mod.shapes
        ]
        masks = bank_masks(kernel)
        assert len(masks) == len(reference)
        for mask, ref_mask in zip(masks, reference):
            assert np.array_equal(mask, ref_mask)

    @pytest.mark.parametrize("seed", range(30, 40))
    def test_cached_single_masks_match_fresh(self, seed):
        region, modules, blocked = random_instance(seed)
        sub = carve(region, blocked, "sub")
        cache = AnchorMaskCache()
        for mod in modules:
            for fp in mod.shapes:
                cached = one_mask(cache, region, fp)
                assert np.array_equal(
                    cached, valid_anchor_mask(region, sorted(fp.cells))
                )
                # the carved sub-region must also be exact
                assert np.array_equal(
                    one_mask(cache, sub, fp),
                    valid_anchor_mask(sub, sorted(fp.cells)),
                )
