"""Anchor-mask cache: keys, hit accounting, and the incremental path.

The load-bearing guarantee is *bit-identity*: a mask served from the
cache — or derived incrementally from cached base-region masks for a
:class:`~repro.fabric.region.NarrowedRegion` — must equal the mask a
fresh cross-correlation would produce, anchor for anchor.  The
differential suite below checks that across 30 seeded (region,
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
from repro.fabric.masks import valid_anchor_mask
from repro.fabric.region import NarrowedRegion, PartialRegion
from repro.geost.placement import PlacementKernel
from repro.modules.footprint import Footprint
from repro.modules.generator import GeneratorConfig, ModuleGenerator


def build_kernel(region, modules, cache=None):
    m = Model()
    xs = [m.int_var(0, region.width - 1, f"x{i}") for i in range(len(modules))]
    ys = [m.int_var(0, region.height - 1, f"y{i}") for i in range(len(modules))]
    ss = [
        m.int_var(0, mod.n_alternatives - 1, f"s{i}")
        for i, mod in enumerate(modules)
    ]
    return PlacementKernel(region, modules, xs, ys, ss, cache=cache)


def random_instance(seed: int):
    """One differential instance: (region, modules, blocked frozen cells).

    The frozen set mimics what the LNS driver freezes: a batch of cells
    inside the allowed area (drawn at random, which is strictly more
    varied than real placements — any blocked subset must narrow
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
        first = cache.anchor_mask(region, fp)
        again = cache.anchor_mask(region, fp)
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
        mask = cache.anchor_mask(region, Footprint.rectangle(2, 2))
        with pytest.raises(ValueError):
            mask[0, 0] = False

    def test_structurally_equal_regions_share_entries(self):
        """Two deserialized copies of one payload hit the same entries."""
        grid = irregular_device(24, 8, seed=5)
        r1 = PartialRegion.whole_device(grid.copy(), name="worker-1")
        r2 = PartialRegion.whole_device(grid.copy(), name="worker-2")
        cache = AnchorMaskCache()
        fp = Footprint.rectangle(4, 2)
        cache.anchor_mask(r1, fp)
        cache.anchor_mask(r2, fp)
        assert cache.stats() == {
            "hits": 1, "misses": 1, "narrowed": 0, "evictions": 0,
            "entries": 1,
        }

    def test_warm_precomputes_every_shape(self):
        region = PartialRegion.whole_device(irregular_device(24, 8, seed=2))
        modules = ModuleGenerator(seed=3).generate_set(4)
        cache = AnchorMaskCache()
        n = cache.warm(region, modules)
        assert n == sum(m.n_alternatives for m in modules)
        assert cache.misses == len(cache) <= n  # duplicates share entries
        before = cache.misses
        cache.warm(region, modules)
        assert cache.misses == before  # second warm is all hits


class TestDifferential:
    """Cached/incremental masks are bit-identical to fresh computation."""

    @pytest.mark.parametrize("seed", range(30))
    def test_incremental_bank_matches_fresh_bank(self, seed):
        region, modules, blocked = random_instance(seed)
        sub = NarrowedRegion(region, blocked, f"{region.name}-lns")
        # reference: an uncached kernel over a structurally identical
        # plain region (fresh cross-correlation against the carved fabric)
        plain = PartialRegion(region.grid, sub.reconfigurable, "plain")
        reference = build_kernel(plain, modules, cache=None)

        cache = AnchorMaskCache()
        cache.warm(region, modules)  # the LNS initial solve does this
        incremental = build_kernel(sub, modules, cache=cache)

        assert incremental.cache_stats["misses"] == 0
        assert incremental.cache_stats["narrowed"] == len(reference.bank)
        assert np.array_equal(incremental.bank, reference.bank)
        for inc_rows, ref_rows in zip(incremental.valid, reference.valid):
            for inc_mask, ref_mask in zip(inc_rows, ref_rows):
                assert np.array_equal(inc_mask, ref_mask)

    @pytest.mark.parametrize("seed", range(30, 40))
    def test_cached_single_masks_match_fresh(self, seed):
        region, modules, blocked = random_instance(seed)
        sub = NarrowedRegion(region, blocked, "sub")
        cache = AnchorMaskCache()
        for mod in modules:
            for fp in mod.shapes:
                cached = cache.anchor_mask(region, fp)
                assert np.array_equal(
                    cached, valid_anchor_mask(region, sorted(fp.cells))
                )
                # the narrowed region served as a *plain* region (no base
                # lineage used) must also be exact
                assert np.array_equal(
                    cache.anchor_mask(sub, fp),
                    valid_anchor_mask(sub, sorted(fp.cells)),
                )

    def test_cold_cache_incremental_path_is_still_exact(self):
        """Unwarmed cache + NarrowedRegion: misses, but identical masks."""
        region, modules, blocked = random_instance(99)
        sub = NarrowedRegion(region, blocked, "cold")
        plain = PartialRegion(region.grid, sub.reconfigurable, "plain")
        cache = AnchorMaskCache()
        incremental = build_kernel(sub, modules, cache=cache)
        reference = build_kernel(plain, modules, cache=None)
        assert incremental.cache_stats["hits"] == 0
        assert incremental.cache_stats["misses"] > 0
        assert np.array_equal(incremental.bank, reference.bank)


class TestLRUCapacity:
    """Opt-in bounded mode: eviction order, counters, unbounded default."""

    def _regions(self, n):
        # distinct widths: structurally distinct fingerprints guaranteed
        # (same-size irregular devices can collide across seeds)
        return [
            PartialRegion.whole_device(irregular_device(16 + 4 * s, 8, seed=s))
            for s in range(n)
        ]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            AnchorMaskCache(capacity=0)
        with pytest.raises(ValueError):
            AnchorMaskCache(capacity=-3)
        AnchorMaskCache(capacity=1)  # fine
        AnchorMaskCache(capacity=None)  # fine (unbounded default)

    def test_mask_store_evicts_least_recently_used(self):
        region = PartialRegion.whole_device(irregular_device(24, 8, seed=7))
        cache = AnchorMaskCache(capacity=2)
        a, b, c = (Footprint.rectangle(w, 2) for w in (2, 3, 4))
        cache.anchor_mask(region, a)
        cache.anchor_mask(region, b)
        cache.anchor_mask(region, a)  # refresh a: b is now the LRU entry
        cache.anchor_mask(region, c)  # evicts b
        assert cache.evictions >= 1
        misses = cache.misses
        cache.anchor_mask(region, a)  # survived — a hit
        assert cache.misses == misses
        cache.anchor_mask(region, b)  # evicted — recomputed
        assert cache.misses == misses + 1

    def test_evicted_mask_recomputes_bit_identically(self):
        region = PartialRegion.whole_device(irregular_device(24, 8, seed=8))
        fp = Footprint.rectangle(3, 2)
        cache = AnchorMaskCache(capacity=1)
        first = cache.anchor_mask(region, fp).copy()
        cache.anchor_mask(region, Footprint.rectangle(5, 2))  # evicts fp
        again = cache.anchor_mask(region, fp)
        assert np.array_equal(first, again)

    def test_unbounded_default_never_evicts(self):
        regions = self._regions(5)
        cache = AnchorMaskCache()
        for r in regions:
            for w in (2, 3, 4):
                cache.anchor_mask(r, Footprint.rectangle(w, 2))
        assert cache.evictions == 0
        assert len(cache) == 15

    def test_eviction_counter_flows_through_delta_and_stats(self):
        region = PartialRegion.whole_device(irregular_device(24, 8, seed=9))
        cache = AnchorMaskCache(capacity=1)
        snap = cache.snapshot()
        cache.anchor_mask(region, Footprint.rectangle(2, 2))
        cache.anchor_mask(region, Footprint.rectangle(3, 2))
        d = cache.delta(snap)
        assert d["evictions"] == cache.evictions > 0
        assert cache.stats()["evictions"] == cache.evictions
        # old 3-tuple snapshots (pre-eviction consumers) still work
        assert cache.delta((0, 0, 0))["misses"] == 2


class TestPersistence:
    """save()/load() round-trips warmed entries across processes."""

    def test_round_trip_is_bit_identical_and_all_hits(self, tmp_path):
        region = PartialRegion.whole_device(irregular_device(24, 8, seed=11))
        modules = ModuleGenerator(seed=4).generate_set(3)
        cache = AnchorMaskCache()
        n = cache.warm(region, modules)
        path = tmp_path / "masks.pkl"
        assert cache.save(str(path)) == len(cache)

        loaded = AnchorMaskCache.load(str(path))
        assert len(loaded) == len(cache)
        # counters start fresh in the loaded copy
        assert loaded.stats() == {
            "hits": 0, "misses": 0, "narrowed": 0, "evictions": 0,
            "entries": len(cache),
        }
        loaded.warm(region, modules)  # every lookup served from disk state
        assert loaded.misses == 0
        assert loaded.hits == n
        for fp in (s for m in modules for s in m.shapes):
            assert np.array_equal(
                loaded.anchor_mask(region, fp),
                cache.anchor_mask(region, fp),
            )

    def test_loaded_masks_stay_write_protected(self, tmp_path):
        region = PartialRegion.whole_device(irregular_device(16, 8, seed=12))
        cache = AnchorMaskCache()
        cache.anchor_mask(region, Footprint.rectangle(2, 2))
        path = tmp_path / "masks.pkl"
        cache.save(str(path))
        loaded = AnchorMaskCache.load(str(path))
        mask = loaded.anchor_mask(region, Footprint.rectangle(2, 2))
        with pytest.raises(ValueError):
            mask[0, 0] = False

    def test_load_rejects_unknown_version(self, tmp_path):
        import pickle

        path = tmp_path / "bad.pkl"
        path.write_bytes(
            pickle.dumps({"version": 999, "masks": [], "compat": []})
        )
        with pytest.raises(ValueError, match="version"):
            AnchorMaskCache.load(str(path))

    def test_load_rejects_version_2_files(self, tmp_path):
        # version 2 stored (H, W) masks plus per-region prefix planes
        import pickle

        path = tmp_path / "v2.pkl"
        path.write_bytes(
            pickle.dumps({"version": 2, "masks": [], "planes": []})
        )
        with pytest.raises(ValueError, match="unsupported cache file version 2"):
            AnchorMaskCache.load(str(path))

    def test_load_with_capacity_bounds_every_stored_array(self, tmp_path):
        cache = AnchorMaskCache()
        for seed in range(3):
            region = PartialRegion.whole_device(
                irregular_device(24, 8, seed=20 + seed)
            )
            cache.anchor_mask(region, Footprint.rectangle(2, 2))
        path = tmp_path / "masks.pkl"
        cache.save(str(path))
        loaded = AnchorMaskCache.load(str(path), capacity=1)
        stored = [
            value
            for store in vars(loaded).values()
            if isinstance(store, dict)
            for value in store.values()
            if isinstance(value, np.ndarray)
        ]
        assert len(stored) <= 1
        assert len(loaded) == 1

    def test_load_with_capacity_bounds_and_resets_evictions(self, tmp_path):
        region = PartialRegion.whole_device(irregular_device(24, 8, seed=13))
        cache = AnchorMaskCache()
        for w in (2, 3, 4, 5):
            cache.anchor_mask(region, Footprint.rectangle(w, 2))
        path = tmp_path / "masks.pkl"
        cache.save(str(path))
        loaded = AnchorMaskCache.load(str(path), capacity=2)
        assert len(loaded) == 2
        assert loaded.evictions == 0  # accounting starts clean post-load


class TestNarrowedRegion:
    def test_blocks_cells_and_keeps_lineage(self):
        region = PartialRegion.whole_device(irregular_device(16, 8, seed=1))
        blocked = np.array([[0, 0], [3, 5]], dtype=np.int64)
        sub = NarrowedRegion(region, blocked, "sub")
        assert not sub.reconfigurable[0, 0] and not sub.reconfigurable[3, 5]
        assert sub.base is region
        assert sub.available_area() == region.available_area() - 2

    def test_empty_block_set_is_identity(self):
        region = PartialRegion.whole_device(irregular_device(16, 8, seed=1))
        sub = NarrowedRegion(region, np.empty((0, 2), dtype=np.int64))
        assert np.array_equal(sub.reconfigurable, region.reconfigurable)
        assert sub.name == f"{region.name}-narrowed"

    def test_out_of_bounds_blocks_rejected(self):
        region = PartialRegion.whole_device(irregular_device(16, 8, seed=1))
        with pytest.raises(ValueError):
            NarrowedRegion(region, np.array([[8, 0]]))  # y == height
        with pytest.raises(ValueError):
            NarrowedRegion(region, np.array([[0, -1]]))
