"""Anchor-mask caching: memoized M_a ∧ M_b computation.

The placement maths of Eqs. 2-3 is *static* per (region, footprint): a
valid-anchor mask depends only on the fabric contents, the reconfigurable
mask and the footprint's cell set.  Yet the hot paths rebuild placement
models constantly — every LNS iteration constructs a fresh
:class:`~repro.geost.placement.PlacementKernel`, and every portfolio
member repeats the identical base-region computation in its own process.
Dynamic-placement workloads are dominated by exactly this repeated
free-space recomputation (cf. the defragmentation line of Fekete et al.),
so this module memoizes it:

* :class:`AnchorMaskCache` maps ``(region fingerprint, footprint
  signature)`` to the footprint's finished anchor words
  (:func:`~repro.fabric.masks.anchor_words`, one ``(W, L)`` ``uint64``
  array per entry, bit ``y`` of column ``x`` set iff anchor ``(x, y)`` is
  valid; stored read-only).  That is the one store: :meth:`anchor_mask`
  and :meth:`anchor_masks` unpack the words into ``(H, W)`` booleans on
  read, and the CP placer's closed form reads the words themselves.  A
  batch lookup builds the region's column words once for all its
  misses; nothing per region is kept.
* :func:`region_fingerprint` / :func:`footprint_signature` define the keys:
  pure content hashes, so two structurally identical regions (e.g. the
  same payload deserialized in two worker processes) share entries and the
  region's *name* never matters.

The consumers are the offline solvers: the CP placer and its LNS and
portfolio drivers, the baseline placers and the temporal placer.  They
work against a handful of fabrics and a module library whose footprints
number in the hundreds, so the working set is small and the cache is
unbounded.  The runtime serving path does not use it: its residual
regions change with every admission, departure and move, so their
fingerprints practically never repeat, and it answers fit queries from
the free-space ledger (:class:`repro.core.occupancy.Occupancy`) instead.
An LRU ``capacity`` and :meth:`AnchorMaskCache.save` /
:meth:`AnchorMaskCache.load` remain on the class with no caller outside
the tests.

The *incremental* consumer of this cache is the kernel itself: for an LNS
sub-region (:class:`~repro.fabric.region.NarrowedRegion`) the kernel
fetches the cached **base**-region masks and narrows them with the frozen
modules' cells via its batched difference-of-coordinates update, instead
of recomputing every cross-correlation against the carved-up region.
"""

from __future__ import annotations

import hashlib
import pickle
from collections import OrderedDict
from typing import (
    TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Sequence, Tuple,
)

import numpy as np

from repro.fabric.masks import anchor_words, column_words, unpack_columns
from repro.fabric.region import PartialRegion

if TYPE_CHECKING:  # avoid a fabric -> modules import at runtime
    from repro.modules.footprint import Footprint

#: content hash of a region (grid cells + reconfigurable mask + dims)
RegionKey = bytes
#: canonical hashable identity of a footprint's cell set
FootprintKey = frozenset


def region_fingerprint(region: PartialRegion) -> RegionKey:
    """Content hash of a region: identical fabrics share cache entries.

    Hashes the dense resource grid and the reconfigurable mask (shape
    included via the raw dimensions); the region *name* is deliberately
    excluded so ``pr`` and ``pr-lns`` with identical cells collide — which
    is exactly what a cache keyed on placement maths wants.
    """
    h = hashlib.blake2b(digest_size=16)
    h.update(np.int64(region.width).tobytes())
    h.update(region.grid.cells.tobytes())
    h.update(np.packbits(region.reconfigurable).tobytes())
    return h.digest()


def footprint_signature(footprint: "Footprint") -> FootprintKey:
    """Hashable identity of a footprint: its normalized typed cell set."""
    return footprint.cells


class AnchorMaskCache:
    """Memoizes each (region, footprint)'s anchor words.

    One cache instance is intended per *process* (the portfolio creates one
    per worker; the LNS driver one per ``place`` call unless handed a
    shared instance).  Entries are stored write-protected; the unpacked
    masks :meth:`anchor_mask` / :meth:`anchor_masks` return are
    write-protected too — callers that mutate masks (the kernel's
    non-overlap narrowing) copy them into their own bank first, which
    :func:`numpy.stack` already does.

    Counters (``hits``/``misses``/``narrowed``/``evictions``) are
    cumulative; consumers snapshot them around a model construction to
    attribute deltas (see :meth:`snapshot` / :meth:`delta`).  A batch
    lookup counts one hit or miss per footprint, in order, exactly as
    that many single lookups would.

    ``capacity`` (None = unbounded, the default) turns the store into an
    LRU: a hit refreshes the entry, an insert past capacity evicts the
    least recently used entry and counts into ``evictions``.
    """

    def __init__(self, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("cache capacity must be >= 1 (or None)")
        self.capacity = capacity
        self._words: "OrderedDict[Tuple[RegionKey, FootprintKey], np.ndarray]" = (
            OrderedDict()
        )
        #: derived-artifact memo (see :meth:`memo`); not persisted by save
        self._aux: "OrderedDict[Tuple, object]" = OrderedDict()
        #: anchor lookups served from the cache
        self.hits = 0
        #: anchor lookups that had to run the kernel
        self.misses = 0
        #: mask rows derived incrementally from cached base-region masks
        #: (maintained by the kernel via :meth:`note_narrowed`)
        self.narrowed = 0
        #: entries dropped by the LRU bound (0 while unbounded)
        self.evictions = 0

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def region_key(self, region: PartialRegion) -> RegionKey:
        return region_fingerprint(region)

    def anchor_words(
        self,
        region: PartialRegion,
        footprints: Sequence["Footprint"],
        region_key: Optional[RegionKey] = None,
    ) -> List[np.ndarray]:
        """Cached :func:`~repro.fabric.masks.anchor_words` of each
        footprint against one region, in order (read-only ``(W, L)``
        ``uint64`` arrays).

        The misses are built together, from one
        :func:`~repro.fabric.masks.column_words` of the region.  Each one
        holds its store slot from the moment it is counted, so a repeat
        later in the same batch is a hit and evictions fall as they would
        for single lookups.
        """
        key = region_key if region_key is not None else self.region_key(region)
        store = self._words
        out: list = []
        missed: list = []  # (entry, footprint), in miss order
        for fp in footprints:
            entry = (key, footprint_signature(fp))
            found = store.get(entry)
            if found is None:
                self.misses += 1
                found = len(missed)  # placeholder until the batch is built
                missed.append((entry, fp))
                self._store(entry, found)
            else:
                self.hits += 1
                if self.capacity is not None:
                    store.move_to_end(entry)
            out.append(found)
        if not missed:
            return out
        try:
            built = anchor_words(column_words(region), [fp for _, fp in missed])
        except BaseException:
            for entry, _ in missed:
                if isinstance(store.get(entry), int):
                    del store[entry]
            raise
        for (entry, _), words in zip(missed, built):
            words.setflags(write=False)
            if entry in store:
                store[entry] = words
        return [built[f] if isinstance(f, int) else f for f in out]

    def anchor_masks(
        self,
        region: PartialRegion,
        footprints: Sequence["Footprint"],
        region_key: Optional[RegionKey] = None,
    ) -> List[np.ndarray]:
        """:meth:`anchor_words` unpacked: one read-only ``(H, W)`` boolean
        valid-anchor mask per footprint."""
        words = self.anchor_words(region, footprints, region_key)
        if not words:
            return []
        masks = unpack_columns(np.array(words), region.height)
        masks.setflags(write=False)
        return list(masks)

    def anchor_mask(
        self,
        region: PartialRegion,
        footprint: "Footprint",
        region_key: Optional[RegionKey] = None,
    ) -> np.ndarray:
        """Cached ``valid_anchor_mask`` for one (region, footprint) pair.

        Returns a read-only (H, W) boolean array; copy before mutating.
        """
        return self.anchor_masks(region, [footprint], region_key)[0]

    def _store(self, entry: Tuple[RegionKey, FootprintKey], words) -> None:
        self._words[entry] = words
        if self.capacity is not None:
            while len(self._words) > self.capacity:
                self._words.popitem(last=False)
                self.evictions += 1

    def memo(self, key: Tuple, build: "Callable[[], object]") -> object:
        """Cached derived artifact keyed by an arbitrary hashable tuple.

        The temporal placement path memoizes objects that, like the anchor
        masks, depend only on fabric content — the per-(region, horizon)
        forbidden-region list and per-(footprint, duration) shape
        extrusions — without this module having to know their types (which
        live in ``repro.geost``; importing them here would cycle).  Lookups
        count into the same ``hits``/``misses`` counters the masks use and
        the store honors the same LRU ``capacity``.  Entries are returned
        by reference: consumers must treat them as immutable, exactly like
        the read-only mask arrays.
        """
        found = self._aux.get(key)
        if found is not None:
            self.hits += 1
            if self.capacity is not None:
                self._aux.move_to_end(key)
            return found
        self.misses += 1
        found = build()
        self._aux[key] = found
        if self.capacity is not None:
            while len(self._aux) > self.capacity:
                self._aux.popitem(last=False)
                self.evictions += 1
        return found

    def warm(self, region: PartialRegion, modules: Iterable) -> int:
        """Precompute every shape's anchor words for one region; returns
        the count.

        Used by portfolio workers so all subsequent model constructions —
        including the very first — run entirely on hits.
        """
        shapes = [fp for module in modules for fp in module.shapes]
        self.anchor_words(region, shapes)
        return len(shapes)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def note_narrowed(self, rows: int) -> None:
        """Record ``rows`` mask rows derived incrementally (not recomputed)."""
        self.narrowed += rows

    def __len__(self) -> int:
        return len(self._words)

    def snapshot(self) -> Tuple[int, int, int, int]:
        """Current (hits, misses, narrowed, evictions) counter values."""
        return (self.hits, self.misses, self.narrowed, self.evictions)

    def delta(self, snapshot: Tuple[int, ...]) -> Dict[str, int]:
        """Counter increments since ``snapshot`` (from :meth:`snapshot`)."""
        h0, m0, n0 = snapshot[:3]
        e0 = snapshot[3] if len(snapshot) > 3 else 0
        return {
            "hits": self.hits - h0,
            "misses": self.misses - m0,
            "narrowed": self.narrowed - n0,
            "evictions": self.evictions - e0,
        }

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "narrowed": self.narrowed,
            "evictions": self.evictions,
            "entries": len(self._words),
        }

    # ------------------------------------------------------------------
    # Persistence (warmed entries shared across worker processes)
    # ------------------------------------------------------------------
    SAVE_VERSION = 3

    def save(self, path: str) -> int:
        """Persist the finished anchor words; returns the entry count.

        The artifact is a pickle of cache keys and numpy arrays — a local,
        trusted file (load only what this process, or a sibling worker of
        the same service, wrote).  Counters are *not* persisted: a loaded
        cache starts with fresh accounting.
        """
        payload = {
            "version": self.SAVE_VERSION,
            "words": [
                (key, sorted(sig), np.asarray(words))
                for (key, sig), words in self._words.items()
            ],
        }
        with open(path, "wb") as handle:
            pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
        return len(self._words)

    @classmethod
    def load(
        cls, path: str, capacity: Optional[int] = None
    ) -> "AnchorMaskCache":
        """Rebuild a cache from :meth:`save` output (counters start at 0).

        Entries go through the LRU bound: a ``capacity`` smaller than the
        artifact keeps its most recently stored entries.
        """
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
        version = payload.get("version")
        if version != cls.SAVE_VERSION:
            raise ValueError(
                f"unsupported cache file version {version!r} "
                f"(expected {cls.SAVE_VERSION})"
            )
        cache = cls(capacity=capacity)
        for key, cells, words in payload["words"]:
            words = np.asarray(words)
            words.setflags(write=False)
            cache._store((key, frozenset(cells)), words)
        # the truncation above is not runtime eviction: accounting starts
        # clean
        cache.evictions = 0
        return cache

    def __repr__(self) -> str:
        return (
            f"AnchorMaskCache(entries={len(self._words)}, hits={self.hits}, "
            f"misses={self.misses}, narrowed={self.narrowed}, "
            f"evictions={self.evictions})"
        )
