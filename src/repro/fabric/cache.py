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
  valid; stored read-only).  That is the one store, and its readers read
  the words themselves.  A batch lookup builds the region's column words
  once for all its misses; nothing per region is kept.
* :func:`region_fingerprint` / :func:`footprint_signature` define the keys:
  pure content hashes, so two structurally identical regions (e.g. the
  same payload deserialized in two worker processes) share entries and the
  region's *name* never matters.

The consumers are the offline CP solvers: the CP placer and its LNS and
portfolio drivers and the temporal placer.  They
work against a handful of fabrics and a module library whose footprints
number in the hundreds, so the working set is small and the cache is
unbounded.  The runtime serving path and the baseline placers do not use
it: they answer fit queries from the free-space ledger
(:class:`repro.core.occupancy.Occupancy`), whose held cells change with
every placement, so a query's region practically never repeats.

The *incremental* consumer of this cache is the kernel itself: for an LNS
sub-region (:class:`~repro.fabric.region.NarrowedRegion`) the kernel
fetches the cached **base**-region words and ANDs in the sub-region's
free cells (its non-overlap test against the frozen modules), instead of
recomputing every anchor lattice against the carved-up region.
"""

from __future__ import annotations

import hashlib
from typing import (
    TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Sequence, Tuple,
)

import numpy as np

from repro.fabric.masks import anchor_words, column_words
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
    shared instance).  Entries are stored write-protected — callers that
    mutate anchors (the kernel's non-overlap narrowing) copy them into
    their own bank first, which :func:`numpy.stack` already does.

    Counters (``hits``/``misses``/``narrowed``) are cumulative; consumers
    snapshot them around a model construction to attribute deltas (see
    :meth:`snapshot` / :meth:`delta`).  A batch lookup counts one hit or
    miss per footprint, in order, exactly as that many single lookups
    would.  The store is unbounded.
    """

    def __init__(self) -> None:
        self._words: Dict[Tuple[RegionKey, FootprintKey], np.ndarray] = {}
        #: derived-artifact memo (see :meth:`memo`)
        self._aux: Dict[Tuple, object] = {}
        #: anchor lookups served from the cache
        self.hits = 0
        #: anchor lookups that had to run the kernel
        self.misses = 0
        #: anchor rows derived incrementally from cached base-region words
        #: (maintained by the kernel via :meth:`note_narrowed`)
        self.narrowed = 0

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
        later in the same batch is a hit, as it would be for single
        lookups.
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
                store[entry] = found
            else:
                self.hits += 1
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
            store[entry] = words
        return [built[f] if isinstance(f, int) else f for f in out]

    def memo(self, key: Tuple, build: "Callable[[], object]") -> object:
        """Cached derived artifact keyed by an arbitrary hashable tuple.

        The temporal placement path memoizes objects that, like the anchor
        masks, depend only on fabric content — the per-(region, horizon)
        forbidden-region list and per-(footprint, duration) shape
        extrusions — without this module having to know their types (which
        live in ``repro.geost``; importing them here would cycle).  Lookups
        count into the same ``hits``/``misses`` counters the masks use.
        Entries are returned by reference: consumers must treat them as
        immutable, exactly like the read-only mask arrays.
        """
        found = self._aux.get(key)
        if found is not None:
            self.hits += 1
            return found
        self.misses += 1
        found = build()
        self._aux[key] = found
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

    def snapshot(self) -> Tuple[int, int, int]:
        """Current (hits, misses, narrowed) counter values."""
        return (self.hits, self.misses, self.narrowed)

    def delta(self, snapshot: Tuple[int, int, int]) -> Dict[str, int]:
        """Counter increments since ``snapshot`` (from :meth:`snapshot`)."""
        h0, m0, n0 = snapshot
        return {
            "hits": self.hits - h0,
            "misses": self.misses - m0,
            "narrowed": self.narrowed - n0,
        }

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "narrowed": self.narrowed,
            "entries": len(self._words),
        }

    def __repr__(self) -> str:
        return (
            f"AnchorMaskCache(entries={len(self._words)}, hits={self.hits}, "
            f"misses={self.misses}, narrowed={self.narrowed})"
        )
