"""A memo of anchor words, kept only for the benchmark's counters.

:class:`AnchorMaskCache` maps ``(region fingerprint, footprint
signature)`` to the footprint's finished anchor words
(:func:`~repro.fabric.masks.anchor_words`, one ``(W, L)`` ``uint64``
array per entry, stored read-only) and counts its hits and misses.  No
solver reads it: every placement model builds its static words fresh as
``anchor_words(column_words(region), shapes)``, which since the
packed-word kernel is a small part of a model build.  The module stays
only because the benchmark workloads (``perfbench/workloads.py``)
construct one and read :meth:`AnchorMaskCache.stats` for their
``masks.cache_*`` counters; the benchmark change that drops those
counters deletes this module.

:func:`region_fingerprint` / :func:`footprint_signature` define the keys:
pure content hashes, so two structurally identical regions share entries
and the region's *name* never matters.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

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
    excluded so ``pr`` and ``pr-lns`` with identical cells collide.
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

    Entries are stored write-protected.  A batch lookup counts one hit or
    miss per footprint, in order, exactly as that many single lookups
    would.  The store is unbounded.
    """

    def __init__(self) -> None:
        self._words: Dict[Tuple[RegionKey, FootprintKey], np.ndarray] = {}
        #: anchor lookups served from the cache
        self.hits = 0
        #: anchor lookups that had to run the kernel
        self.misses = 0

    def anchor_words(
        self, region: PartialRegion, footprints: Sequence["Footprint"]
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
        key = region_fingerprint(region)
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

    def __len__(self) -> int:
        return len(self._words)

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": len(self._words),
        }

