"""Shared accounting for incremental geost propagation.

Both geost kernels — the reference :class:`~repro.geost.kernel.Geost` and
the production :class:`~repro.geost.placement.PlacementKernel` — maintain
per-object dirty sets and trail-aware caches when running incrementally.
This module holds the counter block they export (surfaced as the
``geost.incremental`` trace event and the ``geost_*`` fields of
:class:`~repro.obs.profile.SolveProfile`):

``dirty``
    objects actually re-filtered (popped from the dirty set); the wholesale
    path would have re-filtered *every* object on each of those wake-ups.
``reused``
    cached derived state served without recomputation — forbidden-box
    lists (reference kernel) or anchor-count queries (placement kernel).
``rasterized``
    objects whose footprint was stamped into the occupancy bitboard after
    becoming fully fixed, switching them from per-box containment tests to
    the mask-intersection fast path.
``rows_tested``
    vectorized frontier scans performed by the bitboard-first sweep
    (whole candidate lattices tested by mask intersection); surfaced as
    ``bitboard_rows_tested`` on the profile.
``fallbacks``
    filter invocations that wanted the bitboard sweep but fell back to
    the scalar path because no board exists (anchor window above the
    rasterization guard); surfaced as ``bitboard_fallbacks``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass
class IncStats:
    """Counters for one kernel instance (monotone within a solve)."""

    dirty: int = 0
    reused: int = 0
    rasterized: int = 0
    rows_tested: int = 0
    fallbacks: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "dirty": self.dirty,
            "reused": self.reused,
            "rasterized": self.rasterized,
            "rows_tested": self.rows_tested,
            "fallbacks": self.fallbacks,
        }
