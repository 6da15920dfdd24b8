"""Shared scaffolding for the baseline placers.

Baselines maintain an explicit occupancy mask and query anchor feasibility
through the same vectorized machinery as the kernel
(:func:`repro.fabric.masks.anchor_masks` plus the occupancy gather
:func:`repro.fabric.masks.free_anchors`), so their placements satisfy
M_a / M_b / M_c by construction and are cross-checked by
``PlacementResult.verify`` in the tests.  Every placer reads the
bottom-left anchor of each shape (:meth:`_State.first_anchors`) and
writes cells through :func:`repro.core.result.imprint`; the bottom-left
pick across shapes is :meth:`_State.bottom_left`, the same helper the CP
placer's one-module closed form calls.

Seeding, wall-clock budgets and :class:`~repro.fabric.cache.AnchorMaskCache`
reuse are owned here, once: ``BasePlacer.place`` builds one :class:`_State`
carrying the RNG, the deadline and the (possibly cached) static anchor
masks, and every concrete placer only implements ``_run(state)``.  The
backend adapters (:mod:`repro.core.backend`) thread a request's seed,
budget and cache straight through this surface.
"""

from __future__ import annotations

import random
import time
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.result import Placement, PlacementResult, imprint
from repro.fabric.cache import AnchorMaskCache
from repro.fabric.masks import (
    anchor_masks,
    bottom_left_pick,
    first_anchor,
    free_anchors,
)
from repro.fabric.region import PartialRegion
from repro.modules.module import Module


class _State:
    """Occupancy-tracking placement state shared by the greedy baselines."""

    def __init__(
        self,
        region: PartialRegion,
        modules: Sequence[Module],
        cache: Optional[AnchorMaskCache] = None,
        seed: int = 0,
        deadline: Optional[float] = None,
    ) -> None:
        self.region = region
        self.modules = list(modules)
        self.H, self.W = region.height, region.width
        self.occupancy = np.zeros((self.H, self.W), dtype=bool)
        #: static anchors per (module index, shape index); served from the
        #: shared cache when one is handed in (the masks are read-only
        #: views then — ``anchors`` never mutates them)
        if cache is not None:
            key = cache.region_key(region)
            self.static: List[List[np.ndarray]] = [
                cache.anchor_masks(region, m.shapes, key) for m in self.modules
            ]
        else:
            self.static = [anchor_masks(region, m.shapes) for m in self.modules]
        self.placements: List[Placement] = []
        #: seeded RNG for stochastic placers (annealing); deterministic per
        #: (placer seed) because it is drawn nowhere else
        self.rng = random.Random(seed)
        #: wall-clock deadline (``time.monotonic()`` scale) or None
        self.deadline = deadline
        #: placer-specific counters merged into ``PlacementResult.stats``
        self.stats: Dict = {}

    # ------------------------------------------------------------------
    def anchors(self, mi: int, si: int) -> np.ndarray:
        """Current (H, W) anchor feasibility of one shape."""
        fp = self.modules[mi].shapes[si]
        return free_anchors(self.static[mi][si], fp.offsets(), self.occupancy)

    def first_anchors(self, mi: int) -> Iterator[Tuple[int, int, int]]:
        """``(x, y, shape)``: the bottom-left free anchor of every shape of
        module ``mi`` that has one, in shape order."""
        for si in range(len(self.modules[mi].shapes)):
            hit = first_anchor(self.anchors(mi, si))
            if hit is not None:
                yield *hit, si

    def bottom_left(self, mi: int) -> Optional[Tuple[int, int, int]]:
        """Module ``mi``'s bottom-left free ``(x, y, shape)``, or None
        (:func:`~repro.fabric.masks.bottom_left_pick`)."""
        return bottom_left_pick(
            self.anchors(mi, si) for si in range(len(self.modules[mi].shapes))
        )

    def commit(self, mi: int, si: int, x: int, y: int) -> None:
        placement = Placement(self.modules[mi], si, x, y)
        imprint(self.occupancy, placement, True)
        self.placements.append(placement)

    def reset(self) -> None:
        """Clear occupancy and placements (decode loops re-place from zero)."""
        self.occupancy[:] = False
        self.placements = []

    def out_of_budget(self) -> bool:
        """True once the wall-clock deadline (if any) has passed."""
        return self.deadline is not None and time.monotonic() >= self.deadline

    def extent(self) -> int:
        return max((p.right for p in self.placements), default=0)


class BasePlacer:
    """Interface of every baseline placer.

    Class-level ``seed`` / ``time_limit`` are the uniform knobs the backend
    adapter overrides per request; placers with their own config objects
    (annealing, slots) mirror the relevant fields onto these attributes in
    their ``__init__``.
    """

    name = "base"
    #: RNG seed handed to the run state (stochastic placers draw from it)
    seed: int = 0
    #: optional wall-clock budget in seconds (None = unbounded)
    time_limit: Optional[float] = None

    def place(
        self,
        region: PartialRegion,
        modules: Sequence[Module],
        *,
        cache: Optional[AnchorMaskCache] = None,
    ) -> PlacementResult:
        start = time.monotonic()
        deadline = (
            start + self.time_limit if self.time_limit is not None else None
        )
        state = _State(
            region, modules, cache=cache, seed=self.seed, deadline=deadline
        )
        unplaced = self._run(state)
        return PlacementResult(
            region,
            state.placements,
            unplaced,
            status="feasible" if not unplaced else "partial",
            elapsed=time.monotonic() - start,
            stats={"method": self.name, **state.stats},
        )

    def _run(self, state: _State) -> List[Module]:
        """Place modules; return the ones that did not fit (override)."""
        raise NotImplementedError
