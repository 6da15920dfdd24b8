"""Shared scaffolding for the baseline placers.

Baselines keep free space in one :class:`~repro.core.occupancy.Occupancy`
ledger, the packed column words the runtime manager, defrag and the CP
kernel use, and answer every fit query with the same kernel call:
:meth:`Occupancy.anchors` over ``static & ~held``, M_a ∧ M_b ∧ M_c in one
batch per module.  Their placements therefore satisfy all three masks by
construction and are cross-checked by ``PlacementResult.verify`` in the
tests.  Every placer reads the bottom-left anchor of each shape
(:meth:`_State.first_anchors`) and writes cells through the ledger; the
bottom-left pick across shapes is :meth:`_State.bottom_left`, the same
:func:`~repro.fabric.masks.bottom_left_pick` the runtime manager's
``cp`` and ``greedy`` pick rules are.

Seeding and wall-clock budgets are owned here, once: ``BasePlacer.place``
builds one :class:`_State` carrying the RNG, the deadline and the ledger,
and every concrete placer only implements ``_run(state)``.  The backend
adapters (:mod:`repro.core.backend`) thread a request's seed and budget
straight through this surface.
"""

from __future__ import annotations

import random
import time
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.occupancy import Occupancy
from repro.core.result import Placement, PlacementResult
from repro.fabric.masks import bottom_left_pick, first_anchor
from repro.fabric.region import PartialRegion
from repro.modules.module import Module


class _State:
    """Ledger-backed placement state shared by the greedy baselines."""

    def __init__(
        self,
        region: PartialRegion,
        modules: Sequence[Module],
        seed: int = 0,
        deadline: Optional[float] = None,
    ) -> None:
        self.region = region
        self.modules = list(modules)
        self.H, self.W = region.height, region.width
        #: the one free-space state: static column words and held cells
        self.ledger = Occupancy(region)
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
        """Current ``(W, L)`` anchor words of one shape."""
        fp = self.modules[mi].shapes[si]
        return self.ledger.anchors([fp], self.ledger.held)[0]

    def shape_anchors(self, mi: int) -> List[np.ndarray]:
        """Current anchor words of every shape of module ``mi``, in shape
        order: one kernel call."""
        return self.ledger.anchors(self.modules[mi].shapes, self.ledger.held)

    def first_anchors(self, mi: int) -> Iterator[Tuple[int, int, int]]:
        """``(x, y, shape)``: the bottom-left free anchor of every shape of
        module ``mi`` that has one, in shape order."""
        for si, words in enumerate(self.shape_anchors(mi)):
            hit = first_anchor(words)
            if hit is not None:
                yield *hit, si

    def bottom_left(self, mi: int) -> Optional[Tuple[int, int, int]]:
        """Module ``mi``'s bottom-left free ``(x, y, shape)``, or None
        (:func:`~repro.fabric.masks.bottom_left_pick`)."""
        return bottom_left_pick(self.shape_anchors(mi))

    def commit(self, mi: int, si: int, x: int, y: int) -> None:
        placement = Placement(self.modules[mi], si, x, y)
        self.ledger.place(placement)
        self.placements.append(placement)

    def reset(self, placements: Iterable[Placement] = ()) -> None:
        """Hold exactly ``placements`` (decode loops re-place from zero)."""
        self.placements = list(placements)
        self.ledger.reset(self.placements)

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
        self, region: PartialRegion, modules: Sequence[Module]
    ) -> PlacementResult:
        start = time.monotonic()
        deadline = (
            start + self.time_limit if self.time_limit is not None else None
        )
        state = _State(region, modules, seed=self.seed, deadline=deadline)
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
