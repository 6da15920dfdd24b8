"""Shared helpers for the test suite.

The geost cross-validation machinery lived as near-identical copies in
``tests/geost/test_cross_validation.py`` and
``tests/geost/test_placement_kernel.py``; it is consolidated here because
the differential harness (many random instances, three independent
implementations of the paper's constraint) is now used by several files.

The occupancy oracles live here as well: :func:`per_cell_occupancy_mask`
and :func:`per_cell_relocation_sites` rebuild a floorplan one cell at a
time, as the code did before occupancy became a maintained grid,
:class:`PerCellRelocationProbe` serves the defrag planners' batched
relocation probe from those rebuilds, and :class:`BoolGridLedger` keeps
the free-space ledger's state in per-cell boolean grids, the
differential oracle of :class:`repro.core.occupancy.Occupancy`.

Three anchor-mask oracles for the packed column-word kernel
(:func:`repro.fabric.masks.anchor_words`, unpacked by
:func:`repro.fabric.masks.valid_anchor_mask`) live here too:
:func:`brute_force_anchor_mask` (a per-anchor, per-cell loop),
:func:`slice_and_anchor_mask` (an earlier vectorized kernel, one shifted
slice-AND per footprint cell) and :func:`prefix_count_anchor_mask` (the
kernel the words replaced, one prefix-count subtraction per vertical run
over :func:`blocked_prefix_counts`).  :func:`lexsort_first_anchor` (the
``nonzero`` + ``lexsort`` pick each placer used to hand-roll) is the
oracle of :func:`repro.fabric.masks.first_anchor`.

:class:`BoolGridState` is the baseline placers' run state before the
free-space ledger: an ``(H, W)`` boolean occupancy grid and each shape's
static anchor mask (:func:`unpacked_anchor_masks`), filtered per query by
:func:`cell_table_free_anchors`, a per-anchor gather of the grid under the
footprint's cells.  It is the differential oracle of
:class:`repro.placer.base._State`, and :func:`injected_state` runs every
baseline placer on it.

:class:`SlowDecline` (sleeps, then proves no fit) and :class:`DownRung`
(always raises) are admission rules for latency and graceful-degradation
tests; :func:`installed_rules` installs them into the runtime manager's
rule table for the length of a block.

:func:`ledger_residual` carves a free-space ledger's blocked cells out of
its region: the free region the oracles of the runtime manager's pick
rules (the CP placer, the baseline placers) place on.
:func:`recorded_probes` records the pick-rule probes a serving replay
sends, each with its ledger and blocked words.

:func:`eager_clock` makes every runtime manager's
:meth:`~repro.core.runtime.RuntimePlacementManager.next_due` answer its
own clock, so each ``advance_to`` runs the full event loop and queue
upkeep: the oracle of the due-tick early return.

:class:`BoolBankKernel` is the placement kernel before packed words: one
boolean ``(H * W)`` row per (module, shape), narrowed after each imprint
by a difference-of-coordinates collision scatter, with batched and
per-shape paths and its own fail-first counts (:func:`count_anchors`,
:func:`count_anchors_batch`).  It is the differential oracle of the word
kernel (``tests/geost/test_word_kernel_differential.py``), and
:func:`kernel_mode` / :func:`injected_kernel` run the solver stack on it.
:class:`WholesalePlacementKernel` is the word kernel re-filtering every
module on each wake-up, the oracle of its dirty set and count cache.

:class:`TemporalPlacer` is the spatio-temporal model on the reference
:class:`~repro.geost.kernel.Geost` (each task one 3-D object), the
oracle of :class:`repro.core.temporal.TemporalCPPlacer`.

Three ways to enumerate the solutions of one placement instance:

* :func:`brute_force_solutions` — literal M_a ∧ M_b ∧ M_c from the
  per-shape anchor masks, the ground truth;
* :func:`kernel_solutions` — search over the packed-word
  :class:`~repro.geost.placement.PlacementKernel`;
* :func:`geost_solutions` — search over the reference interval
  :class:`~repro.geost.kernel.Geost` with heterogeneity encoded as
  resource-typed forbidden regions.

All three return sets of per-module ``(shape, x, y)`` tuples, so equality
is a complete cross-check of the solution *sets*, not just counts.

On top of those, the **cross-kernel differential-oracle harness** runs
any pair of :class:`OracleConfig` settings — the placement kernel's
``incremental`` × ``bitboard`` rungs, or the one-mode reference
``geost`` kernel — over seeded instance generators and asserts
*bit-identical* behavior: equal solution sets,
equal search-tree fingerprints (nodes, backtracks, solutions, depth,
failures, propagations, domain updates) and the per-config profile
invariants (e.g. a scalar run must report zero vectorized row scans).
Instance generators cover sparse (:func:`random_small_instance`), dense
(:func:`random_dense_instance`), shape-alternative-heavy
(:func:`random_alt_heavy_instance`) and 3-D pure-geost
(:func:`random_geost3d_instance`, enumerated by
:func:`brute_force_3d_solutions`) regimes.
"""

from __future__ import annotations

import functools
import itertools
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import (
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

import repro.core.placement_model
import repro.core.temporal
import repro.placer.base
from repro.core.occupancy import Occupancy
from repro.core.relocation import RelocationSite
from repro.core.result import Placement, PlacementResult
from repro.core.temporal import (
    ScheduledTask,
    TemporalResult,
    TemporalTask,
    _validate_temporal,
)
from repro.cp.bnb import BranchAndBound, Objective
from repro.cp.branching import min_value, smallest_domain
from repro.cp.domain import Domain
from repro.cp.engine import Engine, Inconsistent
from repro.cp.model import Model
from repro.cp.propagator import Priority, Propagator
from repro.cp.search import DepthFirstSearch, SearchLimit
from repro.cp.solver import Solver
from repro.cp.trail import Revision
from repro.cp.variable import IntVar
from repro.fabric.devices import homogeneous_device, irregular_device
from repro.fabric.masks import (
    anchor_words,
    bottom_left_pick,
    column_words,
    compatibility_masks,
    first_anchor,
    pack_columns,
    unpack_columns,
    valid_anchor_mask,
)
from repro.fabric.region import PartialRegion
from repro.fabric.resource import ResourceType
from repro.geost.boxes import Box, ShiftedBox
from repro.geost.forbidden import ForbiddenRegion
from repro.geost.kernel import Geost
from repro.geost.objects import GeostObject
from repro.geost.placement import IncStats, PlacedModule, PlacementKernel
from repro.geost.shapes import GeostShape, ShapeTable
from repro.modules.footprint import Footprint
from repro.modules.module import Module
from repro.obs.trace import GEOST_INCREMENTAL, KERNEL_IMPRINT

#: one placement: per-module (shape index, anchor x, anchor y)
SolutionSet = Set[Tuple[Tuple[int, int, int], ...]]

#: (dx, dy, kind) relative cell of a footprint
Cell = Tuple[int, int, ResourceType]


def brute_force_anchor_mask(
    region: PartialRegion, cells: Sequence[Cell]
) -> np.ndarray:
    """Reference implementation: per-anchor loop.

    Exists solely so property-based tests can cross-check the vectorized
    fast path; do not use in production code paths.
    """
    H, W = region.height, region.width
    allowed = region.allowed_mask()
    grid = region.grid.cells
    valid = np.zeros((H, W), dtype=bool)
    for y in range(H):
        for x in range(W):
            ok = True
            for dx, dy, kind in cells:
                xx, yy = x + dx, y + dy
                if xx >= W or yy >= H or not allowed[yy, xx] or \
                        grid[yy, xx] != int(kind):
                    ok = False
                    break
            valid[y, x] = ok
    return valid


def blocked_prefix_counts(region: PartialRegion) -> np.ndarray:
    """Column-wise prefix counts of the cells each resource kind cannot use.

    Returns a ``(K, H + 1, W)`` array indexed by ``int(kind)`` for every
    placeable kind: ``out[k, y, x]`` is the number of cells in column
    ``x`` below row ``y`` that a module tile of kind ``k`` may not occupy
    (another resource type, static, or unavailable).  Row 0 is zero, so a
    half-open column span ``[y0, y1)`` is free for kind ``k`` iff
    ``out[k, y1, x] == out[k, y0, x]``.  The dtype is the smallest
    unsigned type holding ``H + 1``.
    """
    cells = region.grid.cells
    H, W = cells.shape
    kinds = np.arange(int(ResourceType.UNAVAILABLE), dtype=cells.dtype)
    blocked = (cells[None] != kinds[:, None, None]) | ~region.allowed_mask()
    out = np.zeros((len(kinds), H + 1, W), dtype=np.min_scalar_type(H + 1))
    np.cumsum(blocked, axis=1, dtype=out.dtype, out=out[:, 1:])
    return out


def prefix_count_anchor_mask(
    region: PartialRegion,
    footprint: Footprint,
    planes: Optional[np.ndarray] = None,
) -> np.ndarray:
    """The run/prefix-count kernel: one slice subtraction per vertical run.

    The production kernel before the packed column words, kept as an
    oracle: an anchor passes a run ``(dx, dy0, n, kind)`` iff
    ``cum[y + dy0 + n, x + dx] == cum[y + dy0, x + dx]`` in the kind's
    :func:`blocked_prefix_counts` plane.
    """
    runs = footprint.runs()
    H, W = region.height, region.width
    valid = np.zeros((H, W), dtype=bool)
    rows = H - max(dy0 + n for _, dy0, n, _ in runs) + 1
    cols = W - max(dx for dx, _, _, _ in runs)
    if rows <= 0 or cols <= 0:
        return valid
    if planes is None:
        planes = blocked_prefix_counts(region)
    # blocked cells under each run, OR-accumulated over the runs: an
    # anchor is valid iff every run's count cum[hi] - cum[lo] is zero
    blocked = np.zeros((rows, cols), dtype=planes.dtype)
    for dx, dy0, n, kind in runs:
        cum = planes[kind]
        blocked |= (
            cum[dy0 + n : dy0 + n + rows, dx : dx + cols]
            - cum[dy0 : dy0 + rows, dx : dx + cols]
        )
        if blocked.all():
            return valid
    np.equal(blocked, 0, out=valid[:rows, :cols])
    return valid


def slice_and_anchor_mask(
    region: PartialRegion,
    cells: Sequence[Cell],
    compat: Optional[Dict[ResourceType, np.ndarray]] = None,
) -> np.ndarray:
    """The per-cell kernel: AND one shifted compatibility slice per cell.

    The production kernel before the run/prefix rewrite, kept verbatim as
    a fast, vectorized oracle.
    """
    if not cells:
        raise ValueError("footprint has no cells")
    if min(c[0] for c in cells) != 0 or min(c[1] for c in cells) != 0:
        raise ValueError("footprint cells must be normalized to origin 0,0")
    if compat is None:
        compat = compatibility_masks(region)

    H, W = region.height, region.width
    valid = np.ones((H, W), dtype=bool)
    for dx, dy, kind in cells:
        if kind is ResourceType.UNAVAILABLE:
            raise ValueError("footprint cells cannot require UNAVAILABLE")
        source = compat[kind]
        shifted = np.zeros((H, W), dtype=bool)
        if dy < H and dx < W:
            shifted[: H - dy, : W - dx] = source[dy:, dx:]
        valid &= shifted
        if not valid.any():
            break
    return valid


def lexsort_first_anchor(valid: np.ndarray) -> Optional[Tuple[int, int]]:
    """Bottom-left anchor of a mask: sort every anchor by (x, y), take the
    first.  The pick each placer made before ``first_anchor``."""
    ys, xs = np.nonzero(valid)
    if xs.size == 0:
        return None
    k = np.lexsort((ys, xs))[0]
    return int(xs[k]), int(ys[k])


def unpacked_anchor_masks(
    words: np.ndarray, footprints: Sequence[Footprint], height: int
) -> List[np.ndarray]:
    """One ``(H, W)`` boolean anchor mask per footprint: the unpacked
    :func:`~repro.fabric.masks.anchor_words` over column words ``words``."""
    found = np.array(anchor_words(words, footprints))
    return list(unpack_columns(found, height))


def cell_table_free_anchors(
    static: np.ndarray, footprint: Footprint, occupied: np.ndarray
) -> np.ndarray:
    """Anchors of ``static`` whose footprint cells are all free of
    ``occupied``: one gather per anchor over an ``int64`` ``(dy, dx)``
    offset table built from the footprint's cells."""
    off = np.array(
        [(dy, dx) for dx, dy, _ in sorted(footprint.cells)], dtype=np.int64
    )
    ys, xs = np.nonzero(static)
    cy = ys[:, None] + off[None, :, 0]
    cx = xs[:, None] + off[None, :, 1]
    free = ~occupied[cy, cx].any(axis=1)
    out = np.zeros_like(static)
    out[ys[free], xs[free]] = True
    return out


def per_cell_occupancy_mask(result: PlacementResult) -> np.ndarray:
    """(H, W) boolean mask of cells used by placed modules.

    ``PlacementResult.occupancy_mask`` before the fancy-index imprint,
    kept verbatim (one Python store per cell) as the occupancy oracle.
    """
    mask = np.zeros((result.region.height, result.region.width), dtype=bool)
    for p in result.placements:
        for x, y, _ in p.absolute_cells():
            mask[y, x] = True
    return mask


def per_cell_free_mask_excluding(
    result: PlacementResult, who: Placement
) -> np.ndarray:
    """Region cells free if ``who`` were lifted off the fabric."""
    occupied = per_cell_occupancy_mask(result)
    for x, y, _ in who.absolute_cells():
        occupied[y, x] = False
    return result.region.allowed_mask() & ~occupied


def per_cell_relocation_masks(
    result: PlacementResult,
    placement: Placement,
    consider_alternatives: bool = True,
) -> List[Tuple[int, np.ndarray]]:
    """``(shape index, (H, W) anchor mask)`` of each shape ``placement``
    could relocate with, on the floorplan of ``result`` rebuilt cell by
    cell with ``placement`` lifted."""
    region = result.region
    free = per_cell_free_mask_excluding(result, placement)
    sub_region = PartialRegion(region.grid, free & region.reconfigurable)
    shapes = (
        list(enumerate(placement.module.shapes))
        if consider_alternatives
        else [(placement.shape_index, placement.footprint)]
    )
    words = column_words(sub_region)
    return [
        (sid, valid_anchor_mask(sub_region, fp, words)) for sid, fp in shapes
    ]


def per_cell_relocation_sites(
    result: PlacementResult,
    placement: Placement,
    consider_alternatives: bool = True,
    occupied=None,
) -> List[RelocationSite]:
    """``relocation_sites`` as it was before the maintained grid.

    Ignores ``occupied`` (the product's free-space ledger) and rebuilds
    the floorplan of ``result`` cell by cell for every probe, so a
    planner patched onto it plans against ground truth whatever state
    its own ledger is in.
    """
    return _mask_sites(
        per_cell_relocation_masks(result, placement, consider_alternatives)
    )


def _mask_sites(masks: List[Tuple[int, np.ndarray]]) -> List[RelocationSite]:
    """The sites of ``(shape index, anchor mask)`` pairs, shape by shape,
    each row by row."""
    sites: List[RelocationSite] = []
    for sid, mask in masks:
        ys, xs = np.nonzero(mask)
        sites.extend(
            RelocationSite(sid, int(x), int(y))
            for x, y in zip(xs.tolist(), ys.tolist())
        )
    return sites


class PerCellRelocationProbe:
    """:class:`repro.core.relocation.RelocationProbe` on the per-cell
    oracle, for patching into :mod:`repro.core.defrag`.

    Each call snapshots the floorplan and rebuilds a mover's
    :func:`per_cell_relocation_masks` on first use, lazily like the
    product; ``probe[m]`` and ``probe.bottom_left(m)`` read them.
    ``calls`` counts the probes served, so a test can assert the patched
    name is the one the planner reads.
    """

    def __init__(self) -> None:
        self.calls = 0

    def __call__(
        self,
        result: PlacementResult,
        movers: Sequence[Placement],
        consider_alternatives: bool = True,
        occupied=None,
    ) -> "_PerCellSites":
        self.calls += 1
        return _PerCellSites(
            PlacementResult(result.region, list(result.placements)),
            list(movers),
            consider_alternatives,
        )


class _PerCellSites:
    def __init__(self, result, movers, consider_alternatives) -> None:
        self.result, self.movers = result, movers
        self.consider_alternatives = consider_alternatives
        self.masks: Dict[int, List[Tuple[int, np.ndarray]]] = {}

    def __len__(self) -> int:
        return len(self.movers)

    def mover_masks(self, m: int) -> List[Tuple[int, np.ndarray]]:
        if m not in self.masks:
            self.masks[m] = per_cell_relocation_masks(
                self.result, self.movers[m], self.consider_alternatives
            )
        return self.masks[m]

    def __getitem__(self, m: int) -> List[RelocationSite]:
        return _mask_sites(self.mover_masks(m))

    def bottom_left(self, m: int) -> List[RelocationSite]:
        corners = []
        for sid, mask in self.mover_masks(m):
            xs, ys = np.nonzero(mask.T)  # x order, then y
            if xs.size:
                corners.append(RelocationSite(sid, int(xs[0]), int(ys[0])))
        return corners


class BoolGridLedger:
    """The free-space ledger's per-cell oracle: ``(H, W)`` boolean grids
    written one Python store per cell, the way the runtime manager kept
    its occupancy before :class:`repro.core.occupancy.Occupancy`.  Fit
    queries carve the blocked cells out of the region and run the
    per-cell slice-AND kernel (:func:`slice_and_anchor_mask`), so no
    packed word is involved anywhere."""

    def __init__(self, region: PartialRegion) -> None:
        self.region = region
        self.held = np.zeros((region.height, region.width), dtype=bool)
        self.reserved = np.zeros_like(self.held)
        self.occupied_cells = 0

    @staticmethod
    def cells(placement: Placement) -> List[Tuple[int, int]]:
        return [(x, y) for x, y, _ in placement.absolute_cells()]

    def write(
        self, grid: np.ndarray, cells: Sequence[Tuple[int, int]], value: bool
    ) -> None:
        for x, y in cells:
            grid[y, x] = value

    def place(self, placement: Placement) -> None:
        self.write(self.held, self.cells(placement), True)
        self.occupied_cells += placement.footprint.area

    def remove(self, placement: Placement) -> None:
        self.write(self.held, self.cells(placement), False)
        self.occupied_cells -= placement.footprint.area

    def hold(self, cells: Sequence[Tuple[int, int]]) -> None:
        self.write(self.held, cells, True)

    def release(self, cells: Sequence[Tuple[int, int]]) -> None:
        self.write(self.held, cells, False)

    def reserve(self, placements: Sequence[Placement]) -> None:
        self.reserved = np.zeros_like(self.held)
        for p in placements:
            self.write(self.reserved, self.cells(p), True)

    def lifted(self, placement: Placement) -> np.ndarray:
        grid = self.held.copy()
        self.write(grid, self.cells(placement), False)
        return grid

    def overlaps(self, placement: Placement) -> bool:
        return any(self.held[y, x] for x, y in self.cells(placement))

    def residual(self, blocked: np.ndarray) -> PartialRegion:
        region = self.region
        return PartialRegion(region.grid, region.reconfigurable & ~blocked)

    def anchors(
        self, footprints: Sequence[Footprint], blocked: np.ndarray
    ) -> List[np.ndarray]:
        residual = self.residual(blocked)
        return [
            slice_and_anchor_mask(residual, sorted(fp.cells))
            for fp in footprints
        ]


class BoolGridState:
    """The baseline placers' run state on boolean grids, the oracle of
    :class:`repro.placer.base._State`.

    Each shape's static anchors are unpacked once per run, every fit
    query drops the anchors whose cells the ``(H, W)`` occupancy grid
    holds (:func:`cell_table_free_anchors`), and picks and writes run on
    the boolean masks and grid.  The interface is ``_State``'s: anchors go
    out as packed words, and the ledger calls the placers make
    (``place``, ``remove``, ``mask``) land on the state itself.
    """

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
        self.occupancy = np.zeros((self.H, self.W), dtype=bool)
        words = column_words(region)
        self.static = [
            unpacked_anchor_masks(words, m.shapes, self.H)
            for m in self.modules
        ]
        self.ledger = self
        self.placements: List[Placement] = []
        self.rng = random.Random(seed)
        self.deadline = deadline
        self.stats: Dict = {}

    def free_mask(self, mi: int, si: int) -> np.ndarray:
        """One shape's current ``(H, W)`` anchor mask."""
        return cell_table_free_anchors(
            self.static[mi][si], self.modules[mi].shapes[si], self.occupancy
        )

    def masks(self, mi: int) -> List[np.ndarray]:
        """Every shape's current anchor mask of module ``mi``."""
        return [self.free_mask(mi, si) for si in range(len(self.static[mi]))]

    def anchors(self, mi: int, si: int) -> np.ndarray:
        return pack_columns(self.free_mask(mi, si))

    def shape_anchors(self, mi: int) -> List[np.ndarray]:
        return [pack_columns(mask) for mask in self.masks(mi)]

    def first_anchors(self, mi: int) -> Iterator[Tuple[int, int, int]]:
        for si, mask in enumerate(self.masks(mi)):
            hit = first_anchor(mask)
            if hit is not None:
                yield *hit, si

    def bottom_left(self, mi: int) -> Optional[Tuple[int, int, int]]:
        return bottom_left_pick(self.masks(mi))

    def place(self, placement: Placement) -> None:
        self.occupancy[placement.cell_index()] = True

    def remove(self, placement: Placement) -> None:
        self.occupancy[placement.cell_index()] = False

    def mask(self, words: np.ndarray) -> np.ndarray:
        return unpack_columns(words, self.H)

    def commit(self, mi: int, si: int, x: int, y: int) -> None:
        placement = Placement(self.modules[mi], si, x, y)
        self.place(placement)
        self.placements.append(placement)

    def reset(self, placements: Sequence[Placement] = ()) -> None:
        self.occupancy[:] = False
        self.placements = list(placements)
        for p in self.placements:
            self.place(p)

    def out_of_budget(self) -> bool:
        return self.deadline is not None and time.monotonic() >= self.deadline

    def extent(self) -> int:
        return max((p.right for p in self.placements), default=0)


@contextmanager
def injected_state(factory) -> Iterator[None]:
    """Run every baseline placer on the state ``factory`` builds (for
    example :class:`BoolGridState`) inside this block:
    :meth:`~repro.placer.base.BasePlacer.place` builds its state through
    the module-level name ``_State``."""
    previous = repro.placer.base._State
    repro.placer.base._State = factory
    try:
        yield
    finally:
        repro.placer.base._State = previous


def count_anchors(valid: np.ndarray, col: np.ndarray, row: np.ndarray) -> int:
    """Anchors of a (H, W) validity mask surviving the axis-domain masks:
    ``(valid & row[:, None] & col[None, :]).sum()`` over the selected rows
    and columns only (the boolean-bank oracle's per-shape count)."""
    if not row.any() or not col.any():
        return 0
    return int(np.count_nonzero(valid[row][:, col]))


def count_anchors_batch(
    valid_stack: np.ndarray, col: np.ndarray, row: np.ndarray
) -> np.ndarray:
    """Per-shape :func:`count_anchors` of a stacked ``(S, H, W)`` validity
    array in one fancy-indexed pass (the oracle's batched count)."""
    n = len(valid_stack)
    if n == 0 or not row.any() or not col.any():
        return np.zeros(n, dtype=np.int64)
    sub = valid_stack[:, row][:, :, col]
    return sub.reshape(n, -1).sum(axis=1, dtype=np.int64)


# ----------------------------------------------------------------------
# The boolean-bank placement kernel (oracle of the packed-word kernel)
# ----------------------------------------------------------------------
class _BoolItem:
    """Per-module record of :class:`BoolBankKernel`."""

    __slots__ = (
        "index", "module", "x", "y", "s", "t", "duration", "cells", "placed"
    )

    def __init__(
        self,
        index: int,
        module: Module,
        x: IntVar,
        y: IntVar,
        s: IntVar,
        t: Optional[IntVar] = None,
        duration: int = 1,
    ) -> None:
        self.index = index
        self.module = module
        self.x = x
        self.y = y
        self.s = s
        #: start-tick variable (None when the kernel runs without a time
        #: axis) and execution duration in ticks
        self.t = t
        self.duration = duration
        #: per-shape (n, 2) arrays of (dy, dx) cell offsets
        self.cells: List[np.ndarray] = [
            np.array(
                [(dy, dx) for dx, dy, _ in sorted(fp.cells)], dtype=np.int64
            )
            for fp in module.shapes
        ]
        self.placed = False

    def is_fixed(self) -> bool:
        fixed = self.x.is_fixed() and self.y.is_fixed() and self.s.is_fixed()
        if self.t is not None:
            fixed = fixed and self.t.is_fixed()
        return fixed


class BoolBankKernel(Propagator):
    """The boolean-bank placement kernel: the differential oracle of the
    packed-word :class:`~repro.geost.placement.PlacementKernel`.

    One boolean ``(H * W)`` row per (module, shape); an imprint removes
    the colliding anchors with a difference-of-coordinates scatter over
    every remaining cell offset.  Same constructor,
    queries and counters as the word kernel, plus ``bank``, ``valid`` and
    ``occupancy`` as boolean arrays.

    ``incremental=True`` (default) re-filters only the modules whose
    variables changed since the last fixpoint (the dirty set fed by
    :meth:`on_event`) and serves :meth:`anchor_count` from a cache keyed on
    a :class:`~repro.cp.trail.Revision` stamp that mask-bank mutations and
    their trail undos both bump.  ``incremental=False`` re-filters every
    module on each wake-up — the wholesale oracle the differential suite
    pins against; both modes reach the same fixpoint (the per-module
    filters are monotone, so chaotic iteration is confluent) and hence
    produce bit-identical search trees.

    ``bitboard=True`` (default) additionally batches the per-shape work:
    :meth:`_prune` tests all candidate shapes of a module against the
    occupancy/domain masks in one stacked bank reduction instead of one
    NumPy dispatch per shape, and :meth:`anchor_count` counts all shapes
    through :func:`~repro.fabric.masks.count_anchors_batch`.  Pure
    vectorization of the same boolean algebra — identical prunes, counts
    and cache behavior — so ``bitboard=False`` is the per-shape scalar
    oracle of the differential suite.

    ``horizon`` (optional) adds a bounded time axis: every module gets a
    start variable ``ts[i]`` and a ``durations[i]``-tick extrusion, the
    anchor bank grows to per-shape (T, H, W) stacks (the static spatial
    mask tiled over the horizon with start ticks past ``T - duration``
    cleared), occupancy becomes a (T, H, W) volume, and non-overlap means
    no two modules share a cell *while both are resident* — exactly the
    ``core.temporal._extrude`` model, evaluated through the same
    vectorized mask algebra.  The temporal narrowing after an imprint
    reuses the spatial difference-of-coordinates kernel and expands each
    colliding spatial anchor over its time window
    ``[t0 - d_other + 1, t0 + d0 - 1]`` — the start ticks at which the
    other shape would be resident simultaneously.  ``horizon=None``
    leaves every code path byte-identical to the purely spatial kernel.
    """

    priority = Priority.EXPENSIVE
    #: one run drains the dirty set to this propagator's own fixpoint;
    #: self-caused events land in the dirty set via on_event and are
    #: consumed by the same run, so the engine need not re-queue it
    idempotent = True

    def __init__(
        self,
        region: PartialRegion,
        modules: Sequence[Module],
        xs: Sequence[IntVar],
        ys: Sequence[IntVar],
        ss: Sequence[IntVar],
        incremental: bool = True,
        bitboard: bool = True,
        horizon: Optional[int] = None,
        durations: Optional[Sequence[int]] = None,
        ts: Optional[Sequence[IntVar]] = None,
    ) -> None:
        super().__init__("placement-kernel")
        if not (len(modules) == len(xs) == len(ys) == len(ss)):
            raise ValueError("modules and variable sequences must align")
        if not modules:
            raise ValueError("at least one module is required")
        if horizon is not None:
            if horizon <= 0:
                raise ValueError("horizon must be positive")
            if durations is None or ts is None:
                raise ValueError("horizon requires durations and ts")
            if not (len(durations) == len(ts) == len(modules)):
                raise ValueError("durations and ts must align with modules")
            for m, d in zip(modules, durations):
                if d <= 0:
                    raise ValueError(f"{m.name}: duration must be positive")
                if d > horizon:
                    raise ValueError(
                        f"{m.name}: duration {d} exceeds horizon {horizon}"
                    )
        elif durations is not None or ts is not None:
            raise ValueError("durations/ts require a horizon")
        self.region = region
        self.H, self.W = region.height, region.width
        #: time-axis extent (None — the purely spatial kernel)
        self.T = horizon
        self._hw = self.H * self.W
        self.incremental = incremental
        self.bitboard = bitboard
        self.inc_stats = IncStats()
        #: bumped on every mask-bank mutation and from its trail undo —
        #: keys the anchor-count cache
        self._rev = Revision()
        self._count_cache: Dict[int, Tuple] = {}
        if horizon is not None:
            self.items = [
                _BoolItem(i, m, x, y, s, t, int(d))
                for i, (m, x, y, s, t, d) in enumerate(
                    zip(modules, xs, ys, ss, ts, durations)
                )
            ]
        else:
            self.items = [
                _BoolItem(i, m, x, y, s)
                for i, (m, x, y, s) in enumerate(zip(modules, xs, ys, ss))
            ]
        # each module's shapes are one kernel batch, unpacked into (H, W)
        # masks
        words = column_words(region)

        def masks_of(shapes):
            found = np.array(anchor_words(words, shapes))
            return unpack_columns(found, self.H)
        # anchor masks live in one contiguous "bank" (one row per shape of
        # every item) so the non-overlap narrowing after an imprint is one
        # batched fancy-index update instead of hundreds of small ones
        rows: List[np.ndarray] = []
        self._row_of: List[List[int]] = []
        off_chunks: List[np.ndarray] = []
        owner_chunks: List[np.ndarray] = []
        self._item_off_slice: List[Tuple[int, int]] = []
        offset_cursor = 0
        for item in self.items:
            row_ids = []
            start = offset_cursor
            for sid, mask in enumerate(masks_of(item.module.shapes)):
                row_ids.append(len(rows))
                rows.append(mask.reshape(-1))
                off_chunks.append(item.cells[sid])
                owner_chunks.append(
                    np.full(len(item.cells[sid]), row_ids[-1], dtype=np.int64)
                )
                offset_cursor += len(item.cells[sid])
            self._row_of.append(row_ids)
            self._item_off_slice.append((start, offset_cursor))
        self.bank = np.stack(rows)  # (R, H*W) bool
        #: all shape-cell offsets (dy, dx) concatenated, with their bank row
        self._all_offsets = np.concatenate(off_chunks)       # (TOT, 2)
        self._all_owners = np.concatenate(owner_chunks)      # (TOT,)
        #: offsets of still-unplaced items; placed items need no narrowing
        self._active_offsets = np.ones(len(self._all_owners), dtype=bool)
        if self.T is not None:
            # extrude the spatial bank over the horizon: tile each row T
            # times and clear the start ticks at which the shape would
            # outlive the horizon (t > T - duration) — the temporal M_a
            self._row_duration = np.concatenate(
                [
                    np.full(len(it.module.shapes), it.duration, dtype=np.int64)
                    for it in self.items
                ]
            )
            time_valid = (
                np.arange(self.T)[None, :]
                <= (self.T - self._row_duration)[:, None]
            )
            self.bank = (
                self.bank[:, None, :] & time_valid[:, :, None]
            ).reshape(len(self.bank), self.T * self._hw)
        #: static M_a & M_b anchors: per item, per shape, a bank-row view
        self.valid: List[List[np.ndarray]] = [
            [self.bank[r] for r in row_ids] for row_ids in self._row_of
        ]
        self.occupancy = np.zeros(
            self.H * self.W if self.T is None else self.T * self._hw,
            dtype=bool,
        )
        #: total cells available to modules, for the area argument
        #: (cell-ticks when a time axis is present)
        self._capacity = int(region.allowed_mask().sum()) * (self.T or 1)
        #: items needing re-filtering (indices); maintained via on_event
        self._dirty: set = set(range(len(self.items)))
        self._var_to_item = {}
        for it in self.items:
            for v in (it.x, it.y, it.s) + ((it.t,) if it.t is not None else ()):
                self._var_to_item[id(v)] = it.index

    def variables(self):
        out = []
        for it in self.items:
            out.extend((it.x, it.y, it.s))
            if it.t is not None:
                out.append(it.t)
        return out

    def on_event(self, var, event) -> bool:
        self._dirty.add(self._var_to_item[id(var)])
        return True

    # ------------------------------------------------------------------
    # Initial domain reduction
    # ------------------------------------------------------------------
    def post(self, engine: Engine) -> None:
        # clamp shape domains to the actual alternative count; anchors to grid
        for item in self.items:
            item.s.set_domain(
                item.s.domain.clamp(0, len(item.module.shapes) - 1), cause=None
            )
            item.x.set_domain(item.x.domain.clamp(0, self.W - 1), cause=None)
            item.y.set_domain(item.y.domain.clamp(0, self.H - 1), cause=None)
            if item.t is not None:
                item.t.set_domain(
                    item.t.domain.clamp(0, self.T - item.duration), cause=None
                )
        super().post(engine)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _axis_masks(self, item: _BoolItem) -> Tuple[np.ndarray, np.ndarray]:
        """Boolean arrays over columns/rows marking the x / y domains."""
        return (
            item.x.domain.to_bool_array(self.W),
            item.y.domain.to_bool_array(self.H),
        )

    def _shape_allowed(self, item: _BoolItem, sid: int) -> np.ndarray:
        """Anchors of shape ``sid`` compatible with current domains.

        (H, W) for the spatial kernel, (T, H, W) with a time axis.
        """
        col, row = self._axis_masks(item)
        if item.t is None:
            mask = self.valid[item.index][sid].reshape(self.H, self.W)
            return mask & row[:, None] & col[None, :]
        mask = self.valid[item.index][sid].reshape(self.T, self.H, self.W)
        tmask = item.t.domain.to_bool_array(self.T)
        return mask & tmask[:, None, None] & row[None, :, None] & col[None, None, :]

    def _collisions(
        self, cells_yx: np.ndarray, keep: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Bank coordinates of anchors colliding with the given cells.

        For absolute cells ``(y, x)`` and every (still relevant) shape-cell
        offset, an anchor collides iff ``anchor = cell - offset`` lands in
        the grid — the vectorized difference-of-coordinates kernel.  Returns
        ``(rows, flat)`` suitable for fancy-indexing :attr:`bank`; ``keep``
        optionally restricts the offsets considered (offset indices into
        the concatenated offset table, e.g. the still-active ones).
        """
        off = self._all_offsets if keep is None else self._all_offsets[keep]
        owners = self._all_owners if keep is None else self._all_owners[keep]
        ay = cells_yx[:, 0][:, None] - off[None, :, 0]  # (n, TOT')
        ax = cells_yx[:, 1][:, None] - off[None, :, 1]
        ok = (ay >= 0) & (ax >= 0) & (ay < self.H) & (ax < self.W)
        flat = (ay * self.W + ax)[ok]
        rows = np.broadcast_to(owners, ok.shape)[ok]
        return rows, flat

    # ------------------------------------------------------------------
    # Propagation
    # ------------------------------------------------------------------
    def propagate(self, engine: Engine) -> None:
        # process only dirty items; imprinting re-dirties the rest.  The
        # dirty set is conservative across backtracking (stale entries just
        # cause a redundant re-filter, never unsoundness).  Wholesale mode
        # dirties everything up front — the re-filter-the-world behavior
        # kept as the differential oracle.
        if not self.incremental:
            self._dirty.update(range(len(self.items)))
        while self._dirty:
            idx = min(self._dirty)  # deterministic processing order
            self._dirty.discard(idx)
            item = self.items[idx]
            if item.placed:
                continue
            self.inc_stats.dirty += 1
            if item.is_fixed():
                self._imprint(engine, item)
            else:
                self._prune(item)
        # area argument: the remaining modules must fit the remaining cells
        # (cell-ticks when a time axis is present: area × duration)
        demand = int(self.occupancy.sum()) + sum(
            min(it.module.shapes[sid].area for sid in it.s.domain)
            * it.duration
            for it in self.items
            if not it.placed
        )
        if demand > self._capacity:
            raise Inconsistent(
                f"placement-kernel: area demand {demand} exceeds "
                f"capacity {self._capacity}"
            )
        tr = engine.tracer
        if tr is not None and tr.fine:
            tr.emit(GEOST_INCREMENTAL, **self.inc_stats.as_dict())

    def _imprint(self, engine: Engine, item: _BoolItem) -> None:
        """Commit a fixed module: occupy cells, narrow other modules' masks."""
        sid = item.s.value()
        x0, y0 = item.x.value(), item.y.value()
        t0 = item.t.value() if item.t is not None else 0
        flat_valid = self.valid[item.index][sid]
        anchor_flat = y0 * self.W + x0
        if item.t is not None:
            anchor_flat += t0 * self._hw
        if not flat_valid[anchor_flat]:
            raise Inconsistent(
                f"placement-kernel: {item.module.name} anchored on an "
                f"incompatible or out-of-region tile"
            )
        cells = item.cells[sid]  # (n, 2) of (dy, dx)
        idx = (y0 + cells[:, 0]) * self.W + (x0 + cells[:, 1])
        if item.t is not None:
            # occupy the cells for every resident tick [t0, t0 + duration)
            idx = (
                (t0 + np.arange(item.duration))[:, None] * self._hw
                + idx[None, :]
            ).reshape(-1)
        if self.occupancy[idx].any():
            raise Inconsistent(
                f"placement-kernel: {item.module.name} overlaps placed material"
            )
        self.occupancy[idx] = True
        item.placed = True
        self.inc_stats.rasterized += 1
        if engine.tracer is not None:
            if item.t is not None:
                engine.tracer.emit(
                    KERNEL_IMPRINT,
                    module=item.module.name, shape=sid, x=x0, y=y0, t=t0,
                )
            else:
                engine.tracer.emit(
                    KERNEL_IMPRINT, module=item.module.name, shape=sid, x=x0, y=y0
                )

        occ = self.occupancy
        active = self._active_offsets
        lo, hi = self._item_off_slice[item.index]
        active[lo:hi] = False  # this item's masks need no further narrowing

        def undo_imprint(idx=idx, item=item, lo=lo, hi=hi) -> None:
            occ[idx] = False
            active[lo:hi] = True
            item.placed = False

        engine.trail.push(undo_imprint)

        # narrow every unplaced module's anchor masks in one batched update:
        # an anchor (X, Y) of a shape collides iff (Y, X) = cell - offset
        # for some imprinted cell and some cell offset of that shape
        for other in self.items:
            if not other.placed:
                self._dirty.add(other.index)
        keep = np.nonzero(active)[0]
        cells_yx = np.stack([y0 + cells[:, 0], x0 + cells[:, 1]], axis=1)
        rows, flat = self._collisions(cells_yx, keep)
        if item.t is not None and rows.size:
            # expand each colliding *spatial* anchor over the start ticks
            # at which the other shape would be resident together with
            # this one: [t0 - d_other + 1, t0 + d0 - 1], clamped to the
            # horizon (a ragged range per collision, flattened via repeat)
            d_other = self._row_duration[rows]
            t_lo = np.maximum(0, t0 - d_other + 1)
            t_hi = min(self.T - 1, t0 + item.duration - 1)
            counts = t_hi - t_lo + 1
            total = int(counts.sum())
            steps = np.arange(total) - np.repeat(
                np.cumsum(counts) - counts, counts
            )
            ticks = np.repeat(t_lo, counts) + steps
            flat = ticks * self._hw + np.repeat(flat, counts)
            rows = np.repeat(rows, counts)
        bank = self.bank
        was_valid = bank[rows, flat]
        rows_hit = rows[was_valid]
        flat_hit = flat[was_valid]
        if rows_hit.size:
            bank[rows_hit, flat_hit] = False
            self._rev.bump()
            rev = self._rev

            def undo_mask(rows_hit=rows_hit, flat_hit=flat_hit) -> None:
                bank[rows_hit, flat_hit] = True
                rev.bump()

            engine.trail.push(undo_mask)

    def _prune(self, item: _BoolItem) -> bool:
        """Per-axis domain consistency for one unfixed module."""
        if self.bitboard:
            return self._prune_batched(item)
        union: Optional[np.ndarray] = None
        keep_shapes: List[int] = []
        for sid in item.s.domain:
            allowed = self._shape_allowed(item, sid)
            if allowed.any():
                keep_shapes.append(sid)
                union = allowed if union is None else (union | allowed)
        if union is None:
            raise Inconsistent(
                f"placement-kernel: {item.module.name} has no feasible anchor"
            )
        changed = item.s.set_domain(Domain(keep_shapes), cause=self)
        changed |= self._narrow_axes(item, union)
        # our own updates re-enter the dirty set through on_event (the
        # engine notifies self-caused events precisely so dirty-set
        # propagators see their own prunings), so a collapse to a full
        # placement is picked up by the same run and imprinted
        return changed

    def _narrow_axes(self, item: _BoolItem, union: np.ndarray) -> bool:
        """Project the anchor union onto each axis domain (x, y and t)."""
        if item.t is None:
            cols = Domain.from_bool_array(union.any(axis=0))
            rows = Domain.from_bool_array(union.any(axis=1))
        else:
            cols = Domain.from_bool_array(union.any(axis=(0, 1)))
            rows = Domain.from_bool_array(union.any(axis=(0, 2)))
        changed = item.x.set_domain(
            item.x.domain.intersect(cols), cause=self
        )
        changed |= item.y.set_domain(
            item.y.domain.intersect(rows), cause=self
        )
        if item.t is not None:
            ticks = Domain.from_bool_array(union.any(axis=(1, 2)))
            changed |= item.t.set_domain(
                item.t.domain.intersect(ticks), cause=self
            )
        return changed

    def _prune_batched(self, item: _BoolItem) -> bool:
        """:meth:`_prune` with all candidate shapes reduced in one pass.

        Same boolean algebra as the per-shape loop — per-shape feasibility
        is the row-wise ``any`` of the stacked (mask & domain) bank rows
        and the union is the ``any`` over feasible rows — so the resulting
        domains, error conditions and messages are identical.
        """
        sids = list(item.s.domain)
        row_ids = [self._row_of[item.index][sid] for sid in sids]
        col, row = self._axis_masks(item)
        axes = (row[:, None] & col[None, :]).reshape(-1)
        if item.t is not None:
            tmask = item.t.domain.to_bool_array(self.T)
            axes = (
                tmask[:, None, None]
                & row[None, :, None]
                & col[None, None, :]
            ).reshape(-1)
        sub = self.bank[row_ids] & axes[None, :]
        self.inc_stats.rows_tested += len(sids)
        feasible = sub.any(axis=1)
        keep_shapes = [sid for sid, ok in zip(sids, feasible) if ok]
        if not keep_shapes:
            raise Inconsistent(
                f"placement-kernel: {item.module.name} has no feasible anchor"
            )
        shape = (
            (self.H, self.W)
            if item.t is None
            else (self.T, self.H, self.W)
        )
        union = sub[feasible].any(axis=0).reshape(shape)
        changed = item.s.set_domain(Domain(keep_shapes), cause=self)
        changed |= self._narrow_axes(item, union)
        return changed

    # ------------------------------------------------------------------
    # Queries used by branching and reporting
    # ------------------------------------------------------------------
    def anchors_for(self, index: int) -> List[Tuple[int, int, int]]:
        """Feasible (shape, x, y) triples of one module, bottom-left first.

        Sorted by x, then y, then shape index — the value order that drives
        the min-extent objective fastest (Eq. 6 minimizes the x extent).
        """
        item = self.items[index]
        if item.t is not None:
            # temporal kernel: (shape, x, y, t) quadruples, earliest first
            quads: List[Tuple[int, int, int, int]] = []
            for sid in item.s.domain:
                ts_, ys, xs = np.nonzero(self._shape_allowed(item, sid))
                quads.extend(
                    (sid, int(x), int(y), int(t))
                    for x, y, t in zip(xs.tolist(), ys.tolist(), ts_.tolist())
                )
            quads.sort(key=lambda q: (q[3], q[1], q[2], q[0]))
            return quads
        out: List[Tuple[int, int, int]] = []
        for sid in item.s.domain:
            allowed = self._shape_allowed(item, sid)
            ys, xs = np.nonzero(allowed)
            out.extend(
                (sid, int(x), int(y)) for x, y in zip(xs.tolist(), ys.tolist())
            )
        out.sort(key=lambda t: (t[1], t[2], t[0]))
        return out

    def anchor_count(self, index: int) -> int:
        """Feasible anchors over all candidate shapes of one module.

        The fail-first branching heuristic asks this for every unfixed
        module at every node; in incremental mode the answer is cached and
        served as long as the mask bank (revision stamp) and all three
        domains (identity — Domains are immutable and restored by
        reference on backtrack, so holding them pins their ids) are the
        ones the entry was computed from.
        """
        item = self.items[index]
        xd, yd, sd = item.x.domain, item.y.domain, item.s.domain
        td = item.t.domain if item.t is not None else None
        if self.incremental:
            entry = self._count_cache.get(index)
            if (
                entry is not None
                and entry[0] == self._rev.current
                and entry[1] is xd
                and entry[2] is yd
                and entry[3] is sd
                and entry[5] is td
            ):
                self.inc_stats.reused += 1
                return entry[4]
        col, row = self._axis_masks(item)
        if item.t is not None:
            # temporal kernel: same boolean algebra as the batched prune,
            # summed instead of unioned (count_anchors is 2-D-specific)
            row_ids = [self._row_of[item.index][sid] for sid in sd]
            axes = (
                item.t.domain.to_bool_array(self.T)[:, None, None]
                & row[None, :, None]
                & col[None, None, :]
            ).reshape(-1)
            count = int((self.bank[row_ids] & axes[None, :]).sum())
            self.inc_stats.rows_tested += 1
        elif self.bitboard:
            row_ids = [self._row_of[item.index][sid] for sid in sd]
            stack = self.bank[row_ids].reshape(-1, self.H, self.W)
            count = int(count_anchors_batch(stack, col, row).sum())
            self.inc_stats.rows_tested += 1
        else:
            count = sum(
                count_anchors(
                    self.valid[item.index][sid].reshape(self.H, self.W),
                    col, row,
                )
                for sid in sd
            )
        if self.incremental:
            self._count_cache[index] = (
                self._rev.current, xd, yd, sd, count, td,
            )
        return count

    def anchor_mask(self, index: int, shape: int) -> np.ndarray:
        """One (module, shape)'s remaining anchors, ``(H, W)`` or
        ``(T, H, W)``: the word kernel's view of the same rows."""
        flat = self.valid[index][shape]
        if self.T is not None:
            return flat.reshape(self.T, self.H, self.W).copy()
        return flat.reshape(self.H, self.W).copy()

    def occupied_mask(self) -> np.ndarray:
        """(H, W) occupancy, or the (T, H, W) volume for temporal runs."""
        if self.T is not None:
            return self.occupancy.reshape(self.T, self.H, self.W).copy()
        return self.occupancy.reshape(self.H, self.W).copy()

    def placements(self) -> List[PlacedModule]:
        """The currently fixed modules as placement records."""
        out = []
        for item in self.items:
            if item.is_fixed():
                out.append(
                    PlacedModule(
                        item.module,
                        item.s.value(),
                        item.x.value(),
                        item.y.value(),
                        item.t.value() if item.t is not None else None,
                    )
                )
        return out


class WholesalePlacementKernel(PlacementKernel):
    """The placement kernel re-filtering every module on each wake-up.

    Dirties every module before each run and recomputes every anchor
    count: the wholesale oracle of the word kernel's dirty set and
    anchor-count cache.  The per-module filters are monotone, so both
    reach the same fixpoint and search trees are bit-identical.
    """

    def propagate(self, engine: Engine) -> None:
        self._dirty.update(range(len(self.items)))
        super().propagate(engine)

    def anchor_count(self, index: int) -> int:
        self._count_cache.clear()
        return super().anchor_count(index)


def placement_kernel(incremental: bool = True, bitboard: bool = True):
    """The placement kernel class of one oracle rung.

    ``bitboard=True`` is the packed-word
    :class:`~repro.geost.placement.PlacementKernel`
    (:class:`WholesalePlacementKernel` when not ``incremental``);
    ``bitboard=False`` the per-shape scalar path of the boolean-bank
    oracle :class:`BoolBankKernel`.
    """
    if bitboard:
        return PlacementKernel if incremental else WholesalePlacementKernel
    return functools.partial(
        BoolBankKernel, incremental=incremental, bitboard=False
    )


def build_kernel(
    m: Model,
    region: PartialRegion,
    modules: Sequence[Module],
    incremental: bool = True,
    bitboard: bool = True,
):
    """Post the :func:`placement_kernel` rung over fresh x/y/s variables;
    returns the kernel and the three variable lists."""
    xs = [m.int_var(0, region.width - 1, f"x{i}") for i in range(len(modules))]
    ys = [m.int_var(0, region.height - 1, f"y{i}") for i in range(len(modules))]
    ss = [
        m.int_var(0, mod.n_alternatives - 1, f"s{i}")
        for i, mod in enumerate(modules)
    ]
    kernel = placement_kernel(incremental, bitboard)(region, modules, xs, ys, ss)
    m.post(kernel)
    return kernel, xs, ys, ss


class SlowDecline:
    """An admission rule that sleeps ``pause_s`` seconds, then finds no
    anchor: the proof of no fit that ends the chain's sweep."""

    name = "slow-decline"
    pause_s = 0.02

    def __call__(self, words):
        time.sleep(self.pause_s)
        return None


class DownRung:
    """An admission rule that always raises, so the sweep falls through."""

    name = "down"

    def __call__(self, words):
        raise RuntimeError("rung down")


@contextmanager
def installed_rules(*rules) -> Iterator[None]:
    """Install each rule class, under its ``name``, into the runtime
    manager's rule table (:data:`repro.core.runtime.PICK_RULES`) inside
    this block."""
    from repro.core.runtime import PICK_RULES

    for rule in rules:
        PICK_RULES[rule.name] = rule()
    try:
        yield
    finally:
        for rule in rules:
            PICK_RULES.pop(rule.name, None)


def ledger_residual(ledger: Occupancy, blocked: np.ndarray) -> PartialRegion:
    """The ledger's region with the ``blocked`` cells carved out of its
    reconfigurable mask: the free region a runtime admission sees, on
    which the baseline placers and the CP placer are the oracles of the
    manager's pick rules."""
    region = ledger.region
    return PartialRegion(
        region.grid,
        region.reconfigurable & ~ledger.mask(blocked),
        f"{region.name}-residual",
    )


class LedgerProbe(NamedTuple):
    """One admission-rule probe of a runtime manager, as recorded by
    :func:`recorded_probes`."""

    #: the chain rule that answered
    rule: str
    module: Module
    #: the rule's answer (None = the proof of no fit)
    placement: Optional[Placement]
    #: the manager's ledger and the words the rule blocked; the ledger's
    #: static words never change, so the probe can be asked again
    ledger: Occupancy
    blocked: np.ndarray
    #: a reservation replan (its own booked cells free to it)
    replan: bool

    @property
    def region(self) -> PartialRegion:
        """The free region of the probe (:func:`ledger_residual`)."""
        return ledger_residual(self.ledger, self.blocked)


def recorded_probes(
    n_requests: int = 200,
    keep: Optional[int] = 60,
    seed: int = 0,
    chain: Sequence[str] = ("cp", "greedy"),
) -> List[LedgerProbe]:
    """The admission-rule probes an overloaded Table-I replay sends,
    reservation replans included: four shards, the given ``chain``,
    queue, reservations and no-break defrag (the ``serve-contended``
    profile); ``keep`` of them, evenly spaced (None: all)."""
    from repro.core.runtime import RuntimePlacementManager, generate_workload
    from repro.core.service import ShardedPlacementService
    from repro.experiments.config import default_fabric
    from repro.experiments.service_load import serving_config

    recorded = []
    pick = RuntimePlacementManager._pick

    def record(self, name, module, exclude):
        placement = pick(self, name, module, exclude)
        recorded.append(
            LedgerProbe(
                name,
                module,
                placement,
                self._ledger,
                self._blocked(exclude),
                exclude is not None,
            )
        )
        return placement

    RuntimePlacementManager._pick = record
    try:
        service = ShardedPlacementService(
            ShardedPlacementService.split(default_fabric(), 4),
            serving_config(
                chain=tuple(chain),
                defrag="no-break",
                reservation_horizon=16,
            ),
        )
        trace = generate_workload(
            n_requests, seed=seed, mean_interarrival=1, mean_lifetime=40
        )
        for request in sorted(trace, key=lambda r: r.arrival):
            service.submit(request)
        service.close()
    finally:
        RuntimePlacementManager._pick = pick
    if keep is None:
        return recorded
    return recorded[:: max(1, len(recorded) // keep)][:keep]


@contextmanager
def eager_clock() -> Iterator[None]:
    """Advance every runtime manager eagerly inside this block: its
    ``next_due()`` answers the clock itself, as if every tick had
    something due, so no ``advance_to`` takes the early return."""
    from repro.core.runtime import RuntimePlacementManager

    next_due = RuntimePlacementManager.next_due
    RuntimePlacementManager.next_due = lambda self: self.clock
    try:
        yield
    finally:
        RuntimePlacementManager.next_due = next_due


@contextmanager
def injected_kernel(factory) -> Iterator[None]:
    """Build every placement kernel with ``factory`` inside this block.

    :class:`~repro.core.placement_model.PlacementModel` and
    :class:`~repro.core.temporal.TemporalCPPlacer` construct their kernel
    through the module-level name ``PlacementKernel``; both are swapped,
    so the ``cp``, ``lns`` and in-process ``portfolio`` backends all solve
    on the injected kernel.  Only forked worker processes inherit the
    swap.
    """
    builders = (repro.core.placement_model, repro.core.temporal)
    previous = [builder.PlacementKernel for builder in builders]
    for builder in builders:
        builder.PlacementKernel = factory
    try:
        yield
    finally:
        for builder, original in zip(builders, previous):
            builder.PlacementKernel = original


@contextmanager
def kernel_mode(incremental: bool = True, bitboard: bool = True) -> Iterator[None]:
    """Run the solver stack on a chosen oracle rung of the placement kernel.

    The wholesale and boolean-bank oracles live only here: inside this
    block every placement kernel is the :func:`placement_kernel` rung
    (see :func:`injected_kernel`).
    """
    with injected_kernel(placement_kernel(incremental, bitboard)):
        yield


def kernel_solutions(
    region: PartialRegion, modules: Sequence[Module]
) -> SolutionSet:
    """All solutions of the vectorized placement kernel."""
    m = Model()
    try:
        _, xs, ys, ss = build_kernel(m, region, modules)
    except Inconsistent:
        return set()
    dv = []
    for x, y, s in zip(xs, ys, ss):
        dv.extend([x, y, s])
    return {
        tuple(
            (sol[f"s{i}"], sol[f"x{i}"], sol[f"y{i}"])
            for i in range(len(modules))
        )
        for sol in Solver(m, dv).enumerate()
    }


def brute_force_solutions(
    region: PartialRegion, modules: Sequence[Module]
) -> SolutionSet:
    """All (s, x, y) per module satisfying M_a, M_b, M_c — ground truth."""
    per_module = []
    for mod in modules:
        options = []
        for si, fp in enumerate(mod.shapes):
            mask = brute_force_anchor_mask(region, sorted(fp.cells))
            ys_, xs_ = np.nonzero(mask)
            options.extend(
                (si, int(x), int(y)) for x, y in zip(xs_, ys_)
            )
        per_module.append(options)
    out: SolutionSet = set()
    for combo in itertools.product(*per_module):
        cells = set()
        ok = True
        for mod, (si, x, y) in zip(modules, combo):
            for dx, dy, _ in mod.shapes[si].cells:
                c = (x + dx, y + dy)
                if c in cells:
                    ok = False
                    break
                cells.add(c)
            if not ok:
                break
        if ok:
            out.add(combo)
    return out


def fabric_to_forbidden_regions(region: PartialRegion, kinds):
    """Encode heterogeneity as resource-typed forbidden 1x1 regions.

    For every resource kind used by the modules, each cell that is NOT of
    that kind (or is static) forbids boxes of that kind; cells outside the
    fabric are excluded by a surrounding wall for all kinds.
    """
    out = []
    allowed = region.allowed_mask()
    grid = region.grid.cells
    H, W = region.height, region.width
    for kind in kinds:
        for y in range(H):
            for x in range(W):
                if not allowed[y, x] or grid[y, x] != int(kind):
                    out.append(
                        ForbiddenRegion(Box((x, y), (1, 1)), kind)
                    )
    # walls (block everything)
    out.append(ForbiddenRegion(Box((-100, -100), (100, 200 + W))))        # left
    out.append(ForbiddenRegion(Box((W, -100), (100, 200 + W))))           # right
    out.append(ForbiddenRegion(Box((-100, -100), (200 + W, 100))))        # below
    out.append(ForbiddenRegion(Box((-100, H), (200 + W, 100))))           # above
    return out


def geost_solutions(
    region: PartialRegion, modules: Sequence[Module]
) -> SolutionSet:
    """All solutions of the reference interval geost kernel."""
    return set(oracle_run(region, modules, GEOST).solutions)


# ----------------------------------------------------------------------
# The spatio-temporal reference placer
# ----------------------------------------------------------------------
def _extrude(fp: Footprint, duration: int) -> GeostShape:
    """Footprint -> 3-D shape: each vertical run becomes a (1, run, d) box."""
    flat = GeostShape.from_footprint(fp)
    return GeostShape(
        [
            ShiftedBox(
                (sb.offset[0], sb.offset[1], 0),
                (sb.size[0], sb.size[1], duration),
                sb.resource,
            )
            for sb in flat.boxes
        ]
    )


def _fabric_regions(
    region: PartialRegion, kinds: Sequence[ResourceType], horizon: int
) -> List[ForbiddenRegion]:
    """Heterogeneity as time-invariant resource-typed forbidden columns.

    Also emits the six boundary walls (untyped: they block every box),
    enforcing M_a for shapes whose extent would poke past the fabric —
    anchor-domain clamps alone cannot, because alternatives differ in size.
    """
    out: List[ForbiddenRegion] = []
    allowed = region.allowed_mask()
    grid = region.grid.cells
    for kind in kinds:
        for y in range(region.height):
            for x in range(region.width):
                if not allowed[y, x] or grid[y, x] != int(kind):
                    out.append(
                        ForbiddenRegion(
                            Box((x, y, 0), (1, 1, horizon)), kind
                        )
                    )
    W, H, T = region.width, region.height, horizon
    pad = max(W, H, T) + 2
    out.extend(
        [
            ForbiddenRegion(Box((-pad, -pad, -pad), (pad, 3 * pad, 3 * pad))),
            ForbiddenRegion(Box((W, -pad, -pad), (pad, 3 * pad, 3 * pad))),
            ForbiddenRegion(Box((-pad, -pad, -pad), (3 * pad, pad, 3 * pad))),
            ForbiddenRegion(Box((-pad, H, -pad), (3 * pad, pad, 3 * pad))),
            ForbiddenRegion(Box((-pad, -pad, -pad), (3 * pad, 3 * pad, pad))),
            ForbiddenRegion(Box((-pad, -pad, T), (3 * pad, 3 * pad, pad))),
        ]
    )
    return out


class TemporalPlacer:
    """Exact spatio-temporal placement on the reference geost kernel.

    The differential oracle of
    :class:`~repro.core.temporal.TemporalCPPlacer`: the same (x, y, t)
    model and search (makespan branch-and-bound, smallest domain first,
    min value), with every task one 3-D geost object whose shapes are its
    module's alternatives extruded over the duration
    (:func:`_extrude`) and the fabric as time-invariant resource-typed
    forbidden regions (:func:`_fabric_regions`).  Exact but slow: keep
    instances small.
    """

    def __init__(self, horizon: int, time_limit: Optional[float] = 30.0) -> None:
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        self.horizon = horizon
        self.time_limit = time_limit

    def place(
        self,
        region: PartialRegion,
        tasks: Sequence[TemporalTask],
        precedences: Sequence[Tuple[int, int]] = (),
    ) -> TemporalResult:
        _validate_temporal(tasks, precedences)
        start_time = time.monotonic()
        m = Model()
        # deduping table: tasks sharing a module (same footprints, same
        # duration) share shape ids instead of registering copies
        table = ShapeTable(dedupe=True)
        objects: List[GeostObject] = []
        #: per-task shape-id lists — the ONLY valid way to decode a shape
        #: choice back to a module alternative index (ids are shared and
        #: need not form contiguous per-task blocks)
        task_sids: List[List[int]] = []
        ends = []
        dv = []
        kinds = sorted(
            {
                k
                for task in tasks
                for fp in task.module.shapes
                for _, _, k in fp.cells
            }
        )
        try:
            for i, task in enumerate(tasks):
                sids = [
                    table.add(_extrude(fp, task.duration))
                    for fp in task.module.shapes
                ]
                task_sids.append(sids)
                x = m.int_var(0, max(0, region.width - 1), f"x{i}")
                y = m.int_var(0, max(0, region.height - 1), f"y{i}")
                t = m.int_var(0, self.horizon - task.duration, f"t{i}")
                # exactly the task's shape ids — shared ids leave holes,
                # so a [min, max] interval would admit foreign shapes
                s = m.int_var_from(sorted(set(sids)), f"s{i}")
                objects.append(GeostObject(i, [x, y, t], s, table))
                end = m.int_var(task.duration, self.horizon, f"end{i}")
                m.add_eq(end, t, task.duration)  # end == t + duration
                ends.append(end)
                dv.extend([t, x, y, s])
            for a, b in precedences:
                # t_a + d_a <= t_b
                m.add_le(objects[a].origin[2], objects[b].origin[2],
                         tasks[a].duration)
            fabric = _fabric_regions(region, kinds, self.horizon)
            m.post(Geost(objects, fabric))
            makespan = m.int_var(0, self.horizon, "makespan")
            m.add_max(makespan, ends)
        except Inconsistent:
            return TemporalResult(
                region, status="infeasible",
                elapsed=time.monotonic() - start_time,
            )

        bnb = BranchAndBound(
            m.engine,
            Objective.minimize(makespan),
            dv,
            var_select=smallest_domain,
            val_select=min_value,
            limit=SearchLimit(time_seconds=self.time_limit),
        )
        res = bnb.run()
        elapsed = time.monotonic() - start_time
        if res.best is None:
            status = "infeasible" if res.proved_optimal else "unknown"
            return TemporalResult(region, status=status, elapsed=elapsed)
        sol = res.best
        # decode via each task's own sid list: offset arithmetic breaks as
        # soon as the table dedupes or ids are non-contiguous
        schedule = [
            ScheduledTask(
                task=task,
                shape_index=task_sids[i].index(sol[f"s{i}"]),
                x=sol[f"x{i}"],
                y=sol[f"y{i}"],
                start=sol[f"t{i}"],
            )
            for i, task in enumerate(tasks)
        ]
        return TemporalResult(
            region,
            schedule=schedule,
            makespan=res.objective,
            status="optimal" if res.proved_optimal else "feasible",
            elapsed=elapsed,
        )


# ----------------------------------------------------------------------
# Random small instances for differential testing
# ----------------------------------------------------------------------
_FOOTPRINT_POOL: List[Footprint] = [
    Footprint.rectangle(1, 1),
    Footprint.rectangle(2, 1),
    Footprint.rectangle(1, 2),
    Footprint.rectangle(2, 2),
    Footprint([(0, 0, ResourceType.BRAM)]),
    Footprint([(0, 0, ResourceType.CLB), (1, 1, ResourceType.CLB)]),
    Footprint([(0, 0, ResourceType.CLB), (1, 0, ResourceType.BRAM)]),
    Footprint([(0, 0, ResourceType.CLB), (0, 1, ResourceType.CLB),
               (1, 1, ResourceType.CLB)]),
]


def random_small_instance(seed: int):
    """A random small heterogeneous instance: (region, modules).

    Small enough for exhaustive enumeration by all three implementations
    (a 4x3 fabric, 1–2 modules, each with 1–2 shape alternatives drawn
    from a fixed footprint pool), varied enough to exercise resource
    matching, static cells and polymorphism.
    """
    rng = random.Random(seed)
    region = PartialRegion.whole_device(
        irregular_device(
            4, 3, seed=rng.randrange(1 << 16), bram_stride=3, jitter=1,
            clk_rows=0, io_edges=False,
        )
    )
    modules = []
    for i in range(rng.randint(1, 2)):
        shapes = rng.sample(_FOOTPRINT_POOL, rng.randint(1, 2))
        modules.append(Module(f"m{i}", shapes))
    return region, modules


def random_dense_instance(seed: int):
    """A dense homogeneous instance: modules demand most of the fabric.

    Three rectangle modules totalling 8–11 cells on a 4x3 (12-cell) CLB
    grid, so almost every placement decision collides with compulsory
    parts of the others — the regime where non-overlap filtering (and the
    sweep it is built on) does all the work.
    """
    rng = random.Random(seed ^ 0x5EED)
    region = PartialRegion.whole_device(homogeneous_device(4, 3))
    sizes = [(2, 2), (2, 1), (1, 2), (3, 1), (1, 3)]
    modules = []
    for i in range(3):
        w, h = rng.choice(sizes)
        shapes = [Footprint.rectangle(w, h)]
        if w != h and rng.random() < 0.5:
            shapes.append(Footprint.rectangle(h, w))
        modules.append(Module(f"d{i}", shapes))
    return region, modules


def random_alt_heavy_instance(seed: int):
    """A shape-alternative-heavy instance: few modules, many alternatives.

    1–2 modules with 3–4 alternatives each on a 4x4 irregular fabric —
    the design-alternative regime of the paper, exercising shape-variable
    filtering (per-shape feasibility, shape removal ordering) much harder
    than the sparse generator.
    """
    rng = random.Random(seed ^ 0xA17)
    region = PartialRegion.whole_device(
        irregular_device(
            4, 4, seed=rng.randrange(1 << 16), bram_stride=3, jitter=1,
            clk_rows=0, io_edges=False,
        )
    )
    modules = []
    for i in range(rng.randint(1, 2)):
        shapes = rng.sample(_FOOTPRINT_POOL, rng.randint(3, 4))
        modules.append(Module(f"a{i}", shapes))
    return region, modules


def _walls_3d(w: int, h: int, d: int) -> List[ForbiddenRegion]:
    """All-blocking slabs enclosing the box ``[0,w) x [0,h) x [0,d)``."""
    m = 10  # margin: thicker than any shape, wider than any anchor range
    span = (w + 2 * m, h + 2 * m, d + 2 * m)
    out = []
    for axis, limit in enumerate((w, h, d)):
        lo = [-m, -m, -m]
        size_below = list(span)
        size_below[axis] = m
        out.append(ForbiddenRegion(Box(tuple(lo), tuple(size_below))))
        hi = [-m, -m, -m]
        hi[axis] = limit
        size_above = list(span)
        size_above[axis] = m
        out.append(ForbiddenRegion(Box(tuple(hi), tuple(size_above))))
    return out


def random_geost3d_instance(seed: int):
    """A random 3-D pure-geost instance: (dims, per-object shapes, regions).

    1–2 objects inside a 3x3x2 grid, each with 1–2 alternatives that are
    either solid boxes or two-box L-shapes (exercising multi-shifted-box
    shapes), plus enclosing walls and sometimes one blocked interior
    cell.  Returned as plain data so every oracle config builds its own
    model from it.
    """
    rng = random.Random(seed ^ 0x3D)
    dims = (3, 3, 2)
    objs: List[List[List[ShiftedBox]]] = []
    for _ in range(rng.randint(1, 2)):
        alts: List[List[ShiftedBox]] = []
        for _ in range(rng.randint(1, 2)):
            size = tuple(rng.randint(1, 2) for _ in range(3))
            boxes = [ShiftedBox((0, 0, 0), size)]
            if rng.random() < 0.3:
                # L-extension: one extra unit box stuck to the base box
                axis = rng.randrange(3)
                off = [0, 0, 0]
                off[axis] = size[axis]
                boxes.append(ShiftedBox(tuple(off), (1, 1, 1)))
            alts.append(boxes)
        objs.append(alts)
    regions = _walls_3d(*dims)
    if rng.random() < 0.5:
        cell = tuple(rng.randrange(limit) for limit in dims)
        regions.append(ForbiddenRegion(Box(cell, (1, 1, 1))))
    return dims, objs, regions


def brute_force_3d_solutions(instance) -> frozenset:
    """All solutions of a :func:`random_geost3d_instance`, by enumeration.

    Every object takes one of its alternatives at an origin inside the
    grid; no shifted box may meet a forbidden region that blocks it, and
    no two objects' boxes may meet.  Solutions are flat
    ``(x, y, z, shape id)`` tuples over the objects, shape ids numbered
    as :func:`oracle_run_3d` registers them.
    """
    dims, objs, regions = instance
    per_object = []
    sid = 0
    for alts in objs:
        options = []
        for boxes in alts:
            for origin in itertools.product(*(range(d) for d in dims)):
                placed = [sb.at(origin) for sb in boxes]
                if not any(
                    region.blocks(sb) and box.intersects(region.box)
                    for sb, box in zip(boxes, placed)
                    for region in regions
                ):
                    options.append((origin + (sid,), placed))
            sid += 1
        per_object.append(options)
    out = set()
    for combo in itertools.product(*per_object):
        if all(
            not a.intersects(b)
            for (_, boxes_i), (_, boxes_j) in itertools.combinations(combo, 2)
            for a in boxes_i
            for b in boxes_j
        ):
            out.add(tuple(v for key, _ in combo for v in key))
    return frozenset(out)


# ----------------------------------------------------------------------
# Cross-kernel differential oracle harness
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class OracleConfig:
    """One rung of the oracle ladder: kernel × incremental × bitboard.

    For the ``"placement"`` kernel ``bitboard`` picks the representation
    and ``incremental`` the propagation (:func:`placement_kernel`): the
    packed-word production kernel or its wholesale subclass, or the
    boolean-bank oracle's per-shape path.  The ``"geost"`` reference
    kernel has one mode and ignores both switches.
    """

    #: "placement" (2-D kernel) or "geost" (reference k-D kernel)
    kernel: str = "placement"
    incremental: bool = True
    bitboard: bool = True

    def label(self) -> str:
        if self.kernel == "geost":
            return "geost"
        return (
            f"{self.kernel}"
            f"[{'inc' if self.incremental else 'wholesale'},"
            f"{'bitboard' if self.bitboard else 'scalar'}]"
        )


#: canonical ladder rungs, weakest oracle first
SCALAR_ORACLE = OracleConfig(incremental=False, bitboard=False)
INCREMENTAL_SCALAR = OracleConfig(incremental=True, bitboard=False)
BITBOARD = OracleConfig(incremental=True, bitboard=True)
#: the reference interval kernel
GEOST = OracleConfig("geost")

#: field order of :attr:`OracleRun.fingerprint`
FINGERPRINT_KEYS = (
    "nodes", "backtracks", "solutions", "max_depth",
    "failures", "propagations", "domain_updates",
)


@dataclass
class OracleRun:
    """One enumeration under one config: what bit-identity compares."""

    solutions: frozenset
    fingerprint: Tuple
    inc_stats: Optional[IncStats]


def _enumerate(m: Model, dv, decode) -> OracleRun:
    """DFS-enumerate a posted model; shared tail of every oracle run."""
    search = DepthFirstSearch(m.engine, dv)
    sols = frozenset(decode(sol) for sol in search.all_solutions())
    st = search.stats
    es = m.engine.stats
    return OracleRun(
        sols,
        (
            st.nodes, st.backtracks, st.solutions, st.max_depth,
            es.failures, es.propagations, es.domain_updates,
        ),
        None,
    )


_ROOT_INFEASIBLE = ("root-infeasible",)


def oracle_run(region, modules, config: OracleConfig) -> OracleRun:
    """Enumerate one 2-D instance under one oracle config."""
    if config.kernel == "placement":
        m = Model()
        try:
            kernel, xs, ys, ss = build_kernel(
                m, region, modules,
                incremental=config.incremental, bitboard=config.bitboard,
            )
        except Inconsistent:
            return OracleRun(frozenset(), _ROOT_INFEASIBLE, None)
        dv = []
        for x, y, s in zip(xs, ys, ss):
            dv.extend([x, y, s])

        def decode(sol, n=len(modules)):
            return tuple(
                (sol[f"s{i}"], sol[f"x{i}"], sol[f"y{i}"]) for i in range(n)
            )

        run = _enumerate(m, dv, decode)
        run.inc_stats = kernel.inc_stats
        return run
    if config.kernel != "geost":
        raise ValueError(f"unknown oracle kernel {config.kernel!r}")
    kinds = {
        k for mod in modules for fp in mod.shapes for _, _, k in fp.cells
    }
    regions = fabric_to_forbidden_regions(region, kinds)
    m = Model()
    table = ShapeTable()
    objects = []
    dv = []
    sid_offsets = []
    offset = 0
    for i, mod in enumerate(modules):
        sids = [table.add_footprint(fp) for fp in mod.shapes]
        x = m.int_var(0, region.width - 1, f"x{i}")
        y = m.int_var(0, region.height - 1, f"y{i}")
        s = m.int_var(min(sids), max(sids), f"s{i}")
        objects.append(GeostObject(i, [x, y], s, table))
        dv.extend([x, y, s])
        sid_offsets.append(offset)
        offset += mod.n_alternatives
    try:
        m.post(Geost(objects, regions))
    except Inconsistent:
        return OracleRun(frozenset(), _ROOT_INFEASIBLE, None)

    def decode(sol, n=len(modules), offs=tuple(sid_offsets)):
        return tuple(
            (sol[f"s{i}"] - offs[i], sol[f"x{i}"], sol[f"y{i}"])
            for i in range(n)
        )

    return _enumerate(m, dv, decode)


def oracle_run_3d(instance, config: OracleConfig) -> OracleRun:
    """Enumerate one 3-D pure-geost instance on the reference kernel.

    Only the reference kernel speaks k-D, so ``config.kernel`` must be
    ``"geost"``.  Solutions are the ``(x, y, z, shape id)`` of every
    object, in order (see :func:`brute_force_3d_solutions`).
    """
    if config.kernel != "geost":
        raise ValueError("3-D instances only run on the reference kernel")
    dims, objs, regions = instance
    m = Model()
    table = ShapeTable()
    objects = []
    dv = []
    for i, alts in enumerate(objs):
        sids = [table.add(GeostShape(boxes)) for boxes in alts]
        origin = [
            m.int_var(0, limit - 1, f"{axis}{i}")
            for axis, limit in zip("xyz", dims)
        ]
        s = m.int_var(min(sids), max(sids), f"s{i}")
        objects.append(GeostObject(i, origin, s, table))
        dv.extend(origin)
        dv.append(s)
    try:
        m.post(Geost(objects, regions))
    except Inconsistent:
        return OracleRun(frozenset(), _ROOT_INFEASIBLE, None)

    def decode(sol, names=tuple(v.name for v in dv)):
        return tuple(sol[name] for name in names)

    return _enumerate(m, dv, decode)


def check_profile_invariants(run: OracleRun, config: OracleConfig) -> None:
    """Per-config counter invariants — catches silently-degraded modes."""
    inc = run.inc_stats
    if inc is None:  # reference kernel, or root-infeasible before post
        return
    for name, value in inc.as_dict().items():
        assert value >= 0, f"{config.label()}: counter {name} negative"
    if not config.bitboard:
        assert inc.rows_tested == 0, (
            f"{config.label()}: scalar mode reported vectorized row scans"
        )
    if not config.incremental:
        # the wholesale kernels share the filter loop (dirty) and imprint
        # path (rasterized); only cache reuse is incremental-only
        assert inc.reused == 0, (
            f"{config.label()}: wholesale mode reported cache reuse"
        )


def assert_bit_identical(
    region_or_instance,
    config_a: OracleConfig,
    config_b: OracleConfig,
    modules=None,
    context: str = "",
) -> Tuple[OracleRun, OracleRun]:
    """Run one instance under two configs and assert bit-identity.

    2-D instances pass ``(region, config_a, config_b, modules=modules)``;
    3-D pure-geost instances pass the instance tuple with
    ``modules=None``.  Returns both runs so callers can stack further
    assertions (e.g. ground-truth comparison, row-scan engagement).
    """
    if modules is not None:
        run_a = oracle_run(region_or_instance, modules, config_a)
        run_b = oracle_run(region_or_instance, modules, config_b)
    else:
        run_a = oracle_run_3d(region_or_instance, config_a)
        run_b = oracle_run_3d(region_or_instance, config_b)
    where = f" [{context}]" if context else ""
    assert run_a.solutions == run_b.solutions, (
        f"{config_a.label()} vs {config_b.label()}{where}: "
        f"solution sets differ "
        f"(only-a={sorted(run_a.solutions - run_b.solutions)[:3]}, "
        f"only-b={sorted(run_b.solutions - run_a.solutions)[:3]})"
    )
    assert run_a.fingerprint == run_b.fingerprint, (
        f"{config_a.label()} vs {config_b.label()}{where}: "
        f"search trees differ\n"
        f"  a: {dict(zip(FINGERPRINT_KEYS, run_a.fingerprint))}\n"
        f"  b: {dict(zip(FINGERPRINT_KEYS, run_b.fingerprint))}"
    )
    check_profile_invariants(run_a, config_a)
    check_profile_invariants(run_b, config_b)
    return run_a, run_b
