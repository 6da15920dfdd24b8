"""Shared helpers for the test suite.

The geost cross-validation machinery lived as near-identical copies in
``tests/geost/test_cross_validation.py`` and
``tests/geost/test_placement_kernel.py``; it is consolidated here because
the differential harness (many random instances, three independent
implementations of the paper's constraint) is now used by several files.

The occupancy oracles live here as well: :func:`per_cell_occupancy_mask`
and :func:`per_cell_relocation_sites` rebuild a floorplan one cell at a
time, as the code did before occupancy became a maintained grid, and
:class:`BoolGridLedger` keeps the free-space ledger's state in per-cell
boolean grids, the differential oracle of
:class:`repro.core.occupancy.Occupancy`.

Three anchor-mask oracles for the packed column-word kernel
(:func:`repro.fabric.masks.anchor_words`, unpacked by
:func:`repro.fabric.masks.valid_anchor_mask`) live here too:
:func:`brute_force_anchor_mask` (a per-anchor, per-cell loop),
:func:`slice_and_anchor_mask` (an earlier vectorized kernel, one shifted
slice-AND per footprint cell) and :func:`prefix_count_anchor_mask` (the
kernel the words replaced, one prefix-count subtraction per vertical run
over :func:`blocked_prefix_counts`).  The two mask queries have theirs:
:func:`lexsort_first_anchor` (the ``nonzero`` + ``lexsort`` pick each
placer used to hand-roll) for :func:`repro.fabric.masks.first_anchor`, and
:func:`cell_table_free_anchors` (the baseline state's gather over its own
``int64`` offset table) for :func:`repro.fabric.masks.free_anchors`.

:func:`full_cp_model` is the oracle switch of the CP placer's one-module
closed form: inside it every request builds the full model and searches.

Three ways to enumerate the solutions of one placement instance:

* :func:`brute_force_solutions` — literal M_a ∧ M_b ∧ M_c from the
  per-shape anchor masks, the ground truth;
* :func:`kernel_solutions` — search over the vectorized
  :class:`~repro.geost.placement.PlacementKernel`;
* :func:`geost_solutions` — search over the reference interval
  :class:`~repro.geost.kernel.Geost` with heterogeneity encoded as
  resource-typed forbidden regions.

All three return sets of per-module ``(shape, x, y)`` tuples, so equality
is a complete cross-check of the solution *sets*, not just counts.

On top of those, the **cross-kernel differential-oracle harness** runs
any pair of :class:`OracleConfig` settings — kernel (``placement`` /
``geost``) × ``incremental`` × ``bitboard`` — over seeded instance
generators and asserts *bit-identical* behavior: equal solution sets,
equal search-tree fingerprints (nodes, backtracks, solutions, depth,
failures, propagations, domain updates) and the per-config profile
invariants (e.g. a scalar run must report zero vectorized row scans).
Instance generators cover sparse (:func:`random_small_instance`), dense
(:func:`random_dense_instance`), shape-alternative-heavy
(:func:`random_alt_heavy_instance`) and 3-D pure-geost
(:func:`random_geost3d_instance`) regimes.
"""

from __future__ import annotations

import functools
import itertools
import random
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

import repro.core.placement_model
import repro.core.placer
import repro.core.temporal
from repro.core.placer import CPPlacer
from repro.core.relocation import RelocationSite
from repro.core.result import Placement, PlacementResult
from repro.cp.engine import Inconsistent
from repro.cp.model import Model
from repro.cp.search import DepthFirstSearch
from repro.cp.solver import Solver
from repro.fabric.devices import homogeneous_device, irregular_device
from repro.fabric.masks import (
    column_words,
    compatibility_masks,
    valid_anchor_mask,
)
from repro.fabric.region import PartialRegion
from repro.fabric.resource import ResourceType
from repro.geost.boxes import Box, ShiftedBox
from repro.geost.forbidden import ForbiddenRegion
from repro.geost.incremental import IncStats
from repro.geost.kernel import Geost
from repro.geost.objects import GeostObject
from repro.geost.placement import PlacementKernel
from repro.geost.shapes import GeostShape, ShapeTable
from repro.modules.footprint import Footprint
from repro.modules.module import Module

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


def cell_table_free_anchors(
    static: np.ndarray, footprint: Footprint, occupied: np.ndarray
) -> np.ndarray:
    """Anchors of ``static`` free of ``occupied``: the baseline state's
    gather before ``free_anchors``, over an ``int64`` ``(dy, dx)`` offset
    table built from the footprint's cells."""
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
    region = result.region
    free = per_cell_free_mask_excluding(result, placement)
    sub_region = PartialRegion(region.grid, free & region.reconfigurable)
    shapes = (
        list(enumerate(placement.module.shapes))
        if consider_alternatives
        else [(placement.shape_index, placement.footprint)]
    )
    words = column_words(sub_region)
    masks = [
        (sid, valid_anchor_mask(sub_region, fp, words)) for sid, fp in shapes
    ]
    sites: List[RelocationSite] = []
    for sid, mask in masks:
        ys, xs = np.nonzero(mask)
        sites.extend(
            RelocationSite(sid, int(x), int(y))
            for x, y in zip(xs.tolist(), ys.tolist())
        )
    return sites


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


def build_kernel(
    m: Model,
    region: PartialRegion,
    modules: Sequence[Module],
    incremental: bool = True,
    bitboard: bool = True,
):
    """Post a PlacementKernel over fresh x/y/s variables; returns all four."""
    xs = [m.int_var(0, region.width - 1, f"x{i}") for i in range(len(modules))]
    ys = [m.int_var(0, region.height - 1, f"y{i}") for i in range(len(modules))]
    ss = [
        m.int_var(0, mod.n_alternatives - 1, f"s{i}")
        for i, mod in enumerate(modules)
    ]
    kernel = PlacementKernel(region, modules, xs, ys, ss,
                             incremental=incremental, bitboard=bitboard)
    m.post(kernel)
    return kernel, xs, ys, ss


@contextmanager
def full_cp_model() -> Iterator[None]:
    """Run every one-module CP request through the full model and search.

    :class:`~repro.core.placer.CPPlacer` answers one-module,
    first-solution, min-extent requests in closed form (the bottom-left
    pick over the shapes' masks) when
    :func:`repro.core.placer.closed_form_applies` says so.  Inside this
    block that predicate is always False, so the request builds the
    :class:`~repro.core.placement_model.PlacementModel` and dives, the
    oracle the closed form is checked against.  Only forked worker
    processes inherit the swap.
    """
    previous = repro.core.placer.closed_form_applies
    repro.core.placer.closed_form_applies = lambda *args: False
    try:
        yield
    finally:
        repro.core.placer.closed_form_applies = previous


def recorded_cp_probes(
    n_requests: int = 200, keep: int = 60, seed: int = 0
) -> List[Tuple[PartialRegion, Module]]:
    """``(region, module)`` of the one-module CP probes an overloaded
    Table-I replay sends: four shards, the ``("cp", "greedy")`` chain,
    queue, reservations and no-break defrag (the ``serve-contended``
    profile); ``keep`` of them, evenly spaced."""
    from repro.core.runtime import generate_workload
    from repro.core.service import ShardedPlacementService
    from repro.experiments.config import default_fabric
    from repro.experiments.service_load import serving_config

    recorded = []
    place = CPPlacer.place

    def record(self, region, modules):
        if repro.core.placer.closed_form_applies(self.config, modules, None):
            recorded.append((region, modules[0]))
        return place(self, region, modules)

    CPPlacer.place = record
    try:
        service = ShardedPlacementService(
            ShardedPlacementService.split(default_fabric(), 4),
            serving_config(
                chain=("cp", "greedy"),
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
        CPPlacer.place = place
    return recorded[:: max(1, len(recorded) // keep)][:keep]


@contextmanager
def kernel_mode(incremental: bool = True, bitboard: bool = True) -> Iterator[None]:
    """Run the solver stack on a chosen oracle rung of the placement kernel.

    The ``incremental``/``bitboard`` switches exist only on the kernel
    constructors; inside this block every placement kernel that
    :class:`~repro.core.placement_model.PlacementModel` and
    :class:`~repro.core.temporal.TemporalCPPlacer` build is the
    ``functools.partial`` with those switches, so the ``cp``, ``lns`` and
    in-process ``portfolio`` backends all solve on that rung.  Only
    forked worker processes inherit the swap.
    """
    kernel = functools.partial(
        PlacementKernel, incremental=incremental, bitboard=bitboard
    )
    builders = (repro.core.placement_model, repro.core.temporal)
    previous = [builder.PlacementKernel for builder in builders]
    for builder in builders:
        builder.PlacementKernel = kernel
    try:
        yield
    finally:
        for builder, original in zip(builders, previous):
            builder.PlacementKernel = original


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
    kinds = {
        k for mod in modules for fp in mod.shapes for _, _, k in fp.cells
    }
    regions = fabric_to_forbidden_regions(region, kinds)
    m = Model()
    table = ShapeTable()
    objects = []
    dv = []
    for i, mod in enumerate(modules):
        sids = [table.add_footprint(fp) for fp in mod.shapes]
        x = m.int_var(0, region.width - 1, f"x{i}")
        y = m.int_var(0, region.height - 1, f"y{i}")
        s = m.int_var(min(sids), max(sids), f"s{i}")
        objects.append(GeostObject(i, [x, y], s, table))
        dv.extend([x, y, s])
    try:
        m.post(Geost(objects, regions))
    except Inconsistent:
        return set()
    sols = Solver(m, dv).enumerate()
    out: SolutionSet = set()
    for sol in sols:
        key = []
        offset = 0
        for i, mod in enumerate(modules):
            key.append((sol[f"s{i}"] - offset, sol[f"x{i}"], sol[f"y{i}"]))
            offset += mod.n_alternatives
        out.add(tuple(key))
    return out


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


# ----------------------------------------------------------------------
# Cross-kernel differential oracle harness
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class OracleConfig:
    """One rung of the oracle ladder: kernel × incremental × bitboard."""

    #: "placement" (vectorized 2-D kernel) or "geost" (reference k-D kernel)
    kernel: str = "placement"
    incremental: bool = True
    bitboard: bool = True

    def label(self) -> str:
        return (
            f"{self.kernel}"
            f"[{'inc' if self.incremental else 'wholesale'},"
            f"{'bitboard' if self.bitboard else 'scalar'}]"
        )


#: canonical ladder rungs, weakest oracle first
SCALAR_ORACLE = OracleConfig(incremental=False, bitboard=False)
INCREMENTAL_SCALAR = OracleConfig(incremental=True, bitboard=False)
BITBOARD = OracleConfig(incremental=True, bitboard=True)

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
        geost = Geost(
            objects, regions,
            incremental=config.incremental, bitboard=config.bitboard,
        )
        m.post(geost)
    except Inconsistent:
        return OracleRun(frozenset(), _ROOT_INFEASIBLE, None)

    def decode(sol, n=len(modules), offs=tuple(sid_offsets)):
        return tuple(
            (sol[f"s{i}"] - offs[i], sol[f"x{i}"], sol[f"y{i}"])
            for i in range(n)
        )

    run = _enumerate(m, dv, decode)
    run.inc_stats = geost.inc_stats
    return run


def oracle_run_3d(instance, config: OracleConfig) -> OracleRun:
    """Enumerate one 3-D pure-geost instance under one oracle config.

    Only the reference kernel speaks k-D, so ``config.kernel`` must be
    ``"geost"``; incremental/bitboard apply as usual.
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
        geost = Geost(
            objects, regions,
            incremental=config.incremental, bitboard=config.bitboard,
        )
        m.post(geost)
    except Inconsistent:
        return OracleRun(frozenset(), _ROOT_INFEASIBLE, None)

    def decode(sol, names=tuple(v.name for v in dv)):
        return tuple(sol[name] for name in names)

    run = _enumerate(m, dv, decode)
    run.inc_stats = geost.inc_stats
    return run


def check_profile_invariants(run: OracleRun, config: OracleConfig) -> None:
    """Per-config counter invariants — catches silently-degraded modes."""
    inc = run.inc_stats
    if inc is None:  # root-infeasible before post finished
        return
    for name, value in inc.as_dict().items():
        assert value >= 0, f"{config.label()}: counter {name} negative"
    if not config.bitboard:
        assert inc.rows_tested == 0, (
            f"{config.label()}: scalar mode reported vectorized row scans"
        )
        assert inc.fallbacks == 0, (
            f"{config.label()}: scalar mode reported bitboard fallbacks"
        )
    if not config.incremental:
        # the placement kernel shares its filter loop (dirty) and imprint
        # path (rasterized) across modes; only cache reuse is incremental-only
        assert inc.reused == 0, (
            f"{config.label()}: wholesale mode reported cache reuse"
        )
        if config.kernel == "geost":
            assert inc.dirty == 0 and inc.rasterized == 0, (
                f"{config.label()}: wholesale mode reported incremental work"
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
