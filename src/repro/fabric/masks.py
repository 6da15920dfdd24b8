"""Vectorized valid-anchor computation and cross-correlation machinery.

This realizes constraints M_a and M_b of the paper (Eqs. 2-3) as array
algebra: an anchor position ``(x, y)`` is valid for a footprint iff every
footprint cell ``(dx, dy, k)`` lands on an available tile of resource type
``k``.  The test runs one footprint *column run* at a time rather than one
cell at a time:

* a footprint decomposes into maximal vertical runs ``(dx, dy0, length,
  kind)`` of same-kind cells (:func:`vertical_runs`) — generated module
  shapes are a handful of full-height columns, so a footprint of ~60
  cells is ~6 runs;
* a region provides, per resource kind, the column-wise prefix count of
  cells a tile of that kind may *not* use (:func:`blocked_prefix_counts`,
  ``cum_k = cumsum(~compat_k, axis=0)`` with a leading zero row);
* an anchor passes a run iff the run's column span holds no blocked cell,
  ``cum_k[y + dy0 + length, x + dx] == cum_k[y + dy0, x + dx]`` — one
  slice subtraction over every anchor at once, evaluated on NumPy views
  (no copies of the fabric are made) and OR-accumulated across the runs.

Anchors whose bounding box leaves the grid are invalid.  Footprint cells
must be normalized so ``min dx == min dy == 0``; anchors are then the
footprint's lower-left bounding-box corner.

Three queries read finished masks: :func:`free_anchors` drops the
anchors whose cells an occupancy grid already holds, :func:`first_anchor`
returns the bottom-left survivor of one mask, and :func:`bottom_left_pick`
the bottom-left ``(x, y, shape)`` over one module's per-shape masks.  The
baseline placers, the CP placer's one-module closed form, the runtime
manager's reservation probe and Figure 4 all pick anchors through them.

The module also hosts the shared sliding-window correlation kernels the
geost bitboard sweep batches through:

* :func:`integral_occupancy` — a k-dimensional summed-area table of a
  boolean occupancy plane, and
* :func:`sliding_box_counts` — occupied-cell counts under a fixed-size
  box anchored at every point of an anchor lattice, evaluated as ``2k``
  clipped slice-subtractions of the table (a box cross-correlation in
  O(lattice) per box, independent of box size), plus
* :func:`count_anchors_batch` — the per-shape fail-first anchor counting
  of :func:`count_anchors` over a whole stack of validity masks at once.

An FFT evaluation of the same correlations was considered and rejected:
at the paper's fabric sizes (≤ a few thousand cells) the integral-image
form is already memory-bound and beats ``rfftn`` round-trips by an order
of magnitude, so no size-thresholded FFT path is wired in.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Sequence, Tuple, Union

import numpy as np

from repro.fabric.grid import FabricGrid
from repro.fabric.region import PartialRegion
from repro.fabric.resource import ResourceType

if TYPE_CHECKING:  # avoid a fabric -> modules import at runtime
    from repro.modules.footprint import Footprint

#: (dx, dy, kind) relative cell of a footprint
Cell = Tuple[int, int, ResourceType]
#: (dx, dy0, length, kind) maximal vertical same-kind run of a footprint
Run = Tuple[int, int, int, ResourceType]


def compatibility_masks(region: PartialRegion) -> Dict[ResourceType, np.ndarray]:
    """Per-resource boolean maps of cells a module tile of that type may use."""
    allowed = region.allowed_mask()
    out: Dict[ResourceType, np.ndarray] = {}
    for kind in ResourceType:
        if kind is ResourceType.UNAVAILABLE:
            continue
        out[kind] = region.grid.resource_mask(kind) & allowed
    return out


def blocked_prefix_counts(region: PartialRegion) -> np.ndarray:
    """Column-wise prefix counts of the cells each resource kind cannot use.

    Returns a ``(K, H + 1, W)`` array indexed by ``int(kind)`` for every
    placeable kind: ``out[k, y, x]`` is the number of cells in column
    ``x`` below row ``y`` that a module tile of kind ``k`` may not occupy
    (another resource type, static, or unavailable).  Row 0 is zero, so a
    half-open column span ``[y0, y1)`` is free for kind ``k`` iff
    ``out[k, y1, x] == out[k, y0, x]``.  The dtype is the smallest
    unsigned type holding ``H + 1``: for regions up to 254 rows the planes
    take no more memory than the boolean compatibility masks.
    """
    cells = region.grid.cells
    H, W = cells.shape
    kinds = np.arange(int(ResourceType.UNAVAILABLE), dtype=cells.dtype)
    blocked = (cells[None] != kinds[:, None, None]) | ~region.allowed_mask()
    out = np.zeros((len(kinds), H + 1, W), dtype=np.min_scalar_type(H + 1))
    np.cumsum(blocked, axis=1, dtype=out.dtype, out=out[:, 1:])
    return out


def vertical_runs(cells: Iterable[Cell]) -> Tuple[Run, ...]:
    """Maximal vertical same-kind runs of ``cells`` sorted by (dx, dy).

    Each run is ``(dx, dy0, length, kind)``: the cells ``(dx, dy0 + i,
    kind)`` for ``i < length``.  Consecutive cells of one column extend
    the current run while they are adjacent and of the same kind; a gap
    or a change of kind starts a new one.
    """
    runs: List[Run] = []
    cur_x = cur_y0 = cur_n = -1
    cur_kind = None
    for dx, dy, kind in cells:
        if dx == cur_x and kind == cur_kind and dy == cur_y0 + cur_n:
            cur_n += 1
            continue
        if cur_n > 0:
            runs.append((cur_x, cur_y0, cur_n, cur_kind))
        cur_x, cur_y0, cur_n, cur_kind = dx, dy, 1, kind
    if cur_n > 0:
        runs.append((cur_x, cur_y0, cur_n, cur_kind))
    return tuple(runs)


def _cell_runs(cells: Sequence[Cell]) -> Tuple[Run, ...]:
    """Validated runs of a raw cell sequence (a Footprint is valid by
    construction and memoizes its own :meth:`Footprint.runs`)."""
    if not cells:
        raise ValueError("footprint has no cells")
    if min(c[0] for c in cells) != 0 or min(c[1] for c in cells) != 0:
        raise ValueError("footprint cells must be normalized to origin 0,0")
    if any(c[2] == ResourceType.UNAVAILABLE for c in cells):
        raise ValueError("footprint cells cannot require UNAVAILABLE")
    return vertical_runs(sorted(cells))


def valid_anchor_mask(
    region: Union[PartialRegion, FabricGrid],
    footprint: Union["Footprint", Sequence[Cell]],
    planes: np.ndarray | None = None,
) -> np.ndarray:
    """Boolean (H, W) array: True where the footprint may be anchored.

    Every vertical run of the footprint is tested against the region's
    blocked-cell prefix counts with one slice subtraction per run (see
    the module docstring); the anchor lattice is restricted to the
    positions whose bounding box fits the grid, and the loop stops as
    soon as no anchor survives.

    Parameters
    ----------
    region:
        The partial region (or a bare grid, treated as fully reconfigurable).
    footprint:
        A :class:`~repro.modules.footprint.Footprint`, or normalized
        footprint cells ``(dx, dy, kind)`` with ``dx, dy >= 0`` and
        ``min dx == min dy == 0``.
    planes:
        Optional precomputed :func:`blocked_prefix_counts` of ``region``
        (shared by the many footprints probed against one region).
    """
    if isinstance(region, FabricGrid):
        region = PartialRegion.whole_device(region)
    if hasattr(footprint, "runs"):
        runs = footprint.runs()
    else:
        runs = _cell_runs(footprint)
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
    # (the counts are non-negative, so the OR is zero iff all are)
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


def count_anchors(valid: np.ndarray, col: np.ndarray, row: np.ndarray) -> int:
    """Anchors of a (H, W) validity mask surviving the axis-domain masks.

    Equivalent to ``(valid & row[:, None] & col[None, :]).sum()`` but
    selects the surviving rows/columns first, so the intermediate scales
    with the *domain* sizes rather than the fabric — the shape branching
    heuristics call this for every module at every search node.
    """
    if not row.any() or not col.any():
        return 0
    return int(np.count_nonzero(valid[row][:, col]))


def count_anchors_batch(
    valid_stack: np.ndarray, col: np.ndarray, row: np.ndarray
) -> np.ndarray:
    """Per-shape anchor counts of a stacked ``(S, H, W)`` validity array.

    Row ``s`` of the result equals ``count_anchors(valid_stack[s], col,
    row)``; the whole stack is reduced in one fancy-indexed pass, so the
    fail-first heuristic pays one NumPy dispatch per *module* instead of
    one per candidate shape.
    """
    n = len(valid_stack)
    if n == 0 or not row.any() or not col.any():
        return np.zeros(n, dtype=np.int64)
    sub = valid_stack[:, row][:, :, col]
    return sub.reshape(n, -1).sum(axis=1, dtype=np.int64)


def integral_occupancy(occ: np.ndarray) -> np.ndarray:
    """k-D summed-area table of a boolean occupancy array, zero-bordered.

    ``table[i1, ..., ik]`` is the number of occupied cells in
    ``occ[:i1, ..., :ik]``; the table has one extra (leading zero) entry
    per axis so every half-open box sum is a pure inclusion-exclusion of
    table entries with no boundary special cases.
    """
    table = occ.astype(np.int64)
    for axis in range(occ.ndim):
        table = table.cumsum(axis=axis)
    return np.pad(table, [(1, 0)] * occ.ndim)


def sliding_box_counts(
    table: np.ndarray,
    starts: Sequence[int],
    lengths: Sequence[int],
    counts: Sequence[int],
) -> np.ndarray:
    """Occupied-cell counts under a sliding box, for a whole anchor lattice.

    For every lattice offset ``a`` in ``prod(range(c) for c in counts)``
    the result holds the number of occupied cells inside the half-open box
    ``[starts + a, starts + a + lengths)`` of the occupancy grid that
    ``table`` (an :func:`integral_occupancy`) was built from.  Box
    portions outside the grid count as empty: indices are clipped, which
    is exact because the table is axis-wise monotone — clipping evaluates
    the intersection of the box with the grid.

    This is the batched replacement for per-point raster probes: one call
    tests every candidate anchor of a shifted box against the occupancy
    planes via ``2k`` slice-subtractions, instead of one Python-level
    probe per sweep point.
    """
    out = table
    for axis in range(table.ndim):
        n = int(counts[axis])
        s0 = int(starts[axis])
        ln = int(lengths[axis])
        limit = out.shape[axis] - 1  # grid extent along this axis
        hi = np.clip(np.arange(s0 + ln, s0 + ln + n), 0, limit)
        lo = np.clip(np.arange(s0, s0 + n), 0, limit)
        out = out.take(hi, axis=axis) - out.take(lo, axis=axis)
    return out


def nearest_anchor(
    valid: np.ndarray, x: float, y: float
) -> Tuple[int, int] | None:
    """Closest valid anchor to a (possibly fractional) target position.

    Returns the ``(ax, ay)`` with ``valid[ay, ax]`` minimizing the squared
    Euclidean distance to ``(x, y)``, or None when the mask has no anchors.
    Ties break bottom-left (smallest x, then smallest y) so the answer is
    deterministic — the analytical legalizer snaps every relaxed centroid
    through this query and must not depend on ``nonzero`` ordering.
    """
    ys, xs = np.nonzero(valid)
    if ys.size == 0:
        return None
    d2 = (xs - x) ** 2 + (ys - y) ** 2
    k = np.lexsort((ys, xs, d2))[0]
    return int(xs[k]), int(ys[k])


def first_anchor(valid: np.ndarray) -> Tuple[int, int] | None:
    """The bottom-left anchor ``(x, y)`` of a validity mask, or None.

    Smallest x, then smallest y: the min-extent objective's placement
    rule (Eq. 6).  Two ``argmax`` scans find the leftmost non-empty
    column and its lowest row; no anchor list is built or sorted.
    """
    cols = valid.any(axis=0)
    if not cols.any():
        return None
    x = int(cols.argmax())
    return x, int(valid[:, x].argmax())


def bottom_left_pick(
    masks: Iterable[np.ndarray],
) -> Tuple[int, int, int] | None:
    """The bottom-left ``(x, y, shape index)`` over per-shape masks, or None.

    ``masks`` holds one validity mask per shape of a module, in shape
    order.  The pick is the minimum of ``(x, y, shape index)`` over each
    mask's :func:`first_anchor`: lowest shape index on ties.  For one
    module under the min-extent objective (Eq. 6) this is exactly what a
    CP dive branching x, then y, then shape at the smallest value finds.
    """
    best: Tuple[int, int, int] | None = None
    for si, valid in enumerate(masks):
        hit = first_anchor(valid)
        if hit is not None and (best is None or hit < best[:2]):
            best = (*hit, si)
    return best


def free_anchors(
    static: np.ndarray, offsets: np.ndarray, occupied: np.ndarray
) -> np.ndarray:
    """The anchors of ``static`` whose footprint cells are all free.

    ``offsets`` are the footprint's ``(dy, dx)`` used-cell offsets
    (:meth:`repro.modules.footprint.Footprint.offsets`) and ``occupied``
    the ``(H, W)`` occupancy grid.  Every static anchor is tested in one
    vectorized gather of ``occupied`` under its cells.  Returns
    ``static`` itself when nothing is occupied or it holds no anchor
    (callers must not mutate the result), else a new mask.
    """
    if not occupied.any():
        return static
    ys, xs = np.nonzero(static)
    if ys.size == 0:
        return static
    # the intp anchor rows widen the compact offset dtype before adding
    cy = ys[:, None] + offsets[None, :, 0]
    cx = xs[:, None] + offsets[None, :, 1]
    free = ~occupied[cy, cx].any(axis=1)
    out = np.zeros_like(static)
    out[ys[free], xs[free]] = True
    return out
