"""Vectorized valid-anchor computation and cross-correlation machinery.

This realizes constraints M_a and M_b of the paper (Eqs. 2-3) as bit
algebra: an anchor position ``(x, y)`` is valid for a footprint iff every
footprint cell ``(dx, dy, k)`` lands on an available tile of resource type
``k``.  Each fabric column is packed into ``L = ceil(H / 64)``
little-endian ``uint64`` lanes, bit ``y`` for cell ``(x, y)``, so a
column's whole anchor lattice is one word on every product fabric:

* :func:`column_words` gives, per resource kind, the ``(W, L)`` words of
  the cells a tile of that kind may use in a region: the kind words of
  the static grid (computed once per :class:`FabricGrid`) AND the
  region's packed reconfigurable mask;
* a footprint decomposes into maximal vertical runs ``(dx, dy0, length,
  kind)`` of same-kind cells (:func:`vertical_runs`) — generated module
  shapes are a handful of full-height columns, so a footprint of ~60
  cells is ~6 runs;
* a doubling table ``F_0 = kind words``, ``F_{j+1} = F_j & (F_j >> 2^j)``
  has bit ``y`` set iff the ``2^j`` cells from ``y`` up are usable, so a
  run of ``n`` cells from ``dy0`` holds above anchor ``y`` iff bit ``y``
  of ``(F_j & (F_j >> (n - 2^j))) >> dy0`` is set, ``j = floor(log2 n)``
  — one or two shifted table words per run (:func:`run_index`);
* :func:`anchor_words` answers a batch of footprints with one gather of
  those words for every run of every footprint and one AND-``reduceat``
  per footprint (:func:`anchor_word_stack` over a :func:`term_rows`
  batch, which a caller that repeats one batch builds once).

Bits past the grid (higher rows, columns right of it) read as zero, so an
anchor whose footprint leaves the grid fails by construction.  Footprint
cells must be normalized so ``min dx == min dy == 0``; anchors are then
the footprint's lower-left bounding-box corner.  :func:`valid_anchor_mask`
is the unpacked ``(H, W)`` boolean form of one footprint's words.

Three queries read finished anchors: :func:`first_anchor` returns the
bottom-left anchor of one mask or one footprint's words (first nonzero
column, then its lowest set bit), :func:`bottom_left_pick` the
bottom-left ``(x, y, shape)`` over one module's per-shape masks or words,
and :func:`first_fit_pick` the first shape's first anchor.  The baseline
placers, the runtime manager's admission rules and reservation probe,
and Figure 4 all pick anchors through them.
Occupied cells are not filtered out of finished anchors: a fit query that
must avoid them runs :func:`anchor_words` on ``static & ~held`` (the
free-space ledger, :class:`repro.core.occupancy.Occupancy`).

Placed cells are written into column words by one writer,
:func:`write_words`: a shape's origin words shifted up to the anchor row
and carried into the lane above (:func:`word_blocks`).  The free-space
ledger (the runtime's, defrag's and the baseline placers') and the
placement kernel all write through it.
"""

from __future__ import annotations

from itertools import accumulate
from typing import (
    TYPE_CHECKING, Dict, Iterable, Iterator, List, Sequence, Tuple, Union,
)

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


#: bits per column word lane
LANE_BITS = 64
#: placeable resource kinds, the leading axis of :func:`column_words`
N_KINDS = int(ResourceType.UNAVAILABLE)
#: every shift count as a ``uint64`` scalar (NumPy 1.x refuses to shift
#: a ``uint64`` array by a Python int)
SHIFTS = tuple(np.uint64(n) for n in range(LANE_BITS + 1))


def pack_columns(mask: np.ndarray) -> np.ndarray:
    """``(..., H, W)`` booleans as ``(..., W, L)`` ``uint64`` column words.

    Bit ``y % 64`` of lane ``y // 64`` of column ``x`` is ``mask[..., y,
    x]``; ``L = ceil(H / 64)`` and every bit past row ``H - 1`` is zero.
    """
    *lead, H, W = mask.shape
    bits = np.zeros((*lead, W, -(-H // LANE_BITS) * LANE_BITS), dtype=bool)
    bits[..., :H] = np.swapaxes(mask, -1, -2)
    packed = np.packbits(bits, axis=-1, bitorder="little")
    return packed.view("<u8").astype(np.uint64, copy=False)


def unpack_columns(words: np.ndarray, height: int) -> np.ndarray:
    """The ``(..., H, W)`` booleans of :func:`pack_columns` output (a
    transposed view of the unpacked ``(..., W, H)`` bits)."""
    raw = words.astype("<u8", copy=False).view(np.uint8)
    bits = np.unpackbits(raw, axis=-1, count=height, bitorder="little")
    return np.swapaxes(bits, -1, -2).view(bool)


def kind_words(grid: FabricGrid) -> np.ndarray:
    """``(K, W, L)`` column words of the cells holding each placeable kind.

    Depends only on the static grid, so it is computed once per
    :class:`FabricGrid` and kept on it (read-only), recomputed only if the
    grid's cells were changed in place since.
    """
    cells = grid.cells
    stamp = cells.tobytes()
    memo = getattr(grid, "_kind_words", None)
    if memo is None or memo[0] != stamp:
        kinds = np.arange(N_KINDS, dtype=cells.dtype)
        words = pack_columns(cells[None] == kinds[:, None, None])
        words.setflags(write=False)
        memo = grid._kind_words = (stamp, words)
    return memo[1]


def column_words(region: Union[PartialRegion, FabricGrid]) -> np.ndarray:
    """``(K, W, L)`` words of the cells a tile of each kind may use.

    Indexed by ``int(kind)`` for every placeable kind: bit ``y`` of column
    ``x`` of plane ``k`` is set iff a module tile of kind ``k`` may occupy
    cell ``(x, y)`` (the cell holds kind ``k`` and is reconfigurable).
    A bare grid is treated as fully reconfigurable.
    """
    if isinstance(region, FabricGrid):
        return kind_words(region)
    return kind_words(region.grid) & pack_columns(region.reconfigurable)


def run_index(runs: Sequence[Run]) -> np.ndarray:
    """``(6, T)`` rows ``(level, kind, dx, lane, bit, 63 - bit)`` of a
    footprint's word terms.

    A run ``(dx, dy0, n, kind)`` holds above anchor ``y`` iff bit ``y`` of
    ``F_j[kind] >> dy0`` and of ``F_j[kind] >> (dy0 + n - 2^j)`` are both
    set in column ``x + dx``, with ``j = floor(log2 n)`` (the doubling
    table of :func:`anchor_words`); the two terms coincide when ``n`` is
    a power of two.  Each term's shift is stored split into whole lanes
    and the remaining bits.  The AND of every term is the anchor lattice.
    """
    rows: Tuple[List[int], ...] = ([], [], [], [], [], [])
    level, kinds, dxs, lane, bit, up = rows
    for dx, dy0, n, kind in runs:
        j = n.bit_length() - 1
        for shift in (dy0,) if n == 1 << j else (dy0, dy0 + n - (1 << j)):
            level.append(j)
            kinds.append(kind)
            dxs.append(dx)
            lane.append(shift // LANE_BITS)
            bit.append(shift % LANE_BITS)
            up.append(LANE_BITS - 1 - shift % LANE_BITS)
    out = np.array(rows, dtype=np.int64)
    out.setflags(write=False)
    return out


def _doubling_table(
    words: np.ndarray, levels: int, lanes: int, width: int
) -> np.ndarray:
    """``(levels, lanes, K, width)``: ``F_0 = words``, ``F_{j+1} = F_j &
    (F_j >> 2^j)``, lane-major so every lane slice is one contiguous
    block, zero-padded above the grid's lanes and right of its columns so
    shifted reads past the grid read zero (``lanes`` must cover the
    grid's lanes plus the largest lane shift)."""
    K, W, L = words.shape
    table = np.zeros((levels, lanes, K, width), dtype=np.uint64)
    table[0, :L, :, :W] = words.transpose(2, 0, 1)
    for j in range(1, levels):
        prev, down = table[j - 1], table[j, :L]
        q, r = divmod(1 << (j - 1), LANE_BITS)
        np.right_shift(prev[q : q + L], SHIFTS[r], out=down)
        if r:  # carry from the lane above; the top lane's is above the grid
            down[:-1] |= prev[q + 1 : q + L] << SHIFTS[LANE_BITS - r]
        down &= prev[:L]
    return table


def _run_index_of(
    footprint: Union["Footprint", Sequence[Cell], np.ndarray]
) -> np.ndarray:
    if isinstance(footprint, np.ndarray):
        return footprint
    if hasattr(footprint, "run_index"):
        return footprint.run_index()
    return run_index(_cell_runs(footprint))


def term_rows(
    footprints: Sequence[Union["Footprint", Sequence[Cell], np.ndarray]],
) -> Tuple[np.ndarray, List[int]]:
    """The :func:`run_index` rows of ``footprints`` concatenated, and the
    first term of each: the batch :func:`anchor_word_stack` reads.  A
    caller that repeats one batch (the placement kernel's non-overlap
    test) builds it once."""
    index = [_run_index_of(fp) for fp in footprints]
    starts = list(accumulate([0] + [t.shape[1] for t in index[:-1]]))
    return np.concatenate(index, axis=1), starts


def anchor_word_stack(
    words: np.ndarray, rows: np.ndarray, starts: Sequence[int]
) -> np.ndarray:
    """``(n, W, L)`` anchor words of a :func:`term_rows` batch of ``n``
    footprints over the column words ``words`` (see :func:`anchor_words`).
    ``starts`` holds each footprint's first term, in order; a caller may
    pass a subset of a batch's footprints with their terms."""
    K, W, L = words.shape
    top_level, _, top_dx, top_q, _, _ = rows.max(axis=1).tolist()
    levels = top_level + 1
    # pad wide and high enough that no read needs clipping: a term reads
    # columns dx .. dx + W - 1 and lanes q .. q + L, the table build lanes
    # up to 2^(levels - 2) bits higher
    width = W + top_dx
    lanes = L + max(top_q, (1 << max(levels - 2, 0)) // LANE_BITS)
    table = _doubling_table(words, levels, lanes, width)
    # flat offset of each term's first word, table[level, q, kind, dx],
    # and of every (column, lane) read from it
    plane = K * width
    base = np.array([lanes * plane, width, 1, plane]) @ rows[:4]
    grid = np.arange(W)[:, None] + np.arange(0, L * plane, plane)
    got = table.reshape(-1)[base[:, None, None] + grid]  # (T, W, L)
    # result lane l: lane q + l shifted down by r, plus the carry from
    # lane q + l + 1 (shifted up by 63 - r, then 1, so r == 0 carries
    # nothing); the top lane's carry would come from above the grid
    r, up = rows[4:, :, None, None].view(np.uint64)
    terms = got >> r
    terms[..., :-1] |= (got[..., 1:] << up) << SHIFTS[1]
    return np.bitwise_and.reduceat(terms, starts, axis=0)


def anchor_words(
    words: np.ndarray,
    footprints: Sequence[Union["Footprint", Sequence[Cell], np.ndarray]],
) -> List[np.ndarray]:
    """One ``(W, L)`` ``uint64`` anchor-word array per footprint.

    ``words`` is a region's :func:`column_words`.  Bit ``y`` of column
    ``x`` of a result is set iff anchor ``(x, y)`` is valid for that
    footprint.  A footprint may also be given as its :func:`run_index`
    rows (the placement kernel's kind-agnostic, time-extruded terms).
    Every term of every footprint (:func:`run_index`) is read
    from one doubling table in one gather — shifted down across lanes,
    past-the-grid columns and lanes reading zero — and each footprint's
    terms are AND-reduced in one ``reduceat``.
    """
    if not footprints:
        return []
    return list(anchor_word_stack(words, *term_rows(footprints)))


def word_blocks(
    words: np.ndarray, x: int, y: int, lanes: int
) -> Iterator[Tuple[slice, slice, np.ndarray]]:
    """``(columns, lanes, words)`` blocks of packed columns anchored at
    ``(x, y)`` in a ``lanes``-lane word array.

    ``words`` are a shape's origin columns (``Footprint.words``).  They are
    shifted up to row ``y``; when the shift crosses a lane boundary the
    carry lands in the lanes above.  A carry past the top lane is dropped:
    it is zero for every shape that fits the grid at ``(x, y)``.
    """
    w, n = words.shape
    q, r = divmod(y, LANE_BITS)
    cols = slice(x, x + w)
    yield cols, slice(q, q + n), words << SHIFTS[r]
    top = min(q + 1 + n, lanes)
    if r and top > q + 1:
        yield cols, slice(q + 1, top), (
            words[:, : top - q - 1] >> SHIFTS[LANE_BITS - r]
        )


def write_words(
    target: np.ndarray, words: np.ndarray, x: int, y: int, value: bool
) -> None:
    """Set (``value``) or clear the :func:`word_blocks` of ``words``
    anchored at ``(x, y)`` in the ``(columns, L)`` array ``target``: the
    one writer of placed cells into packed column words."""
    for cols, lanes, bits in word_blocks(words, x, y, target.shape[1]):
        if value:
            target[cols, lanes] |= bits
        else:
            target[cols, lanes] &= ~bits


def words_overlap(
    target: np.ndarray, words: np.ndarray, x: int, y: int
) -> bool:
    """Does ``words`` anchored at ``(x, y)`` touch a set bit of ``target``?"""
    return any(
        (target[cols, lanes] & bits).any()
        for cols, lanes, bits in word_blocks(words, x, y, target.shape[1])
    )


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
    words: np.ndarray | None = None,
) -> np.ndarray:
    """Boolean (H, W) array: True where the footprint may be anchored.

    The unpacked :func:`anchor_words` of one footprint (see the module
    docstring).

    Parameters
    ----------
    region:
        The partial region (or a bare grid, treated as fully reconfigurable).
    footprint:
        A :class:`~repro.modules.footprint.Footprint`, or normalized
        footprint cells ``(dx, dy, kind)`` with ``dx, dy >= 0`` and
        ``min dx == min dy == 0``.
    words:
        Optional precomputed :func:`column_words` of ``region`` (shared by
        the many footprints probed against one region).
    """
    if words is None:
        words = column_words(region)
    (found,) = anchor_words(words, [footprint])
    return unpack_columns(found, region.height)


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
    rule (Eq. 6).  ``valid`` is an ``(H, W)`` boolean mask — two
    ``argmax`` scans find the leftmost non-empty column and its lowest
    row — or one footprint's ``(W, L)`` ``uint64`` :func:`anchor_words`:
    the first nonzero word in column-major order, then its lowest set
    bit.  No anchor list is built or sorted.
    """
    if valid.dtype == np.uint64:
        xs, lanes = valid.nonzero()
        if xs.size == 0:
            return None
        x, lane = int(xs[0]), int(lanes[0])
        word = int(valid[x, lane])
        return x, lane * LANE_BITS + (word & -word).bit_length() - 1
    cols = valid.any(axis=0)
    if not cols.any():
        return None
    x = int(cols.argmax())
    return x, int(valid[:, x].argmax())


def bottom_left_pick(
    masks: Iterable[np.ndarray],
) -> Tuple[int, int, int] | None:
    """The bottom-left ``(x, y, shape index)`` over per-shape masks, or None.

    ``masks`` holds one validity mask (or one :func:`anchor_words` array)
    per shape of a module, in shape order.  The pick is the minimum of
    ``(x, y, shape index)`` over each mask's :func:`first_anchor`: lowest
    shape index on ties.  For one
    module under the min-extent objective (Eq. 6) this is exactly what a
    CP dive branching x, then y, then shape at the smallest value finds.
    """
    best: Tuple[int, int, int] | None = None
    for si, valid in enumerate(masks):
        hit = first_anchor(valid)
        if hit is not None and (best is None or hit < best[:2]):
            best = (*hit, si)
    return best


def first_fit_pick(
    masks: Iterable[np.ndarray],
) -> Tuple[int, int, int] | None:
    """The first shape, in index order, that has an anchor, at its
    :func:`first_anchor`: ``(x, y, shape index)``, or None.

    ``masks`` is as for :func:`bottom_left_pick`.  For one module this is
    the first-fit baseline's placement
    (:class:`~repro.placer.greedy.FirstFitPlacer`).
    """
    for si, valid in enumerate(masks):
        hit = first_anchor(valid)
        if hit is not None:
            return (*hit, si)
    return None

