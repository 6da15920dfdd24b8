"""Resource-extended geost kernel on packed column words.

This propagator enforces, in one global constraint, the paper's three
constraint families (Section III-C):

* **M_a** — every tile inside the constrained region (Eq. 2),
* **M_b** — every tile on a fabric tile of identical resource type (Eq. 3),
* **M_c** — no two modules overlap (Eq. 4),

over objects with polymorphic shapes (design alternatives).  Every
(module, shape) anchor domain is one row of a word *bank*: ``(W, L)``
``uint64`` column words, bit ``y % 64`` of lane ``y // 64`` of column
``x`` set iff anchor ``(x, y)`` is still possible.  The occupancy is one
more array in the same layout.

* M_a and M_b are *static*: each row starts as the shape's
  :func:`~repro.fabric.masks.anchor_words` over the region's column
  words.
* M_c is dynamic: when a module becomes fixed, its footprint words are
  written into the occupancy by the one word writer
  (:func:`~repro.fabric.masks.write_words`), and the row of every unplaced
  shape is ANDed with the :func:`~repro.fabric.masks.anchor_words` of the
  free cells over the shape's kind-agnostic runs
  (:meth:`~repro.modules.footprint.Footprint.cover_index`): the same
  kernel that answers M_a and M_b, restricted to the columns the imprint
  can reach.  An LNS sub-region is a plain region whose frozen modules'
  cells are not reconfigurable, so its static rows already exclude them.

Filtering strength: for every unfixed module the kernel maintains domain
consistency of the shape variable (a shape with no remaining anchor is
dropped) and *per-axis* domain consistency of x and y against the union of
its candidate shapes' anchors — strictly stronger than the classic
bounds-only sweep for this problem class, at the cost of being specialized
to 2-D grids.  A shape is feasible iff one of its words is nonzero under
the x domain's columns and the y domain's word; the x projection is the
set of nonzero columns and the y projection the OR over columns.

With a time axis every ``(t, x)`` pair is one column, ``t * W + x``, so a
temporal row is ``T * W`` columns and a shape resident for ``d`` ticks
repeats its runs at column offsets ``dt * W`` for ``dt < d``.  One bank
serves both.

All dynamic state (occupancy words, narrowed rows, placement flags) is
undone through the engine trail, so the kernel composes with any search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cp.domain import Domain
from repro.cp.engine import Engine, Inconsistent
from repro.cp.propagator import Priority, Propagator
from repro.cp.trail import Revision
from repro.cp.variable import IntVar
from repro.fabric.masks import (
    LANE_BITS,
    anchor_word_stack,
    anchor_words,
    column_words,
    term_rows,
    unpack_columns,
    words_overlap,
    write_words,
)
from repro.fabric.region import PartialRegion
from repro.modules.footprint import Footprint
from repro.modules.module import Module
from repro.obs.trace import GEOST_INCREMENTAL, KERNEL_IMPRINT

_LANE_MASK = (1 << LANE_BITS) - 1


@dataclass
class IncStats:
    """The kernel's propagation counters (monotone within a solve).

    Surfaced as the ``geost.incremental`` trace event and the ``geost_*``
    fields of :class:`~repro.obs.profile.SolveProfile`.
    """

    #: modules re-filtered (popped from the dirty set); wholesale
    #: re-filtering would have re-filtered every module on each wake-up
    dirty: int = 0
    #: anchor counts served from the cache without recomputation
    reused: int = 0
    #: modules whose footprint was written into the occupancy words
    rasterized: int = 0
    #: word-bank work: one tick per candidate shape a prune tests, one
    #: per anchor count computed (``geost_rows_tested`` on the profile)
    rows_tested: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "dirty": self.dirty,
            "reused": self.reused,
            "rasterized": self.rasterized,
            "rows_tested": self.rows_tested,
        }


@dataclass(frozen=True)
class PlacedModule:
    """A concrete placement decision: module, chosen shape, anchor.

    ``start`` is the scheduled start tick when the kernel ran with a time
    axis (``horizon`` given), ``None`` for purely spatial placements.
    """

    module: Module
    shape_index: int
    x: int
    y: int
    start: Optional[int] = None

    @property
    def footprint(self) -> Footprint:
        return self.module.shapes[self.shape_index]

    def absolute_cells(self) -> List[Tuple[int, int]]:
        return [(self.x + dx, self.y + dy) for dx, dy, _ in self.footprint.cells]


class _Item:
    """Internal per-module record."""

    __slots__ = (
        "index", "module", "x", "y", "s", "t", "duration", "rows", "placed",
        "axes",
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
        #: bank row of each shape
        self.rows: List[int] = []
        self.placed = False
        #: the last domains' axis words: (x, y, t domains, words)
        self.axes: Optional[Tuple] = None

    def is_fixed(self) -> bool:
        fixed = self.x.is_fixed() and self.y.is_fixed() and self.s.is_fixed()
        if self.t is not None:
            fixed = fixed and self.t.is_fixed()
        return fixed


def _extrude(index: np.ndarray, duration: int, stride: int) -> np.ndarray:
    """Run-index terms repeated at column offsets ``dt * stride`` for
    ``dt < duration``: a shape resident for ``duration`` ticks."""
    if duration == 1:
        return index
    out = np.tile(index, duration)
    out[2] += np.repeat(np.arange(duration) * stride, index.shape[1])
    return out


class PlacementKernel(Propagator):
    """Global placement constraint over a heterogeneous partial region.

    Each wake-up re-filters only the modules whose variables changed
    since the last fixpoint (the dirty set fed by :meth:`on_event`), and
    :meth:`anchor_count` is served from a cache keyed on a
    :class:`~repro.cp.trail.Revision` stamp that bank mutations and their
    trail undos both bump.  The per-module filters are monotone, so this
    reaches the same fixpoint as re-filtering every module on each
    wake-up (chaotic iteration is confluent), and the test suite pins the
    search tree against that wholesale oracle.

    ``horizon`` (optional) adds a bounded time axis: every module gets a
    start variable ``ts[i]`` and a ``durations[i]``-tick extrusion.  Bank
    rows and occupancy grow to ``T * W`` columns (column ``t * W + x``);
    start ticks past ``T - duration`` are cleared (the temporal M_a), and
    non-overlap means no two modules share a cell *while both are
    resident*: each footprint extruded over its duration.
    ``horizon=None`` is the purely spatial kernel.
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
        #: bank columns: one per x, or one per (t, x) with a time axis
        self._columns = self.W * (self.T or 1)
        self.inc_stats = IncStats()
        #: bumped on every bank mutation and from its trail undo — keys
        #: the anchor-count cache
        self._rev = Revision()
        self._count_cache: Dict[int, Tuple] = {}
        if horizon is not None:
            self.items = [
                _Item(i, m, x, y, s, t, int(d))
                for i, (m, x, y, s, t, d) in enumerate(
                    zip(modules, xs, ys, ss, ts, durations)
                )
            ]
        else:
            self.items = [
                _Item(i, m, x, y, s)
                for i, (m, x, y, s) in enumerate(zip(modules, xs, ys, ss))
            ]
        shapes: List[Footprint] = []
        row_duration: List[int] = []
        for item in self.items:
            first = len(shapes)
            item.rows = list(range(first, first + len(item.module.shapes)))
            shapes.extend(item.module.shapes)
            row_duration.extend([item.duration] * len(item.module.shapes))
        # the static M_a ∧ M_b rows in one batch: (R, W, L)
        bank = np.stack(anchor_words(column_words(region), shapes))
        covers = [fp.cover_index() for fp in shapes]
        terms = term_rows(covers)
        if self.T is not None:
            # one column per (t, x): tile each row over the horizon and
            # clear the start ticks at which the shape would outlive it
            # (t > T - duration), the temporal M_a
            dur = np.array(row_duration)
            live = np.arange(self.T)[None, :] <= (self.T - dur)[:, None]
            bank = np.where(live[:, :, None, None], bank[:, None], np.uint64(0))
            bank = bank.reshape(len(shapes), self._columns, -1)
            terms = term_rows(
                [_extrude(c, d, self.W) for c, d in zip(covers, row_duration)]
            )
        #: (R, columns, L) anchor words of every (module, shape)
        self._bank = bank
        #: every row's kind-agnostic (and time-extruded) run terms, one
        #: :func:`term_rows` batch: the M_c test against free cells; how
        #: many terms each row owns, and the row of each term
        self._terms, starts = terms
        self._term_counts = np.diff(starts + [self._terms.shape[1]])
        self._term_row = np.repeat(np.arange(len(shapes)), self._term_counts)
        #: (columns, L) words of the occupied cells (cell-ticks)
        self._occupancy = np.zeros(bank.shape[1:], dtype=np.uint64)
        self._occupied = 0
        #: how far right of its anchor a shape's cells reach, in bank
        #: columns: also how far left of an imprint a colliding anchor lies
        self._span = (max(row_duration) - 1) * self.W + max(
            fp.width for fp in shapes
        ) - 1
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
    def _axis_words(self, item: _Item) -> np.ndarray:
        """``(columns, L)`` words of the anchors the item's domains allow:
        the y domain's word in the columns of the x (and t) domain.  Kept
        for the domains they were built from (immutable, restored by
        reference on backtrack, so identity pins them)."""
        xd, yd = item.x.domain, item.y.domain
        td = item.t.domain if item.t is not None else None
        memo = item.axes
        if memo is not None and memo[0] is xd and memo[1] is yd and memo[2] is td:
            return memo[3]
        cols = xd.to_bool_array(self.W)
        if td is not None:
            cols = (td.to_bool_array(self.T)[:, None] & cols[None, :]).reshape(-1)
        rows = yd.mask << yd.offset
        lanes = np.array(
            [(rows >> (LANE_BITS * q)) & _LANE_MASK
             for q in range(self._bank.shape[2])],
            dtype=np.uint64,
        )
        words = np.where(cols[:, None], lanes[None, :], np.uint64(0))
        item.axes = (xd, yd, td, words)
        return words

    def _allowed(self, item: _Item, shapes) -> np.ndarray:
        """``(S, columns, L)`` words of the given shapes' anchors under the
        item's current domains."""
        rows = [item.rows[sid] for sid in shapes]
        return self._bank[rows] & self._axis_words(item)

    def _unpack(self, words: np.ndarray) -> np.ndarray:
        """``(H, W)`` booleans of ``(columns, L)`` words, ``(T, H, W)``
        with a time axis."""
        grid = unpack_columns(words, self.H)
        if self.T is None:
            return grid.copy()
        return grid.reshape(self.H, self.T, self.W).transpose(1, 0, 2).copy()

    # ------------------------------------------------------------------
    # Propagation
    # ------------------------------------------------------------------
    def propagate(self, engine: Engine) -> None:
        # process only dirty items; imprinting re-dirties the rest.  The
        # dirty set is conservative across backtracking (stale entries just
        # cause a redundant re-filter, never unsoundness).
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
        demand = self._occupied + sum(
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

    def _imprint(self, engine: Engine, item: _Item) -> None:
        """Commit a fixed module: occupy its cells, narrow the others."""
        sid = item.s.value()
        x0, y0 = item.x.value(), item.y.value()
        t0 = item.t.value() if item.t is not None else 0
        lane, bit = divmod(y0, LANE_BITS)
        word = int(self._bank[item.rows[sid], t0 * self.W + x0, lane])
        if not (word >> bit) & 1:
            raise Inconsistent(
                f"placement-kernel: {item.module.name} anchored on an "
                f"incompatible or out-of-region tile"
            )
        fp = item.module.shapes[sid]
        words = fp.words()
        occ = self._occupancy
        # one column block per resident tick [t0, t0 + duration)
        columns = [t * self.W + x0 for t in range(t0, t0 + item.duration)]
        if any(words_overlap(occ, words, c, y0) for c in columns):
            raise Inconsistent(
                f"placement-kernel: {item.module.name} overlaps placed material"
            )
        for c in columns:
            write_words(occ, words, c, y0, True)
        cells = fp.area * item.duration
        self._occupied += cells
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

        def undo_imprint() -> None:
            for c in columns:
                write_words(occ, words, c, y0, False)
            self._occupied -= cells
            item.placed = False

        engine.trail.push(undo_imprint)
        for other in self.items:
            if not other.placed:
                self._dirty.add(other.index)
        # the anchors that can collide with the imprint: columns from
        # `_span` left of its first column to its last one
        lo = max(0, columns[0] - self._span)
        hi = columns[-1] + fp.width
        self._forbid(engine, lo, hi)

    def _forbid(self, engine: Engine, lo: int, hi: int) -> None:
        """AND the unplaced rows' columns ``[lo, hi)`` with the anchors
        whose cells are all free (M_c); the trail restores the old words
        of the rows that changed.  Only the unplaced rows' terms are
        evaluated, so the work shrinks as the dive places modules."""
        rows = [r for it in self.items if not it.placed for r in it.rows]
        if not rows:
            return
        live = np.zeros(len(self._term_counts), dtype=bool)
        live[rows] = True
        counts = self._term_counts[rows]
        free = ~self._occupancy[None, lo : hi + self._span]
        fit = anchor_word_stack(
            free, self._terms[:, live[self._term_row]], np.cumsum(counts) - counts
        )
        bank = self._bank
        old = bank[rows, lo:hi]
        new = old & fit[:, : hi - lo]
        changed = (new != old).any(axis=(1, 2))
        if not changed.any():
            return
        hit = np.asarray(rows)[changed]
        saved = old[changed]
        bank[hit, lo:hi] = new[changed]
        rev = self._rev
        rev.bump()

        def undo_mask() -> None:
            bank[hit, lo:hi] = saved
            rev.bump()

        engine.trail.push(undo_mask)

    def _prune(self, item: _Item) -> bool:
        """Per-axis domain consistency for one unfixed module."""
        sids = list(item.s.domain)
        sub = self._allowed(item, sids)
        self.inc_stats.rows_tested += len(sids)
        hit = sub.any(axis=2)  # (S, columns): nonzero words
        keep_shapes = [sid for sid, ok in zip(sids, hit.any(axis=1)) if ok]
        if not keep_shapes:
            raise Inconsistent(
                f"placement-kernel: {item.module.name} has no feasible anchor"
            )
        # shapes without a feasible anchor contribute no bits to either
        # projection, so both read the whole stack
        cols = hit.any(axis=0)
        lanes = np.bitwise_or.reduce(sub, axis=(0, 1)).astype("<u8", copy=False)
        rows = Domain.from_mask(int.from_bytes(lanes.tobytes(), "little"), 0)
        changed = item.s.set_domain(Domain(keep_shapes), cause=self)
        if item.t is not None:
            cols = cols.reshape(self.T, self.W)
            ticks = Domain.from_bool_array(cols.any(axis=1))
            cols = cols.any(axis=0)
        changed |= item.x.set_domain(
            item.x.domain.intersect(Domain.from_bool_array(cols)), cause=self
        )
        changed |= item.y.set_domain(item.y.domain.intersect(rows), cause=self)
        if item.t is not None:
            changed |= item.t.set_domain(
                item.t.domain.intersect(ticks), cause=self
            )
        # our own updates re-enter the dirty set through on_event (the
        # engine notifies self-caused events precisely so dirty-set
        # propagators see their own prunings), so a collapse to a full
        # placement is picked up by the same run and imprinted
        return changed

    # ------------------------------------------------------------------
    # Queries used by branching and reporting
    # ------------------------------------------------------------------
    def anchors_for(self, index: int) -> List[Tuple[int, ...]]:
        """Feasible (shape, x, y) triples of one module, bottom-left first.

        Sorted by x, then y, then shape index — the value order that drives
        the min-extent objective fastest (Eq. 6 minimizes the x extent).
        With a time axis: (shape, x, y, t) quadruples, earliest first.
        """
        item = self.items[index]
        sids = list(item.s.domain)
        out: List[Tuple[int, ...]] = []
        for sid, words in zip(sids, self._allowed(item, sids)):
            allowed = self._unpack(words)
            if item.t is None:
                ys, xs = np.nonzero(allowed)
                out.extend(
                    (sid, int(x), int(y)) for x, y in zip(xs.tolist(), ys.tolist())
                )
            else:
                ts_, ys, xs = np.nonzero(allowed)
                out.extend(
                    (sid, int(x), int(y), int(t))
                    for x, y, t in zip(xs.tolist(), ys.tolist(), ts_.tolist())
                )
        if item.t is None:
            out.sort(key=lambda a: (a[1], a[2], a[0]))
        else:
            out.sort(key=lambda a: (a[3], a[1], a[2], a[0]))
        return out

    def anchor_count(self, index: int) -> int:
        """Feasible anchors over all candidate shapes of one module.

        The fail-first branching heuristic asks this for every unfixed
        module at every node; the answer is cached and served as long as the bank (revision stamp) and all the item's
        domains (identity — Domains are immutable and restored by
        reference on backtrack, so holding them pins their ids) are the
        ones the entry was computed from.
        """
        item = self.items[index]
        xd, yd, sd = item.x.domain, item.y.domain, item.s.domain
        td = item.t.domain if item.t is not None else None
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
        count = int(np.bitwise_count(self._allowed(item, sd)).sum())
        self.inc_stats.rows_tested += 1
        self._count_cache[index] = (self._rev.current, xd, yd, sd, count, td)
        return count

    def anchor_mask(self, index: int, shape: int) -> np.ndarray:
        """The remaining anchors of one (module, shape), whatever the
        module's domains: ``(H, W)`` booleans, ``(T, H, W)`` with a time
        axis.  A copy; the kernel keeps them as words."""
        return self._unpack(self._bank[self.items[index].rows[shape]])

    def occupied_mask(self) -> np.ndarray:
        """(H, W) occupancy, or the (T, H, W) volume for temporal runs."""
        return self._unpack(self._occupancy)

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
