"""Runtime defragmentation: one compaction pass, two move rules.

The runtime counterpart of the paper's offline result: as modules come and
go, the free space of a runtime reconfigurable system shatters (external
fragmentation).  A defragmenter relocates placed modules — at a
reconfiguration cost — to compact the floorplan.  Design alternatives pay
off a second time here: a module that may change layout when moved has
more relocation sites, so compaction gets further per move.

We deliberately keep the paper's restriction in mind: "restoring the
module with a different design alternative would present a problem in
restoring the state.  Consequently, we do not consider changing design
alternatives at run-time."  Every defragmenter therefore supports both
policies:

* ``allow_shape_change=False`` (the paper's stateful-module assumption) —
  modules only translate;
* ``allow_shape_change=True`` (valid for stateless/restartable modules) —
  relocation may pick a different alternative.

Both engines run one greedy left-compaction pass (:func:`_compact`).
Repeatedly take the module whose right edge defines the extent, enumerate
its relocation sites strictly left of its current right edge, and move it
to the bottom-left-most reachable one; when the frontier is stuck,
squeeze interior modules left (never past the current extent — a squeeze
move may change shape, and an unguarded wider alternative could *grow*
the floorplan); stop when no module can move or the move budget (four
moves per placement) is exhausted.  Each pass keeps one free-space
ledger (:class:`~repro.core.occupancy.Occupancy`) and one
:class:`~repro.core.relocation.RelocationProbe`, both built once from
the input floorplan.  After each simulated move the ledger removes the
mover's old cells and places its new ones, and the probe rewrites the
mover's own-cell words.  Per step, the probe answers every placement's
sites, each with itself lifted, from one anchor-word kernel call on the
ledger's words, and both phases of the step read it; a mover's sites are
unpacked only when the bottom-left site of one of its shapes is a
candidate.  No residual region, no fingerprint, no cache.

The engines differ only in the *move rule* that turns a mover's
candidate sites into a move.  Both are named in :data:`DEFRAGMENTERS`
(like the backends and routers), the table ``RuntimeConfig.defragmenter``
selects from:

* ``greedy-compaction`` (:func:`defragment`) — teleports the mover to its
  bottom-left-most candidate as an ``instant`` move costing
  :func:`~repro.core.relocation.relocation_distance` frames; the runtime
  manager applies the whole plan atomically.  It is the oracle the
  no-break engine is differential-tested against.
* ``no-break`` — takes the bottom-left-most candidate the mover can reach
  without stopping running modules, after van der Veen et al.
  ("Defragmenting the Module Layout of a Partially Reconfigurable
  Device") and Fekete et al. ("No-Break Dynamic Defragmentation of
  Reconfigurable Devices").  A module may only **slide** through
  currently-free space (an axis-aligned glide whose every intermediate
  anchor is a feasible free anchor), or **copy** to a disjoint free site
  and switch over.  During its move window the module occupies *both*
  source and target (plus, for a slide, every cell glided over) — the
  cells a mover holds are not obstacle-free for admission or for later
  moves.  The runtime manager executes the plan incrementally on its
  logical clock between arrivals (:mod:`repro.core.runtime`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.core.relocation import (
    RelocationProbe,
    RelocationSite,
    relocation_distance,
)
from repro.core.occupancy import Occupancy
from repro.core.result import Placement, PlacementResult

#: move kinds a plan may contain
MOVE_INSTANT = "instant"  # teleport (greedy-compaction only)
MOVE_SLIDE = "slide"      # glide through free space, same shape
MOVE_COPY = "copy"        # copy-then-switch to a disjoint free site


@dataclass(frozen=True)
class PlannedMove:
    """One scheduled relocation with its move-window footprint.

    ``window_cells`` are the cells the module holds for the whole move
    window: source ∪ target for a copy, the union of every intermediate
    footprint for a slide, empty for an instant (teleport) move.  The
    runtime manager holds them in its free-space ledger while the move is
    in flight, so no admission or later move can claim them.
    """

    module: str
    from_shape: int
    from_pos: Tuple[int, int]
    to_shape: int
    to_pos: Tuple[int, int]
    #: one of ``instant`` / ``slide`` / ``copy``
    kind: str
    #: reconfiguration frames the move costs (distinct columns touched)
    frames: int
    window_cells: Tuple[Tuple[int, int], ...] = ()

    @property
    def changed_shape(self) -> bool:
        return self.from_shape != self.to_shape


@dataclass
class DefragPlan:
    """A defragmenter's answer: the move sequence and its end state.

    ``instant`` plans (the ``greedy-compaction`` engine) are applied
    atomically by the runtime manager; incremental plans are executed
    move by move on the logical clock.  ``result`` is the *simulated*
    end state assuming every move executes — the live outcome may fall
    short when moves are aborted by interleaved arrivals.
    """

    result: PlacementResult
    moves: List[PlannedMove] = field(default_factory=list)
    initial_extent: int = 0
    final_extent: int = 0
    instant: bool = False

    @property
    def total_frames(self) -> int:
        return sum(m.frames for m in self.moves)

    @property
    def improvement(self) -> int:
        return self.initial_extent - self.final_extent


#: move rule: ``reach(mover, candidates, all its sites)`` -> the move to
#: the bottom-left-most candidate it can take, or None
MoveRule = Callable[
    [Placement, List[RelocationSite], List[RelocationSite]],
    Optional[PlannedMove],
]


def _compact(
    result: PlacementResult,
    allow_shape_change: bool,
    reach: MoveRule,
) -> DefragPlan:
    """Greedy left-compaction of a placed system under move rule ``reach``.

    Never returns a worse floorplan: frontier moves strictly shrink the
    mover's right edge, and squeeze moves are capped at the current
    extent — without that cap a lexicographically-smaller anchor of a
    *wider* design alternative could grow the extent (a real
    regression, pinned by the tests).  Each move is simulated before the
    next is chosen, so move ``k`` is feasible in the state left by moves
    ``0..k-1``.
    """
    placements = list(result.placements)
    initial_extent = result.extent or 0
    occupied = Occupancy(result.region, placements)
    # one probe of every placement per pass, answered again after each move
    probe = RelocationProbe(result, placements, allow_shape_change, occupied)
    moves: List[PlannedMove] = []
    # one move budget for both phases, a termination guard: shape-changing
    # moves may trade width for x, so bound the pass length instead of
    # relying on a monotone metric
    budget = 4 * max(1, len(placements))

    def first_move(movers, squeeze_cap=None):
        """The first of ``movers`` that ``reach`` can move, on the sites
        of ``probe``.  Frontier phase: to a site that strictly shrinks
        its right edge.  Squeeze phase (``squeeze_cap`` = the current
        extent): to a lexicographically smaller anchor whose right edge
        stays within the cap."""
        for i, p in movers:
            limit = p.right - 1 if squeeze_cap is None else squeeze_cap

            def candidate(s):
                return (
                    s.x + p.module.shapes[s.shape_index].width <= limit
                    and (squeeze_cap is None or (s.x, s.y) < (p.x, p.y))
                )

            # a shape has a candidate iff its bottom-left site is one, and
            # no rule moves a mover without one: skip unpacking its sites
            if not any(map(candidate, probe.bottom_left(i))):
                continue
            sites = probe[i]
            candidates = [s for s in sites if candidate(s)]
            move = reach(p, candidates, sites)
            if move is not None:
                return i, move
        return None

    while len(moves) < budget:
        extent = max((p.right for p in placements), default=0)
        frontier = [(i, p) for i, p in enumerate(placements) if p.right == extent]
        # the extent-defining modules, largest first; when none can move,
        # squeeze any module, in x order; both phases read the one probe
        found = first_move(
            sorted(frontier, key=lambda t: -t[1].footprint.area)
        ) or first_move(
            sorted(enumerate(placements), key=lambda t: t[1].x),
            squeeze_cap=extent,
        )
        if found is None:
            break
        i, move = found
        moves.append(move)
        old = placements[i]
        new = Placement(old.module, move.to_shape, *move.to_pos)
        occupied.remove(old)
        occupied.place(new)
        placements[i] = new
        probe.relocate(i, new)

    final = PlacementResult(result.region, placements, list(result.unplaced))
    return DefragPlan(
        result=final,
        moves=moves,
        initial_extent=initial_extent,
        final_extent=final.extent or 0,
        # teleports are applied atomically
        instant=reach is _teleport,
    )


def _move(
    placement: Placement,
    site: RelocationSite,
    kind: str,
    frames: int,
    window_cells: Tuple[Tuple[int, int], ...] = (),
) -> PlannedMove:
    return PlannedMove(
        module=placement.module.name,
        from_shape=placement.shape_index,
        from_pos=(placement.x, placement.y),
        to_shape=site.shape_index,
        to_pos=(site.x, site.y),
        kind=kind,
        frames=frames,
        window_cells=window_cells,
    )


def _bottom_left(site: RelocationSite) -> Tuple[int, int, int]:
    return site.x, site.y, site.shape_index


def _teleport(
    placement: Placement,
    candidates: List[RelocationSite],
    sites: List[RelocationSite],
) -> Optional[PlannedMove]:
    """``greedy-compaction`` rule: jump to the bottom-left-most candidate."""
    if not candidates:
        return None
    site = min(candidates, key=_bottom_left)
    return _move(
        placement, site, MOVE_INSTANT, relocation_distance(placement, site)
    )


def _first_feasible(
    placement: Placement,
    candidates: List[RelocationSite],
    sites: List[RelocationSite],
) -> Optional[PlannedMove]:
    """``no-break`` rule: the bottom-left-most candidate reachable as a
    slide or a copy, or None."""
    site_set = {(s.shape_index, s.x, s.y) for s in sites}
    for site in sorted(candidates, key=_bottom_left):
        move = _plan_move(placement, site, site_set)
        if move is not None:
            return move
    return None


def _plan_move(
    placement: Placement, site: RelocationSite, site_set: set
) -> Optional[PlannedMove]:
    """One candidate site as a slide or copy move (None = unreachable)."""
    source_cells = {(x, y) for x, y, _ in placement.absolute_cells()}
    fp = placement.module.shapes[site.shape_index]
    target_cells = {(site.x + dx, site.y + dy) for dx, dy, _ in fp.cells}
    slide = (
        site.shape_index == placement.shape_index
        and (site.x == placement.x or site.y == placement.y)
    )
    if slide:
        window = set(source_cells)
        feasible = True
        for x, y in _slide_anchors(placement, (site.x, site.y)):
            if (site.shape_index, x, y) not in site_set:
                feasible = False
                break
            window |= {(x + dx, y + dy) for dx, dy, _ in fp.cells}
        if feasible:
            # a glide rewrites every column it passes through, not just
            # the endpoints relocation_distance sees
            frames = len({x for x, _ in window})
            return _move(
                placement, site, MOVE_SLIDE, frames, tuple(sorted(window))
            )
        # an infeasible glide may still be reachable as a copy
    if not target_cells.isdisjoint(source_cells):
        # copy-then-switch needs both footprints live at once
        return None
    return _move(
        placement, site, MOVE_COPY, relocation_distance(placement, site),
        tuple(sorted(source_cells | target_cells)),
    )


def defragment(
    result: PlacementResult, allow_shape_change: bool = False
) -> DefragPlan:
    """Greedy left-compaction of a placed system (instant moves).

    Returns an instant :class:`DefragPlan`: a new :class:`PlacementResult`
    (the input is not modified) plus the move list with per-move
    reconfiguration frame costs.  A termination guard of four moves per
    placement bounds the pass.
    """
    return _compact(result, allow_shape_change, _teleport)


def plan_states(
    result: PlacementResult, plan: DefragPlan
) -> Iterator[PlacementResult]:
    """Every intermediate floorplan state of ``plan``, for verification.

    Replays the plan step by step from ``result``: a slide yields one
    state per intermediate anchor, a copy yields the double-occupancy
    state (the mover placed at source *and* target simultaneously — the
    no-break invariant is that this state is overlap-free), and every
    move yields the state after it completes.  Feed each state to
    :meth:`PlacementResult.verify` to prove no plan step ever overlaps a
    running module.
    """
    placements: Dict[str, Placement] = {
        p.module.name: p for p in result.placements
    }

    def state(extra: List[Placement] = []) -> PlacementResult:
        return PlacementResult(
            result.region, list(placements.values()) + extra
        )

    for move in plan.moves:
        p = placements[move.module]
        target = Placement(p.module, move.to_shape, *move.to_pos)
        if move.kind == MOVE_SLIDE:
            for x, y in _slide_anchors(p, move.to_pos):
                placements[move.module] = Placement(
                    p.module, move.to_shape, x, y
                )
                yield state()
        elif move.kind == MOVE_COPY:
            # copy-then-switch: source and target coexist for the window
            del placements[move.module]
            yield state(extra=[p, target])
        placements[move.module] = target
        yield state()


def _slide_anchors(
    placement: Placement, to_pos: Tuple[int, int]
) -> Iterator[Tuple[int, int]]:
    """Anchor path of an axis-aligned glide, source exclusive."""
    x, y = placement.x, placement.y
    tx, ty = to_pos
    dx = 0 if tx == x else (1 if tx > x else -1)
    dy = 0 if ty == y else (1 if ty > y else -1)
    while (x, y) != (tx, ty):
        x, y = x + dx, y + dy
        yield x, y


# ----------------------------------------------------------------------
# Defragmenter protocol and the strategies by name
# ----------------------------------------------------------------------
class Defragmenter:
    """Plans one defragmentation pass over a live floorplan.

    Planners are pure: they never mutate the input result.  An
    ``instant`` plan carries no move windows and the runtime manager
    applies its end state atomically; any other plan is a windowed move
    sequence the manager schedules on its logical clock.
    """

    name = "defragmenter"

    def plan(
        self, result: PlacementResult, allow_shape_change: bool = False
    ) -> DefragPlan:
        raise NotImplementedError


class GreedyCompactionDefragmenter(Defragmenter):
    """The compaction pass with teleporting moves (the oracle)."""

    name = "greedy-compaction"

    def plan(
        self, result: PlacementResult, allow_shape_change: bool = False
    ) -> DefragPlan:
        return defragment(result, allow_shape_change)


class NoBreakDefragmenter(Defragmenter):
    """The compaction pass as a no-break move sequence.

    Every move must be *executable against running modules*: a slide
    needs a free glide path, a copy needs a target disjoint from its own
    source (the module occupies both for the move window).  The runtime
    manager re-validates each move at start time anyway, because
    arrivals interleave with execution.
    """

    name = "no-break"

    def plan(
        self, result: PlacementResult, allow_shape_change: bool = False
    ) -> DefragPlan:
        return _compact(result, allow_shape_change, _first_feasible)


#: every defragmentation strategy by name (``RuntimeConfig.defragmenter``)
DEFRAGMENTERS: Dict[str, Callable[[], Defragmenter]] = {
    cls.name: cls
    for cls in (GreedyCompactionDefragmenter, NoBreakDefragmenter)
}
