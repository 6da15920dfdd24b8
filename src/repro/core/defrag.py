"""Runtime defragmentation: instant repacking and no-break move planning.

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

Two engines live behind a name-keyed registry
(:func:`register_defragmenter` / :func:`create_defragmenter`, mirroring
the backend and router registries):

* ``greedy-compaction`` — the original *instant* pass wrapped as a
  planner: :func:`defragment` teleports modules atomically and reports
  per-move frame costs without scheduling them.  It stays registered as
  the oracle the incremental engine is differential-tested against.
* ``no-break`` — plans move *sequences* that respect running modules,
  after van der Veen et al. ("Defragmenting the Module Layout of a
  Partially Reconfigurable Device") and Fekete et al. ("No-Break Dynamic
  Defragmentation of Reconfigurable Devices").  A module may only
  **slide** through currently-free space (an axis-aligned glide whose
  every intermediate anchor is a feasible free anchor), or **copy** to a
  disjoint free site and switch over.  Either way the move costs
  reconfiguration frames derived from :func:`~repro.core.relocation.relocation_distance`
  (the distinct columns the move touches), and during its move window
  the module occupies *both* source and target (plus, for a slide, every
  cell glided over) — the cells a mover holds are not obstacle-free for
  admission or for later moves.  The runtime manager executes the plan
  incrementally on its logical clock between arrivals
  (:mod:`repro.core.runtime`).

Both engines run their relocation-site probes through a shared
:class:`~repro.fabric.cache.AnchorMaskCache` when one is supplied — the
defrag pass is the hottest mask consumer on the serving path.  Each plan
keeps one occupancy grid: built once from the input floorplan, handed
to every probe (which lifts its module on a copy), and updated after
each simulated move by clearing the mover's old cells and imprinting its
new ones.

Shared algorithm skeleton: greedy left-compaction.  Repeatedly take the
module whose right edge defines the extent, enumerate its relocation
sites strictly left of its current anchor, move it to the
bottom-left-most feasible one; when the frontier is stuck, squeeze
interior modules left (never past the current extent — a squeeze move
may change shape, and an unguarded wider alternative could *grow* the
floorplan); stop when no module can move or the move budget is
exhausted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.relocation import (
    RelocationSite,
    relocation_distance,
    relocation_sites,
)
from repro.core.result import Placement, PlacementResult, imprint
from repro.fabric.cache import AnchorMaskCache


@dataclass
class Move:
    """One executed relocation (instant engine)."""

    module: str
    from_pos: Tuple[int, int]
    to_pos: Tuple[int, int]
    from_shape: int
    to_shape: int
    frames: int

    @property
    def changed_shape(self) -> bool:
        return self.from_shape != self.to_shape


@dataclass
class DefragResult:
    """Outcome of an instant defragmentation pass."""

    result: PlacementResult
    moves: List[Move] = field(default_factory=list)
    initial_extent: int = 0
    final_extent: int = 0

    @property
    def total_frames(self) -> int:
        return sum(m.frames for m in self.moves)

    @property
    def improvement(self) -> int:
        return self.initial_extent - self.final_extent


def _move_cells(occupied: np.ndarray, old: Placement, new: Placement) -> None:
    """Apply one simulated move to a plan's occupancy grid."""
    imprint(occupied, old, False)
    imprint(occupied, new, True)


def defragment(
    result: PlacementResult,
    allow_shape_change: bool = False,
    max_moves: Optional[int] = None,
    cache: Optional[AnchorMaskCache] = None,
) -> DefragResult:
    """Greedy left-compaction of a placed system (instant moves).

    Returns a new :class:`PlacementResult` (the input is not modified)
    plus the move list with per-move reconfiguration frame costs.
    ``max_moves`` is a hard cap on executed relocations; when None an
    internal termination guard bounds the pass instead.  ``cache``
    serves the relocation-site masks (see
    :func:`~repro.core.relocation.relocation_sites`).

    A pass never returns a worse floorplan: frontier moves strictly
    shrink the mover's right edge, and squeeze moves are capped at the
    current extent — without that cap a lexicographically-smaller anchor
    of a *wider* design alternative could grow the extent (a real
    regression, pinned by the tests).
    """
    placements = list(result.placements)
    current = PlacementResult(result.region, placements, list(result.unplaced))
    initial_extent = current.extent or 0
    occupied = current.occupancy_mask()
    moves: List[Move] = []
    # one unified move budget, checked in one place: the explicit cap, or
    # a termination guard — shape-changing moves may trade width for x,
    # so bound the pass length instead of relying on a monotone metric
    budget = max_moves if max_moves is not None else 4 * max(1, len(placements))

    # each loop iteration executes at most one move (frontier OR squeeze),
    # so this single guard caps both phases consistently
    while len(moves) < budget:
        extent = max((p.right for p in placements), default=0)
        frontier = [
            (i, p) for i, p in enumerate(placements) if p.right == extent
        ]
        moved = False
        for i, p in sorted(frontier, key=lambda t: -t[1].footprint.area):
            sites = relocation_sites(
                current, p, consider_alternatives=allow_shape_change,
                cache=cache, occupied=occupied,
            )
            # only strictly-left-shrinking targets count as compaction
            better = [
                s
                for s in sites
                if s.x + p.module.shapes[s.shape_index].width < p.right
            ]
            if not better:
                continue
            target = min(better, key=lambda s: (s.x, s.y, s.shape_index))
            new_p = Placement(p.module, target.shape_index, target.x, target.y)
            moves.append(
                Move(
                    module=p.module.name,
                    from_pos=(p.x, p.y),
                    to_pos=(target.x, target.y),
                    from_shape=p.shape_index,
                    to_shape=target.shape_index,
                    frames=relocation_distance(p, target),
                )
            )
            placements[i] = new_p
            _move_cells(occupied, p, new_p)
            current = PlacementResult(
                result.region, placements, list(result.unplaced)
            )
            moved = True
            break
        if not moved:
            # the frontier is stuck: squeeze interior modules left to open
            # space (in x order), then retry; stop when nothing moves at all
            for i, p in sorted(enumerate(placements), key=lambda t: t[1].x):
                sites = relocation_sites(
                    current, p, consider_alternatives=allow_shape_change,
                    cache=cache, occupied=occupied,
                )
                # a squeeze move may pick a different (wider) alternative:
                # cap its right edge at the current extent so the pass can
                # never worsen the floorplan it was asked to compact
                better = [
                    s
                    for s in sites
                    if (s.x, s.y) < (p.x, p.y)
                    and s.x + p.module.shapes[s.shape_index].width <= extent
                ]
                if not better:
                    continue
                target = min(better, key=lambda s: (s.x, s.y, s.shape_index))
                new_p = Placement(
                    p.module, target.shape_index, target.x, target.y
                )
                moves.append(
                    Move(
                        module=p.module.name,
                        from_pos=(p.x, p.y),
                        to_pos=(target.x, target.y),
                        from_shape=p.shape_index,
                        to_shape=target.shape_index,
                        frames=relocation_distance(p, target),
                    )
                )
                placements[i] = new_p
                _move_cells(occupied, p, new_p)
                current = PlacementResult(
                    result.region, placements, list(result.unplaced)
                )
                moved = True
                break
        if not moved:
            break

    final = PlacementResult(result.region, placements, list(result.unplaced))
    return DefragResult(
        result=final,
        moves=moves,
        initial_extent=initial_extent,
        final_extent=final.extent or 0,
    )


# ----------------------------------------------------------------------
# Planned (no-break) moves
# ----------------------------------------------------------------------
#: move kinds a plan may contain
MOVE_INSTANT = "instant"  # teleport (oracle engine only)
MOVE_SLIDE = "slide"      # glide through free space, same shape
MOVE_COPY = "copy"        # copy-then-switch to a disjoint free site


@dataclass(frozen=True)
class PlannedMove:
    """One scheduled relocation with its move-window footprint.

    ``window_cells`` are the cells the module holds for the whole move
    window: source ∪ target for a copy, the union of every intermediate
    footprint for a slide, empty for an instant (teleport) move.  The
    runtime manager imprints them into its occupancy while the move is
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

    ``instant`` plans (the ``greedy-compaction`` oracle) are applied
    atomically by the runtime manager, exactly like the original pass;
    incremental plans are executed move by move on the logical clock.
    ``result`` is the *simulated* end state assuming every move executes
    — the live outcome may fall short when moves are aborted by
    interleaved arrivals.
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
# Defragmenter protocol and registry (mirrors backends and routers)
# ----------------------------------------------------------------------
class Defragmenter:
    """Plans one defragmentation pass over a live floorplan.

    Planners are pure: they never mutate the input result.  ``instant``
    engines teleport (their moves carry no window and the runtime
    manager applies the end state atomically); incremental engines
    return windowed move sequences the manager schedules on its logical
    clock.
    """

    name = "defragmenter"
    #: True = the plan is applied atomically (the pre-no-break behavior)
    instant = True

    def plan(
        self,
        result: PlacementResult,
        allow_shape_change: bool = False,
        max_moves: Optional[int] = None,
        cache: Optional[AnchorMaskCache] = None,
    ) -> DefragPlan:
        raise NotImplementedError


class GreedyCompactionDefragmenter(Defragmenter):
    """The original instant pass, wrapped as a planner (the oracle)."""

    name = "greedy-compaction"
    instant = True

    def plan(
        self,
        result: PlacementResult,
        allow_shape_change: bool = False,
        max_moves: Optional[int] = None,
        cache: Optional[AnchorMaskCache] = None,
    ) -> DefragPlan:
        out = defragment(
            result,
            allow_shape_change=allow_shape_change,
            max_moves=max_moves,
            cache=cache,
        )
        moves = [
            PlannedMove(
                module=m.module,
                from_shape=m.from_shape,
                from_pos=m.from_pos,
                to_shape=m.to_shape,
                to_pos=m.to_pos,
                kind=MOVE_INSTANT,
                frames=m.frames,
            )
            for m in out.moves
        ]
        return DefragPlan(
            result=out.result,
            moves=moves,
            initial_extent=out.initial_extent,
            final_extent=out.final_extent,
            instant=True,
        )


class NoBreakDefragmenter(Defragmenter):
    """Greedy left-compaction as a no-break move sequence.

    Same skeleton as the oracle, but every move must be *executable
    against running modules*: a slide needs a free glide path, a copy
    needs a target disjoint from its own source (the module occupies
    both for the move window).  The plan simulates each move before
    appending the next, so move ``k`` is feasible in the state left by
    moves ``0..k-1`` — the runtime manager re-validates each move at
    start time anyway, because arrivals interleave with execution.
    """

    name = "no-break"
    instant = False

    def plan(
        self,
        result: PlacementResult,
        allow_shape_change: bool = False,
        max_moves: Optional[int] = None,
        cache: Optional[AnchorMaskCache] = None,
    ) -> DefragPlan:
        placements = list(result.placements)
        current = PlacementResult(
            result.region, placements, list(result.unplaced)
        )
        initial_extent = current.extent or 0
        occupied = current.occupancy_mask()
        moves: List[PlannedMove] = []
        budget = (
            max_moves if max_moves is not None
            else 4 * max(1, len(placements))
        )

        while len(moves) < budget:
            extent = max((p.right for p in placements), default=0)
            frontier = [
                (i, p) for i, p in enumerate(placements) if p.right == extent
            ]
            planned = None
            for i, p in sorted(frontier, key=lambda t: -t[1].footprint.area):
                sites = relocation_sites(
                    current, p, consider_alternatives=allow_shape_change,
                    cache=cache, occupied=occupied,
                )
                better = [
                    s
                    for s in sites
                    if s.x + p.module.shapes[s.shape_index].width < p.right
                ]
                planned = self._first_feasible(p, better, sites)
                if planned is not None:
                    planned = (i, planned)
                    break
            if planned is None:
                for i, p in sorted(enumerate(placements), key=lambda t: t[1].x):
                    sites = relocation_sites(
                        current, p,
                        consider_alternatives=allow_shape_change,
                        cache=cache, occupied=occupied,
                    )
                    # same extent cap as the instant squeeze phase: a
                    # wider alternative must never grow the floorplan
                    better = [
                        s
                        for s in sites
                        if (s.x, s.y) < (p.x, p.y)
                        and s.x + p.module.shapes[s.shape_index].width
                        <= extent
                    ]
                    planned = self._first_feasible(p, better, sites)
                    if planned is not None:
                        planned = (i, planned)
                        break
            if planned is None:
                break
            i, move = planned
            moves.append(move)
            new_p = Placement(
                placements[i].module, move.to_shape, *move.to_pos
            )
            _move_cells(occupied, placements[i], new_p)
            placements[i] = new_p
            current = PlacementResult(
                result.region, placements, list(result.unplaced)
            )

        final = PlacementResult(
            result.region, placements, list(result.unplaced)
        )
        return DefragPlan(
            result=final,
            moves=moves,
            initial_extent=initial_extent,
            final_extent=final.extent or 0,
            instant=False,
        )

    # ------------------------------------------------------------------
    def _first_feasible(
        self,
        placement: Placement,
        candidates: List[RelocationSite],
        sites: List[RelocationSite],
    ) -> Optional[PlannedMove]:
        """Bottom-left-most candidate reachable no-break, or None."""
        site_set = {(s.shape_index, s.x, s.y) for s in sites}
        for site in sorted(
            candidates, key=lambda s: (s.x, s.y, s.shape_index)
        ):
            move = self._plan_move(placement, site, site_set)
            if move is not None:
                return move
        return None

    def _plan_move(
        self,
        placement: Placement,
        site: RelocationSite,
        site_set: set,
    ) -> Optional[PlannedMove]:
        """One candidate site as a slide or copy move (None = unreachable)."""
        source_cells = {(x, y) for x, y, _ in placement.absolute_cells()}
        fp = placement.module.shapes[site.shape_index]
        target_cells = {
            (site.x + dx, site.y + dy) for dx, dy, _ in fp.cells
        }
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
                # a glide rewrites every column it passes through, not
                # just the endpoints relocation_distance sees
                frames = len({x for x, _ in window})
                return PlannedMove(
                    module=placement.module.name,
                    from_shape=placement.shape_index,
                    from_pos=(placement.x, placement.y),
                    to_shape=site.shape_index,
                    to_pos=(site.x, site.y),
                    kind=MOVE_SLIDE,
                    frames=frames,
                    window_cells=tuple(sorted(window)),
                )
            # an infeasible glide may still be reachable as a copy
        if not target_cells.isdisjoint(source_cells):
            # copy-then-switch needs both footprints live at once
            return None
        return PlannedMove(
            module=placement.module.name,
            from_shape=placement.shape_index,
            from_pos=(placement.x, placement.y),
            to_shape=site.shape_index,
            to_pos=(site.x, site.y),
            kind=MOVE_COPY,
            frames=relocation_distance(placement, site),
            window_cells=tuple(sorted(source_cells | target_cells)),
        )


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
#: factory signature: ``factory() -> Defragmenter``
DefragmenterFactory = Callable[[], Defragmenter]

_DEFRAGMENTERS: Dict[str, DefragmenterFactory] = {}


def register_defragmenter(
    name: str, factory: DefragmenterFactory, *, replace: bool = False
) -> None:
    """Register a defragmenter factory under ``name`` (loud on duplicates)."""
    if not name or not isinstance(name, str):
        raise ValueError(
            f"defragmenter name must be a non-empty string, got {name!r}"
        )
    if not replace and name in _DEFRAGMENTERS:
        raise ValueError(
            f"defragmenter {name!r} is already registered; pass replace=True "
            f"to override it deliberately"
        )
    _DEFRAGMENTERS[name] = factory


def unregister_defragmenter(name: str) -> None:
    """Remove a registered defragmenter (primarily for tests)."""
    _DEFRAGMENTERS.pop(name, None)


def create_defragmenter(name: str) -> Defragmenter:
    """Instantiate the registered defragmenter ``name`` (loud when unknown)."""
    try:
        factory = _DEFRAGMENTERS[name]
    except KeyError:
        known = ", ".join(sorted(_DEFRAGMENTERS)) or "<none>"
        raise ValueError(
            f"unknown defragmenter {name!r}; registered: {known}"
        ) from None
    return factory()


def available_defragmenters() -> List[str]:
    """Sorted names of every registered defragmentation strategy."""
    return sorted(_DEFRAGMENTERS)


for _cls in (GreedyCompactionDefragmenter, NoBreakDefragmenter):
    register_defragmenter(_cls.name, _cls)
