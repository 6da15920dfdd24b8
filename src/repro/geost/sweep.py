"""The geost sweep-point algorithm.

Bounds filtering for one object: find the lexicographically smallest (or
largest) anchor point, with a chosen dimension most significant, that is
feasible for *at least one* candidate shape — i.e. not covered by that
shape's forbidden anchor boxes.  When the point under inspection is
infeasible for every shape, each shape yields a forbidden box containing
it; the intersection of those boxes is a region that is infeasible for
*all* shapes, so the sweep jumps past it (odometer-style) instead of
stepping by one.  This is the essence of Beldiceanu et al.'s k-dimensional
sweep, specialized to interval (bounds) domains.

One refinement over the textbook version: among the forbidden boxes
covering the sweep point, each shape reports the one with *maximal*
``end`` along the sweep's least-significant axis (not the first hit), so
the covering intersection — and hence the odometer jump — is as wide as
possible.  The choice never changes the sweep's result, only how many
points it inspects: any covering box is a sound jump, and the returned
point is the exact lexicographic extremum either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from repro.geost.boxes import Box

#: inclusive per-dimension bounds of the anchor search space
Bounds = Sequence[Tuple[int, int]]


@dataclass
class SweepStats:
    """Sweep-point accounting, shared across calls (tests / benchmarks)."""

    #: points inspected (one covering-intersection query each)
    iterations: int = 0


class ShapeView:
    """The forbidden anchor space of one candidate shape.

    A point is infeasible for the shape iff it lies in one of the
    forbidden ``boxes``.  :meth:`covering_box` returns a forbidden box
    containing the query point — preferring maximal ``end`` along
    ``jump_dim`` — or ``None`` when the point is feasible for this shape.
    """

    __slots__ = ("boxes",)

    def __init__(self, boxes: Sequence[Box]) -> None:
        self.boxes = list(boxes)

    def reflected(self) -> "ShapeView":
        """This forbidden space reflected through the origin."""
        return ShapeView([b.reflected() for b in self.boxes])

    def covering_box(self, p: Tuple[int, ...], jump_dim: int) -> Optional[Box]:
        best: Optional[Box] = None
        for b in self.boxes:
            if b.contains_point(p) and (
                best is None or b.end[jump_dim] > best.end[jump_dim]
            ):
                best = b
        return best


#: what the sweep accepts per shape: bare forbidden boxes or a view
ShapeInput = Union[Sequence[Box], ShapeView]


def _as_views(per_shape: Sequence[ShapeInput]) -> List[ShapeView]:
    return [s if isinstance(s, ShapeView) else ShapeView(s) for s in per_shape]


def _covering_intersection(
    p: Tuple[int, ...], views: Sequence[ShapeView], jump_dim: int
) -> Optional[Box]:
    """If ``p`` is infeasible for every shape, a box around ``p`` that is
    infeasible for every shape; ``None`` if ``p`` is feasible for some shape.
    """
    cover: Optional[Box] = None
    for view in views:
        found = view.covering_box(p, jump_dim)
        if found is None:
            return None  # p feasible for this shape
        cover = found if cover is None else cover.intersection(found)
        # intersection always contains p, hence is never None
    return cover


def sweep_min(
    bounds: Bounds,
    per_shape_boxes: Sequence[ShapeInput],
    dim: int,
    stats: Optional[SweepStats] = None,
) -> Optional[Tuple[int, ...]]:
    """Smallest feasible point with ``dim`` as the most significant axis.

    Returns ``None`` when no feasible point exists in ``bounds``.  The
    returned point's ``dim`` coordinate is the new lower bound for that
    anchor variable.
    """
    k = len(bounds)
    if not per_shape_boxes:
        raise ValueError("at least one candidate shape is required")
    views = _as_views(per_shape_boxes)
    order = [dim] + [d for d in range(k) if d != dim]  # most significant first
    jump_dim = order[-1]
    p = [lo for lo, _ in bounds]
    if any(lo > hi for lo, hi in bounds):
        return None
    while True:
        if stats is not None:
            stats.iterations += 1
        cover = _covering_intersection(tuple(p), views, jump_dim)
        if cover is None:
            return tuple(p)
        # jump past the covering region along the least significant axis,
        # carrying into more significant axes odometer-style
        for pos in range(k - 1, -1, -1):
            d = order[pos]
            nxt = cover.end[d] if pos == k - 1 else p[d] + 1
            # only the least significant axis can use the full jump; more
            # significant axes advance by one step when carrying
            if pos == k - 1:
                p[d] = max(nxt, p[d] + 1)
            else:
                p[d] = nxt
            if p[d] <= bounds[d][1]:
                # reset all less significant axes to their minima
                for q in range(pos + 1, k):
                    p[order[q]] = bounds[order[q]][0]
                break
            if pos == 0:
                return None  # most significant axis overflowed


def sweep_max(
    bounds: Bounds,
    per_shape_boxes: Sequence[ShapeInput],
    dim: int,
    stats: Optional[SweepStats] = None,
) -> Optional[Tuple[int, ...]]:
    """Mirror of :func:`sweep_min`: largest feasible point on axis ``dim``.

    Implemented by reflecting the search space through the origin and
    reusing :func:`sweep_min` (see :meth:`Box.reflected`).
    """
    refl_bounds = [(-hi, -lo) for lo, hi in bounds]
    refl_views = [v.reflected() for v in _as_views(per_shape_boxes)]
    p = sweep_min(refl_bounds, refl_views, dim, stats)
    if p is None:
        return None
    return tuple(-v for v in p)


def point_feasible(
    p: Tuple[int, ...], per_shape_boxes: Sequence[ShapeInput]
) -> bool:
    """Is ``p`` outside the forbidden boxes of at least one shape?"""
    return _covering_intersection(p, _as_views(per_shape_boxes), 0) is None
