"""The constraint model of Section III, assembled.

Per module ``i`` the model has three variables — anchor ``x_i``, ``y_i``
and shape alternative ``s_i`` — and posts:

* the :class:`~repro.geost.placement.PlacementKernel` enforcing M_a
  (in-region), M_b (resource matching) and M_c (non-overlap),
* the objective coupling of :mod:`repro.core.objective` (Eq. 6),
* a redundant :class:`~repro.cp.constraints.cumulative.Cumulative`
  projection when all alternatives of all modules are bounding-box-dense
  (a classic strengthening; skipped otherwise because projections of
  sparse footprints would be unsound with footprint heights), and
* symmetry breaking — interchangeable modules (identical alternative
  sets) are ordered by anchor x.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.cp.constraints import Task
from repro.cp.model import Model
from repro.cp.variable import IntVar
from repro.core.objective import ObjectiveKind, build_objective
from repro.fabric.cache import AnchorMaskCache
from repro.fabric.region import PartialRegion
from repro.geost.placement import PlacementKernel
from repro.modules.module import Module
from repro.obs.trace import CACHE_MASKS, Tracer


class PlacementModel:
    """CP model for placing a module set on a partial region.

    ``tracer``/``profile`` reach the engine before the kernel is posted,
    so the (expensive) root propagation is observable too.  ``cache``
    (an :class:`~repro.fabric.cache.AnchorMaskCache`) memoizes the static
    anchor masks across repeated constructions — the LNS/portfolio hot
    path; the per-construction hit/miss deltas land in
    :attr:`cache_stats` and, when a tracer is attached, in one
    ``cache.masks`` event.
    """

    def __init__(
        self,
        region: PartialRegion,
        modules: Sequence[Module],
        objective: ObjectiveKind = ObjectiveKind.MIN_EXTENT_X,
        symmetry_breaking: bool = True,
        tracer: Optional[Tracer] = None,
        profile: bool = False,
        cache: Optional[AnchorMaskCache] = None,
    ) -> None:
        if not modules:
            raise ValueError("nothing to place")
        self.region = region
        self.modules = list(modules)
        self.model = Model("placement", tracer=tracer, profile=profile)
        m = self.model

        self.xs: List[IntVar] = []
        self.ys: List[IntVar] = []
        self.ss: List[IntVar] = []
        for i, mod in enumerate(self.modules):
            # anchors start at the full grid; the kernel prunes them to the
            # statically valid anchor sets on post (M_a and M_b)
            self.xs.append(m.int_var(0, region.width - 1, f"x[{i}]"))
            self.ys.append(m.int_var(0, region.height - 1, f"y[{i}]"))
            self.ss.append(m.int_var(0, mod.n_alternatives - 1, f"s[{i}]"))

        self.kernel = PlacementKernel(
            region, self.modules, self.xs, self.ys, self.ss, cache=cache
        )
        #: anchor-mask cache increments of this construction (None = uncached)
        self.cache_stats = self.kernel.cache_stats
        if (
            self.cache_stats is not None
            and tracer is not None
            and tracer.enabled
        ):
            tracer.emit(CACHE_MASKS, **self.cache_stats)
        m.post(self.kernel)

        self.objective_var = build_objective(
            m, objective, self.modules, self.xs, self.ys, self.ss,
            region.width, region.height,
        )

        if symmetry_breaking:
            self._break_symmetries()
        self._post_cumulative()

    # ------------------------------------------------------------------
    def _break_symmetries(self) -> None:
        """Order anchors of interchangeable modules lexicographically."""
        groups: Dict[Tuple, List[int]] = {}
        for i, mod in enumerate(self.modules):
            groups.setdefault(tuple(mod.shapes), []).append(i)
        for indices in groups.values():
            for a, b in zip(indices, indices[1:]):
                # x_a <= x_b is a sound ordering for identical modules
                self.model.add_le(self.xs[a], self.xs[b])

    def _post_cumulative(self) -> None:
        """Redundant x-projection: sum of heights at any column <= H.

        Only sound when every alternative of every module fills its
        bounding box (dense rectangles) *and* alternatives of one module
        share dimensions; otherwise the projection over-approximates and
        is skipped.
        """
        tasks: List[Task] = []
        for i, mod in enumerate(self.modules):
            dims = {(fp.width, fp.height) for fp in mod.shapes}
            if len(dims) != 1 or not all(fp.is_rectangular() for fp in mod.shapes):
                return
            w, h = next(iter(dims))
            tasks.append(Task(self.xs[i], w, h))
        self.model.add_cumulative(tasks, self.region.height)

    # ------------------------------------------------------------------
    def decision_vars(self, order: Optional[Sequence[int]] = None) -> List[IntVar]:
        """Interleaved x, y, s per module, in the given module order.

        Fixing ``x`` then ``y`` lets the kernel prune ``y`` under the fixed
        column before it is branched, and ``s`` is usually fixed by
        propagation once the anchor is known.
        """
        if order is None:
            order = range(len(self.modules))
        out: List[IntVar] = []
        for i in order:
            out.extend((self.xs[i], self.ys[i], self.ss[i]))
        return out

    def area_order(self) -> List[int]:
        """Module indices by decreasing primary area (hardest first)."""
        return sorted(
            range(len(self.modules)),
            key=lambda i: -self.modules[i].primary().area,
        )
