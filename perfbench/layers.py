"""Per-layer timing measured from outside the program.

The traced passes of the benchmark wrap the public entry point of every
layer on the serving and solving paths (``LAYERS`` below) and keep one
call stack across them, so each layer gets its call count, its total time
(outermost calls only, so recursion is not counted twice) and its *self*
time: the wrapped call's duration minus the part covered by wrapped calls
it made.  Self times of different layers never overlap, which is what lets
``trace.coverage_pct`` compare their sum with the measured submit or solve
time.

Nothing in ``src/`` is edited: :meth:`LayerClock.install` swaps the
wrapped functions into the classes and modules that hold them, and
:meth:`LayerClock.uninstall` puts the originals back, so untraced passes
run the unmodified program.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import repro.fabric.masks as masks_module
from repro.core.backend.protocol import PlacementBackend
from repro.core.defrag import Defragmenter
from repro.core.placement_model import PlacementModel
from repro.core.runtime import RuntimePlacementManager
from repro.core.service import Router
from repro.cp.bnb import BranchAndBound
from repro.cp.engine import Engine
from repro.geost.placement import PlacementKernel

#: (layer name, owner, attribute) of every wrapped entry point.  An owner
#: that is a base class stands for itself and every subclass that
#: overrides the attribute (routers and defragmenters override the base
#: method).  ``rung`` is split by backend name at call time.
LAYERS: List[Tuple[str, object, str]] = [
    ("service.route", Router, "order"),
    ("runtime.advance", RuntimePlacementManager, "advance_to"),
    ("runtime.offer", RuntimePlacementManager, "offer"),
    ("runtime.park", RuntimePlacementManager, "park"),
    ("runtime.residual", RuntimePlacementManager, "residual_region"),
    ("rung", PlacementBackend, "place"),
    ("defrag.plan", Defragmenter, "plan"),
    ("model.build", PlacementModel, "__init__"),
    ("cp.fixpoint", Engine, "fixpoint"),
    ("search.bnb", BranchAndBound, "run"),
    ("geost.propagate", PlacementKernel, "propagate"),
]

#: the anchor-mask builder is a module-level function imported by name
#: into several modules; every module-level reference is wrapped
MASKS_LAYER = "masks.build"


def _owners(base: type, attr: str) -> List[type]:
    """``base`` and every subclass that defines ``attr`` itself."""
    out, todo = [], [base]
    while todo:
        cls = todo.pop()
        if attr in cls.__dict__:
            out.append(cls)
        todo.extend(cls.__subclasses__())
    return out


class LayerClock:
    """Call counts, total and self time per layer, plus layer counters."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        #: outcome counters observed at the layer boundaries
        self.counts: Dict[str, int] = defaultdict(int)
        #: [layer name, time covered by wrapped children] per open call
        self._stack: List[list] = []
        self._saved: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def _wrap(
        self,
        fn: Callable,
        layer: Callable[[tuple], str],
        observe: Optional[Callable[[str, tuple, object], None]] = None,
    ) -> Callable:
        stack = self._stack
        calls, self_s, total_s = self.calls, self.self_s, self.total_s

        def wrapper(*args, **kwargs):
            name = layer(args)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                calls[name] += 1
                self_s[name] += dt - frame[1]
                if not any(f[0] == name for f in stack):
                    total_s[name] += dt
            if observe is not None:
                observe(name, args, result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _observe_rung(self, name: str, args: tuple, result) -> None:
        counts = self.counts
        if result.placements:
            counts[f"{name}.hits"] += 1
        search = result.stats.get("search")
        if search is not None:
            counts["search.nodes"] += search.nodes
            counts["search.backtracks"] += search.backtracks
        first = result.stats.get("first_incumbent_nodes")
        if first is not None:
            counts["search.first_incumbent_nodes"] += first

    def _observe_offer(self, name: str, args: tuple, result) -> None:
        if result is None:
            self.counts["runtime.offer.declined"] += 1

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Swap the wrapped entry points in (idempotent per clock)."""
        if self._saved:
            return
        observers = {
            "rung": self._observe_rung,
            "runtime.offer": self._observe_offer,
        }
        for layer, base, attr in LAYERS:
            if layer == "rung":
                def name_of(args):
                    return f"rung.{args[0].name}"
            else:
                def name_of(args, _layer=layer):
                    return _layer
            for cls in _owners(base, attr):
                original = cls.__dict__[attr]
                self._saved.append((cls, attr, original))
                setattr(
                    cls, attr,
                    self._wrap(original, name_of, observers.get(layer)),
                )
        original = masks_module.valid_anchor_mask
        wrapped = self._wrap(original, lambda args: MASKS_LAYER)
        for mod_name, module in list(sys.modules.items()):
            if not mod_name.startswith("repro") or module is None:
                continue
            if getattr(module, "valid_anchor_mask", None) is original:
                self._saved.append((module, "valid_anchor_mask", original))
                setattr(module, "valid_anchor_mask", wrapped)

    def uninstall(self) -> None:
        """Put every original entry point back."""
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # ------------------------------------------------------------------
    def self_time_s(self) -> float:
        """Summed self time of every layer (never double counts)."""
        return sum(self.self_s.values())
