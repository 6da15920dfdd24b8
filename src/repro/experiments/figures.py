"""Figure reproductions (Figures 1, 3, 4, 5).

The paper's figures are qualitative illustrations; these drivers
regenerate their content — alternative galleries, with/without placement
comparisons, and the constraint-by-constraint shrinkage of the valid
placement set — as data plus ASCII art, so the benches can both render
them and assert their quantitative shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.core.alternatives import expand_alternatives
from repro.core.lns import LNSConfig, LNSPlacer
from repro.core.occupancy import Occupancy
from repro.core.result import Placement, PlacementResult
from repro.experiments.config import default_fabric
from repro.fabric.masks import first_anchor, valid_anchor_mask
from repro.fabric.region import PartialRegion
from repro.flow.visualize import alternatives_gallery, comparison_figure
from repro.modules.generator import ModuleGenerator
from repro.modules.module import Module
from repro.modules.transform import build_body


# ----------------------------------------------------------------------
# Figure 1 — one module, several functionally equivalent layouts
# ----------------------------------------------------------------------
def figure1_module(n_alternatives: int = 5) -> Module:
    """A module akin to Figure 1: 24 CLBs + 2 BRAMs, several layouts."""
    base = build_body(24, 6, bram_cells=2, bram_column=2)
    shapes = expand_alternatives(base, max_alternatives=n_alternatives, seed=3)
    return Module("fig1", shapes)


def figure1_gallery(n_alternatives: int = 5) -> str:
    """ASCII gallery of the Figure 1 module's alternatives."""
    return alternatives_gallery(figure1_module(n_alternatives))


# ----------------------------------------------------------------------
# Figures 3 & 5 — placements with vs without design alternatives
# ----------------------------------------------------------------------
def figure3_comparison(
    n_modules: int = 8,
    seed: int = 3,
    time_limit: float = 4.0,
) -> Tuple[PlacementResult, PlacementResult, str]:
    """Place a small module set both ways; returns (without, with, figure)."""
    region = default_fabric(64, 16, seed=7)
    modules = ModuleGenerator(seed=seed).generate_set(n_modules)
    without = LNSPlacer(LNSConfig(time_limit=time_limit, seed=seed)).place(
        region, [m.restricted(1) for m in modules]
    )
    with_alts = LNSPlacer(LNSConfig(time_limit=time_limit, seed=seed)).place(
        region, modules
    )
    return without, with_alts, comparison_figure(without, with_alts)


# ----------------------------------------------------------------------
# Figure 4 — how each constraint family restricts placement
# ----------------------------------------------------------------------
@dataclass
class ConstraintAnatomy:
    """Valid anchor counts as constraints are added (Figure 4 a-d)."""

    #: (a) in-bounds anchors only (bounding box of the device)
    in_bounds: int
    #: (b) + resource compatibility on the full device
    resource_matched: int
    #: (c) + restricted to the reconfigurable region (static masked)
    in_region: int
    #: (d) + non-overlap with one already-placed module
    non_overlapping: int

    def monotone(self) -> bool:
        return (
            self.in_bounds
            >= self.resource_matched
            >= self.in_region
            >= self.non_overlapping
        )


def figure4_constraint_anatomy(
    seed: int = 11, module_seed: int = 2
) -> ConstraintAnatomy:
    """Measure the shrinking valid-placement set of Figure 4."""
    from repro.fabric.devices import irregular_device

    grid = irregular_device(48, 16, seed=seed)
    # (a) bounding box only: anchors where the bbox fits, ignoring types
    module = ModuleGenerator(seed=module_seed).generate()
    fp = module.primary()
    in_bounds = (grid.width - fp.width + 1) * (grid.height - fp.height + 1)

    # (b) + resource matching on the whole device
    whole = PartialRegion.whole_device(grid)
    resource_matched = int(valid_anchor_mask(whole, fp).sum())

    # (c) + static region masked off (right half static, like Fig 4c)
    region = PartialRegion.with_static_box(
        grid, grid.width // 2, 0, grid.width - grid.width // 2, grid.height
    )
    in_region = int(valid_anchor_mask(region, fp).sum())

    # (d) + one placed module blocking part of the region
    blocker = ModuleGenerator(seed=module_seed + 1).generate()
    hit = first_anchor(valid_anchor_mask(region, blocker.primary()))
    if hit is None:
        non_overlapping = in_region
    else:
        ledger = Occupancy(region, [Placement(blocker, 0, *hit)])
        (free,) = ledger.anchors([fp], ledger.held)
        non_overlapping = int(ledger.mask(free).sum())
    return ConstraintAnatomy(in_bounds, resource_matched, in_region, non_overlapping)
