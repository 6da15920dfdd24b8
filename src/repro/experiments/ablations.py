"""Ablation studies (A1-A4 in DESIGN.md).

Beyond reproducing the paper's numbers, these quantify the design choices:
how utilization scales with the number of alternatives, how fabric
heterogeneity interacts with alternatives, how the CP placer compares to
the related-work baselines, and what the solver heuristics contribute.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.lns import LNSConfig, LNSPlacer
from repro.core.placer import CPPlacer, PlacerConfig
from repro.experiments.config import default_fabric
from repro.fabric.devices import columnar_device, homogeneous_device, irregular_device
from repro.fabric.region import PartialRegion
from repro.metrics.utilization import extent_utilization
from repro.modules.generator import GeneratorConfig, ModuleGenerator
from repro.placer import (
    AnalyticalConfig,
    AnalyticalPlacer,
    AnnealingConfig,
    AnnealingPlacer,
    BestFitPlacer,
    BottomLeftPlacer,
    FirstFitPlacer,
    KamerPlacer,
)


@dataclass
class SweepPoint:
    """One measured configuration of a sweep."""

    label: str
    utilization: float
    extent: Optional[int]
    placed: int
    unplaced: int
    elapsed: float


def _place_lns(region, modules, time_limit: float, seed: int) -> SweepPoint:
    res = LNSPlacer(LNSConfig(time_limit=time_limit, seed=seed)).place(region, modules)
    if res.placements:
        res.verify()
    return SweepPoint(
        label="",
        utilization=extent_utilization(res),
        extent=res.extent,
        placed=len(res.placements),
        unplaced=len(res.unplaced),
        elapsed=res.elapsed,
    )


# ----------------------------------------------------------------------
# A1 — utilization vs number of design alternatives
# ----------------------------------------------------------------------
def alternatives_sweep(
    counts: Sequence[int] = (1, 2, 3, 4),
    n_modules: int = 30,
    seed: int = 5,
    time_limit: float = 6.0,
) -> List[SweepPoint]:
    """A1: place the same module sets restricted to k alternatives."""
    region = default_fabric()
    cfg = GeneratorConfig(n_alternatives=max(counts))
    base = ModuleGenerator(seed=seed, config=cfg).generate_set(n_modules)
    points = []
    for k in counts:
        modules = [m.restricted(k) for m in base]
        p = _place_lns(region, modules, time_limit, seed)
        p.label = f"alternatives={k}"
        points.append(p)
    return points


# ----------------------------------------------------------------------
# A2 — fabric heterogeneity
# ----------------------------------------------------------------------
def heterogeneity_sweep(
    n_modules: int = 20,
    seed: int = 5,
    time_limit: float = 6.0,
) -> List[SweepPoint]:
    """Homogeneous vs regular columns vs irregular clock-interrupted."""
    fabrics = {
        "homogeneous": homogeneous_device(160, 24),
        "columnar": columnar_device(160, 24, bram_stride=8, dsp_stride=0),
        "irregular": irregular_device(160, 24, seed=42),
    }
    # homogeneous fabrics cannot host BRAM modules; use a CLB-only workload
    cfg = GeneratorConfig(bram_min=0, bram_max=0)
    modules = ModuleGenerator(seed=seed, config=cfg).generate_set(n_modules)
    points = []
    for label, grid in fabrics.items():
        region = PartialRegion.whole_device(grid)
        p = _place_lns(region, modules, time_limit, seed)
        p.label = label
        points.append(p)
    return points


# ----------------------------------------------------------------------
# A3 — placer comparison
# ----------------------------------------------------------------------
def baseline_comparison(
    n_modules: int = 30,
    seed: int = 5,
    time_limit: float = 8.0,
) -> List[SweepPoint]:
    """A3: every placer on one Table-I style instance."""
    region = default_fabric()
    modules = ModuleGenerator(seed=seed).generate_set(n_modules)
    placers = [
        ("cp-lns", lambda: LNSPlacer(LNSConfig(time_limit=time_limit, seed=seed))),
        ("bottom-left", BottomLeftPlacer),
        ("best-fit", BestFitPlacer),
        ("first-fit", FirstFitPlacer),
        ("kamer", KamerPlacer),
        (
            "annealing",
            lambda: AnnealingPlacer(
                AnnealingConfig(time_limit=time_limit, seed=seed)
            ),
        ),
        (
            # a quarter of the annealing budget: the acceptance bar is
            # "at least annealing quality in at most 25% of its time"
            "analytical",
            lambda: AnalyticalPlacer(
                AnalyticalConfig(time_limit=time_limit / 4, seed=seed)
            ),
        ),
    ]
    points = []
    for label, factory in placers:
        res = factory().place(region, modules)
        if res.placements:
            res.verify()
        points.append(
            SweepPoint(
                label=label,
                utilization=extent_utilization(res),
                extent=res.extent,
                placed=len(res.placements),
                unplaced=len(res.unplaced),
                elapsed=res.elapsed,
            )
        )
    return points


# ----------------------------------------------------------------------
# A9 — uniform backend comparison (the name-driven A3)
# ----------------------------------------------------------------------
def backend_comparison(
    names: Optional[Sequence[str]] = None,
    n_modules: int = 12,
    seed: int = 5,
    time_limit: float = 3.0,
) -> List[SweepPoint]:
    """A9: every backend of ``BACKENDS`` on one instance, via the uniform
    :class:`~repro.core.backend.PlacementRequest` surface.

    Unlike :func:`baseline_comparison` (which hand-wires each placer's
    native config), this goes through the backend names only — what the
    ``--backend`` runner flag selects from.
    """
    from repro.core.backend import BACKENDS, PlacementRequest, create_backend
    from repro.core.portfolio import PortfolioConfig

    region = default_fabric()
    modules = ModuleGenerator(seed=seed).generate_set(n_modules)
    selected = list(names) if names else sorted(BACKENDS)
    # structural knobs the request cannot carry (worker counts etc.)
    configs = {
        "portfolio": PortfolioConfig(n_workers=2, time_limit=time_limit),
    }
    points = []
    for name in selected:
        backend = create_backend(name, configs.get(name))
        res = backend.place(
            PlacementRequest(region, modules, seed=seed, time_limit=time_limit)
        )
        if res.placements:
            res.verify()
        points.append(
            SweepPoint(
                label=name,
                utilization=extent_utilization(res),
                extent=res.extent,
                placed=len(res.placements),
                unplaced=len(res.unplaced),
                elapsed=res.elapsed,
            )
        )
    return points


# ----------------------------------------------------------------------
# A4 — solver strategy / budget anatomy
# ----------------------------------------------------------------------
def solver_strategy_sweep(
    n_modules: int = 10,
    seed: int = 9,
    time_limit: float = 4.0,
) -> List[SweepPoint]:
    """fail-first vs static branching, with/without symmetry breaking."""
    region = default_fabric(96, 20, seed=21)
    modules = ModuleGenerator(seed=seed).generate_set(n_modules)
    variants = [
        ("fail-first", PlacerConfig(time_limit=time_limit, strategy="fail-first")),
        ("static", PlacerConfig(time_limit=time_limit, strategy="static")),
        (
            "fail-first/no-symmetry",
            PlacerConfig(
                time_limit=time_limit, strategy="fail-first",
                symmetry_breaking=False,
            ),
        ),
    ]
    points = []
    for label, cfg in variants:
        res = CPPlacer(cfg).place(region, modules)
        if res.placements:
            res.verify()
        points.append(
            SweepPoint(
                label=label,
                utilization=extent_utilization(res),
                extent=res.extent,
                placed=len(res.placements),
                unplaced=len(res.unplaced),
                elapsed=res.elapsed,
            )
        )
    return points


def format_sweep(points: List[SweepPoint], title: str = "") -> str:
    """Tabular rendering of sweep points."""
    lines = []
    if title:
        lines.append(title)
    header = f"{'configuration':<26} {'util':>7} {'extent':>7} {'placed':>7} {'time':>8}"
    lines.append(header)
    lines.append("-" * len(header))
    for p in points:
        ext = str(p.extent) if p.extent is not None else "-"
        lines.append(
            f"{p.label:<26} {p.utilization:>6.1%} {ext:>7} "
            f"{p.placed:>4}/{p.placed + p.unplaced:<2} {p.elapsed:>7.2f}s"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# A8 — static-region fraction (the Figure 4c modelling)
# ----------------------------------------------------------------------
def static_fraction_sweep(
    fractions: Sequence[float] = (0.0, 0.25, 0.5),
    n_modules: int = 12,
    seed: int = 5,
    time_limit: float = 5.0,
) -> List[SweepPoint]:
    """A8: utilization as the static region grows (Fig. 4c models ~50%).

    The static region occupies the leftmost columns; the reconfigurable
    area shrinks accordingly, so the same workload packs tighter or stops
    fitting — quantifying how much slack the Figure 4c split leaves.
    """
    region_full = default_fabric()
    modules = ModuleGenerator(seed=seed).generate_set(n_modules)
    points = []
    for frac in fractions:
        if not 0.0 <= frac < 1.0:
            raise ValueError(f"static fraction {frac} outside [0, 1)")
        static_cols = int(round(frac * region_full.width))
        if static_cols:
            region = PartialRegion.with_static_box(
                region_full.grid, 0, 0, static_cols, region_full.height
            )
        else:
            region = region_full
        p = _place_lns(region, modules, time_limit, seed)
        p.label = f"static={frac:.0%}"
        points.append(p)
    return points
