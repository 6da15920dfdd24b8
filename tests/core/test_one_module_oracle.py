"""Differential suite: the CP placer's one-module closed form against the
full CP model.

A one-module, first-solution, min-extent CP request is answered without a
model: the bottom-left ``(x, y, shape)`` over the shapes' anchor masks,
or a proven ``"infeasible"`` when no shape has an anchor.  Inside
:func:`tests.support.full_cp_model` the same request builds the
:class:`~repro.core.placement_model.PlacementModel` and dives.  Both must
give the same placement, status and extent.

Three input sets:

* seeded generator floorplans: Table-I style modules packed bottom-left
  on an irregular fabric, the next module probed on the residual;
* hypothesis residual regions on small fabrics, many with no anchor;
* the probes a ``serve-contended`` style replay sends to the CP rung.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.placer import CPPlacer, PlacerConfig, closed_form_applies
from repro.fabric.devices import homogeneous_device, irregular_device
from repro.fabric.region import PartialRegion
from repro.fabric.resource import ResourceType
from repro.modules.footprint import Footprint
from repro.modules.generator import GeneratorConfig, ModuleGenerator
from repro.modules.module import Module
from repro.placer.greedy import BottomLeftPlacer
from tests.support import full_cp_model, recorded_cp_probes

#: the serving probe's config (RuntimePlacementManager._place_once)
PROBE = PlacerConfig(time_limit=None, first_solution_only=True, profile=True)


def _answer(result):
    return (
        result.status,
        [(p.module.name, p.shape_index, p.x, p.y) for p in result.placements],
        [m.name for m in result.unplaced],
        result.extent,
    )


def _run(region, module, closed):
    assert closed_form_applies(PROBE, [module], None)
    if not closed:
        with full_cp_model():
            result = CPPlacer(PROBE).place(region, [module])
        assert "search" in result.stats or result.status == "infeasible"
        return result
    result = CPPlacer(PROBE).place(region, [module])
    assert result.stats["profile"].stop_reason == "closed-form"
    return result


def assert_same_as_full_model(region, module):
    """Closed form and full model agree on the answer; returns it."""
    closed = _answer(_run(region, module, closed=True))
    assert closed == _answer(_run(region, module, closed=False))
    return closed


# ----------------------------------------------------------------------
# Seeded generator floorplans
# ----------------------------------------------------------------------
SMALL = GeneratorConfig(
    clb_min=6, clb_max=30, bram_max=2, height_min=2, height_max=6,
    max_width=4,
)


def generator_floorplan(seed: int):
    """(residual region, probe module) of one seed: a bottom-left packing
    of a few generated modules on an irregular fabric, and the next
    generated module."""
    rng = random.Random(seed)
    region = PartialRegion.whole_device(
        irregular_device(
            rng.randint(14, 30), rng.randint(6, 12), seed=seed, bram_stride=5,
        )
    )
    modules = ModuleGenerator(seed=seed, config=SMALL).generate_set(
        rng.randint(1, 9)
    )
    *resident, probe = modules
    packed = BottomLeftPlacer().place(region, resident)
    occupied = packed.occupancy_mask()
    residual = PartialRegion(region.grid, region.reconfigurable & ~occupied)
    return residual, probe


@pytest.mark.parametrize("seed", range(40))
def test_generator_floorplans(seed):
    assert_same_as_full_model(*generator_floorplan(seed))


def test_generator_floorplans_cover_both_outcomes():
    statuses = {
        _answer(_run(*generator_floorplan(s), closed=True))[0]
        for s in range(40)
    }
    assert statuses == {"feasible", "infeasible"}


# ----------------------------------------------------------------------
# Hypothesis residual regions
# ----------------------------------------------------------------------
KINDS = [ResourceType.CLB, ResourceType.BRAM]


@st.composite
def footprints(draw):
    """Rectangles (ties between shapes are common) or small typed
    polyominoes."""
    if draw(st.booleans()):
        return Footprint.rectangle(
            draw(st.integers(1, 3)), draw(st.integers(1, 3)),
            draw(st.sampled_from(KINDS)),
        )
    cells = draw(
        st.sets(
            st.tuples(st.integers(0, 2), st.integers(0, 2)),
            min_size=1, max_size=5,
        )
    )
    x0 = min(x for x, _ in cells)
    y0 = min(y for _, y in cells)
    return Footprint(
        [(x - x0, y - y0, draw(st.sampled_from(KINDS))) for x, y in cells]
    )


@st.composite
def residuals(draw):
    """(residual region, module): a small fabric, homogeneous or
    irregular, with a random occupied set carved out; from fully free to
    fully occupied, so many draws have no anchor."""
    w, h = draw(st.integers(1, 9)), draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**16))
    if draw(st.booleans()):
        grid = homogeneous_device(w, h)
    else:
        grid = irregular_device(
            w, h, seed=seed, bram_stride=3, jitter=1, clk_rows=0,
            io_edges=False,
        )
    density = draw(st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0]))
    occupied = np.random.default_rng(seed).random((h, w)) < density
    region = PartialRegion(grid, ~occupied, "residual")
    shapes = draw(st.lists(footprints(), min_size=1, max_size=4, unique=True))
    return region, Module("probe", shapes)


@settings(max_examples=250, deadline=None)
@given(case=residuals())
def test_hypothesis_residuals(case):
    region, module = case
    assert_same_as_full_model(region, module)


def test_no_anchor_is_a_proof():
    region = PartialRegion.whole_device(homogeneous_device(3, 2))
    module = Module("wide", [Footprint.rectangle(4, 1), Footprint.rectangle(1, 3)])
    status, placements, unplaced, _ = assert_same_as_full_model(region, module)
    assert (status, placements, unplaced) == ("infeasible", [], ["wide"])


def test_ties_go_to_the_lowest_shape_index():
    region = PartialRegion.whole_device(homogeneous_device(6, 4))
    module = Module(
        "tie", [Footprint.rectangle(3, 3), Footprint.rectangle(2, 2)]
    )
    _, placements, _, _ = assert_same_as_full_model(region, module)
    assert placements == [("tie", 0, 0, 0)]


# ----------------------------------------------------------------------
# Probes recorded from a serve-contended replay
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def contended_probes():
    return recorded_cp_probes()


def test_contended_probes(contended_probes):
    assert len(contended_probes) >= 50
    statuses = set()
    for region, module in contended_probes:
        statuses.add(assert_same_as_full_model(region, module)[0])
    assert {"feasible", "infeasible"} <= statuses
