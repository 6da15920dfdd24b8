"""Golden placement pins for the anchor-query consumers.

Every baseline placer, Figure 4's constraint anatomy and the runtime
manager's reservation probe pick anchors by the bottom-left rule
(smallest x, then smallest y) over occupancy-checked anchor masks.
These fingerprints were recorded before those picks were routed through
one shared query, so any change in which anchor a consumer selects shows
up here.  The instances cover an irregular fabric, a region with a
static box, and a fabric taller than 255 rows (the footprint offsets are
stored in ``uint8``; a cell index that wrapped would move placements).
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core.runtime import RuntimePlacementManager
from repro.experiments.figures import figure4_constraint_anatomy
from repro.experiments.runtime_exp import (
    reservation_admission_config,
    reservation_runtime_region,
    slack_heavy_trace,
)
from repro.fabric.devices import irregular_device
from repro.fabric.region import PartialRegion
from repro.modules.generator import ModuleGenerator
from repro.placer import (
    AnalyticalPlacer,
    AnnealingConfig,
    AnnealingPlacer,
    BestFitPlacer,
    BottomLeftPlacer,
    FirstFitPlacer,
    KamerPlacer,
    SlotPlacer,
)

PLACERS = {
    "bottom-left": BottomLeftPlacer,
    "first-fit": FirstFitPlacer,
    "best-fit": BestFitPlacer,
    "kamer": KamerPlacer,
    "1d-slots": SlotPlacer,
    "analytical": AnalyticalPlacer,
    # evaluation-capped so the run does not depend on the wall clock
    "annealing": lambda: AnnealingPlacer(
        AnnealingConfig(time_limit=60.0, seed=1, max_evaluations=60)
    ),
}


def irregular_instance():
    region = PartialRegion.whole_device(irregular_device(64, 16, seed=7))
    return region, ModuleGenerator(seed=2).generate_set(10)


def static_box_instance():
    grid = irregular_device(48, 16, seed=11)
    region = PartialRegion.with_static_box(grid, 20, 4, 10, 8)
    return region, ModuleGenerator(seed=5).generate_set(10)


def tall_instance():
    region = PartialRegion.whole_device(irregular_device(10, 300, seed=3))
    return region, ModuleGenerator(seed=9).generate_set(36)


INSTANCES = {
    "irregular": irregular_instance,
    "static-box": static_box_instance,
    "tall": tall_instance,
}

PLACEMENT_FP = {
    ("bottom-left", "irregular"): "aeec4adb9be178de21987f01e99cae5a",
    ("bottom-left", "static-box"): "a756c6822bda6c5aa04e48c2815b9c3a",
    ("bottom-left", "tall"): "a52f83dbac3f10870105e1bf6f5301fa",
    ("first-fit", "irregular"): "12a2af7b88d78b2b84491a6242a041ec",
    ("first-fit", "static-box"): "5aa24b40eb87cbbd2490df0c9a65f08f",
    ("first-fit", "tall"): "76106daeb729e562c7a428215e6e8520",
    ("best-fit", "irregular"): "c7b8daa95eea5597e6bce2af9525b42a",
    ("best-fit", "static-box"): "a756c6822bda6c5aa04e48c2815b9c3a",
    ("best-fit", "tall"): "d3ee183048b5c4bf5226686509a64eb9",
    ("kamer", "irregular"): "05e47c7bd1dfa53d872b513d6fefdb80",
    ("kamer", "static-box"): "6157ceccb9573c4327a7be6f273abe80",
    ("kamer", "tall"): "8b4fbd7eaed3b6a127de794dfe8266bc",
    ("1d-slots", "irregular"): "d3ac08c644f2c58fd202da5d1affc180",
    ("1d-slots", "static-box"): "7c6da590539d6bb6b7b7c505f0e92957",
    ("1d-slots", "tall"): "00a2c3976656280b39a6369750b113cd",
    ("analytical", "irregular"): "05df7d5fd649dd3c7f5d8fbb3a391edd",
    ("analytical", "static-box"): "fe4f5752398195d0987fc83dc6565a21",
    ("analytical", "tall"): "27eef2b555be53c6494bcc014112adf8",
    ("annealing", "irregular"): "0dd0135e22051a4d2231e8c9a833b797",
    ("annealing", "static-box"): "84c646fc6bab78c35779003ebe8e1f8a",
    ("annealing", "tall"): "07eae0a1d2089fd67e8fec57e4006062",
}

#: (in_bounds, resource_matched, in_region, non_overlapping)
FIGURE4_COUNTS = (516, 132, 48, 21)

RESERVATION_FP = "754a340370e116d6bb0deffbb320cd13"


def fingerprint(payload) -> str:
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.blake2b(blob, digest_size=16).hexdigest()


def placement_payload(result):
    return {
        "placed": [
            (p.module.name, p.shape_index, p.x, p.y) for p in result.placements
        ],
        "unplaced": [m.name for m in result.unplaced],
    }


def reservation_bookings():
    """``(start, shape, x, y)`` of every booking of one horizon-16 replay."""
    manager = RuntimePlacementManager(
        reservation_runtime_region(), reservation_admission_config(16)
    )
    bookings = []
    for request in sorted(slack_heavy_trace(), key=lambda r: r.arrival):
        outcome = manager.submit(request)
        if outcome.status == "reserved":
            [r] = [r for r in manager.reservations if r.request is request]
            p = r.placement
            bookings.append((r.start, p.shape_index, p.x, p.y))
    manager.drain()
    return bookings


@pytest.mark.parametrize(
    "placer,instance", sorted(PLACEMENT_FP), ids=lambda v: v
)
def test_placement_matches_pin(placer, instance):
    region, modules = INSTANCES[instance]()
    result = PLACERS[placer]().place(region, modules)
    result.verify()
    assert fingerprint(placement_payload(result)) == PLACEMENT_FP[
        (placer, instance)
    ]


def test_tall_instance_places_past_row_255():
    region, modules = tall_instance()
    result = BottomLeftPlacer().place(region, modules)
    assert max(p.top for p in result.placements) > 256


def test_figure4_counts_match_pin():
    a = figure4_constraint_anatomy()
    counts = (a.in_bounds, a.resource_matched, a.in_region, a.non_overlapping)
    assert counts == FIGURE4_COUNTS


def test_reservation_bookings_match_pin():
    bookings = reservation_bookings()
    assert bookings
    assert fingerprint(bookings) == RESERVATION_FP
