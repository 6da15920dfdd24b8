"""Heterogeneous FPGA fabric model.

The paper models a device as a set of typed tiles (Section III-B): CLBs,
embedded memory (BRAM), multipliers/DSP, IO and clock resources, plus a
static region that is unavailable to reconfigurable modules.  This package
provides

* the resource-type vocabulary (:mod:`repro.fabric.resource`),
* the formal tile/tileset objects matching the paper's notation
  (:mod:`repro.fabric.tile`),
* a NumPy-backed grid as the fast representation
  (:mod:`repro.fabric.grid`),
* generators for realistic device layouts — regular Virtex-style columns
  and modern irregular layouts (:mod:`repro.fabric.devices`),
* partial-region / static-region modelling (:mod:`repro.fabric.region`),
* vectorized valid-anchor computation (:mod:`repro.fabric.masks`), and
* JSON serialization (:mod:`repro.fabric.io`).
"""

from repro.fabric.resource import ResourceType, RESOURCE_CHARS
from repro.fabric.tile import Tile, TileSet
from repro.fabric.grid import FabricGrid
from repro.fabric.region import PartialRegion
from repro.fabric.devices import (
    homogeneous_device,
    columnar_device,
    irregular_device,
    device_catalog,
    make_device,
)
from repro.fabric.masks import valid_anchor_mask, compatibility_masks
from repro.fabric.analysis import (
    clb_run_lengths,
    column_profile,
    heterogeneity_index,
    resource_summary,
)

__all__ = [
    "ResourceType",
    "RESOURCE_CHARS",
    "Tile",
    "TileSet",
    "FabricGrid",
    "PartialRegion",
    "homogeneous_device",
    "columnar_device",
    "irregular_device",
    "device_catalog",
    "make_device",
    "valid_anchor_mask",
    "compatibility_masks",
    "column_profile",
    "clb_run_lengths",
    "heterogeneity_index",
    "resource_summary",
]
