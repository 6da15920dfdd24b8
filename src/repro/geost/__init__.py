"""Geometric constraint kernel (geost) with resource extensions.

The paper builds its placer on the geost kernel of Beldiceanu et al. [8]:
objects with polymorphic shapes (a *shape variable* selects among
alternatives), shapes made of shifted boxes, and a sweep-based non-overlap
propagator.  It then extends geost with (1) a resource property on boxes
and (2) resource-typed forbidden regions, so a heterogeneous FPGA can be
modelled (Section IV).

This package contains both layers:

* a faithful, k-dimensional, interval-based geost propagator
  (:mod:`repro.geost.kernel`, :mod:`repro.geost.sweep`,
  :mod:`repro.geost.forbidden`) used for small models and as a reference
  semantics, and
* the resource-extended placement kernel on packed column words
  (:mod:`repro.geost.placement`) that the FPGA placer uses: per-shape
  valid-anchor words (resource compatibility = the forbidden-region
  extension) narrowed after every imprint by the same anchor-word
  kernel over the free cells (non-overlap).
"""

from repro.geost.boxes import Box, ShiftedBox
from repro.geost.shapes import GeostShape, ShapeTable
from repro.geost.objects import GeostObject
from repro.geost.kernel import Geost
from repro.geost.placement import PlacementKernel, PlacedModule

__all__ = [
    "Box",
    "ShiftedBox",
    "GeostShape",
    "ShapeTable",
    "GeostObject",
    "Geost",
    "PlacementKernel",
    "PlacedModule",
]
