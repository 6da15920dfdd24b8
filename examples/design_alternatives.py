#!/usr/bin/env python3
"""Design alternatives of a single module (the paper's Figure 1).

Builds one module and derives its functionally equivalent layouts:
the 180-degree rotation, internal relayouts (same bounding box, BRAM strip
elsewhere) and external relayouts (different bounding box).  Then shows how
the number of alternatives affects where the module can go on a real
heterogeneous fabric — the mechanism behind the paper's utilization gain.

Run:  python examples/design_alternatives.py
"""

import numpy as np

from repro.core.alternatives import expand_alternatives
from repro.fabric import PartialRegion, irregular_device, valid_anchor_mask
from repro.flow import alternatives_gallery
from repro.modules import Module
from repro.modules.transform import build_body


def main() -> None:
    # a 24-CLB module with a 2-tile BRAM strip (like Figure 1's example)
    base = build_body(24, 6, bram_cells=2, bram_column=2)
    module = Module("fir", expand_alternatives(base, max_alternatives=5, seed=3))

    print(alternatives_gallery(module))
    print()

    # where can each alternative go on a heterogeneous fabric?
    region = PartialRegion.whole_device(irregular_device(48, 12, seed=11))
    total = np.zeros((region.height, region.width), dtype=bool)
    print(f"{'alternative':<14} {'bbox':>7} {'valid anchors':>14}")
    for i, fp in enumerate(module.shapes):
        mask = valid_anchor_mask(region, fp)
        total |= mask
        print(f"alt {i:<10} {f'{fp.width}x{fp.height}':>7} {int(mask.sum()):>14}")

    only_first = valid_anchor_mask(region, module.shapes[0])
    print(f"\nanchors with only the base layout: {int(only_first.sum())}")
    print(f"anchors with all alternatives:     {int(total.sum())}")
    gain = int(total.sum()) / max(1, int(only_first.sum()))
    print(f"placement possibilities grew {gain:.1f}x — this is why design "
          f"alternatives reduce fragmentation.")


if __name__ == "__main__":
    main()
