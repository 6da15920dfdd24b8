#!/usr/bin/env python3
"""Interactive floorplanning with reconfiguration-cost accounting.

The paper motivates short solve times so the placer can sit inside an
interactive tool.  This example drives the
:class:`~repro.core.runtime.RuntimePlacementManager` like such a tool
would: modules arrive (``submit``) and leave (``depart``) at runtime, each
arrival is CP-placed on the residual region in well under a second while
committed modules stay put (queue and defrag off), and the mock
bitstream assembler reports how many configuration frames each
reconfiguration rewrites (the reconfiguration-time proxy).

Run:  python examples/interactive_floorplanning.py
"""

from repro.core import (
    RuntimeConfig,
    RuntimePlacementManager,
    RuntimeRequest,
    render_placement,
)
from repro.fabric import PartialRegion, irregular_device
from repro.flow import assemble_bitstream, partial_diff
from repro.modules import GeneratorConfig, ModuleGenerator


def main() -> None:
    region = PartialRegion.whole_device(irregular_device(40, 12, seed=9))
    placer = RuntimePlacementManager(
        region,
        RuntimeConfig(
            chain=("cp",),
            queue_capacity=0,
            defragmenter=None,
        ),
    )
    generator = ModuleGenerator(
        seed=5,
        config=GeneratorConfig(clb_min=10, clb_max=30, bram_max=2,
                               height_min=3, height_max=6),
    )
    modules = generator.generate_set(6)

    bitstream = assemble_bitstream(placer.result())
    script = (
        [("add", m) for m in modules[:4]]
        + [("remove", modules[1])]
        + [("add", m) for m in modules[4:]]
    )
    for action, module in script:
        if action == "add":
            # the designer's session never advances the clock: modules
            # stay until removed
            placement = placer.submit(RuntimeRequest(module, 0, 1)).placement
            what = (
                f"add    {module.name} -> "
                + (f"alt {placement.shape_index} at ({placement.x},{placement.y})"
                   if placement else "REJECTED (no space)")
            )
        else:
            placer.depart(module.name)
            what = f"remove {module.name}"
        new_bitstream = assemble_bitstream(placer.result())
        frames = partial_diff(bitstream, new_bitstream)
        bitstream = new_bitstream
        print(f"{what:<44} reconfigures {len(frames):>2} frames")

    result = placer.result()
    result.verify()
    print()
    print(render_placement(result))


if __name__ == "__main__":
    main()
