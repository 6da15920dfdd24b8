"""Process-resident solve workers.

Every parallel layer in the repo ships the same things across the process
boundary — a JSON-serializable region payload, module payloads, scalar
knobs — and deserializes them on the far side.  This module holds the
far side of the sharded service's process-pool mode:
:func:`solve_in_worker` is the uniform remote solve, one module against
one region through an admission chain of registered backend names,
returning a plain placement tuple.  The service plugs it into
:attr:`RuntimeConfig.solver <repro.core.runtime.RuntimeConfig.solver>`.

Nothing solver-internal crosses the boundary (same rule as the
portfolio): payloads in, plain tuples out.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.fabric.io import region_from_dict
from repro.modules.spec import module_from_dict

#: (shape index, x, y, backend name) of one remote admission
WorkerPlacement = Tuple[int, int, int, str]


def solve_in_worker(
    region_payload: dict,
    module_payload: dict,
    chain: Sequence[str],
    time_limit: float,
    seed: int = 0,
) -> Optional[WorkerPlacement]:
    """Admit one module on one region through a backend chain, remotely.

    The chain runs through :func:`~repro.core.backend.protocol.sweep_chain`,
    the pass the in-process manager uses.  Returns ``(shape_index, x, y,
    backend_name)`` for the rung that placed, or None when a rung proved
    no fit or every rung ran cleanly and none fit — a *definitive* no-fit
    the caller must not second-guess.  If every rung raised instead, an
    error naming them all propagates so the caller's graceful-degradation
    path (the runtime manager falls back to its in-process chain) can
    take over.
    """
    # lazy: workers import the registry on first solve, not at fork time
    from repro.core.backend import (
        PlacementRequest,
        create_backend,
        rung_answer,
        sweep_chain,
    )

    request = PlacementRequest(
        region=region_from_dict(region_payload),
        modules=[module_from_dict(module_payload)],
        seed=seed,
        time_limit=time_limit,
        first_solution_only=True,
    )
    errors: List[str] = []
    placement, name = sweep_chain(
        chain,
        lambda rung: rung_answer(create_backend(rung).place(request)),
        lambda rung, exc: errors.append(f"{rung}: {exc}"),
    )
    if placement is not None:
        return placement.shape_index, placement.x, placement.y, name
    if errors and len(errors) == len(chain):
        raise RuntimeError(
            "every chain rung failed in worker: " + "; ".join(errors)
        )
    return None
