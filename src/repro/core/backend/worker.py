"""Process-resident solve workers.

Every parallel layer in the repo ships the same things across the process
boundary — a JSON-serializable region payload, module payloads, scalar
knobs — and deserializes them on the far side.  This module centralizes
the far side so worker *processes* are reusable:

* :func:`process_cache` keeps one named
  :class:`~repro.fabric.cache.AnchorMaskCache` per process (module-global
  registry).  A portfolio whose workers survive across submissions
  reuses its warmed entries instead of re-deriving every mask per call.
* :func:`solve_in_worker` is the uniform remote solve: one module against
  one region through an admission chain of registered backend names,
  returning a plain placement tuple.  The sharded service's process-pool
  mode plugs this into :attr:`RuntimeConfig.solver
  <repro.core.runtime.RuntimeConfig.solver>`.  It is sent residual
  regions, whose masks never repeat, so it solves with no cache.

Nothing solver-internal crosses the boundary (same rule as the
portfolio): payloads in, plain tuples out.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.fabric.cache import AnchorMaskCache
from repro.fabric.io import region_from_dict
from repro.modules.spec import module_from_dict

#: per-process named caches (one registry per worker process)
_PROCESS_CACHES: Dict[str, AnchorMaskCache] = {}

#: (shape index, x, y, backend name) of one remote admission
WorkerPlacement = Tuple[int, int, int, str]


def process_cache(key: str) -> AnchorMaskCache:
    """The process-wide cache named ``key`` (created on first use)."""
    cache = _PROCESS_CACHES.get(key)
    if cache is None:
        cache = _PROCESS_CACHES[key] = AnchorMaskCache()
    return cache


def reset_process_caches() -> None:
    """Drop every named cache (test isolation hook)."""
    _PROCESS_CACHES.clear()


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
        sweep_chain,
    )

    region = region_from_dict(region_payload)
    module = module_from_dict(module_payload)
    errors: List[str] = []
    res, name = sweep_chain(
        chain,
        create_backend,
        PlacementRequest(
            region=region,
            modules=[module],
            seed=seed,
            time_limit=time_limit,
            first_solution_only=True,
        ),
        lambda rung, exc: errors.append(f"{rung}: {exc}"),
    )
    if res is not None and res.placements:
        p = res.placements[0]
        return p.shape_index, p.x, p.y, name
    if errors and len(errors) == len(chain):
        raise RuntimeError(
            "every chain rung failed in worker: " + "; ".join(errors)
        )
    return None
