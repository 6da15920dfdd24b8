"""Process-resident solve workers with per-process warmed mask caches.

Every parallel layer in the repo ships the same things across the process
boundary — a JSON-serializable region payload, module payloads, scalar
knobs — and pays the same setup on the far side: deserialize, build an
:class:`~repro.fabric.cache.AnchorMaskCache`, warm it, solve.  This
module centralizes the far side so worker *processes* are reusable:

* :func:`process_cache` keeps one named cache per process (module-global
  registry).  A pool whose workers survive across submissions — the
  sharded placement service's solve pool, a portfolio running inline —
  reuses warmed entries instead of re-deriving every cross-correlation
  per call.
* :func:`warm_process_cache` pre-warms a named cache from payloads and
  can persist the finished masks (:meth:`AnchorMaskCache.save`) so
  sibling workers :func:`process_cache`-``load`` them from disk instead
  of recomputing.
* :func:`solve_in_worker` is the uniform remote solve: one module against
  one region through an admission chain of registered backend names,
  returning a plain placement tuple.  The sharded service's process-pool
  mode plugs this into :attr:`RuntimeConfig.solver
  <repro.core.runtime.RuntimeConfig.solver>`.

Nothing solver-internal crosses the boundary (same rule as the
portfolio): payloads in, plain tuples out.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence, Tuple

from repro.fabric.cache import AnchorMaskCache
from repro.fabric.io import region_from_dict
from repro.modules.spec import module_from_dict

#: per-process named caches (one registry per worker process)
_PROCESS_CACHES: Dict[str, AnchorMaskCache] = {}

#: (shape index, x, y, backend name) of one remote admission
WorkerPlacement = Tuple[int, int, int, str]


def process_cache(
    key: str,
    capacity: Optional[int] = None,
    load_path: Optional[str] = None,
) -> AnchorMaskCache:
    """The process-wide cache named ``key`` (created on first use).

    ``capacity`` and ``load_path`` only apply at creation: an existing
    cache is returned as-is (long-running workers must not have their
    warmed state silently replaced mid-run).  ``load_path`` seeds the new
    cache from a :meth:`AnchorMaskCache.save` artifact when the file
    exists; a missing file is not an error — the cache just starts cold.
    """
    cache = _PROCESS_CACHES.get(key)
    if cache is None:
        if load_path is not None and os.path.exists(load_path):
            cache = AnchorMaskCache.load(load_path, capacity=capacity)
        else:
            cache = AnchorMaskCache(capacity=capacity)
        _PROCESS_CACHES[key] = cache
    return cache


def reset_process_caches() -> None:
    """Drop every named cache (test isolation hook)."""
    _PROCESS_CACHES.clear()


def warm_process_cache(
    key: str,
    region_payload: dict,
    module_payloads: List[dict],
    capacity: Optional[int] = None,
    save_path: Optional[str] = None,
) -> int:
    """Warm the named cache for one region/library; returns mask count.

    Designed to be ``pool.submit``-ed once per worker process before
    serving starts; with ``save_path`` the finished masks are persisted
    so later-spawned siblings load instead of recompute.
    """
    region = region_from_dict(region_payload)
    modules = [module_from_dict(p) for p in module_payloads]
    cache = process_cache(key, capacity=capacity)
    n = cache.warm(region, modules)
    if save_path is not None:
        cache.save(save_path)
    return n


def solve_in_worker(
    region_payload: dict,
    module_payload: dict,
    chain: Sequence[str],
    time_limit: float,
    seed: int = 0,
    cache_key: str = "default",
    capacity: Optional[int] = None,
    load_path: Optional[str] = None,
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
    cache = process_cache(cache_key, capacity=capacity, load_path=load_path)
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
            cache=cache,
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
