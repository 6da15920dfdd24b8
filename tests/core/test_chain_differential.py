"""Differential suite: the ledger's ``cp`` rung against a residual-region
backend rung, on whole serving replays.

The runtime manager answers the ``cp`` rung off its free-space ledger
(``RuntimePlacementManager._ledger_rung``), while the ``greedy`` rung
builds the residual region (``residual_region()``, with
``exclude=<reservation>`` when a booking is replanned) and places on it
through its backend.  Both pick the bottom-left ``(x, y, shape)``, so the
chains ``("cp",)``, ``("greedy",)`` and ``("cp", "greedy")`` must serve
every request of a seeded trace identically: the same status, owning
shard, reject reason and placement.  Only the method label differs.

Two replay shapes, both on the 4-shard Table-I fabric under affinity
routing, on seeds 0 and 7919:

* ``serve-steady``: 500 requests, mean interarrival 2, mean lifetime 24,
  no defrag;
* ``serve-contended``: 1000 requests, mean interarrival 1, mean lifetime
  40, no-break defrag, queue and a 16-tick reservation horizon, so
  reservation replans run too.
"""

from __future__ import annotations

import pytest

from repro.core.runtime import generate_workload
from repro.core.service import ShardedPlacementService
from repro.experiments.config import default_fabric
from repro.experiments.service_load import serving_config

CHAINS = (("cp",), ("greedy",), ("cp", "greedy"))

#: (n_requests, mean interarrival, mean lifetime, defrag, horizon)
SHAPES = {
    "serve-steady": (500, 2, 24, "disabled", 0),
    "serve-contended": (1000, 1, 40, "no-break", 16),
}


def replay(shape, seed, chain):
    """Every outcome of one drained replay, as (status, shard, reason,
    shape index, x, y), and the method labels of the admitted ones."""
    n, interarrival, lifetime, defrag, horizon = SHAPES[shape]
    service = ShardedPlacementService(
        ShardedPlacementService.split(default_fabric(), 4),
        serving_config(
            router="affinity",
            chain=chain,
            defrag=defrag,
            reservation_horizon=horizon,
        ),
    )
    trace = generate_workload(
        n, seed=seed, mean_interarrival=interarrival, mean_lifetime=lifetime
    )
    log = service.run(trace)
    rows = []
    for o in log.outcomes:
        p = o.placement
        rows.append(
            (
                o.status,
                o.shard,
                str(o.reason) if o.reason is not None else None,
                p.shape_index if p is not None else None,
                p.x if p is not None else None,
                p.y if p is not None else None,
            )
        )
    methods = [o.method for o in log.outcomes if o.admitted]
    return rows, methods


@pytest.mark.parametrize("seed", [0, 7919])
@pytest.mark.parametrize(
    "shape",
    ["serve-steady", pytest.param("serve-contended", marks=pytest.mark.slow)],
)
def test_chains_serve_every_request_alike(shape, seed):
    reference, _ = replay(shape, seed, CHAINS[0])
    statuses = {row[0] for row in reference}
    assert "admitted" in statuses
    if shape == "serve-contended":
        # the overloaded replay turns requests away, so no-fit is pinned too
        assert "rejected" in statuses
    for chain in CHAINS[1:]:
        rows, methods = replay(shape, seed, chain)
        assert rows == reference, chain
        if shape == "serve-contended" and chain == ("greedy",):
            # a booking replanned on the residual region with its own
            # cells free: residual_region(exclude=...) was exercised
            assert "reservation+greedy" in methods
