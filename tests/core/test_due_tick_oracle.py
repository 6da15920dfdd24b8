"""Differential suite: the due-tick early return of
``RuntimePlacementManager.advance_to`` against the eager clock.

``advance_to(t)`` only sets the clock while ``t`` is before
``next_due()``, the earliest tick of a departure, a move completion, a
reservation start or a pending deadline (or the clock itself when a
defragmenter runs with ``frag_threshold < 1.0``).  The oracle,
:func:`tests.support.eager_clock`, makes ``next_due()`` answer the
clock, so every advance runs the full event loop and queue upkeep.  Both
must serve a seeded trace alike: the same outcomes, the same counters
of every shard and the same trace event stream, clocks included (a
deadline expiry's ``runtime.reject`` carries the tick it landed on).
Only wall-clock fields are left out.

Every router on the 4-shard Table-I fabric, on seeds 0 and 7919, in four
configurations:

* ``serve-steady``: 500 requests, mean interarrival 2, mean lifetime 24,
  the ``(cp, greedy)`` serving profile with no defrag;
* ``serve-contended``: 1000 requests, mean interarrival 1, mean lifetime
  40, the same profile with no-break defrag, queue and a 16-tick
  reservation horizon;
* ``default``: the ``RuntimeConfig()`` defaults (``frag_threshold=0.6``,
  instant ``greedy-compaction`` defrag, queue) on 300 requests at mean
  interarrival 1 and mean lifetime 40, so fragmentation-triggered passes
  and deadline expiries run;
* ``defrag-off``: the same with ``defragmenter=None``: the threshold of
  0.6 stays, but no pass runs and the clock is not due on every tick.
"""

from __future__ import annotations

from dataclasses import asdict

import pytest

from repro.core.runtime import RuntimeConfig, generate_workload
from repro.core.service import ROUTERS, ServiceConfig, ShardedPlacementService
from repro.experiments.config import default_fabric
from repro.experiments.service_load import serving_config
from repro.obs import RecordingTracer
from tests.support import eager_clock

#: wall-clock fields, the only ones allowed to differ between replays
WALL_CLOCK = {"elapsed", "defrag_time_s", "total_latency_s", "max_latency_s"}


def _serving(defrag, horizon):
    return lambda router: serving_config(
        router=router,
        chain=("cp", "greedy"),
        defrag=defrag,
        reservation_horizon=horizon,
    )


def _default(router):
    return ServiceConfig(router=router, runtime=RuntimeConfig())


def _defrag_off(router):
    return ServiceConfig(
        router=router, runtime=RuntimeConfig(defragmenter=None)
    )


#: name -> (n_requests, mean interarrival, mean lifetime, config factory)
CONFIGS = {
    "serve-steady": (500, 2, 24, _serving("disabled", 0)),
    "serve-contended": (1000, 1, 40, _serving("no-break", 16)),
    "default": (300, 1, 40, _default),
    "defrag-off": (300, 1, 40, _defrag_off),
}


def _counters(stats):
    return {k: v for k, v in asdict(stats).items() if k not in WALL_CLOCK}


def replay(config, router, seed):
    """Outcome rows, per-shard and merged counters, and the event stream
    of one drained replay."""
    n, interarrival, lifetime, make = CONFIGS[config]
    cfg = make(router)
    tracer = RecordingTracer()
    cfg.tracer = cfg.runtime.tracer = tracer
    service = ShardedPlacementService(
        ShardedPlacementService.split(default_fabric(), 4), cfg
    )
    log = service.run(
        generate_workload(
            n,
            seed=seed,
            mean_interarrival=interarrival,
            mean_lifetime=lifetime,
        )
    )
    rows = []
    for o in log.outcomes:
        p = o.placement
        rows.append(
            (
                o.request.module.name,
                o.status,
                o.method,
                str(o.reason) if o.reason is not None else None,
                o.shard,
                o.admitted_at,
                None if p is None else (p.shape_index, p.x, p.y),
            )
        )
    counters = {name: _counters(s) for name, s in log.per_shard.items()}
    counters["service"] = _counters(log.stats)
    events = [
        (
            e.kind,
            {k: v for k, v in e.data.items() if k not in WALL_CLOCK},
        )
        for e in tracer.events
    ]
    return rows, counters, events


@pytest.mark.parametrize("seed", [0, 7919])
@pytest.mark.parametrize("router", sorted(ROUTERS))
@pytest.mark.parametrize(
    "config",
    [
        "serve-steady",
        pytest.param("serve-contended", marks=pytest.mark.slow),
        "default",
        "defrag-off",
    ],
)
def test_due_tick_replays_like_the_eager_clock(config, router, seed):
    rows, counters, events = replay(config, router, seed)
    with eager_clock():
        expected = replay(config, router, seed)
    assert rows == expected[0]
    assert counters == expected[1]
    assert events == expected[2]
    # the replay reached the paths the early return skips over
    service = counters["service"]
    assert service["admitted"] and service["departures"]
    if config != "serve-steady":
        assert service["rejected_by_reason"].get("deadline_expired")
        assert any(
            kind == "runtime.reject"
            and data["reason"] == "deadline_expired"
            for kind, data in events
        )
    if config == "serve-contended":
        assert service["reservations_booked"]
        assert service["defrag_executed_moves"]
    if config == "default":
        assert any(
            kind == "runtime.defrag" and data["trigger"] == "fragmentation"
            for kind, data in events
        )
    if config == "defrag-off":
        assert service["defrags"] == 0
        assert all(kind != "runtime.defrag" for kind, _ in events)
