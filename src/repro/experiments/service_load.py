"""Trace-replay load harness for the sharded placement service.

Replays a seeded Table-I workload (:func:`repro.core.runtime.generate_workload`)
through a :class:`~repro.core.service.ShardedPlacementService` and
measures what a serving system is judged on: sustained request rate and
the admission-latency distribution.  Latency here is the *wall-clock*
time one ``submit`` call takes — routing, spill probes, chain solves and
queue upkeep included — which is the figure an operator of the service
would see, not the solver-internal probe time alone.

The benchmark gate (``make bench-runtime``) runs :func:`run_load` on the
committed configuration in ``BENCH_runtime.json`` and compares the
measured throughput against the stored threshold, mirroring the
``BENCH_geost.json`` flow.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.runtime import RuntimeConfig, RuntimeRequest, generate_workload
from repro.core.service import ServiceConfig, ShardedPlacementService
from repro.experiments.config import default_fabric


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) of pre-sorted data."""
    if not sorted_values:
        return 0.0
    if not 0 <= q <= 100:
        raise ValueError("percentile must be within [0, 100]")
    rank = max(0, min(len(sorted_values) - 1,
                      int(round(q / 100.0 * (len(sorted_values) - 1)))))
    return sorted_values[rank]


@dataclass
class LoadReport:
    """One load run's service-level measurements."""

    n_requests: int
    n_shards: int
    router: str
    elapsed_s: float
    #: sustained request rate over the whole replay (drain excluded)
    req_per_s: float
    #: wall-clock per-submit admission latency percentiles (seconds)
    p50_latency_s: float
    p99_latency_s: float
    max_latency_s: float
    admitted: int
    rejected: int
    reject_rate: float
    #: defrag strategy the run served with ("disabled" when off)
    defrag: str = "disabled"
    defrags: int = 0
    defrag_planned_moves: int = 0
    defrag_executed_moves: int = 0
    defrag_aborted_moves: int = 0
    #: wall-clock spent in defrag passes (excluded from request latency)
    defrag_time_s: float = 0.0
    #: book-ahead admission accounting (zero when the horizon is off)
    reservations_booked: int = 0
    reservation_admits: int = 0
    reservations_expired: int = 0
    rejected_by_reason: Dict[str, int] = field(default_factory=dict)
    per_shard_admitted: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> Dict:
        doc = asdict(self)
        for key, value in doc.items():
            if isinstance(value, float):
                doc[key] = round(value, _DIGITS.get(key, 6))
        return doc


#: decimal places of the exported floats (the rest keep 6)
_DIGITS = {"elapsed_s": 4, "req_per_s": 1, "reject_rate": 4}


def serving_config(
    router: str = "affinity",
    chain: Sequence[str] = tuple(RuntimeConfig().chain),
    queue_capacity: int = 8,
    spill: bool = True,
    defrag: str = "disabled",
    reservation_horizon: int = 0,
) -> ServiceConfig:
    """The high-throughput serving profile used by the benchmark gate.

    The manager's default chain (``RuntimeConfig().chain``, the ``cp``
    pick rule on the ledger: deterministic, it reads no clock), timeline
    sampling off — the configuration a latency-sensitive deployment
    would run.  ``chain`` names pick rules
    (:data:`~repro.core.runtime.PICK_RULES`).
    ``defrag`` selects the strategy: "disabled" (the historical gate
    configuration, ``defragmenter=None``: no pass at all), or a
    :data:`~repro.core.defrag.DEFRAGMENTERS` name served at the *default
    cadence* — reject-triggered passes on, fragmentation-triggered
    passes off (``frag_threshold=1.0`` is short-circuited by the manager,
    keeping the pure-Python fragmentation metric off the hot path).
    """
    runtime = RuntimeConfig(
        chain=tuple(chain),
        queue_capacity=queue_capacity,
        frag_threshold=1.0,
        defragmenter=None if defrag == "disabled" else defrag,
        sample_timeline=False,
        reservation_horizon=reservation_horizon,
    )
    return ServiceConfig(
        router=router,
        spill=spill,
        runtime=runtime,
    )


def run_load(
    n_requests: int = 500,
    n_shards: int = 4,
    seed: int = 0,
    config: Optional[ServiceConfig] = None,
    mean_interarrival: int = 2,
    mean_lifetime: int = 24,
    profile: str = "uniform",
) -> LoadReport:
    """Replay one seeded Table-I trace; returns the measured report.

    The fabric is the Table-I device (:func:`default_fabric`) column-split
    into ``n_shards`` slabs, so the service serves the same silicon a
    single manager would — just partitioned.
    """
    cfg = config or serving_config()
    fabric = default_fabric()
    regions = (
        ShardedPlacementService.split(fabric, n_shards)
        if n_shards > 1
        else [fabric]
    )
    service = ShardedPlacementService(regions, cfg)
    trace = generate_workload(
        n_requests,
        seed=seed,
        mean_interarrival=mean_interarrival,
        mean_lifetime=mean_lifetime,
        profile=profile,
    )

    latencies: List[float] = []
    start = time.monotonic()
    for request in sorted(trace, key=lambda r: r.arrival):
        t0 = time.monotonic()
        service.submit(request)
        latencies.append(time.monotonic() - t0)
    elapsed = time.monotonic() - start
    service.drain()
    service.close()

    stats = service.stats
    latencies.sort()
    total = stats.admitted + stats.rejected
    defrag_label = cfg.runtime.defragmenter or "disabled"
    return LoadReport(
        n_requests=n_requests,
        n_shards=n_shards,
        router=cfg.router,
        elapsed_s=elapsed,
        req_per_s=n_requests / elapsed if elapsed > 0 else float("inf"),
        p50_latency_s=percentile(latencies, 50),
        p99_latency_s=percentile(latencies, 99),
        max_latency_s=latencies[-1] if latencies else 0.0,
        admitted=stats.admitted,
        rejected=stats.rejected,
        reject_rate=stats.rejected / total if total else 0.0,
        defrag=defrag_label,
        defrags=stats.defrags,
        defrag_planned_moves=stats.defrag_planned_moves,
        defrag_executed_moves=stats.defrag_executed_moves,
        defrag_aborted_moves=stats.defrag_aborted_moves,
        defrag_time_s=stats.defrag_time_s,
        reservations_booked=stats.reservations_booked,
        reservation_admits=stats.reservation_admits,
        reservations_expired=stats.reservations_expired,
        rejected_by_reason=dict(stats.rejected_by_reason),
        per_shard_admitted={
            name: s.admitted for name, s in service.shard_stats().items()
        },
    )

