"""Runtime serving experiment (A6): design alternatives under load.

The paper's offline claim — alternatives reduce fragmentation, so more
fits — transplanted to the serving setting its introduction motivates.
One seeded arrival/departure trace (Table-I module distribution) is
served twice by :class:`~repro.core.runtime.RuntimePlacementManager`,
once with the full alternative sets and once restricted to the primary
shape; the comparison reports rejection counts, time-weighted mean
utilization and defragmentation activity.

The defrag extension (:func:`defrag_comparison`) serves one seeded
*heavy-traffic* trace three ways — instant teleporting defrag
(``greedy-compaction``), the no-break engine, and defrag disabled — and
reports reject counts, p99 admission latency and move accounting.  The
no-break run verifies every move transition against the full floorplan
invariants (``verify_moves=True``), so a passing run is also a proof
that no intermediate state ever overlapped a running module.

Both runs admit with the ``greedy`` pick rule, the same bottom-left pick
as ``cp`` (:data:`repro.core.runtime.PICK_RULES`).

The online service-level ablation (A5, :func:`online_comparison`) is the
related-work setting of Section II — "the amount of module requests that
can be fulfilled" [4, 5] — served by the same manager: a first-fit and a
CP admission chain, each with and without design alternatives, with the
queue and every defrag trigger off so each arrival is admitted now or
rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.core.runtime import (
    RuntimeConfig,
    RuntimeLog,
    RuntimePlacementManager,
    RuntimeRequest,
    generate_workload,
)
from repro.fabric.region import PartialRegion
from repro.modules.generator import GeneratorConfig


class _Admissions:
    """``total``/``rejection_ratio`` of a row's admitted/rejected counts."""

    @property
    def total(self) -> int:
        return self.admitted + self.rejected

    @property
    def rejection_ratio(self) -> float:
        return self.rejected / self.total if self.total else 0.0


@dataclass
class RuntimeRow(_Admissions):
    """One serving run, summarized."""

    label: str
    admitted: int
    rejected: int
    mean_utilization: float
    defrags: int
    defrag_moves: int
    mean_latency_ms: float
    #: names of the rejected requests, in rejection order
    rejected_names: List[str] = field(default_factory=list)


def default_runtime_region(seed: int = 9) -> PartialRegion:
    """The demo fabric: a seeded irregular 48x12 device."""
    from repro.fabric.devices import irregular_device

    return PartialRegion.whole_device(irregular_device(48, 12, seed=seed))


def default_runtime_trace(
    n_requests: int = 60, seed: int = 7
) -> List[RuntimeRequest]:
    """The demo trace: Table-I sized modules scaled to the demo fabric."""
    return generate_workload(
        n_requests,
        seed=seed,
        mean_interarrival=2,
        mean_lifetime=24,
        generator_config=GeneratorConfig(
            clb_min=12, clb_max=48, bram_max=2, height_min=3, height_max=6
        ),
    )


def heavy_runtime_trace(
    n_requests: int = 90, seed: int = 5
) -> List[RuntimeRequest]:
    """The heavy-traffic trace: arrivals every tick, so the floorplan
    never empties and fragmentation compounds — the regime where
    defragmentation strategy actually changes admission outcomes."""
    return generate_workload(
        n_requests,
        seed=seed,
        mean_interarrival=1,
        mean_lifetime=24,
        generator_config=GeneratorConfig(
            clb_min=12, clb_max=48, bram_max=2, height_min=3, height_max=6
        ),
    )


def serve_trace(
    region: PartialRegion,
    trace: Sequence[RuntimeRequest],
    with_alternatives: bool,
    label: str,
    config: Optional[RuntimeConfig] = None,
) -> RuntimeRow:
    """One serving run; returns the summary row."""
    cfg = config or RuntimeConfig(chain=("greedy",))
    cfg.with_alternatives = with_alternatives
    manager = RuntimePlacementManager(region, cfg)
    log: RuntimeLog = manager.run(trace)
    return RuntimeRow(
        label=label,
        admitted=log.admitted,
        rejected=log.rejected,
        mean_utilization=log.mean_utilization(),
        defrags=log.stats.defrags,
        defrag_moves=log.stats.defrag_moves,
        mean_latency_ms=1e3 * log.stats.mean_latency_s,
        rejected_names=[
            o.request.module.name for o in log.outcomes if not o.admitted
        ],
    )


def runtime_comparison(
    n_requests: int = 60,
    seed: int = 7,
    region: Optional[PartialRegion] = None,
    allow_shape_change: bool = False,
) -> List[RuntimeRow]:
    """Alternatives-on vs alternatives-off on one seeded trace."""
    region = region or default_runtime_region()
    trace = default_runtime_trace(n_requests, seed)
    rows = []
    for with_alts, label in (
        (False, "runtime (1 shape)"),
        (True, "runtime (alternatives)"),
    ):
        rows.append(
            serve_trace(
                region,
                trace,
                with_alts,
                label,
                RuntimeConfig(
                    chain=("greedy",), allow_shape_change=allow_shape_change
                ),
            )
        )
    return rows


def online_trace(n_requests: int = 40, seed: int = 3) -> List[RuntimeRequest]:
    """The A5 trace: small modules arriving every ~2 ticks, living ~30."""
    return generate_workload(
        n_requests,
        seed=seed,
        mean_interarrival=2,
        mean_lifetime=30,
        generator_config=GeneratorConfig(
            clb_min=16, clb_max=56, bram_max=2, height_min=3, height_max=6
        ),
    )


def online_comparison(
    n_requests: int = 40,
    seed: int = 3,
    region: Optional[PartialRegion] = None,
) -> List[RuntimeRow]:
    """A5: first-fit vs CP admission, with and without alternatives."""
    from repro.fabric.devices import irregular_device

    region = region or PartialRegion.whole_device(
        irregular_device(40, 12, seed=9)
    )
    trace = online_trace(n_requests, seed)
    return [
        serve_trace(
            region,
            trace,
            with_alts,
            f"{backend} ({'alternatives' if with_alts else '1 shape'})",
            RuntimeConfig(
                chain=(backend,),
                queue_capacity=0,
                defragmenter=None,
            ),
        )
        for backend in ("first-fit", "cp")
        for with_alts in (False, True)
    ]


@dataclass
class DefragRow(_Admissions):
    """One defrag-strategy serving run, summarized."""

    label: str
    admitted: int
    rejected: int
    p99_latency_ms: float
    defrags: int
    planned_moves: int
    executed_moves: int
    aborted_moves: int
    defrag_time_ms: float


def _p99_ms(log: RuntimeLog) -> float:
    """p99 per-request admission latency, in milliseconds."""
    lat = sorted(o.latency_s for o in log.outcomes)
    if not lat:
        return 0.0
    return 1e3 * lat[min(len(lat) - 1, int(0.99 * len(lat)))]


def defrag_strategy_config(strategy: str) -> RuntimeConfig:
    """The per-strategy serving knobs of the defrag comparison.

    ``strategy`` is a :data:`~repro.core.defrag.DEFRAGMENTERS` name, or
    ``"disabled"`` (``defragmenter=None``: no pass at all).  The no-break
    run additionally verifies every move transition.
    """
    return RuntimeConfig(
        chain=("greedy",),
        defragmenter=None if strategy == "disabled" else strategy,
        verify_moves=(strategy == "no-break"),
        sample_timeline=False,
    )


def defrag_comparison(
    n_requests: int = 90,
    seed: int = 5,
    region: Optional[PartialRegion] = None,
) -> List[DefragRow]:
    """Instant vs no-break vs disabled defrag on one heavy trace."""
    region = region or default_runtime_region()
    trace = heavy_runtime_trace(n_requests, seed)
    rows = []
    for strategy, label in (
        ("greedy-compaction", "defrag: instant (oracle)"),
        ("no-break", "defrag: no-break"),
        ("disabled", "defrag: disabled"),
    ):
        manager = RuntimePlacementManager(
            region, defrag_strategy_config(strategy)
        )
        log = manager.run(trace)
        s = manager.stats
        rows.append(
            DefragRow(
                label=label,
                admitted=s.admitted,
                rejected=s.rejected,
                p99_latency_ms=_p99_ms(log),
                defrags=s.defrags,
                planned_moves=s.defrag_planned_moves,
                executed_moves=s.defrag_executed_moves,
                aborted_moves=s.defrag_aborted_moves,
                defrag_time_ms=1e3 * s.defrag_time_s,
            )
        )
    return rows


def format_defrag(rows: Sequence[DefragRow]) -> str:
    """Tabular rendering of the defrag-strategy comparison."""
    header = (
        f"{'strategy':<26} {'admit':>6} {'reject':>7} {'p99(ms)':>8} "
        f"{'passes':>7} {'moves p/e/a':>12} {'dft(ms)':>8}"
    )
    lines = [header, "-" * len(header)]
    for r in rows:
        moves = f"{r.planned_moves}/{r.executed_moves}/{r.aborted_moves}"
        lines.append(
            f"{r.label:<26} {r.admitted:>6} {r.rejected:>7} "
            f"{r.p99_latency_ms:>8.2f} {r.defrags:>7} {moves:>12} "
            f"{r.defrag_time_ms:>8.1f}"
        )
    return "\n".join(lines)


def format_runtime(rows: Sequence[RuntimeRow]) -> str:
    """Tabular rendering of the runtime comparison."""
    header = (
        f"{'serving policy':<24} {'admit':>6} {'reject':>7} "
        f"{'util':>6} {'defrags':>8} {'lat(ms)':>8}"
    )
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r.label:<24} {r.admitted:>6} {r.rejected:>7} "
            f"{r.mean_utilization:>5.1%} {r.defrags:>8} "
            f"{r.mean_latency_ms:>8.2f}"
        )
    return "\n".join(lines)


@dataclass
class ReservationRow(_Admissions):
    """One admission-policy serving run, summarized."""

    label: str
    admitted: int
    rejected: int
    booked: int
    reservation_admits: int
    expired: int
    mean_utilization: float


def reservation_runtime_region(seed: int = 9) -> PartialRegion:
    """The reservation-study fabric: a narrower 32x12 irregular device.

    Narrow enough that slack-heavy bursts overflow an admit-now manager,
    which is the regime where booking against announced departures can
    change admission outcomes at all — the 48x12 demo fabric simply
    absorbs the whole trace.
    """
    from repro.fabric.devices import irregular_device

    return PartialRegion.whole_device(irregular_device(32, 12, seed=seed))


def slack_heavy_trace(
    n_requests: int = 80, seed: int = 7
) -> List[RuntimeRequest]:
    """The slack-heavy trace: bursty arrivals with generous deadlines.

    Bursts of ~4 requests share one arrival tick, separated by long
    gaps, and every request tolerates waiting well past the next burst
    (``deadline_slack`` defaults to ``2 * mean_lifetime``) — the
    workload reservation-based admission is built for."""
    return generate_workload(
        n_requests,
        seed=seed,
        mean_interarrival=2,
        mean_lifetime=20,
        profile="slack-heavy",
        generator_config=GeneratorConfig(
            clb_min=12, clb_max=48, bram_max=2, height_min=3, height_max=6
        ),
    )


def reservation_admission_config(horizon: int) -> RuntimeConfig:
    """The per-policy serving knobs of the reservation comparison.

    ``horizon = 0`` is the historical admit-now manager; a positive
    horizon turns on the book-ahead probe.  The queue is off for both
    runs so the comparison isolates the reservation mechanism from
    queueing — every non-fitting request either books or rejects."""
    return RuntimeConfig(
        chain=("greedy",),
        queue_capacity=0,
        reservation_horizon=horizon,
        defragmenter=None,
    )


def reservation_comparison(
    n_requests: int = 80,
    seed: int = 7,
    horizon: int = 16,
    region: Optional[PartialRegion] = None,
) -> List[ReservationRow]:
    """Admit-now vs reservation-based admission on one slack-heavy trace.

    Both runs serve the *same* seeded trace on the *same* fabric; the
    only difference is the ``reservation_horizon``.  On this workload
    the book-ahead probe strictly reduces rejections (pinned by
    ``tests/experiments/test_reservation_exp.py``): burst overflow that
    an admit-now manager turns away is booked onto departures already
    announced inside the horizon."""
    region = region or reservation_runtime_region()
    trace = slack_heavy_trace(n_requests, seed)
    rows = []
    for hz, label in (
        (0, "admission: admit-now"),
        (horizon, f"admission: reserve(h={horizon})"),
    ):
        manager = RuntimePlacementManager(
            region, reservation_admission_config(hz)
        )
        log = manager.run(trace)
        s = manager.stats
        rows.append(
            ReservationRow(
                label=label,
                admitted=s.admitted,
                rejected=s.rejected,
                booked=s.reservations_booked,
                reservation_admits=s.reservation_admits,
                expired=s.reservations_expired,
                mean_utilization=log.mean_utilization(),
            )
        )
    return rows


def format_reservations(rows: Sequence[ReservationRow]) -> str:
    """Tabular rendering of the reservation comparison."""
    header = (
        f"{'admission policy':<26} {'admit':>6} {'reject':>7} "
        f"{'booked':>7} {'commits':>8} {'expired':>8} {'util':>6}"
    )
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r.label:<26} {r.admitted:>6} {r.rejected:>7} "
            f"{r.booked:>7} {r.reservation_admits:>8} {r.expired:>8} "
            f"{r.mean_utilization:>5.1%}"
        )
    return "\n".join(lines)
