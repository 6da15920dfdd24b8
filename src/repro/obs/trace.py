"""Structured solver tracing.

A :class:`Tracer` receives a stream of :class:`TraceEvent` records from
every layer of the solve path — search nodes, propagator runs, domain
updates, restarts, incumbents, LNS neighborhoods, portfolio results.  The
engine guards every emission behind a single ``tracer is not None`` check,
so a solve without a tracer pays nothing, and :class:`NullTracer`
(``enabled = False``) is normalized to *no tracer* at attach time — the
documented way to say "instrumentation compiled in, switched off".

Event kinds are dot-namespaced strings (``layer.what``); the full schema
is documented in ``docs/architecture.md`` and mirrored by
:data:`repro.obs.schema.EVENT_KINDS`.  Fine-grained kinds (per propagator
run, per domain update) are additionally gated on :attr:`Tracer.fine`
because they dominate event volume by orders of magnitude.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Dict, IO, Iterator, List, Optional

# ----------------------------------------------------------------------
# Event kinds (coarse)
# ----------------------------------------------------------------------
NODE_OPENED = "search.node"
NODE_FAILED = "search.fail"
SOLUTION = "search.solution"
RESTART = "search.restart"
INCUMBENT = "bnb.incumbent"
GEOST_SHAPE_REMOVED = "geost.shape_removed"
KERNEL_IMPRINT = "kernel.imprint"
LNS_NEIGHBORHOOD = "lns.neighborhood"
LNS_IMPROVED = "lns.improved"
#: one analytical-relaxation progress sample (every config.trace_every
#: iterations): mean per-module move and total pairwise bbox overlap
ANALYTICAL_ITERATE = "analytical.iterate"
PORTFOLIO_RESULT = "portfolio.result"
#: placement backend lifecycle (repro.core.backend) — one start/result
#: pair per `PlacementBackend.place` call, whatever the engine behind it
BACKEND_START = "backend.start"
BACKEND_RESULT = "backend.result"
ENGINE_FAILURE = "engine.failure"
# runtime placement manager lifecycle (repro.core.runtime)
RUNTIME_ARRIVAL = "runtime.arrival"
RUNTIME_REJECT = "runtime.reject"
RUNTIME_DEFRAG = "runtime.defrag"
#: one no-break move lifecycle step (started / completed / aborted)
RUNTIME_DEFRAG_STEP = "runtime.defrag.step"
RUNTIME_DEPART = "runtime.depart"
#: reservation lifecycle (repro.core.runtime) — a booking made by the
#: temporal probe, its commit at the booked tick, or its expiry
RUNTIME_RESERVE = "runtime.reserve"
RUNTIME_RESERVATION_COMMIT = "runtime.reservation.commit"
RUNTIME_RESERVATION_EXPIRE = "runtime.reservation.expire"
#: sharded placement service lifecycle (repro.core.service) — one route
#: event per request naming the shard that took (or parked) it, a spill
#: event per cross-shard retry hop, one drain event per service drain
SERVICE_ROUTE = "service.route"
SERVICE_SPILL = "service.spill"
SERVICE_DRAIN = "service.drain"

# Event kinds (fine — gated on Tracer.fine)
PROPAGATE = "engine.propagate"
DOMAIN_UPDATE = "engine.domain"
#: incremental-geost accounting of one propagator run (dirty objects
#: filtered, cached forbidden-box lists reused, objects rasterized,
#: vectorized frontier scans, filters that fell back to the scalar sweep)
GEOST_INCREMENTAL = "geost.incremental"


@dataclass(frozen=True)
class TraceEvent:
    """One structured event: a kind, a relative timestamp, a payload."""

    kind: str
    #: seconds since the tracer was created
    t: float
    data: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "t": self.t, **self.data}


class Tracer:
    """Base tracer: timestamps events and hands them to :meth:`record`.

    Subclasses override :meth:`record`.  Emitters call :meth:`emit` with a
    kind and keyword payload; payload values must be JSON-serializable
    scalars (or short lists of them) so every tracer can export.
    """

    #: attach-time switch — a tracer with ``enabled = False`` is treated
    #: exactly like no tracer at all (zero per-event overhead)
    enabled: bool = True
    #: receive fine-grained events (per propagator run / domain update)?
    fine: bool = True

    def __init__(self) -> None:
        self._t0 = time.monotonic()

    # ------------------------------------------------------------------
    def emit(self, kind: str, /, **data: Any) -> None:
        # positional-only: payloads may carry a field literally named
        # "kind" (runtime.defrag.step does)
        self.record(TraceEvent(kind, time.monotonic() - self._t0, data))

    def record(self, event: TraceEvent) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def close(self) -> None:
        """Flush/release resources; default is a no-op."""


class NullTracer(Tracer):
    """The disabled tracer: accepted everywhere, costs nothing.

    ``Engine.attach_tracer`` normalizes it to ``None`` (checked via
    :attr:`enabled`), so no per-event call is ever made.
    """

    enabled = False
    fine = False

    def record(self, event: TraceEvent) -> None:
        pass


class RecordingTracer(Tracer):
    """Keeps every event in memory — the test/debugging workhorse.

    Parameters
    ----------
    fine:
        Record per-propagation / per-domain-update events too (default
        True; these dominate volume on non-trivial solves).
    capacity:
        Optional ring limit; when exceeded the oldest events are dropped
        but :attr:`total` keeps counting.
    """

    def __init__(self, fine: bool = True, capacity: Optional[int] = None) -> None:
        super().__init__()
        self.fine = fine
        self.capacity = capacity
        self.events: List[TraceEvent] = []
        #: events seen (>= len(events) once the ring wrapped)
        self.total = 0

    def record(self, event: TraceEvent) -> None:
        self.total += 1
        self.events.append(event)
        if self.capacity is not None and len(self.events) > self.capacity:
            del self.events[0]

    # ------------------------------------------------------------------
    def by_kind(self, kind: str) -> List[TraceEvent]:
        return [e for e in self.events if e.kind == kind]

    def count(self, kind: str) -> int:
        return sum(1 for e in self.events if e.kind == kind)

    def kinds(self) -> Dict[str, int]:
        """Histogram of event kinds."""
        out: Dict[str, int] = {}
        for e in self.events:
            out[e.kind] = out.get(e.kind, 0) + 1
        return out

    def clear(self) -> None:
        self.events.clear()
        self.total = 0

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)


class StreamTracer(Tracer):
    """Writes one JSON object per event (JSONL) to a text stream.

    Suitable for live ``tail -f`` inspection of a long solve and for
    post-hoc analysis with any JSONL tooling.  The stream is not closed by
    :meth:`close` unless ``owns_stream`` is set (used by :meth:`to_path`).
    """

    def __init__(
        self, stream: IO[str], fine: bool = False, owns_stream: bool = False
    ) -> None:
        super().__init__()
        self.fine = fine
        self._stream = stream
        self._owns = owns_stream
        self.written = 0

    @classmethod
    def to_path(cls, path: str, fine: bool = False) -> "StreamTracer":
        return cls(open(path, "w"), fine=fine, owns_stream=True)

    def record(self, event: TraceEvent) -> None:
        self._stream.write(json.dumps(event.to_dict()) + "\n")
        self.written += 1

    def close(self) -> None:
        self._stream.flush()
        if self._owns:
            self._stream.close()
