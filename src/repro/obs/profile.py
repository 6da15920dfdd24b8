"""Per-propagator accounting and the :class:`SolveProfile` artifact.

``EngineStats`` answers *how much* work a solve did; this module answers
*where it went*.  When profiling is enabled the engine wraps every
propagator run with a wall clock and attributes domain updates and
failures to the propagator that caused them; the result is aggregated
into a :class:`SolveProfile` — a plain-data record that sums across runs,
crosses process boundaries as a dict, exports to JSON/CSV, and renders a
human-readable report.

The JSON layout is pinned by :data:`repro.obs.schema.PROFILE_SCHEMA`;
golden-statistics regression tests serialize profiles of fixed instances
and fail on any drift of the counters.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Dict, List, Optional, Tuple

#: bump when the exported dict layout changes incompatibly
PROFILE_SCHEMA_VERSION = 1


def merge_records(a, b, **override):
    """Field-wise merge of two records of one dataclass.

    ``max_*``/``peak_*`` fields merge by max, strings by first non-empty,
    dicts per key (values merged by ``+``), every other field by sum.
    ``override`` supplies merged values for fields that follow none of
    these rules.
    """
    merged = dict(override)
    for f in fields(a):
        if f.name in merged:
            continue
        x, y = getattr(a, f.name), getattr(b, f.name)
        if f.name.startswith(("max_", "peak_")):
            merged[f.name] = max(x, y)
        elif isinstance(x, str):
            merged[f.name] = x or y
        elif isinstance(x, dict):
            out = dict(x)
            for key, value in y.items():
                out[key] = out[key] + value if key in out else value
            merged[f.name] = out
        else:
            merged[f.name] = x + y
    return type(a)(**merged)


@dataclass
class PropagatorProfile:
    """Accumulated cost/effect of one propagator (by name)."""

    name: str
    #: times ``propagate`` ran
    calls: int = 0
    #: wall-clock seconds inside ``propagate``
    time_s: float = 0.0
    #: domain updates performed during this propagator's runs
    prunes: int = 0
    #: runs that ended in ``Inconsistent``
    failures: int = 0

    def __add__(self, other: "PropagatorProfile") -> "PropagatorProfile":
        if self.name != other.name:
            raise ValueError(f"cannot merge {self.name!r} with {other.name!r}")
        return merge_records(self, other)

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @staticmethod
    def from_dict(d: Dict[str, Any]) -> "PropagatorProfile":
        return PropagatorProfile(
            **{f.name: d[f.name] for f in fields(PropagatorProfile)}
        )


@dataclass
class SolveProfile:
    """Machine-readable profile of one (or a sum of) solver run(s)."""

    # search-layer counters
    nodes: int = 0
    backtracks: int = 0
    solutions: int = 0
    max_depth: int = 0
    restarts: int = 0
    elapsed: float = 0.0
    stop_reason: str = ""
    # engine-layer counters
    propagations: int = 0
    domain_updates: int = 0
    failures: int = 0
    # placement-kernel counters: dirty modules filtered / cached anchor
    # counts reused / modules written into the occupancy words / word-bank
    # rows tested by prunes and anchor counts
    geost_dirty: int = 0
    geost_reused: int = 0
    geost_rasterized: int = 0
    geost_rows_tested: int = 0
    # analytical-relaxation counters (0 unless the analytical placer ran):
    # force-loop iterations executed / centroids legalized onto anchors
    analytical_iterations: int = 0
    analytical_snapped: int = 0
    #: per-propagator breakdown, keyed by propagator name
    propagators: Dict[str, PropagatorProfile] = field(default_factory=dict)
    #: free-form context: instance name, seed, placer config, ...
    meta: Dict[str, Any] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @staticmethod
    def capture(engine, search_stats=None, **meta: Any) -> "SolveProfile":
        """Snapshot an engine (and optionally search stats) into a profile.

        ``engine`` is duck-typed (``stats`` + ``prop_stats`` attributes) so
        this module stays import-free of :mod:`repro.cp`.
        """
        p = SolveProfile(meta=dict(meta))
        es = engine.stats
        p.propagations = es.propagations
        p.domain_updates = es.domain_updates
        p.failures = es.failures
        if getattr(engine, "prop_stats", None) is not None:
            p.propagators = {
                name: PropagatorProfile(
                    rec.name, rec.calls, rec.time_s, rec.prunes, rec.failures
                )
                for name, rec in engine.prop_stats.items()
            }
        if search_stats is not None:
            p.nodes = search_stats.nodes
            p.backtracks = search_stats.backtracks
            p.solutions = search_stats.solutions
            p.max_depth = search_stats.max_depth
            p.elapsed = search_stats.elapsed
            p.stop_reason = search_stats.stop_reason
        return p

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def __add__(self, other: "SolveProfile") -> "SolveProfile":
        meta = dict(self.meta)
        for k, v in other.meta.items():
            meta.setdefault(k, v)
        return merge_records(self, other, meta=meta)

    def counts(self) -> Dict[str, int]:
        """The integer counters that golden tests pin (no wall-clock)."""
        return {name: getattr(self, name) for name in COUNTERS}

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": PROFILE_SCHEMA_VERSION,
            **self.counts(),
            "elapsed": self.elapsed,
            "stop_reason": self.stop_reason,
            "propagators": [
                self.propagators[k].to_dict() for k in sorted(self.propagators)
            ],
            "meta": self.meta,
        }

    @staticmethod
    def from_dict(d: Dict[str, Any]) -> "SolveProfile":
        version = d.get("schema_version", PROFILE_SCHEMA_VERSION)
        if version != PROFILE_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported profile schema version {version} "
                f"(expected {PROFILE_SCHEMA_VERSION})"
            )
        props = [PropagatorProfile.from_dict(p) for p in d.get("propagators", [])]
        return SolveProfile(
            **{f.name: d.get(f.name, f.default) for f in SCALARS},
            propagators={p.name: p for p in props},
            meta=dict(d.get("meta", {})),
        )

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @staticmethod
    def from_json(text: str) -> "SolveProfile":
        return SolveProfile.from_dict(json.loads(text))

    def save(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_json())

    @staticmethod
    def load(path: str) -> "SolveProfile":
        with open(path) as handle:
            return SolveProfile.from_json(handle.read())

    def to_csv(self) -> str:
        """Per-propagator breakdown as CSV (header + one row per name)."""
        lines = ["propagator,calls,time_s,prunes,failures"]
        for name in sorted(self.propagators):
            p = self.propagators[name]
            lines.append(
                f"{p.name},{p.calls},{p.time_s:.6f},{p.prunes},{p.failures}"
            )
        return "\n".join(lines) + "\n"


#: every scalar field of :class:`SolveProfile` (all but the per-propagator
#: breakdown and ``meta``), in declaration order
SCALARS: Tuple = tuple(
    f for f in fields(SolveProfile) if f.name not in ("propagators", "meta")
)
#: the integer counters: exported, schema-required, never negative
COUNTERS: Tuple[str, ...] = tuple(
    f.name for f in SCALARS if type(f.default) is int
)


def profile_report(profile: SolveProfile) -> str:
    """Human-readable rendering: headline counters + propagator table."""
    p = profile
    head = [
        f"nodes={p.nodes} backtracks={p.backtracks} solutions={p.solutions} "
        f"max_depth={p.max_depth} restarts={p.restarts}",
        f"propagations={p.propagations} domain_updates={p.domain_updates} "
        f"failures={p.failures} elapsed={p.elapsed:.3f}s"
        + (f" stop={p.stop_reason}" if p.stop_reason else ""),
    ]
    if (
        p.geost_dirty or p.geost_reused or p.geost_rasterized
        or p.geost_rows_tested
    ):
        head.append(
            f"incremental geost: dirty={p.geost_dirty} "
            f"reused={p.geost_reused} rasterized={p.geost_rasterized} "
            f"rows_tested={p.geost_rows_tested}"
        )
    if p.analytical_iterations or p.analytical_snapped:
        head.append(
            f"analytical: iterations={p.analytical_iterations} "
            f"snapped={p.analytical_snapped}"
        )
    if p.meta:
        head.append(
            "meta: " + " ".join(f"{k}={v}" for k, v in sorted(p.meta.items()))
        )
    if not p.propagators:
        return "\n".join(head)
    total_time = sum(r.time_s for r in p.propagators.values()) or 1e-12
    rows: List[str] = []
    width = max(len(n) for n in p.propagators) if p.propagators else 10
    width = max(width, len("propagator"))
    rows.append(
        f"{'propagator':<{width}}  {'calls':>8}  {'time':>9}  {'%':>5}  "
        f"{'prunes':>9}  {'fails':>6}  {'prunes/ms':>9}"
    )
    ordered = sorted(
        p.propagators.values(), key=lambda r: r.time_s, reverse=True
    )
    for r in ordered:
        rate = r.prunes / (r.time_s * 1e3) if r.time_s > 0 else float("inf")
        rows.append(
            f"{r.name:<{width}}  {r.calls:>8}  {r.time_s:>8.4f}s  "
            f"{100 * r.time_s / total_time:>4.1f}%  {r.prunes:>9}  "
            f"{r.failures:>6}  "
            + (f"{rate:>9.1f}" if rate != float("inf") else f"{'—':>9}")
        )
    return "\n".join(head + rows)
