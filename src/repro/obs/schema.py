"""Schemas for the exported observability artifacts.

The container has no ``jsonschema`` package, so validation is a small
hand-rolled checker over a declarative spec.  Two artifacts are covered:

* **profile documents** — the JSON written by
  :meth:`repro.obs.profile.SolveProfile.to_json` (validated by
  ``make profile-smoke`` and by the round-trip tests), and
* **trace events** — the JSONL lines written by
  :class:`repro.obs.trace.StreamTracer`.

``validate_*`` functions return a list of problem strings; an empty list
means the document conforms.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.obs.profile import COUNTERS, PROFILE_SCHEMA_VERSION, SCALARS

#: required top-level fields of a profile document and their types: one
#: per scalar field of :class:`~repro.obs.profile.SolveProfile`, typed
#: by its default
PROFILE_SCHEMA: Dict[str, type] = {
    "schema_version": int,
    **{f.name: type(f.default) for f in SCALARS},
    "propagators": list,
    "meta": dict,
}

#: required fields of one propagator row inside ``propagators``
PROPAGATOR_ROW_SCHEMA: Dict[str, type] = {
    "name": str,
    "calls": int,
    "time_s": float,
    "prunes": int,
    "failures": int,
}

#: every event kind the solve path emits, with its payload fields
EVENT_KINDS: Dict[str, List[str]] = {
    "search.node": ["var", "value", "depth"],
    "search.fail": ["var", "value", "depth"],
    "search.solution": ["depth", "count"],
    "search.restart": ["attempt", "budget"],
    "bnb.incumbent": ["objective", "nodes"],
    "engine.failure": ["var", "cause"],
    "engine.propagate": ["propagator", "prunes"],
    "engine.domain": ["var", "size", "cause"],
    "geost.shape_removed": ["object", "shape"],
    "geost.incremental": ["dirty", "reused", "rasterized", "rows_tested"],
    "kernel.imprint": ["module", "shape", "x", "y"],
    "lns.neighborhood": ["iteration", "free", "frontier"],
    "lns.improved": ["iteration", "extent"],
    # analytical force relaxation: one progress sample per trace_every
    # iterations (mean per-module move, total pairwise bbox overlap)
    "analytical.iterate": ["iteration", "move", "overlap"],
    "portfolio.result": ["seed", "extent", "solved"],
    "backend.start": ["backend", "modules"],
    "backend.result": ["backend", "status", "placed", "elapsed"],
    "runtime.arrival": ["module", "clock", "queue"],
    "runtime.reject": ["module", "clock", "reason"],
    "runtime.defrag": [
        "clock", "trigger", "moves", "extent_before", "extent_after",
    ],
    # one event per no-break move lifecycle transition; status is
    # "started" | "completed" | "aborted", move_kind "slide" | "copy"
    # (named move_kind, not kind: the serialized event already has a
    # top-level "kind" — the event kind itself)
    "runtime.defrag.step": [
        "module", "clock", "status", "move_kind", "frames",
    ],
    "runtime.depart": ["module", "clock"],
    # reservation lifecycle: the temporal probe books a future tick,
    # the manager commits it when the tick arrives (or expires it at
    # the deadline with RejectReason.RESERVATION_EXPIRED)
    "runtime.reserve": ["module", "clock", "start"],
    "runtime.reservation.commit": ["module", "clock", "start"],
    "runtime.reservation.expire": ["module", "clock", "deadline"],
    # sharded placement service lifecycle (repro.core.service)
    "service.route": ["module", "shard", "policy", "rank"],
    "service.spill": ["module", "from_shard", "to_shard"],
    "service.drain": ["shards", "clock"],
}


def _check_fields(
    doc: Dict[str, Any], spec: Dict[str, type], where: str
) -> List[str]:
    problems = []
    for key, typ in spec.items():
        if key not in doc:
            problems.append(f"{where}: missing field {key!r}")
            continue
        value = doc[key]
        if typ is float:
            ok = isinstance(value, (int, float)) and not isinstance(value, bool)
        elif typ is int:
            ok = isinstance(value, int) and not isinstance(value, bool)
        else:
            ok = isinstance(value, typ)
        if not ok:
            problems.append(
                f"{where}: field {key!r} has type {type(value).__name__}, "
                f"expected {typ.__name__}"
            )
    return problems


def validate_profile(doc: Dict[str, Any]) -> List[str]:
    """Problems with a profile document (empty list = valid)."""
    problems = _check_fields(doc, PROFILE_SCHEMA, "profile")
    version = doc.get("schema_version")
    if isinstance(version, int) and version != PROFILE_SCHEMA_VERSION:
        problems.append(
            f"profile: schema_version {version} != {PROFILE_SCHEMA_VERSION}"
        )
    for key in COUNTERS:
        value = doc.get(key)
        if isinstance(value, int) and not isinstance(value, bool) and value < 0:
            problems.append(f"profile: field {key!r} is negative ({value})")
    rows = doc.get("propagators")
    if isinstance(rows, list):
        for i, row in enumerate(rows):
            if not isinstance(row, dict):
                problems.append(f"profile.propagators[{i}]: not an object")
                continue
            problems.extend(
                _check_fields(row, PROPAGATOR_ROW_SCHEMA,
                              f"profile.propagators[{i}]")
            )
    return problems


def validate_event(doc: Dict[str, Any]) -> List[str]:
    """Problems with one trace-event object (empty list = valid)."""
    problems = []
    kind = doc.get("kind")
    if not isinstance(kind, str):
        return ["event: missing or non-string 'kind'"]
    if "t" not in doc or isinstance(doc["t"], bool) or not isinstance(
        doc["t"], (int, float)
    ):
        problems.append(f"event {kind}: missing or non-numeric 't'")
    if kind not in EVENT_KINDS:
        problems.append(f"event: unknown kind {kind!r}")
        return problems
    for fieldname in EVENT_KINDS[kind]:
        if fieldname not in doc:
            problems.append(f"event {kind}: missing field {fieldname!r}")
    return problems
