"""The repo benchmark: serving and solving, end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-steady --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py                      # every workload, one process each

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` alternates untraced passes with traced ones and reports the
per-layer metrics (see ``layers.py``), the layer table, the coverage of
the measured time by layer self times, and the tracing overhead.  The
metric names, units and directions and the default ``--seconds`` come
from ``BENCHMARK.json``; the workload parameters and metric definitions
from ``contract.json``.

Each run sets up its inputs from ``--seed`` several times and times the
imports in fresh interpreters (``setup_s`` is the median import time plus
the median set-up), then repeats passes over the same inputs until
``--seconds`` have passed and at least two passes ran.  The
gates run outside the timed intervals: live-floorplan invariants during
the first pass, settlement/accounting/verification after every pass, and
equal outcome digests across passes.  Any violation prints the problem,
reports ``"correct": false`` and exits with code 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 10
#: fresh interpreters that time the imports, besides this process
IMPORT_REPEATS = 4
MIN_PASSES = 2


def load_contract() -> Dict:
    with open(os.path.join(HERE, "contract.json")) as fh:
        return json.load(fh)


def load_benchmark() -> Dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def metric_units() -> Dict[str, str]:
    bench = load_benchmark()
    return {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}


def import_seconds() -> float:
    """Time to import the workloads, and through them the program, in a
    fresh interpreter."""
    code = (
        "import sys, time; sys.path[:0] = sys.argv[1:]; t0 = time.perf_counter(); "
        "import workloads; print(time.perf_counter() - t0)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, HERE, os.path.join(ROOT, "src")],
        stdout=subprocess.PIPE, text=True, check=True,
    )
    return float(proc.stdout)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def quartiles(values: List[float]):
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail_rank(n_min: int) -> float:
    """The highest percentile with at least 10 samples beyond it in a run
    of ``n_min`` samples (the fewest a run can hold), never below 50.

    Fixing it from the guaranteed minimum keeps the percentile the same
    whatever the number of passes a host manages in the run time.
    """
    k = n_min - 11  # nearest-rank index with 10 samples above it
    q = 100.0 * (k + 1) / n_min if k >= 0 else 50.0
    return max(50.0, q)


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile of unsorted data."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, -(-int(q * len(ordered)) // 100) - 1))
    return ordered[rank]


def judge(passes):
    """(problems, failed operations) over every pass of one run: the
    passes' own gate findings plus digest mismatches against pass 0 —
    a mismatched pass counts every one of its operations as failed."""
    problems = [p for r in passes for p in r.problems]
    failed = sum(r.failed for r in passes)
    reference = passes[0].digest
    for i, r in enumerate(passes):
        if r.digest != reference:
            problems.append(
                f"pass {i} digest {r.digest} differs from pass 0 {reference}"
            )
            failed += len(r.ops_s)
    return problems, failed


# ----------------------------------------------------------------------
# One workload in this process
# ----------------------------------------------------------------------
def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 import_t0: float, params: Optional[Dict] = None) -> int:
    spec = load_contract()["workloads"][name]
    from workloads import make_workload
    from hostspeed import HostSpeed
    if trace:
        from layers import LayerClock
        from repro.obs.context import profiling_session
    # the set-up phase is a run of operations of its own: the imports
    # (this process's, then fresh interpreters'), then the set-ups
    imports = [perf_counter() - import_t0]
    setup_speed = HostSpeed()
    setup_speed.after_op()
    for _ in range(0 if trace else IMPORT_REPEATS):
        imports.append(import_seconds())
        setup_speed.after_op()

    workload = make_workload(spec["kind"], params or spec["params"])
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        workload.setup(seed)
        setups.append(perf_counter() - t0)
        setup_speed.after_op()

    plain, traced = [], []
    speed, traced_speed = HostSpeed(), HostSpeed()
    clock = LayerClock() if trace else None
    sessions = []

    @contextlib.contextmanager
    def measure_traced():
        clock.install()
        try:
            with profiling_session("perfbench") as session:
                yield
        finally:
            clock.uninstall()
        sessions.append(session)

    deadline = perf_counter() + seconds
    while True:
        plain.append(
            workload.run_pass(check_floorplan=not plain, after_op=speed.after_op)
        )
        if trace:
            traced.append(
                workload.run_pass(check_floorplan=False, measure=measure_traced,
                                  after_op=traced_speed.after_op)
            )
        if len(plain) + len(traced) >= MIN_PASSES and perf_counter() >= deadline:
            break

    passes = plain + traced
    problems, failed = judge(passes)
    reference = passes[0].digest
    attempted = sum(len(r.ops_s) for r in passes)

    units = metric_units()
    ops_per_pass = len(passes[0].ops_s)
    print(f"== {name}  seed={seed}  passes={len(plain)} untraced"
          f"{f' + {len(traced)} traced' if trace else ''}"
          f"  ops/pass={ops_per_pass}  digest={reference}")
    if spec["kind"] == "solve":
        c = plain[0].counters
        print(f"   util with alternatives {100 * plain[0].util:.2f}%, "
              f"without {c['util_noalt_pct']:.2f}%, paired gain "
              f"{c['util_gain_pts']:+.2f} pts (paper: 53% -> 65%, +12); "
              f"primary-only sets left unplaced: {c['unplaced_primary']}")

    if trace:
        metrics = layer_metrics(clock, traced, plain, sessions,
                                speed, traced_speed)
        print_layer_table(clock, traced)
    else:
        metrics = end_to_end_metrics(plain, setups, imports, ops_per_pass,
                                     speed, setup_speed)
    for m in metrics:
        print(f"   {m:<34} {metrics[m]:>14.6g} {units[m]}")
    for p in problems:
        print(f"   GATE: {p}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }))
    return 0 if not problems else 1


def end_to_end_metrics(plain, setups, imports, ops_per_pass, speed, setup_speed):
    """End-to-end metrics; every time is scaled to the reference host
    (``hostspeed.py``), and the raw wall times are printed beside them."""
    wall = [t for r in plain for t in r.ops_s]
    ops = speed.scaled(wall)
    q = tail_rank(MIN_PASSES * ops_per_pass)
    per_pass = [len(r.ops_s) / sum(r.ops_s) for r in plain]
    s1, s2, s3 = quartiles(setups)
    import_s = statistics.median(imports)
    scaled_setup = setup_speed.scaled(imports + setups)
    setup_s = (statistics.median(scaled_setup[:len(imports)])
               + statistics.median(scaled_setup[len(imports):]))
    p1, p2, p3 = quartiles(per_pass)
    for label, times in (("wall", wall), ("scaled", ops)):
        o1, o2, o3 = quartiles(times)
        print(f"   op {label} ms: p25 {o1 * 1e3:.3f}  p50 {o2 * 1e3:.3f}  "
              f"p75 {o3 * 1e3:.3f}  p{q:g} {percentile(times, q) * 1e3:.3f}  "
              f"n={len(times)}  ops/s {len(times) / sum(times):.3f}")
    print(f"   wall ops/s per pass: q1 {p1:.2f}  median {p2:.2f}  q3 {p3:.2f}  "
          f"n={len(per_pass)}")
    l1, l2, l3 = quartiles(speed.loops)
    print(f"   reference loop ms: q1 {l1 * 1e3:.3f}  median {l2 * 1e3:.3f}  "
          f"q3 {l3 * 1e3:.3f}  n={len(speed.loops)}  (set-up: median "
          f"{1e3 * statistics.median(setup_speed.loops):.3f}, "
          f"n={len(setup_speed.loops)})")
    print(f"   set-up wall s: median import {import_s:.3f} (n={len(imports)}) + "
          f"median set-up {s2:.3f} (q1 {s1:.3f}, q3 {s3:.3f}, n={len(setups)})")
    return {
        "ops_per_s": len(ops) / sum(ops),
        # with too few samples for a tail the percentile collapses onto
        # the median; report the median itself then
        "op_tail_ms": 1e3 * (percentile(ops, q) if q > 50
                             else statistics.median(ops)),
        "admit_pct": 100.0 * sum(r.admitted for r in plain)
        / sum(r.submitted for r in plain),
        "util_pct": 100.0 * statistics.fmean(r.util for r in plain),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def layer_metrics(clock, traced, plain, sessions, speed, traced_speed):
    n = len(traced)
    busy = sum(r.busy_s for r in traced)
    calls = clock.calls
    self_ms = {k: 1e3 * v / n for k, v in clock.self_s.items()}
    counts = clock.counts
    out = {}
    for layer in ("service.route", "runtime.advance", "runtime.park",
                  "runtime.offer", "runtime.residual", "rung.cp", "rung.greedy",
                  "masks.build", "defrag.plan", "model.build", "cp.fixpoint",
                  "geost.propagate"):
        out[f"{layer}.calls"] = calls.get(layer, 0) / n
        out[f"{layer}.self_ms"] = self_ms.get(layer, 0.0)
    out["search.bnb.self_ms"] = self_ms.get("search.bnb", 0.0)
    offers = calls.get("runtime.offer", 0)
    out["service.spill_ratio"] = (
        counts["runtime.offer.declined"] / offers if offers else 0.0
    )
    for rung in ("rung.cp", "rung.greedy"):
        c = calls.get(rung, 0)
        out[f"{rung}.hit_ratio"] = counts[f"{rung}.hits"] / c if c else 0.0
    for key in ("search.nodes", "search.backtracks",
                "search.first_incumbent_nodes"):
        out[key] = counts[key] / n
    for key in ("runtime.queued_admits", "runtime.reservations_booked",
                "runtime.reservation_admit_ratio", "runtime.deadline_rejects",
                "defrag.move_ratio", "defrag.aborted_moves",
                "masks.cache_hit_ratio", "masks.cache_entries"):
        out[key] = traced[-1].counters.get(key, 0)
    reused = sum(s.merged().geost_reused for s in sessions)
    dirty = sum(s.merged().geost_dirty for s in sessions)
    out["geost.reuse_ratio"] = reused / (reused + dirty) if reused + dirty else 0.0
    out["trace.coverage_pct"] = 100.0 * clock.self_time_s() / busy
    # the same operations, traced and untraced, in reference-host time
    traced_s = sum(traced_speed.scaled([t for r in traced for t in r.ops_s]))
    plain_s = sum(speed.scaled([t for r in plain for t in r.ops_s]))
    out["trace.overhead_pct"] = 100.0 * (
        traced_s / len(traced) / (plain_s / len(plain)) - 1.0
    )
    return out


def print_layer_table(clock, traced) -> None:
    n = len(traced)
    busy = sum(r.busy_s for r in traced)
    print(f"   layer table, per pass over {n} traced pass(es); "
          f"measured {1e3 * busy / n:.1f} ms per pass")
    print(f"   {'layer':<20} {'calls':>9} {'total ms':>10} {'self ms':>10} {'share':>7}")
    for layer in sorted(clock.self_s, key=lambda k: -clock.self_s[k]):
        print(f"   {layer:<20} {clock.calls[layer] / n:>9.0f} "
              f"{1e3 * clock.total_s[layer] / n:>10.1f} "
              f"{1e3 * clock.self_s[layer] / n:>10.1f} "
              f"{100 * clock.self_s[layer] / busy:>6.1f}%")
    rest = busy - clock.self_time_s()
    print(f"   {'(outside layers)':<20} {'':>9} {'':>10} {1e3 * rest / n:>10.1f} "
          f"{100 * rest / busy:>6.1f}%")


# ----------------------------------------------------------------------
# Every workload, each in a fresh process
# ----------------------------------------------------------------------
def run_all(args) -> int:
    results, status = {}, 0
    for name in load_contract()["workloads"]:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        lines = proc.stdout.strip().splitlines() or [""]
        result = json.loads(lines[-1]) if lines[-1].startswith("{") else None
        print("\n".join(lines[:-1] if result else lines))
        status = status or proc.returncode
        results[name] = result
    if None in results.values():
        return status or 1
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{name}.{m}": v
            for name, r in results.items()
            for m, v in r["metrics"].items()
        },
    }))
    return status


def main(argv=None) -> int:
    import_t0 = perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(load_benchmark()["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if args.workload not in load_contract()["workloads"]:
        parser.error(f"unknown workload {args.workload!r}")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    return run_workload(args.workload, args.seed, args.seconds,
                        bool(args.trace), import_t0)


if __name__ == "__main__":
    sys.exit(main())
