#!/usr/bin/env python3
"""Online placement service level (the related-work setting, Section II).

Modules arrive, run, and depart; the runtime placement manager admits or
rejects each request.  We compare a first-fit and a CP admission chain,
each with and without design alternatives — transplanting the paper's
thesis to the online setting: more layouts per module, fewer rejections.

Run:  python examples/online_service_level.py
"""

from repro.experiments import format_runtime, online_comparison, online_trace


def main() -> None:
    trace = online_trace(40, seed=3)
    peak = max(
        sum(
            r.module.primary().area
            for r in trace
            if r.arrival <= t < r.arrival + r.lifetime
        )
        for t in range(trace[-1].arrival + 1)
    )
    print(
        f"trace: {len(trace)} requests, peak concurrent demand "
        f"{peak} tiles\n"
    )
    rows = online_comparison(n_requests=40, seed=3)
    print(format_runtime(rows))
    by = {r.label: r for r in rows}
    gain = (
        by["first-fit (alternatives)"].admitted
        - by["first-fit (1 shape)"].admitted
    )
    print(
        f"\ndesign alternatives serve {gain} additional requests on this "
        "trace — fragmentation reduction at runtime."
    )


if __name__ == "__main__":
    main()
