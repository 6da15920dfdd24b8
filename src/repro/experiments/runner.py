"""Command-line experiment runner.

Regenerate any of the paper's artefacts (or our ablations) from a shell::

    python -m repro.experiments.runner table1
    python -m repro.experiments.runner fig1 fig3 fig4
    python -m repro.experiments.runner a1 a2 a3 a4 a5
    python -m repro.experiments.runner all

Set ``REPRO_FULL=1`` for paper-scale run counts and budgets.

``--profile-dir DIR`` wraps each experiment in a
:func:`repro.obs.profiling_session`: every CP solve the experiment runs
deposits its :class:`~repro.obs.SolveProfile`, and the merged profile is
written to ``DIR/<experiment>.profile.json`` (schema-validated) next to
the textual artefact.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, Dict


def _table1() -> str:
    from repro.experiments.config import Table1Config
    from repro.experiments.table1 import format_table1, run_table1

    return format_table1(run_table1(Table1Config()))


def _fig1() -> str:
    from repro.experiments.figures import figure1_gallery

    return figure1_gallery()


def _fig3() -> str:
    from repro.experiments.figures import figure3_comparison

    _, _, fig = figure3_comparison()
    return fig


def _fig4() -> str:
    from repro.experiments.figures import figure4_constraint_anatomy

    a = figure4_constraint_anatomy()
    return (
        f"(a) in-bounds anchors:       {a.in_bounds}\n"
        f"(b) + resource matching:     {a.resource_matched}\n"
        f"(c) + reconfigurable region: {a.in_region}\n"
        f"(d) + non-overlap:           {a.non_overlapping}\n"
        f"monotone shrinkage: {a.monotone()}"
    )


def _a1() -> str:
    from repro.experiments.ablations import alternatives_sweep, format_sweep

    return format_sweep(alternatives_sweep(), "A1 — alternatives sweep")


def _a2() -> str:
    from repro.experiments.ablations import format_sweep, heterogeneity_sweep

    return format_sweep(heterogeneity_sweep(), "A2 — heterogeneity sweep")


def _a3() -> str:
    from repro.experiments.ablations import baseline_comparison, format_sweep

    return format_sweep(baseline_comparison(), "A3 — placer comparison")


def _a4() -> str:
    from repro.experiments.ablations import format_sweep, solver_strategy_sweep

    return format_sweep(solver_strategy_sweep(), "A4 — solver strategies")


def _a7() -> str:
    from repro.experiments.config import default_fabric
    from repro.metrics.utilization import extent_utilization
    from repro.modules.generator import ModuleGenerator
    from repro.placer import (
        BottomLeftPlacer, SlotConfig, SlotPlacer, slot_utilization,
    )

    region = default_fabric()
    modules = ModuleGenerator(seed=1).generate_set(30)
    one_d = SlotPlacer(SlotConfig(8)).place(region, modules)
    two_d = BottomLeftPlacer().place(region, modules)
    return (
        f"1D slots: placed {len(one_d.placements)}/30, "
        f"slot-util {slot_utilization(one_d, 8):.1%}\n"
        f"2D grid:  placed {len(two_d.placements)}/30, "
        f"util {extent_utilization(two_d):.1%}"
    )


def _a8() -> str:
    from repro.experiments.ablations import format_sweep, static_fraction_sweep

    return format_sweep(static_fraction_sweep(), "A8 — static-region fraction")


def _a5() -> str:
    from repro.experiments.runtime_exp import format_runtime, online_comparison

    return format_runtime(online_comparison())


def _a6() -> str:
    from repro.experiments.runtime_exp import (
        defrag_comparison,
        format_defrag,
        format_runtime,
        runtime_comparison,
    )

    return (
        format_runtime(runtime_comparison())
        + "\n\n"
        + format_defrag(defrag_comparison())
    )


#: backend names selected with --backend (None = every backend);
#: set by main() before the experiments run
_BACKEND_SELECTION: "list[str] | None" = None


def _a9() -> str:
    from repro.experiments.ablations import backend_comparison, format_sweep

    return format_sweep(
        backend_comparison(names=_BACKEND_SELECTION),
        "A9 — backend comparison",
    )


def _a10() -> str:
    from repro.experiments.runtime_exp import (
        format_reservations,
        reservation_comparison,
    )

    return format_reservations(reservation_comparison())


EXPERIMENTS: Dict[str, Callable[[], str]] = {
    "table1": _table1,
    "fig1": _fig1,
    "fig3": _fig3,
    "fig4": _fig4,
    "fig5": _fig3,  # same artefact at full-region rendering
    "a1": _a1,
    "a2": _a2,
    "a3": _a3,
    "a4": _a4,
    "a5": _a5,
    "a6": _a6,
    "a7": _a7,
    "a8": _a8,
    "a9": _a9,
    "a10": _a10,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro.experiments.runner", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="which artefacts to regenerate",
    )
    parser.add_argument(
        "--profile-dir",
        default=None,
        metavar="DIR",
        help="also write a merged solver profile JSON per experiment",
    )
    parser.add_argument(
        "--backend",
        action="append",
        default=None,
        metavar="NAME",
        help="restrict backend-driven experiments (a9) to this backend; "
        "repeatable (default: every backend)",
    )
    args = parser.parse_args(argv)
    if args.backend is not None:
        from repro.core.backend import BACKENDS

        for name in args.backend:
            if name not in BACKENDS:
                parser.error(
                    f"unknown backend {name!r}; backends: "
                    f"{', '.join(sorted(BACKENDS))}"
                )
        global _BACKEND_SELECTION
        _BACKEND_SELECTION = list(args.backend)
    names = (
        sorted(EXPERIMENTS) if "all" in args.experiments else args.experiments
    )
    for name in names:
        print(f"\n{'=' * 60}\n{name}\n{'=' * 60}")
        if args.profile_dir is None:
            print(EXPERIMENTS[name]())
        else:
            print(_run_profiled(name, args.profile_dir))
    return 0


def _run_profiled(name: str, profile_dir: str) -> str:
    """Run one experiment inside a profiling session; write its artifact."""
    from repro.obs import profiling_session, validate_profile

    os.makedirs(profile_dir, exist_ok=True)
    with profiling_session(name) as session:
        output = EXPERIMENTS[name]()
    profile = session.merged()
    doc = profile.to_dict()
    problems = validate_profile(doc)
    if problems:  # a broken artifact must fail loudly, not ship silently
        raise RuntimeError(
            f"profile for {name!r} violates the schema: {problems}"
        )
    path = os.path.join(profile_dir, f"{name}.profile.json")
    profile.save(path)
    return output + f"\n[profile: {path} — {profile.counts()}]"


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
