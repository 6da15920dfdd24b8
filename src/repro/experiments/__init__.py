"""Experiment drivers reproducing the paper's evaluation.

Each module regenerates one artefact of Section V (or one of our
ablations); the benchmark suite under ``benchmarks/`` calls into these so
the numbers printed by ``pytest benchmarks/ --benchmark-only`` come from
exactly the code documented here.
"""

from repro.experiments.config import Table1Config, default_fabric
from repro.experiments.table1 import Table1Row, run_table1, format_table1
from repro.experiments.figures import (
    figure1_gallery,
    figure3_comparison,
    figure4_constraint_anatomy,
)
from repro.experiments.ablations import (
    alternatives_sweep,
    baseline_comparison,
    heterogeneity_sweep,
    solver_strategy_sweep,
    static_fraction_sweep,
)
from repro.experiments.runtime_exp import (
    format_runtime,
    online_comparison,
    online_trace,
)
from repro.experiments.service_load import (
    LoadReport,
    run_load,
    serving_config,
)

__all__ = [
    "Table1Config",
    "default_fabric",
    "Table1Row",
    "run_table1",
    "format_table1",
    "figure1_gallery",
    "figure3_comparison",
    "figure4_constraint_anatomy",
    "alternatives_sweep",
    "baseline_comparison",
    "heterogeneity_sweep",
    "solver_strategy_sweep",
    "static_fraction_sweep",
    "online_comparison",
    "online_trace",
    "format_runtime",
    "LoadReport",
    "run_load",
    "serving_config",
]
