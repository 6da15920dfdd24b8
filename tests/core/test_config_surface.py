"""The solver configs carry no oracle switches or single-value knobs.

The wholesale (``incremental=False``) propagation path is a reference
oracle on the two kernel constructors
(:class:`~repro.geost.placement.PlacementKernel` and
:class:`~repro.geost.kernel.Geost`); the scalar (``bitboard=False``) path
is a switch of the reference kernel only, and the placement kernel's
boolean-bank oracle lives in ``tests/support.py``.  Tests reach them
through :func:`tests.support.kernel_mode`.  This guard keeps them, and
the knobs that only ever took their default, off the solver surface, and
the baseline placers' single-rule options off their constructors.  No
solver takes an anchor-mask cache: every placement model builds its
anchor words fresh.
"""

from __future__ import annotations

import dataclasses
import inspect

import pytest

from repro.core import portfolio
from repro.core.backend.protocol import PlacementRequest
from repro.core.lns import LNSConfig
from repro.core.placement_model import PlacementModel
from repro.core.placer import PlacerConfig, warm_start_seed
from repro.core.portfolio import PortfolioConfig
from repro.core.temporal import TemporalCPPlacer, TemporalPlacer
from repro.fabric.cache import AnchorMaskCache
from repro.geost.placement import PlacementKernel
from repro.placer import KamerPlacer
from repro.placer.base import BasePlacer

REMOVED_FIELDS = {
    PlacerConfig: {
        "incremental", "bitboard", "redundant_cumulative",
        "warm_start_budget", "order", "cache",
    },
    LNSConfig: {"incremental", "bitboard", "warm_start_budget", "cache"},
    PortfolioConfig: {"incremental", "bitboard"},
    PlacementRequest: {"incremental", "bitboard", "cache"},
}

REMOVED_PARAMETERS = {
    PlacementModel: {
        "incremental", "bitboard", "redundant_cumulative", "cache",
    },
    TemporalPlacer: {"cache"},
    TemporalCPPlacer: {"incremental", "bitboard", "cache"},
    portfolio._worker: {"incremental", "bitboard"},
    # the packed-word kernel has one representation; the boolean bank is
    # the test oracle
    PlacementKernel: {"bitboard", "cache"},
    # the leftover cache is unbounded; no solver reads it
    AnchorMaskCache: {"capacity"},
    # best-area is KAMER's only MER rule; "first" and "bottom-left"
    # both ordered MERs by (x, y)
    KamerPlacer: {"fit"},
    # baselines answer fit queries from their own free-space ledger
    BasePlacer.place: {"cache"},
}

#: solve calls that once took an anchor-mask cache
CACHE_FREE_CALLS = [
    TemporalPlacer.place, TemporalCPPlacer.place, warm_start_seed,
]


@pytest.mark.parametrize(
    "config", list(REMOVED_FIELDS), ids=lambda cls: cls.__name__
)
def test_config_has_no_removed_field(config):
    fields = {f.name for f in dataclasses.fields(config)}
    assert not fields & REMOVED_FIELDS[config]


@pytest.mark.parametrize(
    "target", list(REMOVED_PARAMETERS), ids=lambda obj: obj.__name__
)
def test_constructor_has_no_removed_parameter(target):
    params = set(inspect.signature(target).parameters)
    assert not params & REMOVED_PARAMETERS[target]


@pytest.mark.parametrize(
    "call", CACHE_FREE_CALLS, ids=lambda obj: obj.__qualname__
)
def test_solve_call_takes_no_cache(call):
    assert "cache" not in inspect.signature(call).parameters
