"""The solver configs carry no oracle switches or single-value knobs.

Each kernel runs in one mode.  The placement kernel's wholesale and
boolean-bank oracles and the spatio-temporal reference placer live in
``tests/support.py``, and tests reach the kernel oracles through
:func:`tests.support.kernel_mode`; the reference
:class:`~repro.geost.kernel.Geost` has no incremental or bitboard rung.
This guard keeps the oracles, and the knobs that only ever took their
default, off the solver surface, and the baseline placers' single-rule
options off their constructors.  No solver takes an anchor-mask cache:
every placement model builds its anchor words fresh.  The runtime
manager's admission chain names pick rules on its free-space ledger, not
backends, so it has no probe budget and no backend needs a relocatable
flag.  Backends, routers and defragmenters are plain name tables, with no
plugin registry or capability flags, and ``defragmenter=None`` is the one
way to turn defrag off.
"""

from __future__ import annotations

import dataclasses
import inspect

import pytest

import repro.core
import repro.core.backend
import repro.core.defrag
import repro.core.service
import repro.core.temporal
from repro.core import portfolio
from repro.core.backend.protocol import PlacementRequest
from repro.core.lns import LNSConfig
from repro.core.placement_model import PlacementModel
from repro.core.placer import PlacerConfig, warm_start_seed
from repro.core.portfolio import PortfolioConfig
from repro.core.runtime import RuntimeConfig
from repro.core.temporal import TemporalCPPlacer
from repro.fabric.cache import AnchorMaskCache
from repro.fabric.region import PartialRegion
from repro.geost.kernel import Geost
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
    # admission is a pick rule on the ledger: nothing searches, nothing
    # places on a residual region; defragmenter=None turns defrag off,
    # and a pass is bounded by the planner's own guard
    RuntimeConfig: {
        "probe_time_limit", "defrag_on_reject", "defrag_max_moves",
    },
}

REMOVED_PARAMETERS = {
    PlacementModel: {
        "incremental", "bitboard", "redundant_cumulative", "cache",
    },
    TemporalCPPlacer: {"incremental", "bitboard", "cache"},
    portfolio._worker: {"incremental", "bitboard"},
    # the packed-word kernel has one representation and one propagation;
    # the boolean bank and the wholesale subclass are test oracles
    PlacementKernel: {"incremental", "bitboard", "cache"},
    # the reference kernel runs the textbook wholesale fixpoint only
    Geost: {"incremental", "bitboard"},
    # the leftover cache is unbounded; no solver reads it
    AnchorMaskCache: {"capacity"},
    # best-area is KAMER's only MER rule; "first" and "bottom-left"
    # both ordered MERs by (x, y)
    KamerPlacer: {"fit"},
    # baselines answer fit queries from their own free-space ledger
    BasePlacer.place: {"cache"},
    # a region's column words are always packed from its mask
    PartialRegion: {"words"},
}

#: solve calls that once took an anchor-mask cache
CACHE_FREE_CALLS = [TemporalCPPlacer.place, warm_start_seed]


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


@pytest.mark.parametrize(
    "module", [repro.core, repro.core.temporal], ids=lambda m: m.__name__
)
def test_reference_temporal_placer_is_a_test_oracle(module):
    assert not hasattr(module, "TemporalPlacer")
    assert "TemporalPlacer" not in getattr(module, "__all__", ())


@pytest.mark.parametrize(
    "module",
    [repro.core, repro.core.backend, repro.core.service, repro.core.defrag],
    ids=lambda m: m.__name__,
)
def test_strategies_are_plain_name_tables(module):
    names = set(vars(module)) | set(getattr(module, "__all__", ()))
    assert not {
        n for n in names if n.startswith(("register_", "unregister_"))
    }
    assert not names & {"BackendCapabilities", "backend_capabilities"}


@pytest.mark.parametrize("backend", ["lns", "kamer"])
def test_admission_chain_takes_no_searching_backend(backend):
    with pytest.raises(ValueError, match="unknown admission rule"):
        RuntimeConfig(chain=(backend,)).validate()
