"""Regression: fragmentation probes are memoized on the occupancy stamp.

The least-fragmented router ranks every shard by
``planning_fragmentation()`` on every arrival, and the metric behind it
runs the pure-Python KAMER staircase over the whole floorplan.  Before
the memo, every routed submit recomputed the staircase for every shard —
the dominant cost of the serving hot path.  The manager now keys the
cached value on a monotone occupancy revision (bumped by imprints,
un-imprints, occupancy rebuilds, move windows and reservation churn), so
an unchanged shard answers from cache.
"""

from __future__ import annotations

import pytest

import repro.metrics.fragmentation as frag_mod
from repro.core.runtime import (
    RuntimeConfig,
    RuntimePlacementManager,
    RuntimeRequest,
    generate_workload,
)
from repro.core.service import ServiceConfig, ShardedPlacementService
from repro.fabric.devices import homogeneous_device
from repro.fabric.region import PartialRegion
from repro.modules.footprint import Footprint
from repro.modules.generator import GeneratorConfig
from repro.modules.module import Module

N_SHARDS = 4
N_REQUESTS = 100


@pytest.fixture
def staircase_counter(monkeypatch):
    """Count invocations of the KAMER staircase behind the metric."""
    calls = {"n": 0}
    real = frag_mod.maximal_empty_rectangles

    def counting(free):
        calls["n"] += 1
        return real(free)

    monkeypatch.setattr(frag_mod, "maximal_empty_rectangles", counting)
    return calls


def _trace():
    return generate_workload(
        N_REQUESTS,
        seed=5,
        mean_lifetime=12,
        generator_config=GeneratorConfig(
            clb_min=4, clb_max=10, bram_max=0, height_min=2, height_max=2
        ),
    )


def _service():
    region = PartialRegion.whole_device(homogeneous_device(24, 2))
    cfg = ServiceConfig(
        router="least-fragmented",
        runtime=RuntimeConfig(
            chain=("greedy",), frag_threshold=1.0, sample_timeline=False
        ),
    )
    return ShardedPlacementService.replicated(region, N_SHARDS, cfg)


class TestFragmentationMemo:
    def test_routed_trace_stays_far_below_per_probe_recompute(
        self, staircase_counter
    ):
        _service().run(_trace())
        # pre-memo, every arrival recomputed the staircase once per shard
        # (the router ranks all of them): >= N_REQUESTS * N_SHARDS runs.
        # Memoized, only shards whose occupancy changed since their last
        # probe recompute — at most a couple per processed event (the
        # admitting shard's imprint plus its departures), so the trace
        # stays well under half the naive count.
        naive_floor = N_REQUESTS * N_SHARDS
        assert staircase_counter["n"] < naive_floor // 2

    def test_unchanged_manager_answers_from_cache(self, staircase_counter):
        region = PartialRegion.whole_device(homogeneous_device(12, 2))
        mgr = RuntimePlacementManager(
            region,
            RuntimeConfig(
                chain=("greedy",), frag_threshold=1.0, sample_timeline=False
            ),
        )
        mgr.submit(
            RuntimeRequest(
                Module("m0", [Footprint.rectangle(2, 2)]),
                arrival=1,
                lifetime=50,
            )
        )
        baseline = staircase_counter["n"]
        first = mgr.fragmentation()
        after_first = staircase_counter["n"]
        assert after_first > baseline  # the miss computed something
        for _ in range(5):
            assert mgr.fragmentation() == first
        assert staircase_counter["n"] == after_first  # pure hits

    def test_mutation_invalidates_the_memo(self, staircase_counter):
        region = PartialRegion.whole_device(homogeneous_device(12, 2))
        mgr = RuntimePlacementManager(
            region,
            RuntimeConfig(
                chain=("greedy",), frag_threshold=1.0, sample_timeline=False
            ),
        )
        mgr.submit(
            RuntimeRequest(
                Module("a", [Footprint.rectangle(2, 2)]),
                arrival=1,
                lifetime=50,
            )
        )
        before = mgr.fragmentation()
        hits = staircase_counter["n"]
        mgr.submit(
            RuntimeRequest(
                Module("b", [Footprint.rectangle(4, 2)]),
                arrival=2,
                lifetime=50,
            )
        )
        after = mgr.fragmentation()
        assert staircase_counter["n"] > hits  # recomputed, not stale
        # sanity on the values themselves: placing a second module on a
        # 12-wide strip changes the free-space picture
        assert isinstance(before, float) and isinstance(after, float)
