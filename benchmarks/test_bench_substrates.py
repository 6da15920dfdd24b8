"""Micro-benchmarks of the hot substrates.

Per the HPC guides: no optimization without measuring.  These pin the
performance of the structures the placer's node rate depends on — bitset
domains, vectorized anchor masks, the sweep kernel, and one propagation
step of the placement kernel — so regressions show up as benchmark
deltas rather than mysterious solver slowdowns.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.cp.domain import Domain
from repro.cp.model import Model
from repro.fabric.devices import irregular_device
from repro.core.runtime import generate_workload
from repro.core.service import ShardedPlacementService
from repro.experiments.config import default_fabric
from repro.fabric.masks import (
    column_words,
    compatibility_masks,
    valid_anchor_mask,
)
from repro.fabric.region import PartialRegion
from repro.geost.boxes import Box
from repro.geost.placement import PlacementKernel
from repro.geost.sweep import sweep_min
from repro.modules.footprint import Footprint
from repro.modules.generator import ModuleGenerator
from tests.support import slice_and_anchor_mask

#: the run kernel (packed column words since the prefix counts moved to
#: the tests) must beat the per-cell slice-AND oracle by this factor on
#: the serving trace's footprints (measured ~4-6x for the prefix counts
#: on a 2-core x86 host; the gate leaves room for noisy hosts)
RUN_KERNEL_SPEEDUP_MIN = 2.0


class TestDomainOps:
    def test_bench_domain_intersect(self, benchmark):
        a = Domain(range(0, 200, 2))
        b = Domain(range(0, 200, 3))
        result = benchmark(a.intersect, b)
        assert len(result) == len(set(range(0, 200, 2)) & set(range(0, 200, 3)))

    def test_bench_domain_to_bool_array(self, benchmark):
        d = Domain(range(0, 160, 3))
        vec = benchmark(d.to_bool_array, 160)
        assert int(vec.sum()) == len(d)

    def test_bench_domain_from_bool_array(self, benchmark):
        vec = np.zeros(160, dtype=bool)
        vec[::5] = True
        d = benchmark(Domain.from_bool_array, vec)
        assert len(d) == 32


class TestAnchorMasks:
    @pytest.fixture(scope="class")
    def setup(self):
        region = PartialRegion.whole_device(irregular_device(160, 24, seed=42))
        module = ModuleGenerator(seed=1).generate()
        words = column_words(region)
        return region, module, words

    def test_bench_valid_anchor_mask(self, benchmark, setup):
        region, module, words = setup
        fp = module.primary()
        mask = benchmark(valid_anchor_mask, region, fp, words)
        assert mask.shape == (24, 160)

    def test_bench_column_words(self, benchmark, setup):
        region, _, _ = setup
        words = benchmark(column_words, region)
        assert words.shape[1:] == (160, 1) and words.dtype == np.uint64

    def test_bench_compatibility_masks(self, benchmark, setup):
        region, _, _ = setup
        compat = benchmark(compatibility_masks, region)
        assert len(compat) >= 3


class TestRunKernelSpeedup:
    """Ratio gate: the run kernel vs the per-cell slice-AND oracle.

    The workload is the serving benchmark's: every shape of the seeded
    500-request trace over the four column shards of the Table-I fabric.
    The footprint cache is cold — each timed pass gets fresh
    :class:`Footprint` objects, so the run kernel pays its run
    decomposition — and each side gets its region planes (column words
    or compatibility masks) precomputed once per shard, as in serving.
    """

    def test_run_kernel_beats_per_cell_oracle(self, report):
        regions = ShardedPlacementService.split(default_fabric(), 4)
        shapes = [
            sorted(fp.cells)
            for request in generate_workload(500, seed=0)
            for fp in request.module.shapes
        ]
        planes = [column_words(r) for r in regions]
        compat = [compatibility_masks(r) for r in regions]

        def run_kernel():
            fps = [Footprint(cells) for cells in shapes]
            t0 = time.perf_counter()
            for i, fp in enumerate(fps):
                valid_anchor_mask(regions[i % 4], fp, planes[i % 4])
            return time.perf_counter() - t0

        def per_cell():
            t0 = time.perf_counter()
            for i, cells in enumerate(shapes):
                slice_and_anchor_mask(regions[i % 4], cells, compat[i % 4])
            return time.perf_counter() - t0

        t_new = min(run_kernel() for _ in range(3))
        t_old = min(per_cell() for _ in range(3))
        speedup = t_old / t_new
        report(
            "anchor-mask kernel: run words vs per-cell slice-AND",
            "500-request serving trace footprints x 4 shards\n"
            f"  per-cell oracle {t_old / len(shapes) * 1e6:8.1f} us/call\n"
            f"  run words       {t_new / len(shapes) * 1e6:8.1f} us/call "
            "(cold footprint runs)\n"
            f"  speedup         {speedup:8.2f}x  "
            f"(gate >= {RUN_KERNEL_SPEEDUP_MIN}x)"
        )
        assert speedup >= RUN_KERNEL_SPEEDUP_MIN, (
            f"run kernel only {speedup:.2f}x the per-cell oracle"
        )


class TestSweep:
    def test_bench_sweep_min(self, benchmark):
        bounds = [(0, 100), (0, 100)]
        boxes = [
            Box((x, y), (7, 7))
            for x in range(0, 90, 12)
            for y in range(0, 90, 12)
        ]
        point = benchmark(sweep_min, bounds, [boxes], 0)
        assert point is not None


class TestKernelPropagation:
    @pytest.fixture(scope="class")
    def model(self):
        region = PartialRegion.whole_device(irregular_device(160, 24, seed=42))
        modules = ModuleGenerator(seed=1).generate_set(30)
        m = Model()
        xs = [m.int_var(0, region.width - 1, f"x{i}") for i in range(30)]
        ys = [m.int_var(0, region.height - 1, f"y{i}") for i in range(30)]
        ss = [
            m.int_var(0, mod.n_alternatives - 1, f"s{i}")
            for i, mod in enumerate(modules)
        ]
        kernel = PlacementKernel(region, modules, xs, ys, ss)
        m.post(kernel)
        return m, kernel, xs, ys, ss

    def test_bench_kernel_build(self, benchmark):
        region = PartialRegion.whole_device(irregular_device(160, 24, seed=42))
        modules = ModuleGenerator(seed=1).generate_set(30)

        def build():
            m = Model()
            xs = [m.int_var(0, region.width - 1, f"x{i}") for i in range(30)]
            ys = [m.int_var(0, region.height - 1, f"y{i}") for i in range(30)]
            ss = [
                m.int_var(0, mod.n_alternatives - 1, f"s{i}")
                for i, mod in enumerate(modules)
            ]
            kernel = PlacementKernel(region, modules, xs, ys, ss)
            m.post(kernel)
            return kernel

        kernel = benchmark(build)
        assert not kernel.occupied_mask().any()

    def test_bench_imprint_and_undo(self, benchmark, model):
        """One module placement commit + trail undo — the per-node cost."""
        m, kernel, xs, ys, ss = model

        def place_and_undo():
            m.engine.push_level()
            anchors = kernel.anchors_for(0)
            sid, x, y = anchors[0]
            ss[0].fix(sid)
            xs[0].fix(x)
            ys[0].fix(y)
            m.engine.fixpoint()
            m.engine.pop_level()

        benchmark(place_and_undo)
        assert not kernel.items[0].placed

    def test_bench_anchor_count(self, benchmark, model):
        _, kernel, *_ = model
        count = benchmark(kernel.anchor_count, 0)
        assert count > 0
