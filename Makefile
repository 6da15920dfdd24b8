# Developer entry points.  Everything runs from the repo root with the
# src/ layout on PYTHONPATH; no install step required.

PY := PYTHONPATH=src python

.PHONY: test test-fast test-oracle bench bench-fast bench-geost bench-masks bench-runtime profile-smoke runtime-smoke backends-smoke defrag-smoke temporal-smoke analytical-smoke examples-smoke

## full tier-1 suite (what CI runs)
test:
	$(PY) -m pytest -q

## quick loop: skip the slow-marked sweeps
test-fast:
	$(PY) -m pytest -q -m "not slow"

## the full differential oracle surface, slow legs included: the
## cross-kernel oracle-ladder suite plus every cross-validation /
## property file that pins one implementation against another (the
## placement kernel against its wholesale subclass, the reference geost
## kernel and brute force, the anchor-mask kernel against its
## brute-force and per-cell oracles, the first_anchor /
## bottom_left_pick queries against the lexsort pick, the defrag
## planners' maintained ledger against per-cell floorplan rebuilds, the
## free-space ledger's packed words against per-cell boolean grids, the
## baseline placers' ledger state against the boolean-grid state it
## replaced, the placement kernel's packed words against the
## boolean-bank kernel they replaced, the runtime manager's one-module
## cp pick rule against the CP placer's full model, every pick rule
## against its baseline placer on the residual region of the same
## ledger, the cp, greedy and (cp, greedy) chains against each other on
## whole serving replays, and the runtime manager's due-tick early
## return against the eager clock that runs every advance in full,
## too).  The eager clock
## (eager_clock), the wholesale and the boolean-bank kernels live in
## tests/support.py; the backend-level differentials reach them under
## cp/lns/portfolio through the tests/support.py kernel_mode injection
test-oracle:
	$(PY) -m pytest -q \
	  tests/geost/test_differential_oracle.py \
	  tests/geost/test_incremental_differential.py \
	  tests/geost/test_cross_validation.py \
	  tests/geost/test_word_kernel_differential.py \
	  tests/fabric/test_anchor_mask_oracle.py \
	  tests/fabric/test_first_anchor_oracle.py \
	  tests/core/test_defrag_occupancy_oracle.py \
	  tests/core/test_occupancy_oracle.py \
	  tests/core/test_one_module_oracle.py \
	  tests/core/test_pick_rule_oracle.py \
	  tests/core/test_chain_differential.py \
	  tests/core/test_due_tick_oracle.py \
	  tests/placer/test_baseline_state_oracle.py

## pytest-benchmark suite (not part of tier-1)
bench:
	$(PY) -m pytest benchmarks -q

## quick benchmark loop: only the non-slow benches
bench-fast:
	$(PY) -m pytest benchmarks -q -m "not slow"

## placement-kernel propagation on the Table-I workload: pins the >= 2x
## re-propagation speedup over wholesale re-filtering and the >= 1.5x
## speedup of packed words over the boolean bank
bench-geost:
	$(PY) -m pytest benchmarks/test_bench_geost_incremental.py -q -s

## the anchor-kernel ratio gates, each a same-machine ratio: the run
## kernel vs the per-cell slice-AND oracle, the cp pick rule's
## packed-word mask stage vs the prefix-count kernel it replaced, the
## runtime manager's pick on its free-space ledger vs the residual
## region + greedy backend it replaced (both on recorded serving
## probes; the latter reads its threshold from
## BENCH_runtime.json), no-break defrag planning with one
## batched relocation probe per step vs the per-cell rebuild oracle (on
## recorded contended shard floorplans), and the baseline placers on the
## free-space ledger vs the boolean-grid state they replaced (Table I)
bench-masks:
	$(PY) -m pytest -q -s \
	  "benchmarks/test_bench_substrates.py::TestRunKernelSpeedup" \
	  "benchmarks/test_bench_runtime.py::TestPackedAnchorWords" \
	  "benchmarks/test_bench_runtime.py::TestLedgerAdmission" \
	  "benchmarks/test_bench_runtime.py::TestDefragPlanOccupancy" \
	  benchmarks/test_bench_backends.py

## sharded-service trace replay on the seeded Table-I workload: reads
## its req/s and p99-latency gates from the committed BENCH_runtime.json
## and writes the measured values to bench_runtime_latest.json
bench-runtime:
	$(PY) -m pytest benchmarks/test_bench_service.py -q -s

## one instrumented solve; exports a profile JSON and validates it
## against the published schema — fails non-zero on any mismatch
profile-smoke:
	$(PY) scripts/profile_smoke.py

## a ~2-second seeded online serving run through the runtime placement
## manager; validates outcomes, trace events and the profile
runtime-smoke:
	$(PY) scripts/runtime_smoke.py

## every placement backend of BACKENDS on one seeded instance; validates
## placements, trace events and the honesty of the result flags
backends-smoke:
	$(PY) scripts/backends_smoke.py

## both defrag strategies of DEFRAGMENTERS on the 60-event demo trace with
## full move-transition verification; validates plans, step events,
## move accounting and the profile counters
defrag-smoke:
	$(PY) scripts/defrag_smoke.py

## the temporal surface end to end: the production scheduler's proven
## makespan, the temporal-cp backend by name, and a reservation-mode
## serving replay with full event/profile validation
temporal-smoke:
	$(PY) scripts/temporal_smoke.py

## the analytical backend end to end: relaxation convergence +
## verification, warm-started CP reaching its first incumbent for free,
## and the A3 bar (>= annealing utilization at a quarter of its budget)
analytical-smoke:
	$(PY) scripts/analytical_smoke.py

## run the examples that drive the online manager, the phase scheduler,
## the instant defrag pass and the temporal scheduler end to end
## (compiling them is not enough: an example that calls a removed API
## only fails when it runs)
examples-smoke:
	$(PY) examples/online_service_level.py
	$(PY) examples/interactive_floorplanning.py
	$(PY) examples/phase_scheduling.py
	$(PY) examples/runtime_defrag.py
	$(PY) examples/temporal_placement.py
