"""The cross-kernel differential oracle suite.

Every pair test runs seeded instances through two
:class:`tests.support.OracleConfig` rungs of the placement kernel and
asserts *bit-identical* behavior via
:func:`tests.support.assert_bit_identical`: equal solution sets, equal
search-tree fingerprints (nodes, backtracks, solutions, depth, failures,
propagations, domain updates) and per-config profile invariants.  The
ladder, weakest oracle first:

1. wholesale scalar (``incremental=False, bitboard=False``) — the
   boolean-bank kernel re-filtering every module on each wake-up;
2. incremental scalar (``incremental=True, bitboard=False``) — the
   boolean-bank kernel's dirty-set propagation on its per-shape path
   (``tests.support.BoolBankKernel``);
3. bitboard (``incremental=True, bitboard=True``) — the packed-word
   production kernel.

``incremental=False, bitboard=True`` is the packed-word kernel's
wholesale subclass (``tests.support.WholesalePlacementKernel``).

The reference interval :class:`~repro.geost.kernel.Geost` runs in one
mode; its solution sets are checked against the production kernel in
2-D and against brute-force enumeration in 3-D.

Across the whole module the generators cover sparse, dense and
shape-alternative-heavy 2-D regimes plus 3-D pure geost (see the seed
ranges below).
"""

import pytest

from tests.support import (
    BITBOARD,
    GEOST,
    INCREMENTAL_SCALAR,
    SCALAR_ORACLE,
    OracleConfig,
    assert_bit_identical,
    brute_force_3d_solutions,
    brute_force_solutions,
    oracle_run,
    oracle_run_3d,
    random_alt_heavy_instance,
    random_dense_instance,
    random_geost3d_instance,
    random_small_instance,
)



# ----------------------------------------------------------------------
# Placement kernel: 2-D regimes
# ----------------------------------------------------------------------
class TestPlacementKernelPairs:
    """Bitboard vs scalar on the production kernel, per regime."""

    @pytest.mark.parametrize("seed", range(60))
    def test_sparse(self, seed):
        region, modules = random_small_instance(seed)
        assert_bit_identical(
            region, BITBOARD, INCREMENTAL_SCALAR, modules=modules,
            context=f"sparse/{seed}",
        )

    @pytest.mark.parametrize("seed", range(45))
    def test_dense(self, seed):
        region, modules = random_dense_instance(seed)
        assert_bit_identical(
            region, BITBOARD, INCREMENTAL_SCALAR, modules=modules,
            context=f"dense/{seed}",
        )

    @pytest.mark.parametrize("seed", range(45))
    def test_alt_heavy(self, seed):
        region, modules = random_alt_heavy_instance(seed)
        assert_bit_identical(
            region, BITBOARD, INCREMENTAL_SCALAR, modules=modules,
            context=f"alt-heavy/{seed}",
        )


class TestPlacementKernelLadder:
    """The full three-rung ladder agrees pairwise (transitively pinning
    the word kernel all the way down to the wholesale oracle)."""

    @pytest.mark.parametrize("seed", range(20))
    def test_ladder_sparse(self, seed):
        region, modules = random_small_instance(1000 + seed)
        assert_bit_identical(
            region, BITBOARD, INCREMENTAL_SCALAR, modules=modules,
            context=f"ladder/{seed}",
        )
        assert_bit_identical(
            region, INCREMENTAL_SCALAR, SCALAR_ORACLE, modules=modules,
            context=f"ladder/{seed}",
        )

    @pytest.mark.parametrize("seed", range(12))
    def test_ladder_dense(self, seed):
        region, modules = random_dense_instance(1000 + seed)
        assert_bit_identical(
            region, BITBOARD, SCALAR_ORACLE, modules=modules,
            context=f"ladder-dense/{seed}",
        )

    @pytest.mark.parametrize("seed", range(10))
    def test_bitboard_without_incremental(self, seed):
        """The word kernel without its dirty set and count cache
        (:class:`tests.support.WholesalePlacementKernel`) must also match
        the wholesale scalar oracle."""
        region, modules = random_dense_instance(2000 + seed)
        assert_bit_identical(
            region,
            OracleConfig(incremental=False, bitboard=True),
            SCALAR_ORACLE,
            modules=modules,
            context=f"pure-vec/{seed}",
        )


class TestGroundTruth:
    """The top rung agrees with literal M_a ∧ M_b ∧ M_c enumeration."""

    @pytest.mark.parametrize("seed", range(15))
    def test_bitboard_vs_brute_force(self, seed):
        region, modules = random_small_instance(seed)
        run = oracle_run(region, modules, BITBOARD)
        assert run.solutions == frozenset(
            brute_force_solutions(region, modules)
        )


# ----------------------------------------------------------------------
# Reference kernel: 2-D (typed forbidden regions) and 3-D
# ----------------------------------------------------------------------
class TestReferenceKernel2D:
    @pytest.mark.parametrize("seed", range(8))
    def test_cross_kernel_solution_sets(self, seed):
        """Production and reference kernels enumerate the same set.

        Search trees legitimately differ across *kernels* (different
        propagation strength orderings), so only the solution sets are
        compared here — the fingerprints are pinned within the placement
        kernel by the pair tests above.
        """
        region, modules = random_small_instance(seed)
        placement = oracle_run(region, modules, BITBOARD)
        geost = oracle_run(region, modules, GEOST)
        assert placement.solutions == geost.solutions


class TestReferenceKernel3D:
    @pytest.mark.parametrize("seed", range(30))
    def test_vs_brute_force(self, seed):
        inst = random_geost3d_instance(seed)
        run = oracle_run_3d(inst, GEOST)
        assert run.solutions == brute_force_3d_solutions(inst), f"seed={seed}"


# ----------------------------------------------------------------------
# Engagement: the suite is not vacuous
# ----------------------------------------------------------------------
class TestSuiteEngagement:
    """Aggregate sanity: the generators produce solvable work and the
    word kernel's row tests actually run (a suite where every instance
    were root-infeasible, solution-free, or silently scalar would pass
    the pair tests while checking nothing)."""

    def test_2d_corpus_is_meaningful(self):
        solved = 0
        rows = 0
        for gen, n in (
            (random_small_instance, 20),
            (random_dense_instance, 20),
            (random_alt_heavy_instance, 20),
        ):
            for seed in range(n):
                region, modules = gen(seed)
                run = oracle_run(region, modules, BITBOARD)
                solved += bool(run.solutions)
                if run.inc_stats is not None:
                    rows += run.inc_stats.rows_tested
        assert solved >= 30, f"only {solved}/60 2-D instances solvable"
        assert rows > 0, "word-kernel row tests never ran on the 2-D corpus"

    def test_3d_corpus_is_meaningful(self):
        solved = sum(
            bool(oracle_run_3d(random_geost3d_instance(seed), GEOST).solutions)
            for seed in range(30)
        )
        assert solved >= 10, f"only {solved}/30 3-D instances solvable"
