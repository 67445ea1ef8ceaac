"""Unit tests for the smoothers (§3.2, Fig. 2).

The production sweeps are the compiled plans of
:mod:`repro.amg.solveplan`; they are checked here against the literal
sequential Fig. 2a loop (:func:`gs_sweep_reference`).
"""

import numpy as np
import pytest

from repro.amg import (
    HybridGSSmoother,
    block_of_rows,
    build_gs_schedule,
    greedy_coloring,
    gs_sweep_reference,
    jacobi_sweep,
    pmis,
    strength_matrix,
)
from repro.amg.solveplan import CompiledSweep, MulticolorPlan
from repro.perf import collect
from repro.perf.counters import phase
from repro.problems import laplace_2d_5pt, laplace_3d_7pt
from repro.sparse.spmv import spmv


def _compiled(A, sched):
    return CompiledSweep(sched, A.nrows, optimized=True, contiguous_rows=True,
                         kernel="gs.hybrid")


class TestScheduleCorrectness:
    @pytest.mark.parametrize("nblocks", [1, 2, 5, 16])
    @pytest.mark.parametrize("forward", [True, False])
    def test_matches_sequential_reference(self, nblocks, forward, rng):
        A = laplace_2d_5pt(9)
        b = rng.standard_normal(A.nrows)
        blk = block_of_rows(A.nrows, nblocks, A)
        x1 = rng.standard_normal(A.nrows)
        x2 = x1.copy()
        sched = build_gs_schedule(A, blk, forward=forward)
        _compiled(A, sched).run(x1, b)
        gs_sweep_reference(A, x2, b, blk, forward=forward)
        np.testing.assert_allclose(x1, x2, atol=1e-12)

    def test_subset_sweep(self, rng):
        A = laplace_2d_5pt(8)
        cf = np.where(rng.random(A.nrows) < 0.4, 1, -1)
        rows = np.flatnonzero(cf > 0)
        blk = block_of_rows(A.nrows, 3, A, rows)
        b = rng.standard_normal(A.nrows)
        x1 = rng.standard_normal(A.nrows)
        x2 = x1.copy()
        _compiled(A, build_gs_schedule(A, blk, forward=True)).run(x1, b)
        gs_sweep_reference(A, x2, b, blk, forward=True)
        np.testing.assert_allclose(x1, x2, atol=1e-12)

    def test_wavefront_count_one_block_2d(self):
        """Lexicographic wavefronts of the 2-D 5-point grid: one level per
        anti-diagonal, 2*nx - 1 levels."""
        nx = 7
        A = laplace_2d_5pt(nx)
        sched = build_gs_schedule(A, block_of_rows(A.nrows, 1, A))
        assert sched.nlevels == 2 * nx - 1

    def test_more_blocks_fewer_levels(self):
        A = laplace_2d_5pt(12)
        l1 = build_gs_schedule(A, block_of_rows(A.nrows, 1, A)).nlevels
        l8 = build_gs_schedule(A, block_of_rows(A.nrows, 8, A)).nlevels
        assert l8 < l1

    def test_empty_selection(self):
        A = laplace_2d_5pt(4)
        sched = build_gs_schedule(A, np.full(A.nrows, -1, dtype=np.int64))
        assert sched.nrows == 0
        x = np.ones(A.nrows)
        _compiled(A, sched).run(x, np.ones(A.nrows))
        np.testing.assert_allclose(x, 1.0)


class TestSweeps:
    def test_zero_guess_numerics_identical(self, rng):
        A = laplace_2d_5pt(8)
        cf = pmis(strength_matrix(A, 0.25), seed=0)
        sm = HybridGSSmoother(A, nthreads=4, cf_marker=cf)
        b = rng.standard_normal(A.nrows)
        x1 = np.zeros(A.nrows)
        x2 = np.zeros(A.nrows)
        sm.presmooth(x1, b, zero_guess=True)
        sm.presmooth(x2, b, zero_guess=False)
        np.testing.assert_array_equal(x1, x2)

    def test_cf_presmooth_matches_sequential_reference(self, rng):
        """C rows then F rows, each a literal Fig. 2a sweep over its group."""
        A = laplace_2d_5pt(9)
        cf = pmis(strength_matrix(A, 0.25), seed=0)
        sm = HybridGSSmoother(A, nthreads=3, cf_marker=cf)
        b = rng.standard_normal(A.nrows)
        x = np.zeros(A.nrows)
        sm.presmooth(x, b, zero_guess=True)
        ref = np.zeros(A.nrows)
        for rows in sm.groups:
            gs_sweep_reference(A, ref, b, block_of_rows(A.nrows, 3, A, rows))
        np.testing.assert_allclose(x, ref, atol=1e-12)

    def test_zero_guess_counts_less(self, rng):
        A = laplace_2d_5pt(8)
        b = rng.standard_normal(A.nrows)
        sm = HybridGSSmoother(A, nthreads=4)
        cs = sm._plan.sweeps[(0, True)]
        with collect() as lz, phase("GS"):
            sm.presmooth(np.zeros(A.nrows), b, zero_guess=True)
        with collect() as ln, phase("GS"):
            sm.presmooth(np.zeros(A.nrows), b, zero_guess=False)
        assert lz.records == [cs.record(0, True)]
        assert ln.records == [cs.record(0, False)]
        assert lz.total("bytes_total") < ln.total("bytes_total")

    def test_baseline_counts_branches(self, rng):
        A = laplace_2d_5pt(8)
        sched = build_gs_schedule(A, block_of_rows(A.nrows, 4, A))
        opt = CompiledSweep(sched, A.nrows, optimized=True,
                            contiguous_rows=True, kernel="gs.hybrid")
        base = CompiledSweep(sched, A.nrows, optimized=False,
                             contiguous_rows=True, kernel="gs.hybrid")
        assert opt.record(0, False).branches == 0
        assert base.record(0, False).branches == sched.nnz
        # Non-contiguous C/F rows add one classification test per row.
        scan = CompiledSweep(sched, A.nrows, optimized=False,
                             contiguous_rows=False, kernel="gs.hybrid")
        assert scan.record(0, False).branches == sched.nnz + sched.nrows

    def test_jacobi_reduces_residual(self, rng):
        A = laplace_2d_5pt(10)
        b = rng.standard_normal(A.nrows)
        x = np.zeros(A.nrows)
        d = A.diagonal()
        r0 = np.linalg.norm(b)
        for _ in range(30):
            x = jacobi_sweep(A, x, b, d, weight=0.8)
        assert np.linalg.norm(b - spmv(A, x)) < 0.7 * r0


class TestColoring:
    def test_proper_coloring(self):
        A = laplace_3d_7pt(5)
        color = greedy_coloring(A)
        rid = A.row_ids()
        off = A.indices != rid
        assert not np.any(color[rid[off]] == color[A.indices[off]])

    def test_few_colors_on_grid(self):
        A = laplace_2d_5pt(10)
        assert greedy_coloring(A).max() + 1 <= 6  # 2 would be optimal

    def test_multicolor_sweep_converges(self, rng):
        A = laplace_2d_5pt(10)
        b = rng.standard_normal(A.nrows)
        plan = MulticolorPlan(A, greedy_coloring(A), A.diagonal())
        x = np.zeros(A.nrows)
        for _ in range(30):
            plan.run(x, b, forward=True)
        assert np.linalg.norm(b - spmv(A, x)) < 0.2 * np.linalg.norm(b)


class TestSmootherObject:
    @pytest.mark.parametrize("variant", ["hybrid", "lex", "multicolor", "jacobi"])
    def test_symmetric_sweeps_converge(self, variant, rng):
        A = laplace_2d_5pt(10)
        cf = pmis(strength_matrix(A, 0.25), seed=0)
        sm = HybridGSSmoother(A, nthreads=4,
                              cf_marker=cf if variant in ("hybrid", "lex") else None,
                              variant=variant)
        b = rng.standard_normal(A.nrows)
        x = np.zeros(A.nrows)
        for _ in range(40):
            sm.presmooth(x, b)
            sm.postsmooth(x, b)
        assert np.linalg.norm(b - spmv(A, x)) < 0.3 * np.linalg.norm(b)

    def test_lex_converges_faster_than_many_blocks(self, rng):
        """§5.2: lexicographic GS converges faster than hybrid GS with high
        block counts (the AmgX effect)."""
        A = laplace_3d_7pt(8)
        b = rng.standard_normal(A.nrows)

        def resid_after(variant, nthreads, sweeps=10):
            sm = HybridGSSmoother(A, nthreads=nthreads, variant=variant)
            x = np.zeros(A.nrows)
            for _ in range(sweeps):
                sm.presmooth(x, b)
                sm.postsmooth(x, b)
            return np.linalg.norm(b - spmv(A, x))

        assert resid_after("lex", 1) < resid_after("hybrid", 128)

    def test_cf_ordering_groups(self):
        A = laplace_2d_5pt(8)
        cf = pmis(strength_matrix(A, 0.25), seed=0)
        sm = HybridGSSmoother(A, nthreads=2, cf_marker=cf)
        assert len(sm.groups) == 2
        np.testing.assert_array_equal(sm.groups[0], np.flatnonzero(cf > 0))
