"""The SolvePlan layer: every smoother owns a compiled plan.

Contract under test (docs/architecture.md, docs/performance_model.md):

* every non-Jacobi smoother of a built hierarchy — the coarse solver's
  smoother included — carries a compiled plan, and the hierarchy carries
  one prebound :class:`~repro.amg.solveplan.LevelExec` per transfer level;
* ``Hierarchy.refresh`` rebuilds only the numeric parts of the plans:
  pattern arrays (wavefront orders, gather maps, record-template tables)
  are shared by identity with the pre-refresh plan, values are regathered,
  and the rebound plans execute bit-identically (iterates, residual
  histories, ``PerfLog`` record streams) to plans compiled from scratch on
  the new values, at ``REPRO_CHECK=full``;
* the bulk counter-recording primitives (``count_batch``,
  ``count_record``, ``make_record``) emit record streams indistinguishable
  from per-call ``count``.

The solve phase itself is pinned by digests in ``test_solve_identity.py``.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.amg import build_hierarchy
from repro.amg.solver import AMGSolver
from repro.amg.solveplan import LevelExec, SmootherPlan
from repro.analysis import get_check_level, set_check_level
from repro.config import multi_node_config, single_node_config
from repro.dist import DistAMGSolver, ParCSRMatrix, RowPartition, SimComm
from repro.perf import collect
from repro.perf.counters import (
    PerfLog,
    count,
    count_batch,
    count_record,
    make_record,
    phase,
)
from repro.problems import laplace_3d_27pt
from repro.serve.workload import PROBLEM_BUILDERS
from repro.sparse import CSRMatrix

VARIANTS = ["hybrid_gs", "lex", "multicolor", "jacobi", "l1_jacobi", "chebyshev"]


@pytest.fixture(autouse=True)
def _full_checks():
    prev = get_check_level()
    set_check_level("full")
    yield
    set_check_level(prev)


def _config(smoother="hybrid_gs", cycle="V"):
    return replace(single_node_config(True), smoother=smoother,
                   cycle_type=cycle, nthreads=4)


def _iterative_coarse_config():
    return replace(single_node_config(True), max_levels=2,
                   dense_coarse_threshold=50)


def _record_stream(log: PerfLog):
    return [
        (r.phase, r.kernel, r.flops, r.bytes_read, r.bytes_written,
         r.branches, r.mispredicts, r.parallel, r.level)
        for r in log.records
    ]


def _assert_planned(smoothers):
    for sm in smoothers:
        if sm.variant in ("jacobi", "l1_jacobi"):
            assert sm._plan is None
        else:
            assert isinstance(sm._plan, SmootherPlan)


def _hierarchy_smoothers(h):
    out = [lvl.smoother for lvl in h.levels[:-1]]
    assert all(sm is not None for sm in out)
    assert h.levels[-1].smoother is None
    if h.coarse_solver.smoother is not None:
        out.append(h.coarse_solver.smoother)
    return out


def _refreshed_and_cold(config, A):
    """A hierarchy refreshed onto ``1.02 * A`` and a cold build of it."""
    A2 = CSRMatrix(A.shape, A.indptr, A.indices, A.data * 1.02)
    h = build_hierarchy(A, config, capture_plan=True)
    with collect():
        refreshed = h.refresh(A2)
    return h, refreshed, build_hierarchy(A2, config)


def _solve_stream(config, h, *, fmg=False, k=3):
    rng = np.random.default_rng(5)
    n = h.levels[0].A.nrows
    b = rng.standard_normal(n)
    B = rng.standard_normal((n, k))
    s = AMGSolver(config)
    s.hierarchy = h
    with collect() as log:
        res = s.solve(b, tol=1e-8, fmg_start=fmg)
        many = s.solve_many(B, tol=1e-8)
    return (res.x.tobytes(), res.iterations, tuple(res.residuals),
            tuple(r.x.tobytes() for r in many),
            tuple(r.iterations for r in many), _record_stream(log))


@pytest.mark.parametrize("variant", VARIANTS)
def test_plan_bit_identity_variants(variant):
    """A plan rebound by refresh runs exactly like one compiled afresh."""
    config = _config(smoother=variant)
    _, refreshed, cold = _refreshed_and_cold(
        config, PROBLEM_BUILDERS["lap3d27g"](8))
    _assert_planned(_hierarchy_smoothers(refreshed))
    assert _solve_stream(config, refreshed) == _solve_stream(config, cold)


@pytest.mark.parametrize("cycle", ["W", "F"])
def test_plan_bit_identity_cycles(cycle):
    config = _config(cycle=cycle)
    _, refreshed, cold = _refreshed_and_cold(
        config, PROBLEM_BUILDERS["lap3d27g"](8))
    assert _solve_stream(config, refreshed) == _solve_stream(config, cold)


def test_refresh_solve_matches_cold_build():
    """Refresh then solve through the iterative coarse solver and an FMG
    start: identical to solving on a cold build of the new operator."""
    config = _iterative_coarse_config()
    _, refreshed, cold = _refreshed_and_cold(config, laplace_3d_27pt(12))
    assert not refreshed.coarse_solver.direct
    _assert_planned(_hierarchy_smoothers(refreshed))
    assert (_solve_stream(config, refreshed, fmg=True)
            == _solve_stream(config, cold, fmg=True))


def test_planned_hierarchy_has_plans():
    for variant in VARIANTS:
        h = build_hierarchy(laplace_3d_27pt(6), _config(smoother=variant))
        _assert_planned(_hierarchy_smoothers(h))
        assert len(h.solve_plan.levels) == h.num_levels - 1
        assert all(isinstance(lx, LevelExec) for lx in h.solve_plan.levels)


def test_iterative_coarse_solver_smoother_has_plan():
    config = _iterative_coarse_config()
    h = build_hierarchy(laplace_3d_27pt(12), config)
    assert not h.coarse_solver.direct
    assert isinstance(h.coarse_solver.smoother._plan, SmootherPlan)
    _assert_planned(_hierarchy_smoothers(h))


def test_dist_smoothers_have_plans():
    A = laplace_3d_27pt(8)
    comm = SimComm(4)
    config = replace(multi_node_config("ei"), nthreads=4,
                     dense_coarse_threshold=8)
    h = DistAMGSolver(comm, config).setup(
        ParCSRMatrix.from_global(A, RowPartition.uniform(A.nrows, 4)))
    dist_smoothers = [lvl.smoother for lvl in h.levels if lvl.smoother is not None]
    if h.coarse_solver.smoother is not None:
        dist_smoothers.append(h.coarse_solver.smoother)
    assert dist_smoothers
    for dsm in dist_smoothers:
        assert len(dsm._offd_recs) == comm.nranks
        _assert_planned(dsm.local)


def test_refresh_rebuilds_numeric_parts_only():
    config = _config()
    h, h2, cold = _refreshed_and_cold(config, PROBLEM_BUILDERS["lap3d27g"](8))
    assert h2.solve_plan is not None
    shared = 0
    for old_lvl, new_lvl, cold_lvl in zip(h.levels[:-1], h2.levels[:-1],
                                          cold.levels[:-1]):
        po, pn = old_lvl.smoother._plan, new_lvl.smoother._plan
        for key, cs_new in pn.sweeps.items():
            cs_old = po.sweeps[key]
            if cs_new is None:
                assert cs_old is None
                continue
            # Pattern arrays are the same objects; values were regathered.
            assert cs_new._e_src is cs_old._e_src
            assert cs_new._rec is cs_old._rec
            assert cs_new.rows is cs_old.rows
            shared += 1
        # The regathered numerics match a from-scratch build bit-for-bit.
        cs_cold = cold_lvl.smoother._plan
        for key, cs_new in pn.sweeps.items():
            if cs_new is None:
                continue
            ref = cs_cold.sweeps[key]
            for st_new, st_ref in zip(cs_new.steps, ref.steps):
                assert np.array_equal(st_new[4], st_ref[4])  # e_vals
                assert np.array_equal(st_new[6], st_ref[6])  # diag
    assert shared > 0


class TestBulkRecording:
    def test_count_batch_equals_repeated_count(self):
        kw = dict(flops=10.0, bytes_read=20.0, bytes_written=5.0,
                  branches=4.0)
        a, b = PerfLog(), PerfLog()
        with collect(a), phase("GS"):
            for _ in range(7):
                count("k", **kw)
        with collect(b), phase("GS"):
            count_batch("k", 7, **kw)
        assert _record_stream(a) == _record_stream(b)
        assert len(b.records) == 7
        # Bulk append aliases one record instance.
        assert all(r is b.records[0] for r in b.records)

    def test_count_batch_zero_is_noop(self):
        log = PerfLog()
        with collect(log):
            count_batch("k", 0, flops=1.0)
        assert log.records == []

    def test_make_record_applies_mispredict_rate(self):
        rec = make_record("k", branches=10.0)
        assert rec.mispredicts == pytest.approx(3.0)

    def test_count_record_retags_phase_and_level(self):
        tmpl = make_record("k", flops=1.0, phase="GS")
        a, b = PerfLog(), PerfLog()
        with collect(a), phase("SpMV"):
            count_record(tmpl)
        with collect(b), phase("SpMV"):
            count("k", flops=1.0)
        assert _record_stream(a) == _record_stream(b)
        # The template itself is untouched.
        assert tmpl.phase == "GS"

    def test_count_record_matching_context_appends_template(self):
        tmpl = make_record("k", flops=1.0, phase="GS")
        log = PerfLog()
        with collect(log), phase("GS"):
            count_record(tmpl)
        assert log.records[0] is tmpl


def test_compiled_sweep_handles_empty_wavefront_levels():
    # An upper-triangular-free row set can produce wavefront levels with
    # zero entries; np.bincount then returns int64 and the compiled sweep
    # must still produce float64 accumulators.
    A = CSRMatrix.identity(4)
    h = build_hierarchy(laplace_3d_27pt(4), _config())
    s = AMGSolver(_config())
    s.hierarchy = h
    b = np.ones(h.levels[0].A.nrows)
    res = s.solve(b, tol=1e-8)
    assert np.isfinite(res.residuals[-1])
    assert A.nnz == 4  # keep the identity from being optimized away
