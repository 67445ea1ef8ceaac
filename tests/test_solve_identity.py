"""Bit-identity pins for the AMG solve phase.

Each digest is a sha256 over everything one solve scenario produces: the
iterates, the residual histories and the ``PerfLog`` record streams (setup
included, so the smoother and coarse-solver setup charges are pinned too).
The scenarios cover

* the six smoother variants (setup, ``solve`` and ``solve_many`` with k=3),
  plus the unoptimized baseline configuration;
* direct ``cycle``/``cycle_multi`` calls for V, W and F cycles;
* a same-pattern refresh followed by ``solve`` and ``solve_many``;
* a full-multigrid (FMG) start;
* the iterative coarse solver (``dense_coarse_threshold`` below the
  coarsest size, so the coarsest level is solved by smoothing sweeps);
* an 8-rank, 4-ranks-per-node ``DistAMGSolver`` solve, with every rank's
  record stream and the communicator's message and collective logs.

Solve-path refactors must leave every digest unchanged; a digest only
changes when the solve's numerics or its modeled counts change on purpose.

To print the current digests (e.g. after an intended change)::

    PYTHONPATH=src python tests/test_solve_identity.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import sys
from dataclasses import replace

import numpy as np
import pytest

from repro.amg import build_hierarchy
from repro.amg.cycle import cycle, cycle_multi
from repro.amg.solver import AMGSolver
from repro.config import multi_node_config, single_node_config
from repro.dist import DistAMGSolver, ParCSRMatrix, ParVector, RowPartition, SimComm
from repro.perf.counters import collect
from repro.problems import laplace_3d_27pt
from repro.serve.workload import PROBLEM_BUILDERS
from repro.sparse.csr import CSRMatrix
from repro.topo import NodeTopology

VARIANTS = ("hybrid_gs", "lex", "multicolor", "jacobi", "l1_jacobi", "chebyshev")


def _scalar(v):
    """Numbers compare by value, not by Python/numpy type."""
    if v is None or isinstance(v, (bool, np.bool_, str)):
        return v if not isinstance(v, np.bool_) else bool(v)
    if isinstance(v, (int, float, np.integer, np.floating)):
        return float(v)
    return v


class _Digest:
    def __init__(self) -> None:
        self._h = hashlib.sha256()

    def tag(self, text: str) -> None:
        self._h.update(text.encode() + b"\0")

    def array(self, name: str, a) -> None:
        a = np.ascontiguousarray(a)
        self.tag(f"{name}:{a.dtype.str}:{a.shape}")
        self._h.update(a.tobytes())

    def event(self, e) -> None:
        self.tag(repr(tuple(_scalar(x) for x in dataclasses.astuple(e))))

    def records(self, name: str, records) -> None:
        self.tag(f"{name}:len={len(records)}")
        for r in records:
            self.event(r)

    def result(self, name: str, res) -> None:
        self.array(f"{name}.x", res.x)
        self.tag(f"{name}.iterations={res.iterations}")
        self.tag(f"{name}.converged={res.converged}")
        self.array(f"{name}.residuals", np.asarray(res.residuals, dtype=np.float64))

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def _config(smoother="hybrid_gs", cycle_type="V", optimized=True):
    return replace(single_node_config(optimized), smoother=smoother,
                   cycle_type=cycle_type, nthreads=4)


def _rhs(n: int, k: int = 3, seed: int = 3):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n), rng.standard_normal((n, k))


def _solver_run(d: _Digest, config, A: CSRMatrix, *, fmg: bool = False) -> None:
    """Setup + ``solve`` + ``solve_many`` (k=3) under one record stream."""
    b, B = _rhs(A.nrows)
    s = AMGSolver(config)
    with collect() as log:
        s.setup(A)
        res = s.solve(b, tol=1e-8, fmg_start=fmg)
        many = s.solve_many(B, tol=1e-8)
    d.result("solve", res)
    for j, r in enumerate(many):
        d.result(f"many[{j}]", r)
    d.records("log", log.records)


def _scenario_smoother(d: _Digest, variant: str) -> None:
    _solver_run(d, _config(smoother=variant), laplace_3d_27pt(6))


def _scenario_baseline(d: _Digest) -> None:
    _solver_run(d, _config(optimized=False), laplace_3d_27pt(6))


def _scenario_cycles(d: _Digest) -> None:
    A = PROBLEM_BUILDERS["lap3d27g"](7)
    h = build_hierarchy(A, _config())
    n = h.levels[0].A.nrows
    b, B = _rhs(n)
    for kind in ("V", "W", "F"):
        with collect() as log:
            x = cycle(h, b, kind)
            X = cycle_multi(h, B, kind)
        d.array(f"{kind}.x", x)
        d.array(f"{kind}.X", X)
        d.records(f"{kind}.log", log.records)


def _scenario_refresh(d: _Digest) -> None:
    config = _config()
    A = PROBLEM_BUILDERS["lap3d27g"](8)
    A2 = CSRMatrix(A.shape, A.indptr, A.indices, A.data * 1.02)
    h = build_hierarchy(A, config, capture_plan=True)
    b, B = _rhs(A.nrows, seed=5)
    s = AMGSolver(config)
    with collect() as log:
        s.hierarchy = h.refresh(A2)
        res = s.solve(b, tol=1e-8)
        many = s.solve_many(B, tol=1e-8)
    d.result("solve", res)
    for j, r in enumerate(many):
        d.result(f"many[{j}]", r)
    d.records("log", log.records)


def _scenario_fmg(d: _Digest) -> None:
    _solver_run(d, _config(), PROBLEM_BUILDERS["lap3d27g"](8), fmg=True)


def _scenario_coarse_iterative(d: _Digest) -> None:
    config = replace(single_node_config(True), max_levels=2,
                     dense_coarse_threshold=50)
    A = laplace_3d_27pt(12)
    _solver_run(d, config, A)
    h = build_hierarchy(A, config)
    assert not h.coarse_solver.direct
    assert h.levels[-1].A.nrows > config.dense_coarse_threshold


def _scenario_dist(d: _Digest) -> None:
    nranks = 8
    A = PROBLEM_BUILDERS["lap3d27g"](8)
    part = RowPartition.uniform(A.nrows, nranks)
    comm = SimComm(nranks)
    solver = DistAMGSolver(comm, replace(multi_node_config("ei"), nthreads=4),
                           topology=NodeTopology(nranks, 4))
    b = np.random.default_rng(7).standard_normal(A.nrows)
    with collect() as log:
        solver.setup(ParCSRMatrix.from_global(A, part))
        res = solver.solve(ParVector.from_global(b, part), tol=1e-8)
    d.array("x", res.x.to_global())
    d.tag(f"iterations={res.iterations}")
    d.tag(f"converged={res.converged}")
    d.array("residuals", np.asarray(res.residuals, dtype=np.float64))
    d.records("log", log.records)
    for p, rank_log in enumerate(comm.rank_logs):
        d.records(f"rank{p}", rank_log.records)
    d.tag(f"messages:len={len(comm.messages)}")
    for m in comm.messages:
        d.event(m.event)
        d.tag(m.phase)
    d.records("collectives", comm.collectives)


SCENARIOS = {
    **{f"smoother-{v}": (lambda d, v=v: _scenario_smoother(d, v))
       for v in VARIANTS},
    "baseline": _scenario_baseline,
    "cycles": _scenario_cycles,
    "refresh": _scenario_refresh,
    "fmg": _scenario_fmg,
    "coarse-iterative": _scenario_coarse_iterative,
    "dist-8rank-ppn4": _scenario_dist,
}


def solve_digest(name: str) -> str:
    d = _Digest()
    SCENARIOS[name](d)
    return d.hexdigest()


DIGESTS: dict[str, str] = {
    'baseline':
        '568955e73bede5ed7f0a7dfc3d19b5f6e6cf39ef0d0387ea0bfd119d386be0fd',
    'coarse-iterative':
        'c73c7059a441c0c62736a758276773d78ba701bfc008fabac9450192b96cf5d8',
    'cycles':
        '64188ea593544efc765956c537854c0ea2778e96401b801900090058413b0ea2',
    'dist-8rank-ppn4':
        '3e6b547cae0ba16127baff9200c7042da115c9f6eee711ff7ff1afaa439db359',
    'fmg':
        '6700454b864e200545b6160eb3b1c530f49c0c82f95cf9d1078f3f25b9a3fb8a',
    'refresh':
        'edc992dc17f1e030243eb101fce9664dc03fca89a0bb4e7c3581d9aad9e1c86e',
    'smoother-chebyshev':
        '7ea1f3284ee9bf3a847a006705835aa041d9ca688a349b77715b3c5d843a4a1d',
    'smoother-hybrid_gs':
        '6a521cf82b9265c6f170494f21b46ca3aeded0d024c4599ac53bc89b4fe8af7b',
    'smoother-jacobi':
        'fc95a53d0f4bf44566a8b5d4e1756f4e7f8e892ec23ac57b1b70e1e4b924b101',
    'smoother-l1_jacobi':
        '87659e5380b1e4a665df121bd7434c54f5dff8a9438bac196682b07313d38a50',
    'smoother-lex':
        '057f504a10f067208584bd6980ba0c0ca45607337d0c4a5f0950a3e48c8bcbd1',
    'smoother-multicolor':
        'b6d38d8b03bbcb5b6d8d6666d9eca2c3b01857ee12e6756a9ca316d43392647d',
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_solve_is_bit_identical(name):
    assert solve_digest(name) == DIGESTS[name]


if __name__ == "__main__":
    print("DIGESTS = {")
    for name in sorted(SCENARIOS):
        print(f"    {name!r}:")
        print(f"        {solve_digest(name)!r},")
        sys.stdout.flush()
    print("}")
