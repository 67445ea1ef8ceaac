"""Seeded workload inputs and the four stages every workload runs.

Each workload is a :class:`Scenario`: a set of inputs generated from the
seed, fed through the same four stages — cold setup + solve, same-pattern
refresh + solves, a served request stream, and a distributed setup +
solve.  A workload differs from the others in its inputs and in which
stage carries most of its work, so every end-to-end metric is measured on
every workload, on that workload's own operators.

One :func:`run_round` executes all four stages once on fresh copies of the
inputs.  Rounds are identical work, so their modeled counts must agree
exactly; the benchmark checks that.
"""

from __future__ import annotations

import logging
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

import repro
from repro.bench.runner import SETUP_PHASES, SOLVE_PHASES, machine_for, net_scale
from repro.config import multi_node_config, single_node_config
from repro.dist import (DistAMGSolver, ParCSRMatrix, ParVector, RowPartition,
                        SimComm, dist_fgmres)
from repro.perf import FDRInfinibandModel, PerfLog, collect
from repro.problems import (generate, laplace_2d_5pt, laplace_3d_7pt,
                            laplace_3d_27pt, lognormal_permeability,
                            suite_names, variable_coefficient_3d_7pt)
from repro.serve import ServiceConfig, SolveService
from repro.serve.workload import PROBLEM_BUILDERS
from repro.sparse.csr import CSRMatrix
from repro.topo import NodeTopology

#: The facade's default hierarchy config (``repro.setup`` with no config).
SERIAL_CFG = single_node_config()
#: Table 4's ei(4) multi-node config, as the distributed benches use.
DIST_CFG = multi_node_config("ei")
SERIAL_MACHINE = machine_for(SERIAL_CFG)
DIST_MACHINE = machine_for(DIST_CFG)

clock = time.perf_counter

#: The distributed stage's machine: 2 nodes x 4 ranks per node.
NODES, PPN = 2, 4


@dataclass
class Scenario:
    #: Serial solver (``"amg"``, ``"cg"`` or ``"fgmres"``) of the cold,
    #: refresh and serve stages; the distributed stage runs FGMRES.
    method: str
    #: Relative tolerance of every solve.
    tol: float
    #: Cold stage: ``(A, b)`` pairs, each set up from scratch and solved.
    cold: list
    #: Refresh stage: a base operator, same-pattern successors, and the
    #: right-hand sides solved after the base setup and after each update.
    refresh_base: CSRMatrix
    refresh_steps: list
    refresh_rhs: list
    #: Serve stage: distinct operators plus ``(arrival, matrix, b)`` items.
    serve_mats: list
    serve_items: list
    #: Distributed stage: one global operator on ``NODES * PPN`` ranks.
    dist_A: CSRMatrix
    dist_b: np.ndarray
    #: Times each stage (cold, refresh, serve, dist) runs per round, so the
    #: stages outside the workload's focus still give enough samples.
    reps: tuple = (1, 1, 1, 1)


# ---------------------------------------------------------------------------
# Input generation
# ---------------------------------------------------------------------------

def jitter(A: CSRMatrix, rng: np.random.Generator, eps: float) -> CSRMatrix:
    """Shrink each off-diagonal by a seeded factor in ``[1 - eps, 1]``.

    The factor is symmetric in (i, j), so symmetric operators stay
    symmetric, and shrinking never breaks diagonal dominance.  It makes
    strength-of-connection ties generic, so the seed moves the coarsening
    and with it the modeled counts.
    """
    g = rng.random(A.nrows)
    rid = A.row_ids()
    fac = np.where(A.indices != rid,
                   1.0 - 0.5 * eps * (g[rid] + g[A.indices]), 1.0)
    return CSRMatrix(A.shape, A.indptr.copy(), A.indices.copy(), A.data * fac)


def scaled(A: CSRMatrix, factor: float) -> CSRMatrix:
    return CSRMatrix(A.shape, A.indptr.copy(), A.indices.copy(), A.data * factor)


def fresh(A: CSRMatrix) -> CSRMatrix:
    """A private copy, so no memoized state carries from one round to the next."""
    return scaled(A, 1.0)


#: Arrival rate (per modeled second) of the serve stage outside
#: ``serve-mix``: slow enough that requests neither queue nor coalesce, so
#: the stage measures per-request service cost rather than arrival luck.
#: The modeled clock is virtual, so a low rate costs no wall time.
LONE_RATE = 1.0


def _stream(rng, picks, rate):
    """Poisson-arrival items ``(arrival, matrix index, b)`` for
    ``(matrix index, rows)`` pairs."""
    arrivals = np.cumsum(rng.exponential(1.0 / rate, size=len(picks)))
    return [(float(t), i, rng.standard_normal(n_rows))
            for t, (i, n_rows) in zip(arrivals, picks)]


def table2_cold(seed: int, smoke: bool) -> Scenario:
    rng = np.random.default_rng([seed, 1])
    scale = 8192 if smoke else 1024
    mats = {name: jitter(generate(name, scale)[0], rng, 0.02)
            for name in suite_names()}
    cold = [(A, rng.standard_normal(A.nrows)) for A in mats.values()]
    base = mats["thermal2"]
    factors = 1.0 + rng.uniform(0.05, 0.5, size=2)
    keys = [mats[k] for k in ("G2_circuit", "tmt_sym", "ecology2")]
    # A fixed share per key, in seeded order.
    picks = rng.permutation(np.repeat(np.arange(len(keys)), 3 if smoke else 16))
    return Scenario(
        method="fgmres", tol=1e-8,
        cold=cold,
        refresh_base=base,
        refresh_steps=[scaled(base, f) for f in factors],
        refresh_rhs=[[rng.standard_normal(base.nrows)] for _ in range(3)],
        serve_mats=keys,
        serve_items=_stream(rng, [(int(i), keys[i].nrows) for i in picks],
                            rate=LONE_RATE),
        dist_A=mats["StocF-1465"],
        dist_b=rng.standard_normal(mats["StocF-1465"].nrows),
        reps=(1, 2, 2, 3),
    )


def timestep_drift(seed: int, smoke: bool) -> Scenario:
    rng = np.random.default_rng([seed, 2])
    n = 8 if smoke else 12
    nsteps = 1 if smoke else 3
    kappa = lognormal_permeability((n, n, n), log10_contrast=2.0,
                                   seed=int(rng.integers(2**31)))
    ops = [variable_coefficient_3d_7pt(kappa)]
    for _ in range(nsteps):
        # A few percent of spatially varying drift, same sparsity pattern.
        kappa = kappa * (1.0 + 0.03 * rng.uniform(-1.0, 1.0, size=kappa.shape))
        ops.append(variable_coefficient_3d_7pt(kappa))
    N = ops[0].nrows
    picks = [0] * 12 + [1] * 12
    return Scenario(
        method="cg", tol=1e-8,
        cold=[],
        refresh_base=ops[0], refresh_steps=ops[1:],
        refresh_rhs=[[rng.standard_normal(N) for _ in range(3)] for _ in ops],
        serve_mats=ops[:2],
        serve_items=_stream(rng, [(i, N) for i in picks], rate=LONE_RATE),
        dist_A=ops[0], dist_b=rng.standard_normal(N),
        reps=(0, 2, 1, 2),
    )


#: Mean modeled service time of a ``serve-mix`` request served alone,
#: measured with every request arriving to an idle service (seeds 1-3):
#: 37 ms for a hard request, 0.32 ms for the others, 2.63 ms over the mix.
SERVE_MIX_SERVICE_S = 2.63e-3
#: Offered load of the ``serve-mix`` stream.  At a quarter of capacity most
#: requests, the median one among them, find the service idle, so
#: ``serve_latency_p50_s`` reads the lone service time.  The requests that
#: arrive during a hard solve queue and coalesce into blocked solves
#: (``serve.batch_rhs_mean`` 1.1-1.2, ``serve.waited_frac`` 0.2-0.35); at
#: half of capacity and above, the median request waits, and p50 follows
#: the seeded arrivals (a spread of several times its value across seeds).
SERVE_MIX_UTILISATION = 0.25


def serve_mix(seed: int, smoke: bool) -> Scenario:
    rng = np.random.default_rng([seed, 3])
    blocks = 2 if smoke else 16
    hard_n = 10 if smoke else 22
    lap2d = jitter(laplace_2d_5pt(24), rng, 0.1)
    lap3d = jitter(laplace_3d_7pt(10), rng, 0.1)
    # Larger members of the stream's families for the cold and refresh
    # stages: a setup of a stream key takes too little time to time well.
    big = 1 if smoke else 2
    cold = [jitter(laplace_2d_5pt(24 * big), rng, 0.1),
            jitter(laplace_2d_5pt(32 * big), rng, 0.1),
            jitter(laplace_3d_7pt(7 * big), rng, 0.1)]
    refresh_base = jitter(PROBLEM_BUILDERS["lap3d27g"](5 * big), rng, 0.02)
    # The jittered 27-point operator: indefinite from n = 22, where the
    # default AMG solve diverges (the stream's hard share).
    hard = PROBLEM_BUILDERS["lap3d27g"](hard_n)
    seq_base = jitter(PROBLEM_BUILDERS["lap3d27g"](8), rng, 0.02)
    shift = rng.uniform(0.01, 0.05)
    seq = [scaled(seq_base, 1.0 + shift * t) for t in range(blocks)]
    mats = [lap2d, lap3d, hard] + seq
    # Every block of 16 requests opens with one hard request, followed by
    # two 2-D and ten 3-D repeats and three requests on the block's step of
    # the uniform-scaling sequence, in seeded order.  Fixed shares put the
    # median on the plateau of lone 3-D solves, and hard requests spaced a
    # block apart never coalesce with each other.
    picks = []
    for blk in range(blocks):
        rest = np.array([0] * 2 + [1] * 10 + [3 + blk] * 3)
        picks.append(2)
        picks.extend(int(k) for k in rng.permutation(rest))
    return Scenario(
        method="amg", tol=1e-7,
        cold=[(A, rng.standard_normal(A.nrows)) for A in cold],
        refresh_base=refresh_base,
        refresh_steps=[scaled(refresh_base, 1.0 + shift * t) for t in (1, 2, 3)],
        refresh_rhs=[[rng.standard_normal(refresh_base.nrows)] for _ in range(4)],
        serve_mats=mats,
        serve_items=_stream(rng, [(i, mats[i].nrows) for i in picks],
                            rate=SERVE_MIX_UTILISATION / SERVE_MIX_SERVICE_S),
        dist_A=lap3d, dist_b=rng.standard_normal(lap3d.nrows),
        reps=(2, 3, 1, 3),
    )


def dist_nodeaware(seed: int, smoke: bool) -> Scenario:
    rng = np.random.default_rng([seed, 4])
    n = 8 if smoke else 14
    A = jitter(laplace_3d_27pt(n), rng, 0.02)
    N = A.nrows
    factors = 1.0 + rng.uniform(0.05, 0.5, size=2)
    return Scenario(
        # The refresh stage's base setup is the serial cold setup.
        method="fgmres", tol=1e-8,
        cold=[],
        refresh_base=A, refresh_steps=[scaled(A, f) for f in factors],
        refresh_rhs=[[rng.standard_normal(N) for _ in range(3)] for _ in range(3)],
        serve_mats=[A],
        serve_items=_stream(rng, [(0, N)] * (4 if smoke else 16),
                            rate=LONE_RATE),
        dist_A=A, dist_b=rng.standard_normal(N),
        reps=(0, 2, 2, 3),
    )


BUILDERS = {
    "table2-cold": table2_cold,
    "timestep-drift": timestep_drift,
    "serve-mix": serve_mix,
    "dist-nodeaware": dist_nodeaware,
}


def build(name: str, seed: int, smoke: bool = False) -> Scenario:
    return BUILDERS[name](seed, smoke)


# ---------------------------------------------------------------------------
# Oracle and refresh observer
# ---------------------------------------------------------------------------

def true_relres(A: CSRMatrix, x: np.ndarray, b: np.ndarray) -> float:
    """``||b - A x|| / ||b||`` with a plain numpy SpMV (no counted kernels)."""
    rows = np.repeat(np.arange(A.nrows), np.diff(A.indptr))
    Ax = np.bincount(rows, weights=A.data * x[A.indices], minlength=A.nrows)
    return float(np.linalg.norm(b - Ax) / np.linalg.norm(b))


class RefreshObserver(logging.Handler):
    """Counts numeric-refresh fallbacks logged on ``repro.amg.resetup``."""

    def __init__(self) -> None:
        super().__init__(logging.INFO)
        self.fallbacks = 0

    def emit(self, record: logging.LogRecord) -> None:
        if "falling back" in record.getMessage():
            self.fallbacks += 1

    def attach(self) -> "RefreshObserver":
        log = logging.getLogger("repro.amg.resetup")
        log.addHandler(self)
        log.setLevel(logging.INFO)
        return self


# ---------------------------------------------------------------------------
# Host speed
# ---------------------------------------------------------------------------

_PROBE_RNG = np.random.default_rng(20240601)
#: (index, values) pairs of a small and a mid-sized gather/scatter-add.
_PROBE_ARRAYS = [(_PROBE_RNG.integers(0, n, size=2 * n), _PROBE_RNG.random(n))
                 for n in (1_000, 20_000)]


def host_probe() -> float:
    """Wall seconds of a fixed reference kernel that calls no repro code.

    It mixes interpreter work with numpy gathers and scatter-adds on small
    and mid-sized arrays, as the program does on the benchmark's inputs.
    Other tenants of a shared host slow it and the program alike, by up to
    half for seconds to minutes at a time, so its time measured beside the
    program's gives the host's speed of the moment.
    """
    t0 = clock()
    acc = 0
    for i in range(20_000):
        acc += i * i
    for (idx, x), reps in zip(_PROBE_ARRAYS, (200, 20)):
        for _ in range(reps):
            np.bincount(idx, weights=x[idx], minlength=x.size)
    return clock() - t0


# ---------------------------------------------------------------------------
# One round
# ---------------------------------------------------------------------------

SETUP_BUCKETS = tuple(p for p in SETUP_PHASES if p != "Resetup")
SOLVE_BUCKETS = SOLVE_PHASES
REFRESH_BUCKETS = ("Resetup", "Rebuild")


@dataclass(frozen=True)
class LogSummary:
    """What the report needs from one operation's kernel log.

    Rounds keep these instead of the logs: holding every kernel record of
    every round would grow the heap, and with it the garbage collector's
    passes, so later rounds would run slower than earlier ones.
    """

    records: int
    flops: float
    bytes_read: float
    bytes_written: float
    model_s: float
    #: Modeled seconds per Fig. 5 bucket; phases outside the buckets
    #: count towards the last one.
    buckets: tuple

    @classmethod
    def of(cls, log: PerfLog, buckets: tuple[str, ...]) -> "LogSummary":
        times = dict.fromkeys(buckets, 0.0)
        for ph, t in SERIAL_MACHINE.phase_times(log).items():
            times[ph if ph in times else buckets[-1]] += t
        return cls(len(log.records), log.total("flops"), log.total("bytes_read"),
                   log.total("bytes_written"), SERIAL_MACHINE.log_time(log),
                   tuple(times.items()))

    def bucket(self, name: str) -> float:
        return dict(self.buckets)[name]


@dataclass
class SolveRecord:
    relres: float
    tol: float
    converged: bool
    #: False for a served request that did not complete (rejected, ...).
    completed: bool = True


@dataclass
class Round:
    #: ``(operation, seconds, probe)`` wall samples per metric, *probe* the
    #: index in :attr:`probes` of the one timed just before; an operation
    #: is the same work on the same input, repeated across reps and rounds.
    wall: dict = field(default_factory=lambda: {
        k: [] for k in ("setup", "solve", "refresh", "serve", "dist_setup",
                        "dist_solve")})
    total_wall: float = 0.0
    setup_costs: list = field(default_factory=list)
    solve_costs: list = field(default_factory=list)
    refresh_costs: list = field(default_factory=list)
    iterations: list = field(default_factory=list)
    levels: list = field(default_factory=list)
    op_complexity: list = field(default_factory=list)
    solves: list = field(default_factory=list)
    refresh_attempts: int = 0
    refresh_fallbacks: int = 0
    serve: dict = field(default_factory=dict)
    dist: dict = field(default_factory=dict)
    #: Wall seconds of :func:`host_probe`, timed before every work unit.
    probes: list = field(default_factory=list)
    #: (self seconds, spans) per layer of a traced round (empty when untraced).
    layers: dict = field(default_factory=dict)
    #: Context wrapping the benchmark's own bookkeeping (see run_round).
    keep: object = field(default=nullcontext, repr=False)

    def sample(self, key: str, op: tuple, seconds: float) -> None:
        self.wall[key].append((op, seconds, len(self.probes) - 1))

    @property
    def operations(self) -> int:
        """Setups, updates and solves (served and distributed included)."""
        return (len(self.setup_costs) + len(self.refresh_costs)
                + len(self.solves) + len(self.wall["dist_setup"]))

    def signature(self) -> tuple:
        """Every modeled count of the round: must repeat exactly."""
        serve = tuple(sorted((k, tuple(v) if isinstance(v, list) else v)
                             for k, v in self.serve.items()))
        return (tuple(self.setup_costs), tuple(self.solve_costs),
                tuple(self.refresh_costs), tuple(self.iterations), serve,
                tuple(sorted(self.dist.items())), self.refresh_fallbacks)


def _timed(fn):
    with collect() as log:
        t0 = clock()
        out = fn()
        dt = clock() - t0
    return out, dt, log


def _cold_setup(rnd: Round, A: CSRMatrix, op: tuple):
    handle, dt, log = _timed(lambda: repro.setup(A, cache=None))
    rnd.sample("setup", op, dt)
    with rnd.keep():
        rnd.setup_costs.append(LogSummary.of(log, SETUP_BUCKETS))
    rnd.levels.append(handle.hierarchy.num_levels)
    rnd.op_complexity.append(handle.hierarchy.operator_complexity())
    return handle


def _solve(rnd: Round, scn: Scenario, handle, A, b, op: tuple) -> None:
    res, dt, log = _timed(lambda: handle.solve(b, method=scn.method, tol=scn.tol))
    rnd.sample("solve", op, dt)
    with rnd.keep():
        rnd.solve_costs.append(LogSummary.of(log, SOLVE_BUCKETS))
    rnd.iterations.append(res.iterations)
    rnd.solves.append(SolveRecord(true_relres(A, res.x, b), scn.tol, res.converged))


#: Served requests submitted per step of the serve stage.
SERVE_CHUNK = 16


def _stage_cold(rnd: Round, scn: Scenario, observer: RefreshObserver):
    for i, (A, b) in enumerate(scn.cold):
        A = fresh(A)
        handle = _cold_setup(rnd, A, ("cold", i))
        _solve(rnd, scn, handle, A, b, ("cold", i))
        yield


def _stage_refresh(rnd: Round, scn: Scenario, observer: RefreshObserver):
    A = fresh(scn.refresh_base)
    handle = _cold_setup(rnd, A, ("refresh", 0))
    for j, b in enumerate(scn.refresh_rhs[0]):
        _solve(rnd, scn, handle, A, b, ("refresh", 0, j))
    yield
    for k, (A_next, rhs) in enumerate(zip(scn.refresh_steps, scn.refresh_rhs[1:]), 1):
        A = fresh(A_next)
        before = observer.fallbacks
        _, dt, log = _timed(lambda: handle.update(A))
        rnd.sample("refresh", ("refresh", k), dt)
        with rnd.keep():
            rnd.refresh_costs.append(LogSummary.of(log, REFRESH_BUCKETS))
        rnd.refresh_attempts += 1
        rnd.refresh_fallbacks += observer.fallbacks - before
        for j, b in enumerate(rhs):
            _solve(rnd, scn, handle, A, b, ("refresh", k, j))
        yield


def _stage_serve(rnd: Round, scn: Scenario, observer: RefreshObserver):
    svc = SolveService(ServiceConfig())
    mats = [fresh(M) for M in scn.serve_mats]
    items = scn.serve_items
    tickets = []
    for start in range(0, len(items), SERVE_CHUNK):
        t0, before = clock(), observer.fallbacks
        for t, i, b in items[start:start + SERVE_CHUNK]:
            # Open loop: everything due before this arrival is served
            # first, so the admission queue holds only requests that are
            # really waiting.
            svc.drain_until(t)
            tickets.append(svc.submit(mats[i], b, method=scn.method,
                                      tol=scn.tol, arrival=t))
        if start + SERVE_CHUNK >= len(items):
            svc.run()
        # A chunk is an operation: the same arrivals, and (on the modeled
        # clock) the same service work, in every stream of the run.
        rnd.sample("serve", ("serve", start), clock() - t0)
        rnd.refresh_fallbacks += observer.fallbacks - before
        yield
    results = [svc.result(tk, wait=False) for tk in tickets]
    latency, wait, solve = [], [], []
    for (_, i, b), res in zip(items, results):
        done = res.status == "completed"
        rnd.solves.append(SolveRecord(
            true_relres(mats[i], res.x, b) if done else float("inf"),
            scn.tol, res.converged, completed=done))
        if done:
            latency.append(res.wait_seconds + res.solve_seconds)
            wait.append(res.wait_seconds)
            solve.append(res.solve_seconds)
    stats = svc.cache.stats()
    m = svc.metrics
    batches = stats["hits"] + stats["misses"]
    rnd.refresh_attempts += stats["pattern_hits"]
    rnd.serve = {
        "requests": len(tickets),
        "completed": m.completed,
        "rejected": m.rejected,
        "batches": m.batches,
        "batch_rhs_mean": sum(k * v for k, v in m.batch_sizes.items())
        / max(m.batches, 1),
        "exact_hit_frac": stats["hits"] / max(batches, 1),
        "refresh_frac": stats["pattern_hits"] / max(batches, 1),
        "cold_frac": (stats["misses"] - stats["pattern_hits"]) / max(batches, 1),
        "records": len(m.perf.records),
        "latency": latency,
        "wait": wait,
        "solve": solve,
    }


def _stage_dist(rnd: Round, scn: Scenario, observer: RefreshObserver):
    A = fresh(scn.dist_A)
    nranks = NODES * PPN
    topo = NodeTopology(nranks, PPN)
    part = RowPartition.uniform(A.nrows, nranks)
    comm = SimComm(nranks)
    Ap = ParCSRMatrix.from_global(A, part)
    bp = ParVector.from_global(scn.dist_b, part)
    net = topo.network(FDRInfinibandModel()).scaled(net_scale())
    solver = DistAMGSolver(comm, DIST_CFG, topology=topo, net=net)

    t0 = clock()
    solver.setup(Ap)
    rnd.sample("dist_setup", ("dist",), clock() - t0)
    with rnd.keep():
        setup_compute = sum(comm.compute_phase_makespan(DIST_MACHINE).values())
        setup_comm = comm.comm_time(net)
    marks = [len(log.records) for log in comm.rank_logs]
    m0, c0 = len(comm.messages), len(comm.collectives)

    t0 = clock()
    res = dist_fgmres(comm, Ap, bp, precondition=solver.precondition,
                      tol=scn.tol)
    rnd.sample("dist_solve", ("dist",), clock() - t0)

    # Per-rank compute of the solve phase, as repro.bench.runner attributes
    # it: phase makespans over the ranks' own kernel logs.
    rank_total, phase_max = [], {}
    with rnd.keep():
        for p, log in enumerate(comm.rank_logs):
            sub = PerfLog()
            sub.records = log.records[marks[p]:]
            rank_total.append(DIST_MACHINE.log_time(sub))
            for ph, t in DIST_MACHINE.phase_times(sub).items():
                phase_max[ph] = max(phase_max.get(ph, 0.0), t)
    if max(rank_total) <= 0.0:
        raise RuntimeError("distributed solve attributed zero compute time")
    msgs = [m.event for m in comm.messages[m0:]]
    comm_s = net.exchange_time(msgs, nranks) + sum(
        net.allreduce_time(c.nranks, c.nbytes) for c in comm.collectives[c0:])
    # Message counts as repro.bench.runner.run_distributed takes them, so
    # they match bench_nodeaware: setup and solve together, and ``halo``
    # the exact tag of the flat rounds (node-aware rounds send under
    # ``halo.gather``/``halo.node``/``halo.scatter``).
    every = [m.event for m in comm.messages]
    halo = [e for e in every if e.tag == "halo"]
    inter = [e for e in every if not topo.on_node(e.src, e.dst)]
    compute_s = sum(phase_max.values())
    rnd.dist = {
        "model_setup_s": setup_compute + setup_comm,
        "model_solve_s": compute_s + comm_s,
        "model_compute_s": compute_s,
        "model_comm_s": comm_s,
        "compute_imbalance": max(rank_total) / (sum(rank_total) / nranks),
        "halo_msgs": len(halo),
        "halo_bytes": float(sum(e.nbytes for e in halo)),
        "internode_msgs": len(inter),
        "internode_bytes": float(sum(e.nbytes for e in inter)),
        "node_aware_levels": sum(
            1 for lvl in solver.hierarchy.levels
            if lvl.halo is not None and lvl.halo.node_aware),
        "iterations": res.iterations,
    }
    rnd.solves.append(SolveRecord(
        true_relres(A, res.x.to_global(), scn.dist_b), scn.tol,
        res.converged))
    yield


def run_round(scn: Scenario, observer: RefreshObserver,
              bookkeeping=nullcontext) -> Round:
    """Every stage ``scn.reps`` times.  *bookkeeping* wraps the benchmark's
    own machine-model conversions so a tracer can leave them out."""
    rnd = Round(keep=bookkeeping)
    units = (len(scn.cold), 1 + len(scn.refresh_steps),
             -(-len(scn.serve_items) // SERVE_CHUNK), 1)
    stages = (_stage_cold, _stage_refresh, _stage_serve, _stage_dist)
    tasks = [[stage(rnd, scn, observer), n, 0]
             for stage, n, reps in zip(stages, units, scn.reps)
             for _ in range(reps) if n]
    t0 = clock()
    # Always advance the task that is least far along, so each stage's
    # samples spread over the whole round instead of bunching at one end,
    # where a slow spell of a shared host would hit them all.
    while tasks:
        task = min(tasks, key=lambda t: t[2] / t[1])
        rnd.probes.append(host_probe())
        try:
            next(task[0])
            task[2] += 1
        except StopIteration:
            tasks.remove(task)
    rnd.total_wall = clock() - t0
    return rnd
