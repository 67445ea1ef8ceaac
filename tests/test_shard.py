"""Tests for the sharded multi-rank service tier (repro.serve.shard) and
the consolidated SolveOptions/ServiceConfig API surface.

Covers the tentpole guarantees of the sharded tier: consistent-hash ring
stability (adding a rank moves ~1/N of the key space), deterministic
routing and metrics for a seeded workload, modeled network charges on
forwarded requests, degraded requests staying isolated to their rank,
bit-identity of the ranks=1 path against the plain SolveService, load
shedding, and the queue-depth autoscaler — plus the API satellites:
SolveOptions keyword folding and conflict detection, the ServiceConfig
deprecation shim, the use-config-objects lint rule, and the sorted
top-level ``__all__``.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import repro
from repro.api import SolveOptions, setup, solve, solve_many
from repro.problems import laplace_2d_5pt
from repro.serve import (
    HashRing,
    ServiceConfig,
    ShardedSolveService,
    ShardTicket,
    SolveService,
    build,
    named_workload,
    widened,
)
from repro.sparse import CSRMatrix


# ---------------------------------------------------------------------------
# HashRing
# ---------------------------------------------------------------------------

def _keys(n):
    return [f"key:{i}" for i in range(n)]


def test_ring_lookup_is_deterministic_and_member_valid():
    ring = HashRing(range(5))
    for key in _keys(64):
        rank = ring.lookup(key)
        assert 0 <= rank < 5
        assert ring.lookup(key) == rank


def test_ring_spreads_keys_over_ranks():
    ring = HashRing(range(8))
    owners = {ring.lookup(k) for k in _keys(512)}
    assert owners == set(range(8))


def test_ring_stability_adding_a_rank_moves_about_one_nth():
    # The consistent-hashing contract: growing N -> N+1 ranks reassigns
    # only the slice the new rank takes over (~1/(N+1) of the key space),
    # so an autoscaling fleet does not flush every rank's cache.
    n = 8
    keys = _keys(2048)
    before = {k: HashRing(range(n)).lookup(k) for k in keys}
    grown = HashRing(range(n))
    grown.add(n)
    moved = [k for k in keys if grown.lookup(k) != before[k]]
    expected = len(keys) / (n + 1)
    assert 0 < len(moved) < 2 * expected
    # Every moved key moved *to* the new rank, not between old ranks.
    assert all(grown.lookup(k) == n for k in moved)


def test_ring_remove_restores_prior_ownership():
    ring = HashRing(range(4))
    before = {k: ring.lookup(k) for k in _keys(256)}
    ring.add(4)
    ring.remove(4)
    assert {k: ring.lookup(k) for k in _keys(256)} == before


def test_ring_add_remove_add_restores_identical_vnode_ownership():
    # Re-adding a departed rank must land every one of its virtual nodes
    # back on exactly the same ring points (SHA-256 of "rank{r}:{v}" is a
    # pure function of the token), so failover-then-rejoin restores the
    # precise pre-failure ownership map, not merely a statistically
    # similar one.
    ring = HashRing(range(4))
    points_before = list(ring._points)
    lookups_before = {k: ring.lookup(k) for k in _keys(512)}
    ring.remove(2)
    assert all(r != 2 for _, r in ring._points)
    ring.add(2)
    assert list(ring._points) == points_before
    assert ring.members == (0, 1, 2, 3)
    assert {k: ring.lookup(k) for k in _keys(512)} == lookups_before


def test_ring_successors_are_distinct_and_start_at_home():
    ring = HashRing(range(6))
    for key in _keys(32):
        succ = ring.successors(key, 3)
        assert len(succ) == 3
        assert len(set(succ)) == 3
        assert succ[0] == ring.lookup(key)
    # n larger than membership degrades to all members.
    assert sorted(ring.successors("x", 99)) == list(range(6))


# ---------------------------------------------------------------------------
# Sharded service: routing, determinism, network, isolation
# ---------------------------------------------------------------------------

def _fleet_config(ranks, **kw):
    base = dict(ranks=ranks, replicas=min(2, ranks), max_batch=4,
                cache_entries=64, max_queue=256)
    base.update(kw)
    return ServiceConfig(**base)


def test_single_rank_is_bit_identical_to_solve_service():
    spec = named_workload("tiny")
    plain = SolveService(ServiceConfig())
    r_plain = plain.run_workload(build(spec))
    shard = ShardedSolveService(ServiceConfig(ranks=1))
    r_shard = shard.run_workload(build(spec))
    assert plain.metrics_json() == shard.services[0].metrics_json()
    assert len(r_plain) == len(r_shard)
    for a, b in zip(r_plain, r_shard):
        assert a.status == b.status
        if a.x is None:
            assert b.x is None
        else:
            assert np.array_equal(a.x, b.x)
        assert b.rank == 0 and b.home_rank == 0 and b.net_seconds == 0.0


def test_sharded_run_is_deterministic():
    spec = widened(named_workload("mixed"), copies=4, requests=64)
    runs = []
    for _ in range(2):
        svc = ShardedSolveService(_fleet_config(4))
        results = svc.run_workload(build(spec))
        runs.append((svc.metrics_json(),
                     [(r.rank, r.home_rank, r.status, r.net_seconds)
                      for r in results]))
    assert runs[0] == runs[1]


def test_routing_is_key_affine_and_completes_everything():
    spec = widened(named_workload("mixed"), copies=4, requests=64)
    svc = ShardedSolveService(_fleet_config(4))
    results = svc.run_workload(build(spec))
    assert all(r.status == "completed" for r in results)
    sh = svc.metrics_snapshot()["sharded"]
    assert sh["counters"]["completed"] == spec.requests
    assert sh["counters"]["routed"] == spec.requests
    # Multiple ranks actually served traffic.
    served = [c for c in sh["load_balance"]["completed_per_rank"] if c]
    assert len(served) > 1
    assert 0.0 <= sh["locality"]["hit_rate"] <= 1.0


def test_forwarded_requests_pay_modeled_network_time():
    # Force forwarding: two ranks, no spill penalty, and a stream of
    # same-size operators so the router load-balances off-home.
    spec = widened(named_workload("small"), copies=4, requests=48)
    svc = ShardedSolveService(_fleet_config(2, spill_penalty=0))
    results = svc.run_workload(build(spec))
    forwarded = [r for r in results
                 if r.status == "completed" and r.forwarded]
    assert forwarded, "expected the balancer to forward some requests"
    for r in forwarded:
        assert r.rank != r.home_rank
        assert r.net_seconds > 0.0
        assert r.latency_seconds >= r.wait_seconds + r.solve_seconds
    home = [r for r in results
            if r.status == "completed" and not r.forwarded]
    assert all(r.net_seconds == 0.0 for r in home)
    net = svc.metrics_snapshot()["sharded"]["network"]
    assert net["forward_messages"] == len(forwarded) \
        or net["forward_messages"] >= len(forwarded)  # timeouts never forward
    assert net["forward_bytes"] > 0
    assert net["return_messages"] == len(forwarded)
    assert net["forward_seconds"] > 0.0


def test_operator_ships_once_per_rank_then_only_vectors():
    A = laplace_2d_5pt(12)
    rng = np.random.default_rng(7)
    svc = ShardedSolveService(ServiceConfig(ranks=2, replicas=2,
                                            spill_penalty=0))
    # Load rank holding this key's home so the next submits spill.
    tickets = [svc.submit(A, rng.standard_normal(A.nrows), arrival=0.0)
               for _ in range(6)]
    ranks = {t.rank for t in tickets}
    sh = svc.metrics_snapshot()["sharded"]
    if len(ranks) > 1:
        # The CSR payload crossed the wire exactly once; later forwards
        # shipped only the right-hand-side vector.
        assert sh["counters"]["shipments"] == 1
        assert sh["counters"]["forwarded"] >= 1


def test_degraded_request_stays_isolated_to_its_rank():
    # An indefinite operator breaks CG on whatever rank it routes to; the
    # sibling rank's traffic must stay clean and the fleet metrics must
    # attribute the degradation to exactly one rank.
    bad = CSRMatrix.from_dense(np.diag([1.0, -2.0, 3.0, -4.0]))
    good = laplace_2d_5pt(8)
    rng = np.random.default_rng(3)
    svc = ShardedSolveService(ServiceConfig(ranks=2, replicas=1))
    t_bad = svc.submit(bad, np.array([0.0, 1.0, 0.0, 0.0]), method="cg",
                       arrival=0.0)
    t_good = [svc.submit(good, rng.standard_normal(good.nrows), arrival=0.0)
              for _ in range(4)]
    svc.run()
    res_bad = svc.result(t_bad)
    assert res_bad.status == "completed" and res_bad.degraded
    for t in t_good:
        r = svc.result(t)
        assert r.status == "completed" and r.converged and not r.degraded
    snap = svc.metrics_snapshot()
    degraded_per_rank = [s["service"]["counters"]["degraded"]
                        for s in snap["ranks"]]
    assert sum(degraded_per_rank) == 1
    assert degraded_per_rank[t_bad.rank] == 1
    other = 1 - t_bad.rank
    assert snap["ranks"][other]["service"]["counters"]["degraded"] == 0


def test_invalid_request_resolves_to_structured_rejection():
    svc = ShardedSolveService(ServiceConfig(ranks=2))
    t = svc.submit(np.zeros((3, 4)), np.ones(3))
    res = svc.result(t)
    assert res.status == "rejected"
    assert "square" in res.degraded_reason


def test_shedding_rejects_at_the_router():
    A = laplace_2d_5pt(8)
    rng = np.random.default_rng(5)
    svc = ShardedSolveService(ServiceConfig(ranks=2, replicas=1,
                                            shed_depth=2))
    tickets = [svc.submit(A, rng.standard_normal(A.nrows), arrival=0.0)
               for _ in range(8)]
    shed = [t for t in tickets if t.rank == -1]
    assert shed, "expected shedding once the home queue hit depth 2"
    res = svc.result(shed[0])
    assert res.status == "rejected"
    assert res.degraded_reason.startswith("rejected: shed:")
    assert res.rank == -1
    sh = svc.metrics_snapshot()["sharded"]
    assert sh["counters"]["shed"] == len(shed)
    # Shed requests consumed no rank capacity.
    assert sum(s.queue_depth for s in svc.services) == len(tickets) - len(shed)
    svc.run()
    assert all(svc.result(t).status == "completed"
               for t in tickets if t.rank >= 0)


def test_autoscaler_grows_and_shrinks_with_queue_depth():
    A = laplace_2d_5pt(8)
    rng = np.random.default_rng(9)
    svc = ShardedSolveService(ServiceConfig(
        ranks=4, replicas=1, autoscale=True, min_ranks=1,
        scale_up_depth=2.0, scale_down_depth=0.5))
    assert svc.active_ranks == [0]
    for i in range(12):
        svc.submit(A, rng.standard_normal(A.nrows), arrival=0.0)
    assert len(svc.active_ranks) > 1
    svc.run()
    # Queues drained: the next arrival observation scales back down.
    svc.submit(A, rng.standard_normal(A.nrows), arrival=svc.now)
    events = svc.metrics_snapshot()["sharded"]["autoscale_events"]
    assert [e["action"] for e in events].count("up") >= 1
    assert events[-1]["action"] == "down"
    assert all(1 <= e["active"] <= 4 for e in events)


def test_shard_ticket_and_cancel():
    A = laplace_2d_5pt(8)
    svc = ShardedSolveService(ServiceConfig(ranks=2))
    t = svc.submit(A, np.ones(A.nrows), arrival=0.0)
    assert isinstance(t, ShardTicket)
    assert svc.cancel(t)
    assert svc.result(t).status == "cancelled"
    assert not svc.cancel(t)


def test_shard_metrics_json_is_sorted_and_stable():
    spec = named_workload("tiny")
    svc = ShardedSolveService(ServiceConfig(ranks=2))
    svc.run_workload(build(spec))
    text = svc.metrics_json()
    parsed = json.loads(text)
    assert json.dumps(parsed, indent=2, sort_keys=True) == text
    assert set(parsed) == {"ranks", "sharded"}


# ---------------------------------------------------------------------------
# ServiceConfig consolidation
# ---------------------------------------------------------------------------

def test_service_config_validates_shard_fields():
    with pytest.raises(ValueError, match="ranks"):
        ServiceConfig(ranks=0)
    with pytest.raises(ValueError, match="replicas"):
        ServiceConfig(ranks=2, replicas=3)
    with pytest.raises(ValueError, match="shed_depth"):
        ServiceConfig(shed_depth=0)
    with pytest.raises(ValueError, match="min_ranks"):
        ServiceConfig(ranks=2, min_ranks=3)
    with pytest.raises(ValueError, match="scale_down_depth"):
        ServiceConfig(scale_up_depth=1.0, scale_down_depth=2.0)


def test_legacy_keywords_conflict_with_config_object():
    """The per-field keywords are gone: ``ServiceConfig`` is the only way."""
    for cls in (SolveService, ShardedSolveService):
        with pytest.raises(TypeError, match="max_batch"):
            cls(max_batch=3)


# ---------------------------------------------------------------------------
# SolveOptions
# ---------------------------------------------------------------------------

def _system(n=24):
    A = laplace_2d_5pt(n)
    rng = np.random.default_rng(11)
    return A, rng.standard_normal(A.nrows)


def test_solve_options_equivalent_to_keywords():
    A, b = _system()
    r_kw = solve(A, b, method="cg", tol=1e-9, cache=None)
    r_opt = solve(A, b, options=SolveOptions(method="cg", tol=1e-9),
                  cache=None)
    assert np.array_equal(r_kw.x, r_opt.x)
    assert r_kw.iterations == r_opt.iterations


def test_solve_options_conflict_raises():
    A, b = _system()
    with pytest.raises(ValueError, match="not both"):
        solve(A, b, options=SolveOptions(), tol=1e-9)
    with pytest.raises(ValueError, match="not both"):
        solve_many(A, np.column_stack([b, b]), options=SolveOptions(),
                   method="cg")
    with pytest.raises(ValueError, match="not both"):
        setup(A, repro.single_node_config(), options=SolveOptions())


def test_solve_options_validates_at_construction():
    with pytest.raises(ValueError, match="method"):
        SolveOptions(method="qr")
    with pytest.raises(ValueError, match="reuse"):
        SolveOptions(reuse="always")


def test_setup_and_update_accept_options():
    A, b = _system()
    h = setup(A, options=SolveOptions(reuse="never"), cache=None)
    assert h.solve(b).converged
    h.update(A, options=SolveOptions(reuse="never"))
    with pytest.raises(ValueError, match="not both"):
        h.update(A, reuse="auto", options=SolveOptions())


def test_solve_options_is_frozen_with_documented_defaults():
    opts = SolveOptions()
    assert (opts.method, opts.tol, opts.maxiter) == ("amg", 1e-7, None)
    assert (opts.reuse, opts.check, opts.config) == ("auto", None, None)
    with pytest.raises(AttributeError):
        opts.method = "cg"


# ---------------------------------------------------------------------------
# Top-level API surface
# ---------------------------------------------------------------------------

def test_top_level_all_is_sorted_and_resolvable():
    assert list(repro.__all__) == sorted(repro.__all__)
    assert len(set(repro.__all__)) == len(repro.__all__)
    for name in repro.__all__:
        assert getattr(repro, name, None) is not None, name


def test_top_level_exports_the_new_surface():
    for name in ("SolveOptions", "ServiceConfig", "ShardedSolveService",
                 "fingerprint"):
        assert name in repro.__all__
    assert repro.SolveOptions is SolveOptions
    assert repro.ShardedSolveService is ShardedSolveService
