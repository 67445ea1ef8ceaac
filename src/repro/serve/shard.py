"""Sharded multi-rank solve service with consistent-hash routing.

:class:`ShardedSolveService` scales the single-rank
:class:`~repro.serve.service.SolveService` out to ``ServiceConfig.ranks``
modeled service ranks.  Each rank is a full, independent service — its own
admission queue, :class:`~repro.amg.cache.HierarchyCache`, machine model,
and :class:`~repro.serve.metrics.ServiceMetrics` — and a thin router in
front decides which rank serves each request.

**Routing.**  The routing key is the *pattern-tier* cache key
(:func:`~repro.amg.cache.pattern_fingerprint` of the operator plus the
config digest), hashed onto a consistent-hash ring (:class:`HashRing`,
SHA-256 virtual nodes).  Same-pattern traffic — time stepping, Newton
sequences, repeated operators — therefore lands on the same *home* rank,
where the hierarchy is already warm (exact hit or numeric refresh), which
is the whole point of sharding a setup-dominated workload.  Adding or
removing a rank moves only ~1/N of the key space, so an autoscaling tier
does not flush every cache.

**Replication and spill.**  ``ServiceConfig.replicas`` widens each key's
candidate set to the home rank plus the next ``replicas - 1`` distinct
ring successors.  The router scores candidates by queue depth, charging
non-home candidates ``spill_penalty`` extra (so a hot key spills off its
home only under real load), breaking ties toward ranks whose cache is
already warm for the key, then by candidate order.  Forwarding off the
home rank is not free: the request hop (right-hand side, plus the full
CSR operator the first time a given exact fingerprint reaches a rank) and
the result-return hop are charged through the
:class:`~repro.perf.network.NetworkModel` as modeled seconds and bytes —
a forwarded request *arrives later* at its serving rank, and the network
volume shows up in the metrics snapshot.

**Shedding and autoscale.**  With ``shed_depth`` set, a request whose
every candidate queue is at least that deep is rejected at the router
(status ``rejected``, reason ``shed: ...``) without consuming rank
capacity.  With ``autoscale=True`` the active rank count starts at
``min_ranks`` and grows/shrinks one rank at a time from mean
admission-queue depth, observed at arrival times on the deterministic
clock; ring membership follows, and every action is recorded in the
metrics.

**Fault tolerance.**  Passing a non-empty
:class:`~repro.faults.shard_plan.ShardFaultPlan` activates the rank-failure
lifecycle.  A :class:`~repro.serve.health.HealthTracker` probes every rank
at ``heartbeat_interval`` multiples of the modeled clock; consecutive
misses walk a rank ``up`` → ``suspect`` → ``down`` (circuit breaker opens).
A ``down`` rank leaves the ring and loses everything it held: its queued
requests are evacuated and its already-scheduled results whose modeled
finish lies past the death instant are *retracted* — both re-route to ring
successors under the plan's :class:`~repro.faults.plan.RetryPolicy`, each
attempt charged a deterministic backoff stall plus the re-forward (and,
when the successor never saw the operator, the re-ship) through the
network model.  A request that exhausts the retry budget — or finds the
ring empty — resolves to a structured ``failed`` result, never an
exception.  When the plan lets the rank breathe again it turns
``rejoining`` (breaker half-open): it re-enters cold, replays the
``rewarm_top_k`` hottest pattern fingerprints from surviving replicas
(charged as bulk state transfers), and only then closes the breaker and
rejoins the ring.  With ``hedge_delay`` set, an ``interactive`` request
still unresolved one hedge delay after arrival is duplicated to one
replica at the next heartbeat tick; the first copy to finish wins and the
loser is cancelled, freeing its queue slot.  Every fault-path quantity
lands in a ``faults`` section of the metrics snapshot — emitted *only*
when the lifecycle is active, so the no-fault snapshot stays byte-for-byte
what it was without a plan.

Everything runs on the same virtual clock as the single-rank service:
identical seed + workload + config give bit-identical routing, results,
and metrics JSON.  With ``ranks=1`` (and shedding/autoscale off) the
service degenerates to exactly the single-rank scheduler — byte-identical
per-rank metrics — because every request is home-routed with zero network
cost and the workload is replayed through the same clairvoyant path.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left, insort
from dataclasses import dataclass, replace

from ..amg.cache import fingerprint
from ..analysis.events import EventLog
from ..api import _as_rhs, _validate_operator, as_csr
from ..config import AMGConfig, single_node_config
from ..faults.shard_plan import ShardFaultPlan
from ..perf.network import FDRInfinibandModel, NetworkModel
from ..results import ServiceResult
from .health import DOWN, REJOINING, UP, HealthTracker
from .metrics import ShardMetrics
from .request import Ticket
from .service import ServiceConfig, SolveService
from .workload import Workload

__all__ = ["HashRing", "ShardTicket", "ShardedSolveService"]

#: Modeled wire size of a forwarded request or returned result carrying an
#: n-vector of float64 payload: the vector plus a small framing envelope.
_ENVELOPE_BYTES = 64


def _vector_bytes(n: int) -> int:
    return 8 * n + _ENVELOPE_BYTES


def _operator_bytes(n: int, nnz: int) -> int:
    """Wire size of a full CSR operator: data + indices (12 B/nnz) + indptr."""
    return 12 * nnz + 8 * (n + 1)


class HashRing:
    """Consistent-hash ring with SHA-256 virtual nodes.

    Each member rank owns ``vnodes`` points on a 64-bit ring; a key maps
    to the rank owning the first point clockwise from the key's own hash.
    With V virtual nodes per rank the load split is near-uniform, and
    adding or removing one rank reassigns only ~1/N of the key space —
    the property the ring-stability test pins down.
    """

    def __init__(self, ranks: tuple[int, ...] | list[int] = (), *,
                 vnodes: int = 64) -> None:
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self.vnodes = vnodes
        #: Sorted (point, rank) pairs; ranks are small non-negative ints.
        self._points: list[tuple[int, int]] = []
        self._members: set[int] = set()
        for rank in ranks:
            self.add(rank)

    @staticmethod
    def _point(token: str) -> int:
        digest = hashlib.sha256(token.encode()).digest()
        return int.from_bytes(digest[:8], "big")

    @property
    def members(self) -> tuple[int, ...]:
        return tuple(sorted(self._members))

    def add(self, rank: int) -> None:
        if rank in self._members:
            return
        self._members.add(rank)
        for v in range(self.vnodes):
            insort(self._points, (self._point(f"rank{rank}:{v}"), rank))

    def remove(self, rank: int) -> None:
        if rank not in self._members:
            return
        self._members.discard(rank)
        self._points = [(p, r) for p, r in self._points if r != rank]

    def lookup(self, key: str) -> int:
        """The rank owning *key* (its home rank)."""
        return self.successors(key, 1)[0]

    def successors(self, key: str, n: int) -> list[int]:
        """First *n* distinct ranks clockwise from *key*'s ring point.

        Element 0 is the key's home rank; the rest are its replica
        candidates, in deterministic ring order.
        """
        if not self._points:
            raise ValueError("ring has no members")
        n = min(n, len(self._members))
        start = bisect_left(self._points, (self._point(key), -1))
        out: list[int] = []
        for i in range(len(self._points)):
            rank = self._points[(start + i) % len(self._points)][1]
            if rank not in out:
                out.append(rank)
                if len(out) == n:
                    break
        return out


@dataclass(frozen=True)
class ShardTicket:
    """Sharded ticket: which rank holds the request, and whose key it is.

    ``rank`` is the serving rank the router dispatched to (−1 when the
    router resolved the request itself, e.g. load shedding); ``home_rank``
    is the ring owner of the request's routing key.  They differ exactly
    when the request was forwarded.
    """

    id: int
    rank: int
    home_rank: int


class ShardedSolveService:
    """N modeled service ranks behind one consistent-hash router.

    Usage::

        svc = ShardedSolveService(ServiceConfig(ranks=4, replicas=2))
        t = svc.submit(A, b)
        res = svc.result(t)             # res.rank / res.home_rank / net_seconds
        print(svc.metrics_json())       # sharded + per-rank report

    All ranks share one ``ServiceConfig`` and one AMG config, so a fingerprint computed on
    any rank is valid on every rank.
    """

    def __init__(self, config: ServiceConfig | None = None, *,
                 amg_config: AMGConfig | None = None,
                 network: NetworkModel | None = None,
                 fault_plan: ShardFaultPlan | None = None) -> None:
        self.config = config if config is not None else ServiceConfig()
        self.amg_config = amg_config or single_node_config(
            nthreads=self.config.threads)
        self.network = network or FDRInfinibandModel()
        #: One full service per rank, each with its own cache and metrics.
        self.services = [
            SolveService(self.config, amg_config=self.amg_config)
            for _ in range(self.config.ranks)
        ]
        self.shard_metrics = ShardMetrics()
        #: Fleet-shared ticket-lifecycle event log: the router and every
        #: rank record into one sequence, so the happens-before checker
        #: (``repro.analysis.events``) sees cross-actor edges.  Empty
        #: unless ``REPRO_CHECK`` is at least ``cheap``.
        self.events = EventLog()
        for i, svc in enumerate(self.services):
            svc.events = self.events
            svc.event_actor = f"rank{i}"
        start = (self.config.min_ranks if self.config.autoscale
                 else self.config.ranks)
        #: Active rank ids, always a prefix ``range(k)`` of the fleet.
        self._active = list(range(start))
        self.ring = HashRing(self._active, vnodes=self.config.ring_vnodes)
        #: (rank, local id) -> route record for result wrapping.
        self._routes: dict[tuple[int, int], dict] = {}
        self._wrapped: dict[tuple[int, int], ServiceResult] = {}
        #: (rank, exact fingerprint) pairs whose operator already crossed
        #: the wire to that rank — later forwards ship only the vector.
        self._shipped: set[tuple[int, str]] = set()
        #: Router-resolved (shed / fleet-down) results, by shard-level id.
        self._shed_results: dict[int, ServiceResult] = {}
        self._next_shed_id = 0
        # -- fault lifecycle (active only under a non-empty fault plan) ----
        self._plan = fault_plan
        chaos = fault_plan is not None and not fault_plan.is_empty
        if chaos and self.config.autoscale:
            raise ValueError(
                "autoscale and a non-empty ShardFaultPlan cannot be "
                "combined: the autoscaler and the failure lifecycle would "
                "both edit ring membership")
        #: Health tracker; ``None`` means the fault lifecycle is inactive
        #: and every chaos path below is skipped (the no-fault scheduler
        #: stays bit-identical to running without a plan).
        self._tracker = HealthTracker(
            fault_plan, self.config.ranks,
            interval=self.config.heartbeat_interval,
            suspect_after=self.config.suspect_after,
            down_after=self.config.down_after) if chaos else None
        #: Origin route key -> latest (rank, local id) after failovers.
        self._redirects: dict[tuple[int, int], tuple[int, int]] = {}
        #: Origin route key -> terminal router result (exhausted retries).
        self._router_results: dict[tuple[int, int], ServiceResult] = {}
        #: Pattern key -> routed-request count (re-warm heat ranking).
        self._pattern_traffic: dict[str, int] = {}
        #: Origin route key -> {"deadline", "fired", "dup"} hedge registry.
        self._pending_hedges: dict[tuple[int, int], dict] = {}

    # -- clocks and depth ---------------------------------------------------
    @property
    def now(self) -> float:
        """The fleet clock: the busiest rank's virtual time (makespan)."""
        return max(svc.now for svc in self.services)

    @property
    def active_ranks(self) -> list[int]:
        """Currently active rank ids (all of them unless autoscaling)."""
        return list(self._active)

    def queue_depths(self) -> list[int]:
        """Admission-queue depth of every rank (index = rank id)."""
        return [svc.queue_depth for svc in self.services]

    # -- submission ---------------------------------------------------------
    def submit(self, A, b, *, config: AMGConfig | None = None,
               method: str | None = None, tol: float | None = None,
               maxiter: int | None = None, priority: str | None = None,
               timeout: float | None = None,
               arrival: float | None = None) -> ShardTicket:
        """Route one solve to a rank; always returns a :class:`ShardTicket`.

        The router picks the home rank by consistent-hashing the request's
        pattern-tier key, widens to the replica candidate set, sheds if
        every candidate is overloaded, and otherwise dispatches to the
        best-scored candidate — charging modeled network time when that is
        not the home rank (the request *arrives later* there).  Malformed
        requests are delegated to a rank so they resolve to the same
        structured ``rejected`` result a single-rank service produces.
        """
        t = self.now if arrival is None else float(arrival)
        cfg = config or self.amg_config
        if self.config.autoscale:
            self._autoscale(t)
        chaos = self._tracker is not None
        try:
            A_csr = _validate_operator(as_csr(A))
            _as_rhs(b, A_csr.nrows)
        except (TypeError, ValueError) as exc:
            if chaos and not self.ring.members:
                return self._router_fail(
                    f"rejected: invalid request: {exc} (no routable ranks)",
                    priority, status="rejected")
            # Un-routable request: any rank produces the canonical
            # structured rejection.  Charged nowhere on the network.
            rank = self.ring.members[0] if chaos else self._active[0]
            ticket = self.services[rank].submit(
                A, b, config=cfg, method=method, tol=tol, maxiter=maxiter,
                priority=priority, timeout=timeout, arrival=t)
            rec = {"home": rank, "rank": rank, "forward_seconds": 0.0,
                   "n": 0}
            if chaos:
                rec.update(origin=(rank, ticket.id), net=0.0, retries=0,
                           failovers=0, original_rank=rank, local_arrival=t)
            self._routes[(rank, ticket.id)] = rec
            self.events.record("router", "route", time=t, ticket=ticket.id,
                               rank=rank, detail="invalid")
            self.shard_metrics.record_route(forwarded=False)
            return ShardTicket(ticket.id, rank, rank)

        key = self.services[0].cache.pattern_key(A_csr, cfg)
        if chaos:
            self._pattern_traffic[key] = self._pattern_traffic.get(key, 0) + 1
            if not self.ring.members:
                return self._router_fail(
                    "failed: no routable ranks (every service rank is down)",
                    priority, status="failed")
        candidates = self.ring.successors(
            key, min(self.config.replicas, len(self.ring.members)))
        home = candidates[0]
        depths = self.queue_depths()

        if (self.config.shed_depth is not None
                and all(depths[c] >= self.config.shed_depth
                        for c in candidates)):
            return self._shed(candidates, depths, priority)

        rank = self._pick_rank(key, A_csr.nnz, candidates)
        fwd_seconds = 0.0
        fwd_bytes = 0
        shipped = False
        exact = fingerprint(A_csr, cfg) if chaos else None
        if rank != home:
            if exact is None:
                exact = fingerprint(A_csr, cfg)
            fwd_bytes, fwd_seconds, shipped = self._ship_charge(
                rank, A_csr.nrows, A_csr.nnz, exact)
        self.shard_metrics.record_route(
            forwarded=rank != home, forward_bytes=fwd_bytes,
            forward_seconds=fwd_seconds, shipped=shipped)
        ticket = self.services[rank].submit(
            A_csr, b, config=cfg, method=method, tol=tol, maxiter=maxiter,
            priority=priority, timeout=timeout, arrival=t + fwd_seconds)
        rec = {"home": home, "rank": rank, "forward_seconds": fwd_seconds,
               "n": A_csr.nrows}
        if chaos:
            rpri = priority or self.config.default_priority
            rec.update(
                origin=(rank, ticket.id),
                req=dict(A=A_csr, b=b, config=cfg, method=method, tol=tol,
                         maxiter=maxiter, priority=rpri, timeout=timeout),
                key=key, exact=exact, nnz=A_csr.nnz, net=fwd_seconds,
                retries=0, failovers=0, original_rank=rank,
                local_arrival=t + fwd_seconds)
            if (self.config.hedge_delay is not None
                    and rpri == "interactive"
                    and len(self.ring.members) > 1):
                self._pending_hedges[(rank, ticket.id)] = {
                    "deadline": t + self.config.hedge_delay,
                    "fired": False, "dup": None}
        self._routes[(rank, ticket.id)] = rec
        self.events.record("router", "route", time=t, ticket=ticket.id,
                           rank=rank, detail=f"home=rank{home}")
        if rank != home:
            self.events.record("router", "forward", time=t,
                               ticket=ticket.id, rank=rank,
                               detail=f"off-home from rank{home}")
        return ShardTicket(ticket.id, rank, home)

    def _pick_rank(self, key: str, nnz: int, candidates: list[int]) -> int:
        """Best-scored candidate for a request of *nnz* work on *key*.

        Load is queued *work* (summed nnz), not request count, so one
        queued 3-D setup outweighs a handful of tiny 2-D solves; the
        spill penalty is denominated in this request's own cost, so a
        request leaves its (cache-warm) home only when home holds at
        least spill_penalty times this request's work more than a
        replica.  Ties break toward warm caches, then candidate order.
        """
        home = candidates[0]
        work = {c: self.services[c].queued_work for c in candidates}

        def score(c: int) -> tuple[int, int, int]:
            spill = 0 if c == home else self.config.spill_penalty * nnz
            warm = 0 if self.services[c].cache.has_pattern(key) else 1
            return (work[c] + spill, warm, candidates.index(c))

        return min(candidates, key=score)

    def _ship_charge(self, rank: int, n: int, nnz: int,
                     exact: str) -> tuple[int, float, bool]:
        """Wire cost of forwarding a request to *rank*.

        Returns ``(bytes, modeled seconds, operator shipped)``: the
        right-hand-side vector always crosses; the full CSR operator rides
        along the first time this exact fingerprint reaches the rank.
        """
        nbytes = _vector_bytes(n)
        shipped = False
        if (rank, exact) not in self._shipped:
            nbytes += _operator_bytes(n, nnz)
            self._shipped.add((rank, exact))
            shipped = True
        return nbytes, self.network.transfer_time(nbytes), shipped

    def _router_fail(self, reason: str, priority: str | None, *,
                     status: str) -> ShardTicket:
        """Resolve a submit at the router when no rank can take it."""
        sid = self._next_shed_id
        self._next_shed_id += 1
        self.events.record("router", "reject", time=self.now, ticket=sid,
                           detail=status)
        self.shard_metrics.routed += 1
        if status == "failed":
            self.shard_metrics.failed += 1
        self._shed_results[sid] = ServiceResult(
            x=None, iterations=0, residuals=[], converged=False,
            degraded=True, degraded_reason=reason, status=status,
            request_id=sid,
            priority=priority or self.config.default_priority,
            rank=-1, home_rank=-1)
        return ShardTicket(sid, -1, -1)

    def _shed(self, candidates: list[int], depths: list[int],
              priority: str | None) -> ShardTicket:
        """Reject at the router: every candidate queue is too deep."""
        self.shard_metrics.record_shed()
        sid = self._next_shed_id
        self._next_shed_id += 1
        self.events.record("router", "shed", time=self.now, ticket=sid,
                           detail=f"candidates={candidates}")
        load = ", ".join(f"rank {c}: {depths[c]}" for c in candidates)
        self._shed_results[sid] = ServiceResult(
            x=None, iterations=0, residuals=[], converged=False,
            degraded=True,
            degraded_reason=(
                f"rejected: shed: every candidate rank at or above "
                f"shed_depth={self.config.shed_depth} ({load})"),
            status="rejected", request_id=sid,
            priority=priority or self.config.default_priority,
            rank=-1, home_rank=candidates[0])
        return ShardTicket(sid, -1, candidates[0])

    def cancel(self, ticket: ShardTicket) -> bool:
        """Withdraw a pending request, wherever failover moved it.

        Under a fault plan the ticket's original rank may be dead and its
        request re-homed; the redirect map is followed so the *current*
        copy is cancelled and its queue slot freed.  A pending hedge
        duplicate is cancelled along with it.
        """
        if ticket.rank < 0:
            return False
        if self._tracker is None:
            ok = self.services[ticket.rank].cancel(Ticket(ticket.id))
            if ok:
                self.events.record("router", "cancel", time=self.now,
                                   ticket=ticket.id, rank=ticket.rank)
            return ok
        origin = (ticket.rank, ticket.id)
        if origin in self._wrapped or origin in self._router_results:
            return False
        cur = self._redirects.get(origin, origin)
        entry = self._pending_hedges.pop(origin, None)
        if entry is not None and entry.get("dup") is not None:
            dup = entry["dup"]
            if self.services[dup[0]].cancel(Ticket(dup[1])):
                self.shard_metrics.record_hedge_cancelled()
        ok = self.services[cur[0]].cancel(Ticket(cur[1]))
        if ok:
            self.events.record("router", "cancel", time=self.now,
                               ticket=origin[1], rank=origin[0])
        return ok

    # -- autoscaling --------------------------------------------------------
    def _autoscale(self, t: float) -> None:
        """Grow/shrink the active rank prefix from mean queue depth.

        Observed at arrival times on the virtual clock, one action per
        observation.  A deactivated rank finishes what it already queued
        (it leaves the ring, so no new keys route to it); activation adds
        the next rank id, moving ~1/N of the key space onto it.
        """
        depths = self.queue_depths()
        mean = sum(depths[c] for c in self._active) / len(self._active)
        if (mean > self.config.scale_up_depth
                and len(self._active) < self.config.ranks):
            new = len(self._active)
            self._active.append(new)
            self.ring.add(new)
            self.shard_metrics.record_autoscale(t, "up", len(self._active))
        elif (mean < self.config.scale_down_depth
                and len(self._active) > self.config.min_ranks):
            gone = self._active.pop()
            self.ring.remove(gone)
            self.shard_metrics.record_autoscale(t, "down", len(self._active))

    # -- results ------------------------------------------------------------
    def result(self, ticket: ShardTicket, *,
               wait: bool = True) -> ServiceResult | None:
        """The request's :class:`~repro.results.ServiceResult`.

        Delegates to the serving rank, then wraps the result with the
        route: ``rank``, ``home_rank``, and ``net_seconds`` (forward hop
        plus, for completed forwarded requests, the result-return hop —
        both charged through the network model).  Each result is wrapped
        and counted in the shard metrics exactly once.
        """
        if ticket.rank < 0:
            return self._shed_results[ticket.id]
        route_key = (ticket.rank, ticket.id)
        if route_key in self._wrapped:
            return self._wrapped[route_key]
        if self._tracker is not None:
            return self._result_chaos(route_key, wait)
        res = self.services[ticket.rank].result(Ticket(ticket.id), wait=wait)
        if res is None:
            return None
        route = self._routes[route_key]
        ret_bytes = 0
        ret_seconds = 0.0
        if route["rank"] != route["home"] and res.status == "completed":
            ret_bytes = _vector_bytes(route["n"])
            ret_seconds = self.network.transfer_time(ret_bytes)
        wrapped = replace(
            res, rank=route["rank"], home_rank=route["home"],
            net_seconds=route["forward_seconds"] + ret_seconds)
        self._wrapped[route_key] = wrapped
        self.events.record("router", "deliver", time=self.now,
                           ticket=ticket.id, rank=ticket.rank,
                           detail=wrapped.status)
        self.shard_metrics.record_result(
            wrapped, return_bytes=ret_bytes, return_seconds=ret_seconds)
        return wrapped

    def _result_chaos(self, origin: tuple[int, int],
                      wait: bool) -> ServiceResult | None:
        """Redeem a ticket under the fault lifecycle.

        Follows the failover redirect chain to the request's current copy,
        resolves the hedge race (earliest modeled finish wins; the loser
        is cancelled if still queued), and wraps the winner with the
        accumulated fault accounting.  Results the router itself resolved
        (exhausted retries) are returned as-is.
        """
        if wait:
            self.run()
        if origin in self._router_results:
            wrapped = self._router_results[origin]
            self._wrapped[origin] = wrapped
            self.events.record("router", "deliver", time=self.now,
                               ticket=origin[1], rank=origin[0],
                               detail=wrapped.status)
            self.shard_metrics.record_result(wrapped)
            return wrapped
        cur = self._redirects.get(origin, origin)
        rec = self._routes[cur]
        res = self.services[cur[0]]._results.get(cur[1])
        entry = self._pending_hedges.pop(origin, None)
        if res is None:
            if entry is not None:
                self._pending_hedges[origin] = entry
            return None
        hedged = False
        dup = entry.get("dup") if entry is not None else None
        if dup is not None:
            drec = self._routes[dup]
            dres = self.services[dup[0]]._results.get(dup[1])
            if dres is None:
                if self.services[dup[0]].cancel(Ticket(dup[1])):
                    self.shard_metrics.record_hedge_cancelled()
            else:
                finish = (rec["local_arrival"] + res.wait_seconds
                          + res.solve_seconds)
                dfinish = (drec["local_arrival"] + dres.wait_seconds
                           + dres.solve_seconds)
                d_ok = dres.status == "completed"
                p_ok = res.status == "completed"
                if d_ok and (not p_ok or dfinish < finish):
                    cur, rec, res = dup, drec, dres
                    hedged = True
                else:
                    self.shard_metrics.record_hedge_lost()
        return self._wrap_chaos(origin, cur, rec, res, hedged)

    def _wrap_chaos(self, origin: tuple[int, int], cur: tuple[int, int],
                    rec: dict, res: ServiceResult,
                    hedged: bool) -> ServiceResult:
        """Stamp the fault accounting onto a redeemed chaos result."""
        ret_bytes = 0
        ret_seconds = 0.0
        if cur[0] != rec["home"] and res.status == "completed":
            ret_bytes = _vector_bytes(rec["n"])
            ret_seconds = self.network.transfer_time(ret_bytes)
        hedged = hedged or bool(rec.get("hedged"))
        displaced = rec["failovers"] > 0 or hedged
        wrapped = replace(
            res, request_id=origin[1], rank=cur[0], home_rank=rec["home"],
            net_seconds=rec["net"] + ret_seconds,
            retries=rec["retries"], failovers=rec["failovers"],
            hedged=hedged,
            original_rank=rec["original_rank"] if displaced else -1)
        self._wrapped[origin] = wrapped
        self.events.record("router", "deliver", time=self.now,
                           ticket=origin[1], rank=origin[0],
                           detail=wrapped.status)
        if hedged and wrapped.status == "completed":
            self.shard_metrics.record_hedge_won()
        self.shard_metrics.record_result(
            wrapped, return_bytes=ret_bytes, return_seconds=ret_seconds)
        return wrapped

    # -- driving the fleet --------------------------------------------------
    def step(self) -> bool:
        """One worker step on each rank; False when the whole fleet idles."""
        progress = False
        for svc in self.services:
            progress |= svc.step()
        return progress

    def run(self) -> None:
        """Drive every rank's worker loop until all queues drain.

        Under a fault plan this drives the full failure lifecycle instead:
        heartbeat ticks, failover, re-warm, and hedging, until every rank
        is back up and every queue has drained.
        """
        if self._tracker is not None:
            self._finish_chaos()
            return
        while self.step():
            pass

    # -- the fault lifecycle ------------------------------------------------
    def _drain_alive(self, horizon: float) -> None:
        """``drain_until(horizon)`` on every routable rank; dead and
        rejoining ranks execute nothing."""
        for rank, rec in enumerate(self._tracker.ranks):
            if rec.routable:
                self.services[rank].drain_until(horizon)

    def _advance_to(self, horizon: float) -> None:
        """Advance the fault lifecycle through every heartbeat tick up to
        *horizon*, draining routable ranks between ticks."""
        while self._tracker.next_tick() <= horizon:
            tau = self._tracker.next_tick()
            self._drain_alive(tau)
            events = self._tracker.tick(tau)
            self._apply_transitions(events, tau)
            self._fire_hedges(tau)
            self._settle_hedges(tau)
        self._drain_alive(horizon)

    def _finish_chaos(self) -> None:
        """Tick through the rest of the plan, then drain the fleet.

        Ticks continue past the last arrival until every plan window has
        passed *and* every rank has walked back to ``up`` (bounded: after
        the plan's end every probe succeeds and each re-warm deadline is
        finite), so post-recovery work lands on the full fleet.
        """
        end = self._plan.end_time()
        while (self._tracker.next_tick() <= end
               or any(rec.state != UP for rec in self._tracker.ranks)):
            self._advance_to(self._tracker.next_tick())
        for svc in self.services:
            svc.run()

    def _apply_transitions(self, events: list[dict], tau: float) -> None:
        """React to health transitions: ring membership, failover, re-warm."""
        for ev in events:
            rank = ev["rank"]
            self.events.record("router", "health", time=tau, rank=rank,
                               detail=ev["state"])
            if ev["state"] == DOWN:
                self._on_rank_down(rank, tau)
            elif ev["state"] == REJOINING:
                self._start_rewarm(rank, tau)
            elif ev["state"] == UP and rank not in self.ring.members:
                # Re-warm done: breaker closes, the rank takes keys again.
                self.ring.add(rank)
                svc = self.services[rank]
                svc.now = max(svc.now, tau)

    def _on_rank_down(self, rank: int, tau: float) -> None:
        """A rank died: evacuate, retract, wipe its state, fail work over.

        The death instant is the start of the plan window that tripped the
        detector (the rank actually stopped there; the tracker only *sees*
        it ``down_after`` missed probes later).  Everything the rank held
        is displaced: queued requests are evacuated, and already-scheduled
        results whose modeled finish lies past the death instant are
        retracted — the clairvoyant worker had charged work the crash
        threw away.  Its hierarchy cache and shipped-operator marks are
        wiped, so a later re-forward must re-ship.
        """
        self.ring.remove(rank)
        svc = self.services[rank]
        death = max((s for s, e in self._plan.down_windows(rank)
                     if s <= tau), default=tau)
        displaced: list[tuple[tuple[int, int], str]] = []
        for old_key in sorted(k for k in self._routes if k[0] == rank):
            rec = self._routes[old_key]
            if rec.get("origin") in self._wrapped:
                continue
            res = svc._results.get(old_key[1])
            if res is None or res.status != "completed":
                # Queued (evacuated below) or already terminal: keep.
                continue
            finish = (rec.get("local_arrival", 0.0) + res.wait_seconds
                      + res.solve_seconds)
            if finish > death:
                svc.retract(old_key[1])
                displaced.append((old_key, "in_flight"))
        for req in svc.evacuate():
            displaced.append(((rank, req.id), "queued"))
        svc.cache.drop_all()
        self._shipped = {(r, f) for r, f in self._shipped if r != rank}
        svc.now = min(svc.now, death)
        for old_key, kind in displaced:
            rec = self._routes.pop(old_key)
            hedge_origin = rec.get("hedge_of")
            if hedge_origin is not None:
                # A hedge duplicate died with its rank: the primary still
                # stands, so the dup is simply cancelled, never failed over.
                entry = self._pending_hedges.get(hedge_origin)
                if entry is not None and entry.get("dup") == old_key:
                    entry["dup"] = None
                self.shard_metrics.record_hedge_cancelled()
                continue
            self.shard_metrics.record_displaced(kind)
            self._failover(
                rec, tau, cause=f"rank {rank} down at t={tau:.6g} ({kind})")

    def _failover(self, rec: dict, tau: float, cause: str) -> None:
        """Re-route one displaced request to a ring successor.

        Each attempt is charged the plan's retry-policy backoff stall plus
        the re-forward (and re-ship, if the target never saw the operator)
        through the network model; the redirect map keeps the original
        ticket redeemable.  Past the retry budget — or with an empty ring —
        the request resolves to a structured ``failed`` result (unless a
        live hedge duplicate can be promoted to take its place).
        """
        origin = rec["origin"]
        policy = self._plan.retry
        attempts = rec["retries"]
        members = self.ring.members
        if attempts >= policy.max_retries or not members:
            entry = self._pending_hedges.pop(origin, None)
            if entry is not None and entry.get("dup") is not None:
                # The hedge duplicate survives: promote it to primary.
                dup = entry["dup"]
                drec = self._routes[dup]
                drec.pop("hedge_of", None)
                drec["hedged"] = True
                drec["retries"] = rec["retries"]
                drec["failovers"] = rec["failovers"]
                self._redirects[origin] = dup
                self.events.record("router", "failover", time=tau,
                                   ticket=origin[1], rank=origin[0],
                                   detail=f"hedge promoted on rank{dup[0]}")
                return
            reason = ("no routable ranks" if not members else
                      f"retry budget exhausted after {attempts} retries")
            self._router_results[origin] = ServiceResult(
                x=None, iterations=0, residuals=[], converged=False,
                degraded=True, degraded_reason=f"failed: {cause}; {reason}",
                status="failed", request_id=origin[1],
                priority=rec["req"]["priority"], rank=-1,
                home_rank=rec["home"], retries=rec["retries"],
                failovers=rec["failovers"],
                original_rank=rec["original_rank"])
            self.shard_metrics.record_failed()
            return
        backoff = self.network.retry_penalty(
            policy.timeout, attempts, policy.backoff)
        candidates = self.ring.successors(
            rec["key"], min(self.config.replicas, len(members)))
        target = self._pick_rank(rec["key"], rec["nnz"], candidates)
        nbytes, fwd_seconds, shipped = self._ship_charge(
            target, rec["n"], rec["nnz"], rec["exact"])
        req = rec["req"]
        new_arrival = tau + backoff + fwd_seconds
        ticket = self.services[target].submit(
            req["A"], req["b"], config=req["config"], method=req["method"],
            tol=req["tol"], maxiter=req["maxiter"],
            priority=req["priority"], timeout=req["timeout"],
            arrival=new_arrival)
        new_key = (target, ticket.id)
        self._routes[new_key] = dict(
            rec, rank=target, retries=attempts + 1,
            failovers=rec["failovers"] + 1,
            net=rec["net"] + backoff + fwd_seconds,
            local_arrival=new_arrival)
        self._redirects[origin] = new_key
        self.events.record("router", "failover", time=tau,
                           ticket=origin[1], rank=origin[0],
                           detail=f"attempt {attempts + 1} to rank{target}")
        self.shard_metrics.record_failover(
            backoff_seconds=backoff, forward_bytes=nbytes,
            forward_seconds=fwd_seconds, shipped=shipped)

    def _start_rewarm(self, rank: int, tau: float) -> None:
        """A dead rank answered a probe: re-warm its cache before rejoin.

        The ``rewarm_top_k`` hottest pattern fingerprints (by routed
        traffic) that a surviving routable rank still holds are copied
        into the rejoining rank's cache — frozen hierarchies, so sharing
        the objects is safe — and the full operator bytes of every copied
        hierarchy level are charged to the interconnect as bulk state
        transfers.  The rank re-enters the ring only once the transfer
        completes (``rejoin_until``); with nothing to copy it rejoins cold
        at the next successful probe.
        """
        svc = self.services[rank]
        entries = 0
        total_bytes = 0
        seconds = 0.0
        if self.config.rewarm_top_k > 0:
            hot = sorted(self._pattern_traffic.items(),
                         key=lambda kv: (-kv[1], kv[0]))
            donors = [r for r in range(self.config.ranks)
                      if r != rank and self._tracker.ranks[r].routable]
            for pkey, _count in hot:
                if entries >= self.config.rewarm_top_k:
                    break
                for donor in donors:
                    found = self.services[donor].cache.peek_pattern(pkey)
                    if found is None:
                        continue
                    exact, hier = found
                    svc.cache.seed(exact, pkey, hier)
                    self._shipped.add((rank, exact))
                    nbytes = sum(_operator_bytes(n, nnz)
                                 for n, nnz in hier.level_sizes())
                    total_bytes += nbytes
                    seconds += self.network.state_transfer_time(nbytes)
                    entries += 1
                    break
        self._tracker.set_rejoin_until(rank, tau + seconds)
        self.events.record("router", "rewarm", time=tau, rank=rank,
                           detail=f"entries={entries}")
        self.shard_metrics.record_rewarm(
            entries=entries, nbytes=total_bytes, seconds=seconds)

    def _fire_hedges(self, tau: float) -> None:
        """Duplicate overdue interactive requests to one replica each.

        A registered request whose result is not in hand by its deadline
        (unresolved, or scheduled to finish only after this tick) gets one
        duplicate on the best-scored other ring member, charged a normal
        forward hop.  Firing happens at heartbeat ticks so the hedge
        schedule is a pure function of the (plan, workload) pair.
        """
        if self.config.hedge_delay is None:
            return
        for origin in sorted(self._pending_hedges):
            entry = self._pending_hedges[origin]
            if entry["fired"] or entry["deadline"] > tau:
                continue
            if origin in self._router_results:
                continue
            cur = self._redirects.get(origin, origin)
            rec = self._routes.get(cur)
            if rec is None:
                continue
            res = self.services[cur[0]]._results.get(cur[1])
            if res is not None:
                finish = (rec["local_arrival"] + res.wait_seconds
                          + res.solve_seconds)
                if res.status != "completed" or finish <= tau:
                    del self._pending_hedges[origin]
                    continue
            members = self.ring.members
            cands = [c for c in self.ring.successors(
                rec["key"], min(max(self.config.replicas, 2), len(members)))
                if c != cur[0]]
            if not cands:
                continue
            target = self._pick_rank(rec["key"], rec["nnz"], cands)
            nbytes, fwd_seconds, shipped = self._ship_charge(
                target, rec["n"], rec["nnz"], rec["exact"])
            req = rec["req"]
            ticket = self.services[target].submit(
                req["A"], req["b"], config=req["config"],
                method=req["method"], tol=req["tol"],
                maxiter=req["maxiter"], priority=req["priority"],
                timeout=req["timeout"], arrival=tau + fwd_seconds)
            dup = (target, ticket.id)
            self._routes[dup] = dict(
                rec, rank=target, net=fwd_seconds,
                local_arrival=tau + fwd_seconds, hedge_of=origin)
            entry.update(fired=True, dup=dup)
            self.events.record("router", "hedge", time=tau,
                               ticket=origin[1], rank=origin[0],
                               detail=f"dup on rank{target}")
            self.shard_metrics.record_hedge_issued(
                forward_bytes=nbytes, forward_seconds=fwd_seconds,
                shipped=shipped)

    def _settle_hedges(self, tau: float) -> None:
        """Cancel the losing copy of any hedge race decided by *tau*.

        The moment one copy's modeled finish has passed while the other is
        still queued, the queued loser is cancelled — its admission slot
        frees *now*, on the modeled clock, not at redemption time.  Races
        where both copies already ran are scored at redemption.
        """
        for origin in sorted(self._pending_hedges):
            entry = self._pending_hedges[origin]
            dup = entry.get("dup")
            if dup is None:
                continue
            cur = self._redirects.get(origin, origin)
            prec = self._routes.get(cur)
            pres = self.services[cur[0]]._results.get(cur[1])
            drec = self._routes.get(dup)
            dres = self.services[dup[0]]._results.get(dup[1])
            if (pres is not None and prec is not None and dres is None
                    and pres.status == "completed"
                    and prec["local_arrival"] + pres.wait_seconds
                    + pres.solve_seconds <= tau):
                self.services[dup[0]].cancel(Ticket(dup[1]))
            elif (dres is not None and drec is not None and pres is None
                    and dres.status == "completed"
                    and drec["local_arrival"] + dres.wait_seconds
                    + dres.solve_seconds <= tau):
                self.services[cur[0]].cancel(Ticket(cur[1]))

    def drain_until(self, horizon: float) -> None:
        """Run all fleet work provably unaffected by arrivals past *horizon*."""
        for svc in self.services:
            svc.drain_until(horizon)

    def run_workload(self, workload: Workload) -> list[ServiceResult]:
        """Replay a generated workload through the router, in arrival order.

        Arrivals are interleaved with draining (``drain_until`` up to each
        arrival) so the router and autoscaler observe live queue depths —
        the same depths a long-running service would see.  The clairvoyant
        batch guard makes this interleaving bit-identical to submitting
        everything up front; with ``ranks=1`` and shedding/autoscale off
        the up-front path is taken directly, which keeps the single rank's
        metrics byte-identical to a plain ``SolveService`` run.
        """
        spec = workload.spec
        if self._tracker is not None:
            # Fault lifecycle: heartbeat ticks interleave with arrivals so
            # deaths, failovers, and rejoins land between submissions at
            # their modeled times.
            tickets = []
            for item in workload.items:
                self._advance_to(item.arrival)
                tickets.append(self.submit(
                    workload.matrices[item.matrix_index], item.b,
                    method=spec.method, tol=spec.tol, maxiter=spec.maxiter,
                    priority=item.priority, timeout=spec.timeout,
                    arrival=item.arrival))
            self._finish_chaos()
            return [self.result(t, wait=False) for t in tickets]
        interleave = (self.config.ranks > 1
                      or self.config.shed_depth is not None
                      or self.config.autoscale)
        tickets = []
        for item in workload.items:
            if interleave:
                self.drain_until(item.arrival)
            tickets.append(self.submit(
                workload.matrices[item.matrix_index], item.b,
                method=spec.method, tol=spec.tol, maxiter=spec.maxiter,
                priority=item.priority, timeout=spec.timeout,
                arrival=item.arrival))
        self.run()
        return [self.result(t, wait=False) for t in tickets]

    # -- reporting ----------------------------------------------------------
    def _faults_snapshot(self) -> dict | None:
        """The ``faults`` metrics section, or ``None`` when no lifecycle
        is active (its absence keeps no-fault snapshots byte-identical)."""
        if self._tracker is None:
            return None
        return self.shard_metrics.faults_snapshot(
            self._tracker.snapshot(self.now))

    def metrics_snapshot(self) -> dict:
        """Sharded report: aggregate + locality + per-rank snapshots."""
        return self.shard_metrics.snapshot(
            per_rank=[svc.metrics_snapshot() for svc in self.services],
            virtual_seconds=self.now,
            active_ranks=len(self._active),
            replicas=self.config.replicas,
            faults=self._faults_snapshot())

    def metrics_json(self) -> str:
        """Deterministic JSON of :meth:`metrics_snapshot`."""
        return self.shard_metrics.to_json(
            per_rank=[svc.metrics_snapshot() for svc in self.services],
            virtual_seconds=self.now,
            active_ranks=len(self._active),
            replicas=self.config.replicas,
            faults=self._faults_snapshot())
