"""Layer spans for the traced benchmark run.

The program carries no real-time instrumentation of its own, so the traced
run wraps the public entry points of each layer from the outside: every
binding of a target function in a loaded ``repro`` module (or the target
method on its class) is replaced by a wrapper that records a span.  A
layer's *self time* is the duration of its spans minus the time covered
by nested spans, so time spent in, say, strength-of-connection is not
counted again in the enclosing ``build_hierarchy``.

Spans are aggregated in memory per layer (self nanoseconds and calls);
:meth:`Tracer.uninstall` restores every original binding.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

#: (layer, module, attribute) — ``Class.method`` attributes patch the class.
#: Recursive per-level helpers (``vcycle``) and per-kernel hot calls
#: (``count``, SpMV) are deliberately not wrapped: their spans would cost
#: more than the work they time.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("api", "repro.api", "SolverHandle.__init__"),
    ("api", "repro.api", "SolverHandle.update"),
    ("api", "repro.api", "SolverHandle.solve"),
    ("api", "repro.api", "SolverHandle.solve_many"),
    ("amg.cache", "repro.amg.cache", "HierarchyCache.get_or_build"),
    ("amg.cache", "repro.amg.cache", "fingerprint"),
    ("amg.setup", "repro.amg.setup", "build_hierarchy"),
    ("amg.strength", "repro.amg.strength", "strength_matrix"),
    ("amg.pmis", "repro.amg.pmis", "pmis"),
    ("amg.pmis", "repro.amg.pmis", "aggressive_pmis"),
    ("amg.interp", "repro.amg.interp_extended", "extended_i_interpolation"),
    ("amg.interp", "repro.amg.interp_extended", "extended_i_numeric"),
    ("amg.interp", "repro.amg.interp_classical", "classical_interpolation"),
    ("amg.interp", "repro.amg.interp_classical", "classical_numeric"),
    ("amg.interp", "repro.amg.interp_direct", "direct_interpolation"),
    ("amg.interp", "repro.amg.interp_direct", "direct_numeric"),
    ("amg.interp", "repro.amg.interp_multipass", "multipass_interpolation"),
    ("amg.interp", "repro.amg.interp_twostage", "two_stage_extended_i"),
    ("amg.interp", "repro.amg.truncation", "truncate_interpolation"),
    ("sparse.triple_product", "repro.sparse.triple_product", "rap_unfused"),
    ("sparse.triple_product", "repro.sparse.triple_product", "rap_fused"),
    ("sparse.triple_product", "repro.sparse.triple_product", "rap_fused_plan"),
    ("sparse.triple_product", "repro.sparse.triple_product", "rap_fused_numeric"),
    ("sparse.triple_product", "repro.sparse.triple_product", "rap_hypre_fusion"),
    ("sparse.triple_product", "repro.sparse.triple_product", "rap_cf_block"),
    ("sparse.triple_product", "repro.sparse.triple_product", "rap_cf_block_plan"),
    ("sparse.triple_product", "repro.sparse.triple_product",
     "rap_cf_block_numeric"),
    ("amg.coarse.setup", "repro.amg.coarse", "CoarseSolver.__init__"),
    ("amg.coarse.solve", "repro.amg.coarse", "CoarseSolver.solve"),
    ("amg.coarse.solve", "repro.amg.coarse", "CoarseSolver.solve_multi"),
    ("amg.solveplan.compile", "repro.amg.solveplan", "attach_solve_plan"),
    ("amg.solveplan.compile", "repro.amg.solveplan", "refresh_plans"),
    ("amg.resetup", "repro.amg.resetup", "refresh_hierarchy"),
    ("amg.smoothers", "repro.amg.smoothers", "HybridGSSmoother.presmooth"),
    ("amg.smoothers", "repro.amg.smoothers", "HybridGSSmoother.postsmooth"),
    ("amg.smoothers", "repro.amg.smoothers", "HybridGSSmoother.presmooth_multi"),
    ("amg.smoothers", "repro.amg.smoothers",
     "HybridGSSmoother.postsmooth_multi"),
    ("amg.cycle", "repro.amg.cycle", "cycle"),
    ("amg.cycle", "repro.amg.cycle", "cycle_multi"),
    ("krylov", "repro.krylov.cg", "pcg"),
    ("krylov", "repro.krylov.cg", "pcg_multi"),
    ("krylov", "repro.krylov.gmres", "fgmres"),
    ("krylov", "repro.krylov.gmres", "fgmres_multi"),
    ("serve", "repro.serve.service", "SolveService.submit"),
    ("serve", "repro.serve.service", "SolveService.step"),
    ("dist.setup", "repro.dist.setup", "dist_build_hierarchy"),
    ("dist.halo", "repro.dist.halo", "HaloExchange.__call__"),
    ("dist.solve", "repro.dist.solver", "dist_fgmres"),
    ("dist.solve", "repro.dist.solver", "dist_vcycle"),
    ("topo", "repro.topo.plan", "build_node_plan"),
    ("perf", "repro.perf.machine", "MachineModel.log_time"),
    ("perf", "repro.perf.machine", "MachineModel.phase_times"),
)

LAYERS: tuple[str, ...] = tuple(dict.fromkeys(layer for layer, _, _ in TARGETS))


class Tracer:
    """Installs span wrappers and accumulates per-layer self time."""

    def __init__(self) -> None:
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        #: One child-time accumulator per open span.
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._paused = False

    def reset(self) -> None:
        self.self_ns.clear()
        self.calls.clear()

    @contextmanager
    def paused(self):
        """Call through without recording (the benchmark's own bookkeeping)."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def _wrap(self, layer: str, fn):
        clock = time.perf_counter_ns
        open_spans = self._open

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            open_spans.append(0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self.self_ns[layer] += dt - open_spans.pop()
                self.calls[layer] += 1
                if open_spans:
                    open_spans[-1] += dt

        return span

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for layer, modname, attr in TARGETS:
            mod = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._patches.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(layer, orig))
                continue
            orig = getattr(mod, attr)
            wrapped = self._wrap(layer, orig)
            # Rebind every ``from .x import f`` copy, not just the home one.
            for name, m in list(sys.modules.items()):
                if not (name == "repro" or name.startswith("repro.")):
                    continue
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._patches.append((m, key, orig))
                        setattr(m, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()

    def snapshot(self) -> dict[str, tuple[float, int]]:
        """(self seconds, spans) per layer since the last :meth:`reset`."""
        return {layer: (self.self_ns.get(layer, 0) / 1e9, self.calls.get(layer, 0))
                for layer in LAYERS}
