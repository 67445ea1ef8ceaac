"""One benchmark for both clocks: real wall-clock and modeled time.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload table2-cold --seed 1 --seconds 10 --trace 0

Runs the named workload (see ``perfbench/README.md``) for ``--seconds``
seconds of whole rounds, checks every solution against a true-residual
oracle, prints a table of metrics with units and sample counts, and ends
with one JSON line ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics, from alternating untraced and traced rounds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from contextlib import nullcontext
from pathlib import Path
from statistics import fmean, median

# BLAS stays single-threaded (within nproc, and steadier), and the program
# runs with its defaults: no sanitizer level, plan or scale overrides.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
for _var in [v for v in os.environ if v.startswith("REPRO_")]:
    del os.environ[_var]

import numpy as np  # noqa: E402  (after the BLAS thread setting)

from tracing import LAYERS, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

#: (name, unit) of every end-to-end metric, in report order.
END_TO_END = (
    ("setup_s", "s"), ("solve_s", "s"), ("refresh_s", "s"),
    ("serve_rps", "1/s"), ("dist_setup_s", "s"), ("dist_solve_s", "s"),
    ("model_setup_s", "s"), ("model_solve_s", "s"), ("model_refresh_s", "s"),
    ("serve_latency_p50_s", "s"), ("serve_latency_p90_s", "s"),
    ("model_dist_setup_s", "s"), ("model_dist_solve_s", "s"),
    ("tol_met_frac", "frac"),
)

#: Wall-clock samples behind each wall metric.
WALL_SAMPLES = {"setup_s": "setup", "solve_s": "solve", "refresh_s": "refresh",
                "serve_rps": "serve", "dist_setup_s": "dist_setup",
                "dist_solve_s": "dist_solve"}

DIST_KEYS = ("model_compute_s", "model_comm_s", "compute_imbalance",
             "halo_msgs", "halo_bytes", "internode_msgs", "internode_bytes",
             "node_aware_levels", "iterations")
DIST_UNITS = {"model_compute_s": "s", "model_comm_s": "s",
              "compute_imbalance": "ratio", "halo_bytes": "B",
              "internode_bytes": "B", "node_aware_levels": "count",
              "iterations": "count", "halo_msgs": "count",
              "internode_msgs": "count"}


def _per_layer_spec():
    def self_name(layer):
        # "amg.coarse.setup" -> "amg.coarse.setup_self_s", "api" -> "api.self_s"
        return layer + ("_self_s" if layer.count(".") == 2 else ".self_s")

    spec = [(self_name(layer), "s") for layer in LAYERS]
    spec.append(("trace.overhead_frac", "frac"))
    spec += [(f"model.{b}", "s") for b in (
        "strength_coarsen_s", "interp_s", "rap_s", "setup_etc_s", "resetup_s",
        "gs_s", "spmv_s", "blas1_s", "solve_etc_s")]
    spec += [("setup.flops", "flop"), ("setup.bytes", "B"),
             ("solve.flops", "flop"), ("solve.bytes", "B"),
             ("solve.flop_per_byte", "flop/B"),
             ("perf.records_per_solve", "count"),
             ("krylov.iterations", "count"), ("amg.levels", "count"),
             ("amg.operator_complexity", "ratio"),
             ("resetup.fast_path_frac", "frac"),
             ("serve.batch_rhs_mean", "count"), ("serve.exact_hit_frac", "frac"),
             ("serve.refresh_frac", "frac"), ("serve.cold_frac", "frac"),
             ("serve.waited_frac", "frac"), ("serve.model_solve_p50_s", "s"),
             ("serve.rejected_frac", "frac")]
    spec += [(f"dist.{k}", DIST_UNITS[k]) for k in DIST_KEYS]
    spec.append(("fail.claimed_converged", "count"))
    return tuple(spec), {self_name(layer): layer for layer in LAYERS}


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def percentile(values, q: float) -> float:
    return float(np.percentile(values, q))


def tail_percentile(n: int) -> float | None:
    """Highest of p90/p99/p99.9 with at least ten samples beyond it."""
    best = None
    for q in (90.0, 99.0, 99.9):
        if n * (1.0 - q / 100.0) >= 10:
            best = q
    return best


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def host_metadata() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": os.environ["OMP_NUM_THREADS"],
    }


def measure(scn, seconds: float, observer, tracer=None) -> list:
    """Whole rounds for about *seconds* (at least one).

    With a *tracer*, rounds alternate untraced and traced (ending on a
    traced one), so a slow spell of a shared host falls on both alike.
    """
    from scenarios import clock, run_round

    rounds = []
    t_end = clock() + seconds
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        try:
            rnd = run_round(scn, observer,
                            tracer.paused if traced else nullcontext)
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            rnd.layers = tracer.snapshot()
        rounds.append(rnd)
        # Start another round only if it would end less than half a round
        # past the deadline.
        if (clock() + rnd.total_wall / 2 >= t_end
                and (tracer is None or traced)):
            return rounds


#: Seconds :func:`scenarios.host_probe` takes on a 2-core Intel Xeon host
#: with no other load (Python 3.11, numpy 2.4).  Wall timings are reported
#: at that host speed: each is scaled by this over the median of the
#: probes timed around it, so a slow spell of a shared host, which slows
#: the probe alike, drops out.
PROBE_NOMINAL_S = 5.0e-3
#: Probes on each side of a wall sample that give the host speed there.
PROBE_WINDOW = 3


def speed_factor(rnd, at: int | None = None) -> float:
    """From wall seconds to seconds at the nominal host speed: around
    probe *at* of round *rnd*, or over the whole round."""
    probes = (rnd.probes if at is None else
              rnd.probes[max(0, at - PROBE_WINDOW):at + PROBE_WINDOW + 1])
    return PROBE_NOMINAL_S / median(probes)


def _per_op(rounds, key: str, scale: bool) -> dict:
    """Wall samples of *key* per operation (the same work on the same
    input, repeated across reps and rounds)."""
    per_op = {}
    for r in rounds:
        for op, dt, at in r.wall[key]:
            per_op.setdefault(op, []).append(
                dt * speed_factor(r, at) if scale else dt)
    return per_op


def end_to_end(rounds) -> tuple[dict, dict]:
    """Metric values plus, for wall timings, the tail line printed beside them."""
    first = rounds[0]
    vals, notes = {}, {}
    for name, key in WALL_SAMPLES.items():
        scaled, unscaled = (_per_op(rounds, key, scale) for scale in (True, False))
        if name == "serve_rps":
            # A stream's completed requests over the sum of its chunks'
            # medians.
            done = len(first.serve["latency"])
            vals[name], raw = (done / sum(map(median, v.values()))
                               for v in (scaled, unscaled))
        else:
            # The median over distinct operations of each one's median:
            # every input weighs alike, however many times a stage
            # repeats it.
            vals[name], raw = (median(map(median, v.values()))
                               for v in (scaled, unscaled))
        xs = [dt for v in scaled.values() for dt in v]
        q = tail_percentile(len(xs))
        notes[name] = (f"{len(scaled)} ops, n={len(xs)}, unscaled {raw:.6g}"
                       + (f", p{q:g}={percentile(xs, q):.6g}" if q else ""))
    vals["model_setup_s"] = fmean(l.model_s for l in first.setup_costs)
    vals["model_solve_s"] = fmean(l.model_s for l in first.solve_costs)
    vals["model_refresh_s"] = fmean(l.model_s for l in first.refresh_costs)
    lat = first.serve["latency"]
    vals["serve_latency_p50_s"] = percentile(lat, 50)
    vals["serve_latency_p90_s"] = percentile(lat, 90)
    q = tail_percentile(len(lat))
    notes["serve_latency_p90_s"] = (f"n={len(lat)}" + (
        f" p{q:g}={percentile(lat, q):.6g}" if q is not None else
        " (fewer than 10 beyond p90)"))
    vals["model_dist_setup_s"] = first.dist["model_setup_s"]
    vals["model_dist_solve_s"] = first.dist["model_solve_s"]
    solves = [s for r in rounds for s in r.solves]
    met = sum(1 for s in solves if s.completed and s.relres <= s.tol)
    vals["tol_met_frac"] = met / len(solves)
    notes["tol_met_frac"] = f"{len(solves) - met} of {len(solves)} solves missed tol"
    return vals, notes


def per_layer(untraced, traced, self_names) -> tuple[dict, dict]:
    """Per-layer metric values plus the span count printed beside self times."""
    from scenarios import SETUP_BUCKETS, SOLVE_BUCKETS

    first = untraced[0]
    vals, notes = {}, {}
    for name, layer in self_names.items():
        vals[name] = median(r.layers[layer][0] * speed_factor(r) for r in traced)
        notes[name] = f"spans/round={median(r.layers[layer][1] for r in traced):g}"
    base = median(r.total_wall * speed_factor(r) for r in untraced)
    vals["trace.overhead_frac"] = (
        median(r.total_wall * speed_factor(r) for r in traced) - base) / base

    for b, key in zip(SETUP_BUCKETS, ("strength_coarsen_s", "interp_s", "rap_s",
                                      "setup_etc_s")):
        vals[f"model.{key}"] = fmean(l.bucket(b) for l in first.setup_costs)
    vals["model.resetup_s"] = fmean(l.bucket("Resetup") for l in first.refresh_costs)
    for b, key in zip(SOLVE_BUCKETS, ("gs_s", "spmv_s", "blas1_s", "solve_etc_s")):
        vals[f"model.{key}"] = fmean(l.bucket(b) for l in first.solve_costs)

    def traffic(logs):
        return (fmean(l.flops for l in logs),
                fmean(l.bytes_read + l.bytes_written for l in logs))

    vals["setup.flops"], vals["setup.bytes"] = traffic(first.setup_costs)
    vals["solve.flops"], vals["solve.bytes"] = traffic(first.solve_costs)
    vals["solve.flop_per_byte"] = vals["solve.flops"] / vals["solve.bytes"]
    vals["perf.records_per_solve"] = fmean(l.records for l in first.solve_costs)
    vals["krylov.iterations"] = fmean(first.iterations)
    vals["amg.levels"] = fmean(first.levels)
    vals["amg.operator_complexity"] = fmean(first.op_complexity)
    vals["resetup.fast_path_frac"] = (
        1.0 - first.refresh_fallbacks / first.refresh_attempts)

    sv = first.serve
    for key in ("batch_rhs_mean", "exact_hit_frac", "refresh_frac", "cold_frac"):
        vals[f"serve.{key}"] = sv[key]
    vals["serve.waited_frac"] = sum(1 for w in sv["wait"] if w > 0) / len(sv["wait"])
    vals["serve.model_solve_p50_s"] = percentile(sv["solve"], 50)
    vals["serve.rejected_frac"] = sv["rejected"] / sv["requests"]
    for key in DIST_KEYS:
        vals[f"dist.{key}"] = first.dist[key]
    return vals, notes


def check(rounds) -> dict:
    """Outcome counts and failed invariants over every measured round."""
    solves = [s for r in rounds for s in r.solves]
    claimed = sum(1 for s in solves
                  if s.completed and s.converged and s.relres > s.tol)
    out = {
        "attempted": sum(r.operations for r in rounds),
        "failed": claimed + sum(1 for s in solves if not s.completed),
        "claimed": claimed,
        "missed": sum(1 for s in solves
                      if not (s.completed and s.relres <= s.tol)),
        "solves": len(solves),
        "problems": [],
    }
    if claimed:
        out["problems"].append(
            f"{claimed} solves claimed convergence but missed tol")
    sig = rounds[0].signature()
    for i, r in enumerate(rounds[1:], 1):
        if r.signature() != sig:
            out["problems"].append(
                f"round {i} modeled counts differ from round 0"
                + (" (traced round)" if r.layers else ""))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("table2-cold", "timestep-drift", "serve-mix",
                             "dist-nodeaware"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for the self-test")
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        print(f"error: imported repro from {repro.__file__}, not {src}",
              file=sys.stderr)
        return 2

    import scenarios
    from scenarios import run_round

    scn = scenarios.build(args.workload, args.seed, smoke=args.smoke)
    observer = scenarios.RefreshObserver().attach()
    print(f"host: {json.dumps(host_metadata(), sort_keys=True)}")
    print(f"workload: {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")

    # Warm the code paths (imports, first-call allocations) on the smoke
    # inputs of the same workload, so the first measured round is not an
    # outlier.
    run_round(scenarios.build(args.workload, args.seed, smoke=True), observer)

    if args.trace == 0:
        rounds = measure(scn, args.seconds, observer)
        spec = END_TO_END
        vals, notes = end_to_end(rounds)
    else:
        spec, self_names = _per_layer_spec()
        rounds = measure(scn, args.seconds, observer, Tracer())
        vals, notes = per_layer([r for r in rounds if not r.layers],
                                [r for r in rounds if r.layers], self_names)

    outcome = check(rounds)
    if args.trace == 1:
        vals["fail.claimed_converged"] = outcome["claimed"]

    print(f"rounds: {len(rounds)}  round wall s: "
          + " ".join(f"{r.total_wall:.3f}" for r in rounds))
    print("host speed (nominal / measured probe) per round: "
          + " ".join(f"{speed_factor(r):.3f}" for r in rounds))
    print(f"{'metric':32s} {'value':>14s}  unit    samples")
    for name, unit in spec:
        print(f"{name:32s} {vals[name]:14.6g}  {unit:7s} {notes.get(name, '')}")
    print(f"fail_frac: {outcome['missed'] / outcome['solves']:.4f} "
          f"({outcome['missed']} of {outcome['solves']} solves above tol by the "
          f"true residual); fail.claimed_converged: {outcome['claimed']}")
    for p in outcome["problems"]:
        print(f"CHECK FAILED: {p}")

    result = {
        "correct": not outcome["problems"] and outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": vals[name], "unit": unit}
                    for name, unit in spec},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
