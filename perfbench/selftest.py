"""Smoke-sized self-test of the benchmark.

Runs every workload of ``BENCHMARK.json`` on smoke-sized inputs, untraced
and traced, and checks that each run exits cleanly, passes its own
correctness check, and prints exactly the metric names and units that
``BENCHMARK.json`` declares, with finite values.  Run from anywhere::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: [(m["name"], m["unit"]) for m in spec["end_to_end"]],
            1: [(m["name"], m["unit"]) for m in spec["per_layer"]]}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", "0", "--seconds", "0", "--trace", str(trace),
                   "--smoke"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=600)
            where = f"{workload} --trace {trace}"
            before = len(problems)
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            got = [(name, m["unit"]) for name, m in result["metrics"].items()]
            if got != want[trace]:
                missing = sorted(set(want[trace]) - set(got))
                extra = sorted(set(got) - set(want[trace]))
                problems.append(f"{where}: metric names differ from BENCHMARK.json"
                                f" (missing {missing}, extra {extra})")
            bad = [name for name, m in result["metrics"].items()
                   if not isinstance(m["value"], (int, float))
                   or not math.isfinite(m["value"])]
            if bad:
                problems.append(f"{where}: non-finite values {bad}")
            if not result["correct"] or result["attempted"] < 1:
                problems.append(f"{where}: correct={result['correct']} "
                                f"attempted={result['attempted']}")
            print(f"{'ok' if len(problems) == before else 'FAILED'} {where}", flush=True)
    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
