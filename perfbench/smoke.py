"""Smoke test of the benchmark at a tiny size: every workload, timed and traced paths.

Usage: python3 perfbench/smoke.py

For each workload it builds the plan of the two cheapest strata twice for
one seed and once for another, and checks that the same seed gives the same
inputs and another seed a different order.  It then sends one round through
the timed path and twice through the traced path, checking every answer, and
requires the per-layer counts of the two traced passes to be identical.
Exits non-zero on the first failure.
"""

from __future__ import annotations

import sys

import workloads as wl
from run import timed_run, traced_run

# Cheap strata only: the smoke test should take seconds, not minutes.
TINY_STRATA = 2


def inputs(plan) -> list[str]:
    return [item.text for rnd in plan.rounds for item in rnd] + [item.text for item in plan.probes]


def fail(message: str) -> None:
    print(f"smoke: {message}", file=sys.stderr)
    sys.exit(1)


def main() -> int:
    pkg = wl.import_package()
    for workload in wl.WORKLOADS:
        pool = wl.load_pool(workload)
        pool = {**pool, "strata": pool["strata"][:TINY_STRATA]}
        plans = [wl.build_plan(pkg, workload, seed, pool) for seed in (7, 7, 8)]
        if inputs(plans[0]) != inputs(plans[1]):
            fail(f"{workload}: seed 7 gave different inputs on a second generation")
        if inputs(plans[0]) == inputs(plans[2]):
            fail(f"{workload}: seeds 7 and 8 gave the same inputs in the same order")
        plan = plans[0]
        timed_run(plan, 0.0, [0.0])
        counts = []
        for _ in range(2):
            metrics = traced_run(pkg, plan, 0.0, workload, 7)["metrics"]
            counts.append({k: m["value"] for k, m in metrics.items() if m["unit"] == "count"})
        if counts[0] != counts[1]:
            diff = {k: (v, counts[1][k]) for k, v in counts[0].items() if counts[1][k] != v}
            fail(f"{workload}: per-layer counts differ between two traced passes: {diff}")
        print(f"smoke: {workload} ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
