"""Check every recorded benchmark input against its answer gate.

Sends each stratum entry and each recorded failure of the benchmark pools
(``perfbench/pool/``) to the package in this checkout's ``src`` and checks
the outcome with the benchmark's own gate (``perfbench/workloads.py``):
multiply-back, planted pair, chain count, recorded answer digest or cap stop.
Stops with exit 1 at the first wrong or lost answer.  Per workload it prints
how many of the recorded failures (cap stops) now answer and how many still
stop, and how many splits were tried, pivot attempts, recovery steps,
recovery steps that eliminate, solver calls and left divisions
(``factoring._factor_split``, ``_attempt_pivot``, ``_solve_step``,
``_eliminate``, ``enumerate_solutions`` and ``left_divide`` calls) the pool
made; CI diffs
the whole output against ``tests/golden/check_pools.txt``, so a change that
runs more of them shows there although CI cannot time it.

Usage: python scripts/check_pools.py [WORKLOAD ...]   (default: all three)
"""

import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads as wl

# the counted functions of ``factoring`` and what their calls are
COUNTED = {
    "_factor_split": "splits tried",
    "_attempt_pivot": "pivot attempts",
    "_solve_step": "recovery steps",
    "_eliminate": "recovery steps eliminate",
    "enumerate_solutions": "enumerate_solutions calls",
    "left_divide": "left divisions",
}


def main(names: list[str]) -> int:
    pkg = wl.import_package()
    counts = Counter()

    def counting(name, fn):
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    for name in COUNTED:
        setattr(pkg.factoring, name, counting(name, getattr(pkg.factoring, name)))
    for workload in names or wl.WORKLOADS:
        counts.clear()
        pool = wl.load_pool(workload)
        failures = pool["failures"]
        entries = [e for stratum in pool["strata"] for e in stratum] + failures
        statuses = []
        for entry in entries:
            item = wl.make_item(pkg, workload, entry)
            try:
                statuses.append(item.check(item.call()))
            except wl.GateError as exc:
                print(f"{workload}: {exc}", file=sys.stderr)
                return 1
        stopped = statuses[len(entries) - len(failures):].count("stopped as recorded")
        print(f"{workload}: {len(entries)} inputs pass the gate; of {len(failures)} recorded "
              f"failures, {len(failures) - stopped} now answer and {stopped} still stop")
        for name, what in COUNTED.items():
            print(f"{workload}: {counts[name]} {what}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
