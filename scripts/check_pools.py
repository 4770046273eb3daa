"""Check every recorded benchmark input against its answer gate.

Sends each stratum entry and each recorded failure of the benchmark pools
(``perfbench/pool/``) to the package in this checkout's ``src`` and checks
the outcome with the benchmark's own gate (``perfbench/workloads.py``):
multiply-back, planted pair, chain count, recorded answer digest or cap stop.
Stops with exit 1 at the first wrong or lost answer.  Per workload it prints
how many of the recorded failures (cap stops) now answer and how many still
stop, and how many pivot attempts (``factoring._attempt_pivot`` calls) the
pool made; CI diffs the whole output against ``tests/golden/check_pools.txt``,
so a change that runs more attempts shows there although CI cannot time it.

Usage: python scripts/check_pools.py [WORKLOAD ...]   (default: all three)
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads as wl


def main(names: list[str]) -> int:
    pkg = wl.import_package()
    attempt = pkg.factoring._attempt_pivot
    attempts = 0

    def counted(*args):
        nonlocal attempts
        attempts += 1
        return attempt(*args)

    pkg.factoring._attempt_pivot = counted
    for workload in names or wl.WORKLOADS:
        attempts = 0
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
        print(f"{workload}: {attempts} pivot attempts")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
