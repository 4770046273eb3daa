"""ncfactor benchmark: one closed-loop caller, seeded inputs, checked answers.

Usage:
    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads (see README.md for why each exists):
    chains       library factor_completely on y*prod(x*y - r_i), k = 3, 4, F_5 and F_7
    products-fp  cli.run on seeded (3,4) products over F_101, plus recorded cap stops
    perturbed    cli.run on F_2 planted products with one random monomial added

One process, one thread: each input is sent only after the previous answer
returned.  A run sends a fixed number of rounds of inputs, as many as the
pool's recorded baseline costs put at --seconds.  With --trace 0 it reports
the end-to-end metrics, every time scaled to a reference host speed (see
``HostSpeed``).  With --trace 1 it sends half as many rounds once untraced and
once traced, and reports the per-layer metrics.  Every answer is checked; a
wrong or lost answer exits non-zero without a result.  The last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import random
import resource
import signal
import statistics
import sys
import time
import traceback

import workloads as wl
from spans import LAYERS, Tracer

SETUPS = 3
OUT_DIR = wl.HERE / "out"
# Time outside spans and answer checks (loop bookkeeping) must stay below
# this share of a traced pass.  Every input runs inside a root span (cli.run
# or factor_completely), so this catches a root wrapper that is missing or
# time spent outside the package call; time in an unwrapped inner function
# shows up as its parent's self time instead.
UNACCOUNTED_MAX = 0.02

# Host-speed scaling.  On a shared VM the speed of this process swings by up
# to 40 %, from one second to the next as well as over minutes, and CPU time
# swings as much as wall time.  A fixed pure-Python kernel (no package code)
# slows down in step, so it is timed every TICK_S of wall time and every
# end-to-end time is multiplied by the mean host speed over it: REF_KERNEL_S
# / kernel time.  Times then read as on the reference host at the speed
# where the kernel takes REF_KERNEL_S.
REF_KERNEL_S = 0.5e-3
TICK_S = 0.025
STRETCH_S = 0.5  # inputs are scaled by the mean speed over stretches this long
KERNEL_P = 7
_rng = random.Random(0)
KERNEL_ROWS = [[_rng.randrange(KERNEL_P) for _ in range(6)] for _ in range(4)]


def kernel() -> int:
    """Evaluate fixed candidate rows at six points mod 7, for every coefficient vector.

    Small-integer arithmetic, tuples and list indexing, as in the package's
    trial-division and enumeration loops.  Of the kernels tried, this one
    tracked the workloads' own speed swings best (slope 0.91-1.02 in
    log-log against a fixed cycle of each workload's inputs).
    """
    first, *others = KERNEL_ROWS
    hits = 0
    for coeffs in itertools.product(range(KERNEL_P), repeat=len(others)):
        rows = list(zip(others, coeffs))
        for i in range(len(first)):
            total = first[i]
            for row, c in rows:
                total += row[i] * c
            if total % KERNEL_P == 0:
                hits += 1
                break
    return hits


class HostSpeed:
    """Samples the host's speed from SIGALRM while active (``with HostSpeed() as host``).

    ``spent`` is the wall time the samples took; ``timed`` takes it out of
    the time of the call the samples interrupted.
    """

    def __init__(self):
        self.speeds: list[float] = []
        self.spent = 0.0

    def _tick(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        enabled = gc.isenabled()
        gc.disable()  # a collection of the run's heap is not the kernel's time
        kernel()
        t1 = time.perf_counter()
        if enabled:
            gc.enable()
        self.speeds.append(REF_KERNEL_S / (t1 - t0))
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self._tick()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def timed(self, fn):
        """Call ``fn``; returns its result and its wall seconds without samples."""
        spent, t0 = self.spent, time.perf_counter()
        out = fn()
        return out, time.perf_counter() - t0 - (self.spent - spent)

    def mark(self) -> int:
        return len(self.speeds)

    def speed_since(self, mark: int) -> float:
        """Mean speed of the samples since ``mark`` (the last one if there are none)."""
        return statistics.fmean(self.speeds[mark:] or self.speeds[-1:])


def setup(workload: str, seed: int):
    """Import the package, generate the run's inputs from the seed, warm up."""
    pkg = wl.import_package()
    plan = wl.build_plan(pkg, workload, seed, wl.load_pool(workload))
    warm = plan.rounds[0][0]
    warm.check(warm.call())
    return pkg, plan


def timed_setups(workload: str, seed: int, host: HostSpeed):
    """Set up SETUPS times; returns the last (pkg, plan) and the scaled durations.

    Each earlier set-up is dropped before the next starts, so the peak RSS
    holds one plan, as a single set-up would.
    """
    durations = []
    for _ in range(SETUPS):
        pkg = plan = None
        mark = host.mark()
        (pkg, plan), seconds = host.timed(lambda: setup(workload, seed))
        durations.append(seconds * host.speed_since(mark))
    return pkg, plan, durations


def rounds_for(plan, seconds: float) -> int:
    """How many rounds the recorded baseline costs put at ``seconds`` (at least one)."""
    n, work_ms = 0, 0.0
    while n == 0 or work_ms + plan.round_ms[n % len(plan.round_ms)] / 2 < seconds * 1e3:
        work_ms += plan.round_ms[n % len(plan.round_ms)]
        n += 1
    return n


def plan_items(plan, n_rounds: int) -> list:
    return [item for r in range(n_rounds) for item in plan.rounds[r % len(plan.rounds)]]


def send(items, tracer=None):
    """Send each item once, checking answers; returns (latencies, outcomes, gate seconds)."""
    latencies, statuses, gate_s = [], [], 0.0
    for item in items:
        if tracer is not None:
            tracer.input_id = item.key
        t0 = time.perf_counter()
        outcome = item.call()
        t1 = time.perf_counter()
        statuses.append(item.check(outcome))
        gate_s += time.perf_counter() - t1
        latencies.append(t1 - t0)
    return latencies, statuses, gate_s


def send_scaled(items, host: HostSpeed) -> tuple[list[float], float]:
    """Send items, checking answers; returns latencies at reference speed and raw seconds."""
    scaled, stretch, raw, mark = [], [], 0.0, host.mark()
    for i, item in enumerate(items):
        outcome, seconds = host.timed(item.call)
        item.check(outcome)
        stretch.append(seconds)
        if sum(stretch) >= STRETCH_S or i == len(items) - 1:
            speed = host.speed_since(mark)
            scaled += [t * speed for t in stretch]
            raw += sum(stretch)
            stretch, mark = [], host.mark()
    return scaled, raw


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def report_probes(plan, statuses) -> None:
    for item, status in zip(plan.probes, statuses):
        print(f"probe {item.key}: {status}")


def timed_run(plan, seconds: float, setups: list[float]) -> dict:
    n_rounds = rounds_for(plan, seconds)
    start = time.perf_counter()
    with HostSpeed() as host:
        latencies, raw_s = send_scaled(plan_items(plan, n_rounds), host)
    wall = time.perf_counter() - start
    _, statuses, _ = send(plan.probes)
    n = len(latencies)
    busy = sum(latencies)
    stopped = statuses.count("stopped as recorded")
    print(f"closed loop, 1 caller: {n_rounds} rounds, {n} inputs, {raw_s:.2f} s of calls "
          f"in {wall:.2f} s wall; {busy:.2f} s at reference speed "
          f"(host at {busy / raw_s:.2f}x the reference speed)")
    print(f"failed_ratio 0/{n}: every timed input answered (a failure stops the run)")
    if plan.probes:
        print(f"recorded failures re-checked: {stopped}/{len(plan.probes)} still stop at their cap")
        report_probes(plan, statuses)
    print("set-ups at reference speed: " + ", ".join(f"{s:.4f} s" for s in setups))
    metrics = {
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} set-ups"),
        "solved_per_s": (n / busy, "1/s", f"n={n}"),
        "latency_p50_ms": (percentile(latencies, 50) * 1e3, "ms", f"n={n}"),
        "latency_p90_ms": (percentile(latencies, 90) * 1e3, "ms", f"n={n}"),
        "peak_rss_mib": (peak_rss_mib(), "MiB", "whole process"),
    }
    for name, (value, unit, note) in metrics.items():
        print(f"{name:<16} {value:12.4f} {unit:<4} ({note})")
    return {"attempted": n, "failed": 0,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}}


def traced_run(pkg, plan, seconds: float, workload: str, seed: int) -> dict:
    # Half the rounds of a timed run, sent twice: per-layer counts repeat
    # exactly for a seed.
    n_rounds = rounds_for(plan, seconds / 2)
    items = plan_items(plan, n_rounds) + plan.probes

    untraced, _, _ = send(items)
    tracer = Tracer(pkg)
    tracer.install()
    try:
        start = time.perf_counter()
        traced, statuses, gate_s = send(items, tracer)
        elapsed = time.perf_counter() - start
    finally:
        tracer.uninstall()
    tracer.write(OUT_DIR / f"trace-{workload}-seed{seed}.json")

    self_s = tracer.self_times()
    spans_s = sum(self_s.values())
    unaccounted = elapsed - spans_s - gate_s
    if abs(unaccounted) > UNACCOUNTED_MAX * elapsed:
        raise wl.GateError(
            f"trace accounts for {spans_s + gate_s:.3f} s of {elapsed:.3f} s traced wall time"
        )
    metrics = tracer.metrics()
    metrics["bench.self_s"] = (elapsed - spans_s, "s")
    metrics["trace.overhead_ratio"] = (sum(traced) / sum(untraced), "ratio")

    print(f"traced {len(items)} inputs ({n_rounds} rounds + {len(plan.probes)} probes): "
          f"{len(tracer.spans)} spans, {elapsed:.2f} s traced, {sum(untraced):.2f} s untraced")
    print(f"layer self time + benchmark time = {spans_s + gate_s:.3f} s of {elapsed:.3f} s")
    report_probes(plan, statuses[len(items) - len(plan.probes):])
    for layer in sorted(LAYERS, key=lambda name: -self_s[name]):
        print(f"  {layer:<22} {self_s[layer]:9.4f} s  {self_s[layer] / spans_s:6.1%} of span time")
    admit = metrics["factoring.filter.admit_ratio"][0]
    print(f"design check: largest layer {max(LAYERS, key=self_s.get)}, filter "
          f"{self_s['factoring.filter'] / spans_s:.1%} of span time, admit_ratio {admit:.3f}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<40} {value:14.6g} {unit}")
    return {"attempted": len(items), "failed": 0,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        with HostSpeed() as host:
            pkg, plan, setups = timed_setups(args.workload, args.seed, host)
    except (FileNotFoundError, ImportError) as e:
        print(f"error: cannot load ncfactor: {e}", file=sys.stderr)
        return 2
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}")
    try:
        if args.trace:
            result = traced_run(pkg, plan, args.seconds, args.workload, args.seed)
        else:
            result = timed_run(plan, args.seconds, setups)
    except wl.GateError as e:
        print(f"check failed: {e}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        print("untyped failure: no result reported", file=sys.stderr)
        return 1
    print(json.dumps({"correct": True, **result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
