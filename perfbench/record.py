"""Record a workload's input pool: the baseline answer, cost and failure of every input.

Usage: python3 perfbench/record.py WORKLOAD [WORKLOAD ...]

Writes ``perfbench/pool/<workload>.json``.  Run it only when the pool itself
changes (a new generator, pool size or stratification); the benchmark then
checks every answer against what was recorded here.  Costs are one untraced
call each and are used only to sort inputs into strata.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from workloads import (
    EXCLUDED,
    PERTURBED_POOL,
    POOL_DIR,
    PRODUCT_POOL,
    QUINTIC,
    STRATA,
    WORKLOADS,
    chain_item,
    chain_pool,
    chains_answer,
    cli_answer,
    digest,
    import_package,
    make_item,
    perturbed_input,
    product_input,
    workload_field,
)


def _timed(item):
    start = time.perf_counter()
    outcome = item.call()
    return outcome, round((time.perf_counter() - start) * 1e3, 3)


def _classify(pkg, poly) -> tuple[str, str]:
    """Class and message of the typed error the library raises for ``poly``."""
    try:
        pkg.factor_all(poly)
    except pkg.NCFactorError as e:
        return type(e).__name__, str(e)
    raise RuntimeError(f"{poly}: the CLI stopped but the library answered")


def cost_strata(entries: list[dict], n: int) -> list[list[dict]]:
    """``n`` strata of (nearly) equal size by recorded cost, each in id order."""
    entries = sorted(entries, key=lambda e: (e["ms"], e["id"]))
    size = len(entries)
    strata = [entries[s * size // n:(s + 1) * size // n] for s in range(n)]
    return [sorted(stratum, key=lambda e: e["id"]) for stratum in strata]


def record_chains(pkg) -> dict:
    configs: dict = {}
    for p, k, roots in chain_pool():
        item = chain_item(pkg, f"chains/{p}/{roots}", p, roots, {})
        chains, ms = _timed(item)
        item.check(chains)
        configs.setdefault((p, k), []).append(
            {"id": [p, k, list(roots)], "ms": ms, "answer": chains_answer(chains)}
        )
        print(f"chains p={p} roots={roots}: {len(chains)} chains, {ms:.0f} ms", flush=True)
    return {"strata": list(configs.values()), "failures": [], "excluded": []}


def record_cli(pkg, workload: str) -> dict:
    answered, failures, excluded = [], [], []
    size = PERTURBED_POOL if workload == "perturbed" else PRODUCT_POOL
    field = workload_field(pkg, workload)
    for i in range(size):
        if workload == "perturbed":
            poly = perturbed_input(pkg, i)
            if poly is None:
                excluded.append({"id": i, "why": "the added monomial cancels the input below degree 2"})
                continue
        else:
            poly = product_input(pkg, field, i)[0]
        entry = {"id": i, "input": digest([str(poly)])}
        item = make_item(pkg, workload, entry)
        (code, report), ms = _timed(item)
        entry["ms"] = ms
        if code == 0:
            item.check((code, report))
            entry["answer"] = cli_answer(json.loads(report))
            answered.append(entry)
        elif code == 3:
            error, message = _classify(pkg, poly)
            if report != f"error: {message}":
                raise RuntimeError(f"{workload}/{i}: CLI said {report!r}, library {message!r}")
            failures.append({**entry, "exit": code, "error": error, "message": message})
        else:
            raise RuntimeError(f"{workload}/{i}: exit {code}: {report}")
        if i % 100 == 0:
            print(f"{workload} {i}/{size}", flush=True)
    if workload == "products-fp":
        text, p = QUINTIC
        field = pkg.PrimeField(p)
        algebra = pkg.FreeAlgebra(pkg.Alphabet(("x", "y")), pkg.SymbolRing(field, ()))
        error, message = _classify(pkg, pkg.parse_expression(text, algebra))
        failures.append({"text": text, "p": p, "exit": 3, "error": error, "message": message})
        excluded.extend(EXCLUDED)
    return {"strata": cost_strata(answered, STRATA), "failures": failures, "excluded": excluded}


def write_pool(workload: str, pool: dict) -> None:
    """One entry per line, so that a changed recording reads as a small diff."""
    lines = ["{", f' "workload": {json.dumps(workload)},', ' "strata": [']
    for s, stratum in enumerate(pool["strata"]):
        lines.append("  [")
        lines += [f"   {json.dumps(e)}," for e in stratum]
        lines[-1] = lines[-1].rstrip(",")
        lines.append("  ]," if s + 1 < len(pool["strata"]) else "  ]")
    lines.append(" ],")
    for key in ("failures", "excluded"):
        lines.append(f' "{key}": [')
        lines += [f"  {json.dumps(e)}," for e in pool[key]]
        if pool[key]:
            lines[-1] = lines[-1].rstrip(",")
        lines.append(" ]," if key == "failures" else " ]")
    lines.append("}")
    POOL_DIR.mkdir(exist_ok=True)
    (POOL_DIR / f"{workload}.json").write_text("\n".join(lines) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="+", choices=WORKLOADS)
    args = parser.parse_args()
    pkg = import_package()
    for workload in args.workloads:
        pool = record_chains(pkg) if workload == "chains" else record_cli(pkg, workload)
        write_pool(workload, pool)
        sizes = [len(s) for s in pool["strata"]]
        print(f"{workload}: strata {sizes}, {len(pool['failures'])} failures, "
              f"{len(pool['excluded'])} excluded", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
