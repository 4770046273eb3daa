"""Outside-in layer trace: spans recorded around the package's functions at their lookup sites.

The tracer replaces a module attribute (``ncfactor.factoring.buchberger``,
``ncfactor.cli.factor_all``, ...) with a wrapper, so every call that looks
the name up in that module opens a span.  Spans hold name, layer, start,
end, parent and input id; they stay in memory until ``write``.  A layer's
self time is its spans' durations minus the time their child spans cover.
Untraced runs install nothing.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from pathlib import Path

FILTER = "factoring.filter"
GROEBNER = "commutative.groebner"
ENUMERATE = "commutative.enumerate"
BIDEGREE = "factoring.bidegree"
ASSEMBLE = "factoring.assemble"
HOMOGENEOUS = "homogeneous"
COMPLETE = "factoring.complete"
PARSING = "parsing"
CLI = "cli"

# (module, attribute, layer).  factor_all's own split loop is counted with
# the bidegree layer it drives.
SITES = (
    ("cli", "run", CLI),
    ("cli", "identifiers_in", PARSING),
    ("cli", "parse_expression", PARSING),
    ("cli", "factor_all", BIDEGREE),
    ("factoring", "factor_completely", COMPLETE),
    ("factoring", "factor_all", BIDEGREE),
    ("factoring", "knapsack_splits", FILTER),
    ("factoring", "commutative_factor_degrees", FILTER),
    ("factoring", "factor_bidegree", BIDEGREE),
    ("factoring", "factor_homogeneous", HOMOGENEOUS),
    ("factoring", "assemble_constraints", ASSEMBLE),
    ("factoring", "buchberger", GROEBNER),
    ("factoring", "reduce_groebner", GROEBNER),
    ("factoring", "enumerate_solutions", ENUMERATE),
)
# Counted, not timed: called too often for a span each.
COUNTED = (
    ("commutative", "s_polynomial", f"{GROEBNER}.spairs"),
    ("commutative", "normal_form", f"{GROEBNER}.normal_forms"),
)
# The function whose calls make each layer's ``calls`` count.
CALLS = {
    FILTER: "knapsack_splits",
    GROEBNER: "buchberger",
    ENUMERATE: "enumerate_solutions",
    BIDEGREE: "factor_bidegree",
    ASSEMBLE: "assemble_constraints",
    HOMOGENEOUS: "factor_homogeneous",
    COMPLETE: "factor_completely",
    PARSING: "parse_expression",
    CLI: "run",
}
LAYERS = tuple(CALLS)
# Counters each layer reports, kept by the hooks below as "<layer>.<counter>".
COUNTERS = {
    FILTER: ("splits_in", "splits_admitted", "fallbacks"),
    GROEBNER: ("spairs", "normal_forms", "basis_len"),
    ENUMERATE: ("points", "solutions", "cap_errors"),
    ASSEMBLE: ("equations", "symbols"),
    HOMOGENEOUS: ("no_top",),
    COMPLETE: ("factor_all_calls", "chains"),
}


class Tracer:
    def __init__(self, pkg):
        self.pkg = pkg
        self.spans: list = []
        self.stack: list[tuple[int, str]] = []  # open spans: (index, layer)
        self.counts: Counter = Counter()
        self.input_id = None
        self._pattern_found = False
        self._saved: list = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        for module, attr, layer in SITES:
            mod = getattr(self.pkg, module)
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._span(attr, layer, fn))
        for module, attr, counter in COUNTED:
            mod = getattr(self.pkg, module)
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._counted(counter, fn))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    def _counted(self, counter: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _span(self, name: str, layer: str, fn):
        before = getattr(self, f"_before_{name}", None)
        after = getattr(self, f"_after_{name}", None)
        spans, stack, counts = self.spans, self.stack, self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            if before is not None:
                before(args)
            index = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else None
            stack.append((index, layer))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except self.pkg.SearchSpaceTooLargeError:
                if name == "enumerate_solutions":
                    counts[f"{ENUMERATE}.cap_errors"] += 1
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, layer, start, end, parent, self.input_id)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    # -- counters at the span boundaries ---------------------------------------

    def _before_knapsack_splits(self, args) -> None:
        self._pattern_found = False

    def _after_commutative_factor_degrees(self, args, result) -> None:
        if result is not None:
            self._pattern_found = True

    def _after_knapsack_splits(self, args, result) -> None:
        self.counts[f"{FILTER}.splits_in"] += args[0].degree() - 1
        self.counts[f"{FILTER}.splits_admitted"] += len(result)
        # no degree pattern (budget exceeded, image vanished, or Q): every split admitted
        self.counts[f"{FILTER}.fallbacks"] += not self._pattern_found

    def _before_factor_all(self, args) -> None:
        if any(layer == COMPLETE for _, layer in self.stack):
            self.counts[f"{COMPLETE}.factor_all_calls"] += 1

    def _after_factor_bidegree(self, args, result) -> None:
        self.counts[f"{BIDEGREE}.useful"] += bool(result)

    def _after_factor_homogeneous(self, args, result) -> None:
        self.counts[f"{HOMOGENEOUS}.no_top"] += result is None

    def _after_assemble_constraints(self, args, result) -> None:
        self.counts[f"{ASSEMBLE}.equations"] += len(result.equations)
        self.counts[f"{ASSEMBLE}.symbols"] += len(result.symbols)

    def _after_reduce_groebner(self, args, result) -> None:
        self.counts[f"{GROEBNER}.basis_len"] += len(result)

    def _after_enumerate_solutions(self, args, result) -> None:
        system = args[0]
        self.counts[f"{ENUMERATE}.points"] += system.ring.field.p ** len(system.symbols)
        self.counts[f"{ENUMERATE}.solutions"] += len(result)

    def _after_factor_completely(self, args, result) -> None:
        self.counts[f"{COMPLETE}.chains"] += len(result)

    # -- results -----------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds per layer: span durations minus the time covered by child spans."""
        covered = [0.0] * len(self.spans)
        for name, layer, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out = dict.fromkeys(LAYERS, 0.0)
        for (name, layer, start, end, _, _), child in zip(self.spans, covered):
            out[layer] += end - start - child
        return out

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        c = self.counts
        self_s = self.self_times()
        out: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = (c[CALLS[layer]], "count")
            out[f"{layer}.self_s"] = (self_s[layer], "s")

            for key in COUNTERS.get(layer, ()):
                out[f"{layer}.{key}"] = (c[f"{layer}.{key}"], "count")

        def ratio(num: int, den: int) -> float:
            return num / den if den else 0.0

        out[f"{FILTER}.admit_ratio"] = (
            ratio(c[f"{FILTER}.splits_admitted"], c[f"{FILTER}.splits_in"]), "ratio")
        out[f"{BIDEGREE}.useful_ratio"] = (
            ratio(c[f"{BIDEGREE}.useful"], c["factor_bidegree"]), "ratio")
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write('{"fields": ["name", "layer", "start", "end", "parent", "input"],\n "spans": [\n')
            fh.write(",\n".join(json.dumps(s) for s in self.spans))
            fh.write("\n]}\n")
