"""Command-line front end: parse an expression, factor it, print a report.

The report is built once, as the JSON object of a stable schema:

    {input, field, splits: [{h, k, factorizations:
        [{G, H, symbols, system, reduced_basis, solutions}]}],
     chains: [{factors, complete}]}        (chains only with --complete)

Every chain is maximal, so `complete` is always true.  JSON mode writes the
report's fixed shape itself (`_write_json`), byte for byte as
`json.dumps(report, indent=2)` writes it (`tests/test_cli.py::TestJsonWriter`).
Text mode renders the report as one parenthesized product per factorization,
reading nothing but its strings.  Both are byte-deterministic per invocation.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote
from typing import Iterable, Optional, Sequence

from .commutative import SymbolRing
from .errors import NCFactorError, ParseError
from .factoring import (
    DegreeSplit,
    FactorOptions,
    SymbolicFactorization,
    _complete_chains,
    factor_all,
    factor_bidegree,
)
from .fields import Field, PrimeField, RationalField
from .freealg import Alphabet, FreeAlgebra
from .parsing import identifiers_in, parse_expression, scan


@dataclass
class Request:
    """One CLI invocation, fully resolved."""

    expression: str
    field: Field
    variables: Optional[tuple[str, ...]]
    degrees: Optional[tuple[int, int]]
    groebner: bool = False
    complete: bool = False
    json_mode: bool = False
    max_solutions: int = FactorOptions.enumeration_cap


def _field_name(field: Field) -> str:
    return f"F_{field.p}" if isinstance(field, PrimeField) else "Q"


def _fact_obj(fact: SymbolicFactorization, groebner: bool) -> dict:
    return {
        "G": str(fact.left),
        "H": str(fact.right),
        "symbols": list(fact.system.symbols),
        "system": list(fact.system.texts),
        "reduced_basis": (
            [str(b) for b in fact.reduced_basis] if groebner and fact.reduced_basis is not None else None
        ),
        "solutions": (
            [{name: str(v) for name, v in sorted(s.items())} for s in fact.solutions]
            if fact.solutions is not None
            else None
        ),
    }


def _json_block(items: list[str], pad: str, brackets: str = "[]") -> str:
    """Rendered items in brackets closing at indent `pad`, as json.dumps(indent=2) lays them out."""
    if not items:
        return brackets
    inner = pad + "  "
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}{brackets[1]}"


def _json_texts(texts: Iterable[str], pad: str) -> str:
    return _json_block([_quote(text) for text in texts], pad)


def _fact_json(fact: dict) -> str:
    """One factorization object of the report, at depth 4 of its fixed shape."""
    pad = " " * 10
    basis, solutions = fact["reduced_basis"], fact["solutions"]
    if solutions is not None:
        assignments = ([f"{_quote(k)}: {_quote(v)}" for k, v in s.items()] for s in solutions)
        solutions = _json_block([_json_block(a, pad + "  ", "{}") for a in assignments], pad)
    return (
        f'{{\n{pad}"G": {_quote(fact["G"])},\n{pad}"H": {_quote(fact["H"])},\n'
        f'{pad}"symbols": {_json_texts(fact["symbols"], pad)},\n'
        f'{pad}"system": {_json_texts(fact["system"], pad)},\n'
        f'{pad}"reduced_basis": {"null" if basis is None else _json_texts(basis, pad)},\n'
        f'{pad}"solutions": {"null" if solutions is None else solutions}\n        }}'
    )


def _write_json(report: dict) -> str:
    """The report's text as json.dumps(report, indent=2) writes it, for its fixed shape."""
    splits = [
        f'{{\n      "h": {split["h"]},\n      "k": {split["k"]},\n      "factorizations": '
        + _json_block([_fact_json(fact) for fact in split["factorizations"]], " " * 6)
        + "\n    }"
        for split in report["splits"]
    ]
    text = (
        f'{{\n  "input": {_quote(report["input"])},\n  "field": {_quote(report["field"])},\n'
        f'  "splits": {_json_block(splits, "  ")}'
    )
    if "chains" in report:
        chains = [
            f'{{\n      "factors": {_json_texts(chain["factors"], " " * 6)},\n'
            f'      "complete": {"true" if chain["complete"] else "false"}\n    }}'
            for chain in report["chains"]
        ]
        text += f',\n  "chains": {_json_block(chains, "  ")}'
    return text + "\n}"


def _render_text(input_text: str, report: dict, all_splits: bool) -> str:
    """The text report, built from the strings of the JSON report alone."""
    lines = [f"input: {input_text}", f"field: {report['field']}"]
    for split in report["splits"]:
        facts = split["factorizations"]
        if not facts:
            lines.append(f"irreducible at ({split['h']}, {split['k']})")
            continue
        lines.append(f"split ({split['h']}, {split['k']}):")
        for fact in facts:
            line = f"  ({fact['G']}) * ({fact['H']})"
            if fact["solutions"] and fact["solutions"][0]:
                assign = "; ".join(f"{name} = {value}" for name, value in fact["solutions"][0].items())
                line += f"   [{assign}]"
            lines.append(line)
        # Attempt-level context: symbols and equations are shared per pivot run.
        shown = set()
        for fact in facts:
            ctx = (tuple(fact["symbols"]), tuple(fact["system"]))
            if not fact["symbols"] or ctx in shown:
                continue
            shown.add(ctx)
            lines.append(f"  symbols: {', '.join(fact['symbols'])}")
            if fact["system"]:
                lines.append("  system: " + "; ".join(f"{eq} = 0" for eq in fact["system"]))
            if fact["reduced_basis"] is not None:
                lines.append("  reduced basis: " + "; ".join(fact["reduced_basis"]))
    if all_splits and not any(split["factorizations"] for split in report["splits"]):
        lines.append("irreducible (no two-factor splits)")
    if "chains" in report:
        lines.append("complete factorizations:")
        for chain in report["chains"]:
            lines.append("  " + " * ".join(f"({p})" for p in chain["factors"]))
    return "\n".join(lines)


def run(request: Request) -> tuple[int, str]:
    """Execute a request; returns (exit code, report text)."""
    source, names = request.expression, request.variables
    try:
        if names is None:
            # the parser reads the same scan: the text is scanned once
            source = scan(source)
            names = tuple(sorted(identifiers_in(source)))
            if not names:
                return 2, "error: expression has no variables and none were declared"
        elif not names:
            return 2, "error: --vars declares no variables"
        poly = parse_expression(source, FreeAlgebra(Alphabet(names), SymbolRing(request.field, ())))
        options = FactorOptions(enumeration_cap=request.max_solutions)
        if request.degrees is not None:
            h, k = request.degrees
            split_results = {DegreeSplit(h, k): factor_bidegree(poly, (h, k), options)}
        else:
            split_results = factor_all(poly, options)
        chains = None
        if request.complete:
            # the chains start from factor_all's splits: reuse them when reported
            found = split_results if request.degrees is None else factor_all(poly, options)
            chains = _complete_chains(poly, found, options)
    except ParseError as e:
        return 2, f"parse error: {e}"
    except NCFactorError as e:
        return 3, f"error: {e}"
    except ValueError as e:
        return 2, f"error: {e}"

    report: dict = {
        "input": request.expression,
        "field": _field_name(request.field),
        "splits": [
            {
                "h": split.h,
                "k": split.k,
                "factorizations": [
                    _fact_obj(f, request.groebner) for f in split_results[split]
                ],
            }
            for split in sorted(split_results)
        ],
    }
    if chains is not None:
        report["chains"] = [{"factors": list(ch.texts), "complete": ch.complete} for ch in chains]

    if request.json_mode:
        return 0, _write_json(report)
    return 0, _render_text(str(poly), report, request.degrees is None)


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncfactor",
        description="Factor a non-commutative polynomial into two factors of "
        "prescribed degrees, or at every admissible degree split.",
    )
    field_group = parser.add_mutually_exclusive_group(required=True)
    field_group.add_argument("--field", type=int, metavar="P", help="prime modulus of the coefficient field")
    field_group.add_argument("--rationals", action="store_true", help="work over the rational numbers")
    parser.add_argument("--vars", metavar="NAMES", help="comma-separated variable names, in order (default: identifiers of the expression, sorted)")
    parser.add_argument("--degrees", metavar="H,K", help="restrict to one degree split h,k")
    parser.add_argument("--groebner", action="store_true", help="print the reduced lexicographic Groebner basis of each constraint system")
    parser.add_argument("--complete", action="store_true", help="also report maximal factorization chains")
    parser.add_argument("--json", action="store_true", help="emit the JSON report")
    parser.add_argument("--max-solutions", type=int, default=FactorOptions.enumeration_cap, metavar="N", help="cap on the points branched over where no equation of a constraint system is univariate (default %(default)s)")
    parser.add_argument("expression", help="polynomial expression, or - to read stdin")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    if args.field is not None:
        try:
            field: Field = PrimeField(args.field)
        except ValueError as e:
            parser.error(str(e))
    else:
        field = RationalField()
    variables = None
    if args.vars:
        variables = tuple(name.strip() for name in args.vars.split(",") if name.strip())
    degrees = None
    if args.degrees:
        try:
            h_str, k_str = args.degrees.split(",")
            degrees = (int(h_str), int(k_str))
        except ValueError:
            parser.error("--degrees expects two integers h,k")
    expression = args.expression
    if expression == "-":
        expression = sys.stdin.read()
    request = Request(
        expression=expression,
        field=field,
        variables=variables,
        degrees=degrees,
        groebner=args.groebner,
        complete=args.complete,
        json_mode=args.json,
        max_solutions=args.max_solutions,
    )
    code, report = run(request)
    try:
        print(report, file=sys.stderr if code else sys.stdout, flush=True)
    except BrokenPipeError:
        # the reader is gone: devnull keeps the flush at exit from failing again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    raise SystemExit(main())
