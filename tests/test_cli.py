import importlib.util
import io
import json
import contextlib
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from ncfactor import cli, factoring, parsing
from ncfactor.cli import Request, main, run
from ncfactor.fields import PrimeField, RationalField
from ncfactor.parsing import MAX_NESTING

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"
SCRIPTS = SRC.parent / "scripts"
# Over F_5 its (2,2) constraint system has two equations in both symbols.
CAP_INPUT = "(3*y*y + 1 + 2*y)*(4*y*y + 2 + 3*y)"


def capture(argv):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestGolden:
    def test_text_report_byte_identical(self):
        code, out, _ = capture(["--field", "5", "--groebner", "y*x*y*x*y - y"])
        assert code == 0
        assert out == (GOLDEN / "quintic_example.txt").read_text()

    def test_json_report_byte_identical(self):
        code, out, _ = capture(["--field", "5", "--groebner", "--json", "y*x*y*x*y - y"])
        assert code == 0
        assert out == (GOLDEN / "quintic_example.json").read_text()

    @pytest.mark.parametrize(
        "name,argv",
        [
            ("rationals_symbolic", ["--rationals", "--groebner", "x*x - 1"]),
            ("irreducible_at_split", ["--field", "5", "--degrees", "1,1", "x*x - y*y"]),
            ("irreducible_all_splits", ["--field", "5", "x*x - y*y"]),
            ("quintic_chains", ["--field", "5", "--complete", "y*x*y*x*y - y"]),
        ],
    )
    @pytest.mark.parametrize("suffix,extra", [("txt", []), ("json", ["--json"])])
    def test_report_paths_byte_identical(self, name, argv, suffix, extra):
        code, out, _ = capture(extra + argv)
        assert code == 0
        assert out == (GOLDEN / f"{name}.{suffix}").read_text()

    def test_runs_are_deterministic(self):
        argv = ["--field", "5", "--groebner", "--json", "y*x*y*x*y - y"]
        assert capture(argv) == capture(argv)


class TestJsonSchema:
    def test_schema_keys(self):
        code, out, _ = capture(["--field", "5", "--json", "y*x*y*x*y - y"])
        doc = json.loads(out)
        assert list(doc) == ["input", "field", "splits"]
        assert doc["input"] == "y*x*y*x*y - y"
        assert doc["field"] == "F_5"
        split = doc["splits"][1]
        assert list(split) == ["h", "k", "factorizations"]
        fact = split["factorizations"][0]
        assert list(fact) == ["G", "H", "symbols", "system", "reduced_basis", "solutions"]
        assert fact["reduced_basis"] is None  # --groebner off

    def test_symbolic_solutions_over_q(self):
        code, out, _ = capture(
            ["--rationals", "--groebner", "--json", "--degrees", "2,3", "y*x*y*x*y - y"]
        )
        doc = json.loads(out)
        fact = doc["splits"][0]["factorizations"][0]
        assert fact["solutions"] is None
        assert fact["symbols"] == ["a1"]
        assert fact["reduced_basis"] == ["a1^2 - 1"]


def _load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _fact(symbols=(), system=(), basis=None, solutions=({},)):
    return {
        "G": "y*x + 1",
        "H": "y",
        "symbols": list(symbols),
        "system": list(system),
        "reduced_basis": basis,
        "solutions": solutions if solutions is None else [dict(s) for s in solutions],
    }


class TestJsonWriter:
    """`cli` writes the report itself; json.dumps(indent=2) is the reference."""

    def test_digest_inputs_over_every_field(self, monkeypatch):
        # 300 inputs over F_2, F_3, F_5, F_101 and Q; 75 with chains, 100 with
        # groebner requests, and 43 facts over Q whose solutions are null
        make_input = _load_script("fact_digest").make_input
        reports = []
        write = cli._write_json
        monkeypatch.setattr(cli, "_write_json", lambda report: reports.append(report) or write(report))
        for index in range(300):
            f = make_input(index)
            request = Request(
                expression=str(f),
                field=f.algebra.field,
                variables=f.algebra.alphabet.names,
                degrees=None,
                groebner=index % 3 == 1,
                complete=index % 4 == 2,
                json_mode=True,
            )
            code, out = run(request)
            assert code == 0, out
            assert out == json.dumps(reports[-1], indent=2)

    @pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.json")), ids=lambda path: path.name)
    def test_goldens(self, path):
        text = path.read_text()
        report = json.loads(text)
        assert json.dumps(report, indent=2) + "\n" == text
        assert cli._write_json(report) + "\n" == text

    @pytest.mark.parametrize(
        "splits",
        [
            [],
            [{"h": 1, "k": 1, "factorizations": []}],
            [{"h": 2, "k": 3, "factorizations": [_fact(), _fact(("a1",), ("a1 - 1",), None, ({"a1": "1"},))]}],
            [{"h": 1, "k": 2, "factorizations": [_fact(("a1", "a2"), ("a1*a2 + 1", "a2^2"), [], None)]}],
            [{"h": 1, "k": 2, "factorizations": [_fact(("a1", "a2"), ("a1 - a2",), ["a1 - a2"], None)]}],
            [{"h": 2, "k": 2, "factorizations": [_fact(("a1", "a2"), (), None, ({"a1": "3", "a2": "1/2"}, {}))]}],
        ],
    )
    @pytest.mark.parametrize("text", ['x*y - 1', 'x "quoted" \\ back\u00a0slash\u2003'])
    def test_synthetic_reports(self, splits, text):
        report = {"input": text, "field": "Q", "splits": splits}
        assert cli._write_json(report) == json.dumps(report, indent=2)
        report["chains"] = [{"factors": ["x", "y*x - 1"], "complete": True}, {"factors": [], "complete": True}]
        assert cli._write_json(report) == json.dumps(report, indent=2)
        report["chains"] = []
        assert cli._write_json(report) == json.dumps(report, indent=2)

    def test_non_ascii_whitespace_is_escaped(self):
        code, out = run(Request("x\u00a0*\u2003y - 1", PrimeField(5), None, None, json_mode=True))
        assert code == 0
        assert '"input": "x\\u00a0*\\u2003y - 1"' in out
        assert out == json.dumps(json.loads(out), indent=2)


class TestBehavior:
    def test_irreducible_at_split(self):
        code, out, _ = capture(["--field", "5", "--degrees", "1,1", "x*x - y*y"])
        assert code == 0
        assert "irreducible at (1, 1)" in out

    def test_monomial_square(self):
        code, out, _ = capture(["--field", "3", "x*x"])
        assert code == 0
        assert "(x) * (x)" in out

    def test_complete_chains(self):
        code, out, _ = capture(["--field", "5", "--complete", "y*x*y*x*y - y"])
        assert code == 0
        assert "complete factorizations:" in out
        assert "(y) * (x*y + 4) * (x*y + 1)" in out

    def test_complete_chains_reuse_the_reported_splits(self, monkeypatch):
        calls = []
        real = factoring.factor_all

        def counting(poly, options):
            calls.append(poly)
            return real(poly, options)

        monkeypatch.setattr(cli, "factor_all", counting)
        monkeypatch.setattr(factoring, "factor_all", counting)
        code, out, _ = capture(["--field", "5", "--complete", "y*x*y*x*y - y"])
        assert code == 0
        assert out == (GOLDEN / "quintic_chains.txt").read_text()
        assert len(calls) == 1

    def test_explicit_vars_order(self):
        code, out, _ = capture(["--field", "5", "--vars", "y,x", "y*x*y*x*y - y"])
        assert code == 0

    def test_stdin_expression(self, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("x*x"))
        code, out, _ = capture(["--field", "3", "-"])
        assert code == 0
        assert "(x) * (x)" in out


class TestErrors:
    def test_parse_error_nonzero_exit(self):
        code, out, err = capture(["--field", "5", "y*x +"])
        assert code == 2
        assert "parse error" in err

    @pytest.mark.parametrize("vars_args", [[], ["--vars", "x,y"]])
    def test_bad_character_is_parse_error(self, vars_args):
        # with or without --vars: inferring the alphabet reads the same tokens
        code, out, err = capture(["--field", "5", *vars_args, "x $ y"])
        assert (code, out) == (2, "")
        assert err == "parse error: unexpected character '$' at position 2\n"

    def test_unknown_variable(self):
        code, _, err = capture(["--field", "5", "--vars", "x,y", "x*z"])
        assert code == 2
        assert "z" in err

    def test_field_required(self):
        with pytest.raises(SystemExit) as exc:
            capture(["y*x"])
        assert exc.value.code == 2

    def test_non_prime_field_rejected(self):
        with pytest.raises(SystemExit) as exc:
            capture(["--field", "6", "x*x"])
        assert exc.value.code == 2

    def test_cap_exhaustion_reports_cap(self):
        # no equation of the (2,2) system is univariate, so solving it branches
        # over 5^2 points
        code, _, err = capture(["--field", "5", "--max-solutions", "4", CAP_INPUT])
        assert code == 3
        assert "cap is 4" in err

    @pytest.mark.parametrize("cap", ["0", "-1"])
    def test_nonpositive_max_solutions_is_usage_error(self, cap):
        code, _, err = capture(["--field", "5", "--max-solutions", cap, "x*x"])
        assert code == 2
        assert err == "error: enumeration cap must be positive\n"

    def test_cap_exhaustion_in_complete_chains(self):
        # the (1,3) split is answered under the cap, but the chains try every
        # split and (2,2) has a system that branches over 5^2 points
        argv = ["--field", "5", "--max-solutions", "4", "--degrees", "1,3", "--complete", CAP_INPUT]
        code, out, err = capture(argv)
        assert code == 3
        assert out == ""
        assert err == "error: enumeration needs 25 points, cap is 4\n"

    def test_huge_exponent_rejected_before_allocation(self):
        # under a 1 GiB address-space limit, building the word would raise MemoryError
        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

        proc = subprocess.run(
            [sys.executable, "-m", "ncfactor", "--field", "5", "x^10000000000 - 1"],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            preexec_fn=limit_memory,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stderr == "parse error: exponent exceeds 1000000 at position 2\n"

    def test_closed_stdout_exits_quietly(self):
        # the reader is gone before the report is written, as under `| head`:
        # the exit is nonzero, with no traceback and no "Exception ignored"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "ncfactor", "--field", "5", "--complete", "y*x*y*x*y - y"],
                env={**os.environ, "PYTHONPATH": str(SRC)},
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert proc.returncode != 0
        assert proc.stderr == ""

    def test_overlong_coefficient_is_parse_error(self):
        code, out, err = capture(["--field", "5", "1" + "0" * 5000 + "*x - 1"])
        assert (code, out) == (2, "")
        assert err == "parse error: coefficient exceeds 4300 digits at position 0\n"

    @pytest.mark.parametrize("depth", [MAX_NESTING, MAX_NESTING + 1])
    def test_nesting_past_the_bound_is_parse_error(self, depth):
        # 400 levels used to end in a RecursionError traceback
        text = "(" * depth + "x*y + 1" + ")" * depth
        code, report = run(Request(text, PrimeField(5), None, None))
        if depth == MAX_NESTING:
            assert code == 0 and report.startswith(f"input: x*y + 1\n")
        else:
            assert (code, report) == (2, f"parse error: parentheses nest deeper than {MAX_NESTING} at position {MAX_NESTING}")

    def test_duplicate_variable_names(self):
        code, _, err = capture(["--field", "5", "--vars", "x,x", "x*x"])
        assert code == 2
        assert "duplicate" in err

    def test_degree_mismatch(self):
        code, _, err = capture(["--field", "5", "--degrees", "3,3", "x*x"])
        assert code == 2

    @pytest.mark.parametrize(
        "argv,code,message",
        [
            (["x$y"], 2, "parse error: unexpected character '$' at position 1"),
            (["--vars", "x,y", "x$y"], 2, "parse error: unexpected character '$' at position 1"),
            (["--vars", "x,y", "x*z"], 2, "parse error: unknown identifier 'z' at position 2"),
            (["--vars", "x,x", "x*x"], 2, "error: duplicate variable names in ('x', 'x')"),
            (["--vars", ",", "x*y"], 2, "error: --vars declares no variables"),
            (["3"], 2, "error: expression has no variables and none were declared"),
            (["x - x"], 2, "error: cannot factor the zero polynomial"),
            (["--degrees", "3,3", "x*x"], 2, "error: degree 2 != 3 + 3"),
            (["--max-solutions", "0", "x*x"], 2, "error: enumeration cap must be positive"),
            (["--max-solutions", "4", CAP_INPUT], 3, "error: enumeration needs 25 points, cap is 4"),
        ],
        ids=[
            "bad-character", "bad-character-with-vars", "unknown-identifier", "duplicate-vars",
            "empty-vars", "no-variables", "zero", "split-mismatch", "zero-cap", "cap-exceeded",
        ],
    )
    def test_failure_classes(self, argv, code, message):
        # each failure is a parse error or a usage error (exit 2), or a stop
        # at a named cap (exit 3), reported on stderr alone
        assert capture(["--field", "5", *argv]) == (code, "", message + "\n")


class TestLargePrime:
    @pytest.mark.parametrize("complete", [False, True], ids=["splits", "complete"])
    def test_quintic_answered_at_mersenne_prime(self, complete):
        # each split's system is one univariate equation, 2147483646*a1^2 + 1
        m = 2**31 - 2  # -1 in F_(2^31 - 1)
        argv = ["--field", str(2**31 - 1), "--json", "y*x*y*x*y - y"]
        code, out, _ = capture(argv + ["--complete"] * complete)
        assert code == 0
        report = json.loads(out)
        pairs = {(s["h"], s["k"]): [(f["G"], f["H"]) for f in s["factorizations"]] for s in report["splits"]}
        assert pairs == {
            (1, 4): [("y", f"x*y*x*y + {m}")],
            (2, 3): [("y*x + 1", f"y*x*y + {m}*y"), (f"y*x + {m}", "y*x*y + y")],
            (3, 2): [("y*x*y + y", f"x*y + {m}"), (f"y*x*y + {m}*y", "x*y + 1")],
            (4, 1): [(f"y*x*y*x + {m}", "y")],
        }
        if complete:
            assert len(report["chains"]) == 6
            assert all(chain["complete"] and len(chain["factors"]) == 3 for chain in report["chains"])
        else:
            assert "chains" not in report


def test_run_api_directly():
    request = Request(
        expression="y*x*y*x*y - y",
        field=PrimeField(5),
        variables=("x", "y"),
        degrees=(2, 3),
    )
    code, report = run(request)
    assert code == 0
    assert "(y*x + 1) * (y*x*y + 4*y)" in report


@pytest.mark.parametrize("variables", [None, ("x", "y")])
def test_text_is_scanned_once(variables, monkeypatch):
    # inferring the alphabet and parsing read one scan of the text
    scans = []
    pattern = parsing._TOKEN_RE

    class Counting:
        def findall(self, text):
            scans.append(text)
            return pattern.findall(text)

    monkeypatch.setattr(parsing, "_TOKEN_RE", Counting())
    code, report = run(Request("y*x*y*x*y - y", PrimeField(5), variables, (2, 3)))
    assert code == 0 and "(y*x + 1) * (y*x*y + 4*y)" in report
    assert scans == ["y*x*y*x*y - y"]


def test_rationals_request_symbolic_description():
    # over Q the symbol values are described, never enumerated
    request = Request(
        expression="x*x - 1",
        field=RationalField(),
        variables=("x",),
        degrees=None,
        groebner=True,
    )
    code, report = run(request)
    assert code == 0
    assert "(x + (a1)) * (x + (-a1))" in report
    assert "reduced basis: a1^2 - 1" in report


def test_runs_without_test_only_dependencies():
    # sympy and hypothesis are test dependencies; the package and the CLI
    # must import and answer without them
    code = (
        "import sys\n"
        "sys.modules['sympy'] = sys.modules['hypothesis'] = None\n"
        "import ncfactor, ncfactor.cli\n"
        "sys.exit(ncfactor.cli.main(['--field', '5', 'y*x*y*x*y - y']))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "(y*x + 1) * (y*x*y + 4*y)" in proc.stdout
