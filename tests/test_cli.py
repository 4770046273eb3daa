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


@pytest.fixture(scope="module")
def digest_reports():
    """The --json output of the first 300 fact_digest inputs.

    They are over F_2, F_3, F_5, F_101 and Q: 75 with chains, 100 with
    groebner requests, and 43 facts over Q whose solutions are null.
    """
    make_input = _load_script("fact_digest").make_input
    outputs = []
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
        outputs.append(out)
    return outputs


def _values(value):
    """Every value nested in a loaded JSON document, the document included."""
    yield value
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        for item in value:
            yield from _values(item)


class TestJsonWriter:
    """`--json` writes the report with json.dumps: one line, ASCII-escaped."""

    def test_digest_inputs_over_every_field(self, digest_reports):
        for out in digest_reports:
            assert out == json.dumps(json.loads(out))

    def test_reports_hold_no_floats(self, digest_reports):
        # reports stay exact: every number is an int
        values = [value for out in digest_reports for value in _values(json.loads(out))]
        assert not any(isinstance(value, float) for value in values)
        assert any(isinstance(value, int) for value in values)

    @pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.json")), ids=lambda path: path.name)
    def test_goldens(self, path):
        text = path.read_text()
        assert json.dumps(json.loads(text)) + "\n" == text

    def test_non_ascii_whitespace_is_escaped(self):
        code, out = run(Request("x\u00a0*\u2003y - 1", PrimeField(5), None, None, json_mode=True))
        assert code == 0
        assert '"input": "x\\u00a0*\\u2003y - 1"' in out
        assert out == json.dumps(json.loads(out))


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

    @pytest.mark.parametrize(
        "text,shown,chain",
        [("x", "x", "x"), ("2*x + 3*y + 1", "3*y + 2*x + 1", "3*y + 2*x + 1")],
        ids=["letter", "linear"],
    )
    def test_complete_degree_one_is_its_own_chain(self, text, shown, chain):
        # no split, and the one chain factor_completely gives: the input itself
        code, out, err = capture(["--field", "5", "--complete", text])
        assert (code, err) == (0, "")
        assert out == (
            f"input: {shown}\nfield: F_5\nirreducible (no two-factor splits)\n"
            f"complete factorizations:\n  ({chain})\n"
        )
        code, out, _ = capture(["--field", "5", "--complete", "--json", text])
        assert code == 0
        assert json.loads(out) == {
            "input": text, "field": "F_5", "splits": [], "chains": [{"factors": [chain]}]
        }

    def test_explicit_vars_order(self):
        code, out, _ = capture(["--field", "5", "--vars", "y,x", "y*x*y*x*y - y"])
        assert code == 0

    def test_stdin_expression(self, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("x*x"))
        code, out, _ = capture(["--field", "3", "-"])
        assert code == 0
        assert "(x) * (x)" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["--field", "5", "-x*y"],
            ["--field", "5", "-(x*y)"],
            ["-x*y", "--field", "5"],
            ["--field", "5", "--", "-x*y"],
        ],
        ids=["sign", "signed-group", "before-options", "after-dashes"],
    )
    def test_leading_sign_expression(self, argv):
        # an argument with a leading sign and a character no option name has
        # is the expression, with or without spaces in it
        assert capture(argv) == capture(["--field", "5", "4*x*y"]) == capture(["--field", "5", "-x*y + 0"])


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

    @pytest.mark.parametrize("option", ["--bogus", "-q", "-x"])
    def test_unknown_option_is_usage_error(self, option, capsys):
        # a leading-sign expression needs a character no option name has
        with pytest.raises(SystemExit) as exc:
            main(["--field", "5", option, "x*y"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {option}" in capsys.readouterr().err

    def test_non_prime_field_rejected(self):
        assert capture(["--field", "6", "x*x"]) == (2, "", "error: 6 is not prime\n")

    @pytest.mark.parametrize(
        "field, message",
        [
            ("4", "4 is not prime"),
            ("1", "1 is not prime"),
            ("-7", "-7 is not prime"),
            ("2147483648", "2147483648 too large (need a prime p < 2**31)"),
        ],
        ids=["composite", "one", "negative", "too-large"],
    )
    def test_bad_field_is_one_error_line(self, field, message):
        # like every other bad option value: one "error: ..." line and exit 2, no usage block
        assert capture(["--field", field, "x*y"]) == (2, "", f"error: {message}\n")

    def test_cap_exhaustion_reports_cap(self):
        # no equation of the (2,2) system is univariate or linear in a symbol,
        # and F_5 has too few points for the resultant of its two equations in
        # a1 and a2, so solving it branches over 5^2 points
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
        # split and (2,2) has a system that branches over 5^2 points (F_5 has
        # too few points for its resultant)
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
            (["--vars", "", "x*y"], 2, "error: --vars declares no variables"),
            (["--degrees", "", "x*y"], 2, "error: --degrees expects two integers h,k"),
            (["--degrees", " ", "x*y"], 2, "error: --degrees expects two integers h,k"),
            (["3"], 2, "error: expression has no variables and none were declared"),
            (["x - x"], 2, "error: cannot factor the zero polynomial"),
            (["--complete", "x - x"], 2, "error: cannot factor the zero polynomial"),
            (["x"], 2, "error: need degree >= 2 for a nontrivial split"),
            (["--vars", "x", "--complete", "3"], 2, "error: need degree >= 2 for a nontrivial split"),
            (["--degrees", "3,3", "x*x"], 2, "error: degree 2 != 3 + 3"),
            (["--max-solutions", "0", "x*x"], 2, "error: enumeration cap must be positive"),
            (["--max-solutions", "4", CAP_INPUT], 3, "error: enumeration needs 25 points, cap is 4"),
        ],
        ids=[
            "bad-character", "bad-character-with-vars", "unknown-identifier", "duplicate-vars",
            "empty-vars", "empty-string-vars", "empty-string-degrees", "blank-degrees", "no-variables",
            "zero", "zero-complete", "degree-one", "constant-complete", "split-mismatch", "zero-cap", "cap-exceeded",
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
            assert all(list(chain) == ["factors"] and len(chain["factors"]) == 3 for chain in report["chains"])
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


# the flat cases keep the ids they had when the test took only `variables`
@pytest.mark.parametrize(
    "text,variables,scanned",
    [
        pytest.param("y*x*y*x*y - y", None, False, id="None"),
        pytest.param("y*x*y*x*y - y", ("x", "y"), False, id="variables1"),
        pytest.param("y*x*(y*x*y) - y", None, True, id="grouped-None"),
        pytest.param("y*x*(y*x*y) - y", ("x", "y"), True, id="grouped-variables"),
    ],
)
def test_text_is_scanned_once(text, variables, scanned, monkeypatch):
    # inferring the alphabet and parsing take one reading of the text: the
    # flat reader looks at it once, and only a text it declines is scanned
    # into tokens, once
    reads, scans = [], []
    flat, tokens = parsing._NOT_FLAT, parsing._TOKEN_RE

    class Counting:
        def __init__(self, pattern, seen):
            self.pattern, self.seen = pattern, seen

        def search(self, text):
            self.seen.append(text)
            return self.pattern.search(text)

        def findall(self, text):
            self.seen.append(text)
            return self.pattern.findall(text)

    monkeypatch.setattr(parsing, "_NOT_FLAT", Counting(flat, reads))
    monkeypatch.setattr(parsing, "_TOKEN_RE", Counting(tokens, scans))
    code, report = run(Request(text, PrimeField(5), variables, (2, 3)))
    assert code == 0 and "(y*x + 1) * (y*x*y + 4*y)" in report
    assert reads == [text]
    assert scans == ([text] if scanned else [])


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
