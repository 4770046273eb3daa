"""The package's public names and the README's library example."""

import contextlib
import importlib
import importlib.util
import io
import re
import types
from pathlib import Path

import ncfactor

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
SPANS = ROOT / "perfbench" / "spans.py"


def test_all_lists_exactly_the_public_names():
    # every listed name resolves, and every public attribute that is not a
    # submodule is listed, so a deleted name cannot linger in __all__
    for name in ncfactor.__all__:
        assert hasattr(ncfactor, name), name
    public = {
        name
        for name in dir(ncfactor)
        if not name.startswith("_") and not isinstance(getattr(ncfactor, name), types.ModuleType)
    }
    assert sorted(ncfactor.__all__) == sorted(public)
    assert len(set(ncfactor.__all__)) == len(ncfactor.__all__)


def test_readme_library_example_prints_its_comments():
    # the python block under "## Library" runs as written, and each print
    # prints exactly the text of the comment on its line
    text = README.read_text()
    block = re.search(r"## Library\n\n```python\n(.*?)```", text, re.S).group(1)
    expected = [line.rpartition("  # ")[2] for line in block.splitlines() if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert len(expected) == 5
    assert out.getvalue().splitlines() == expected


def test_names_the_layer_trace_wraps_resolve():
    # perfbench/spans.py replaces these module attributes by name, and reads
    # the package's own attributes through `self.pkg`: a renamed or deleted
    # name would break `--trace 1` and the benchmark smoke run
    spec = importlib.util.spec_from_file_location("spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    sites = [(module, attr) for module, attr, _ in spans.SITES + spans.COUNTED]
    assert len(sites) == len(spans.SITES) + len(spans.COUNTED) > 10
    for module, attr in sites:
        assert callable(getattr(importlib.import_module(f"ncfactor.{module}"), attr)), (module, attr)
    package_names = set(re.findall(r"self\.pkg\.(\w+)", SPANS.read_text()))
    assert "SearchSpaceTooLargeError" in package_names
    for name in package_names:
        assert hasattr(ncfactor, name), name
