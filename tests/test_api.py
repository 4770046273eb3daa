"""The package's public names and the README's library example."""

import contextlib
import io
import re
import types
from pathlib import Path

import ncfactor

README = Path(__file__).resolve().parent.parent / "README.md"


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
