import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "loc", Path(__file__).resolve().parent.parent / "tools" / "loc.py"
)
loc = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(loc)

FIXTURE = '''"""Module docstring,
on two lines."""

import os  # a trailing comment keeps the line


def f(x):
    """Function docstring."""
    # a comment line
    "a bare string statement is a docstring too"

    text = """a string
spanning two lines"""
    raise ValueError(
        "a message continued "
        f"on a line of its own {x}"
    )
'''


def test_counts_on_fixture(tmp_path, capsys):
    # the code lines: import, def, the two lines of `text`, and the four
    # lines of the raise
    assert loc.code_lines(FIXTURE) == 8
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    assert loc.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [
        ["17", "8", "a.py"],
        ["3", "1", "b.py"],
        ["20", "9", "total"],
    ]
