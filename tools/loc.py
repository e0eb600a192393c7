"""Count the lines of the package source.

Prints, for every `src/cremona/*.py` and for their total, the physical
lines and the code lines.  A code line holds at least one token that is
not a comment, not part of a docstring and not blank space; a line
holding only the continuation of a multi-line token counts when that
token is code.  A docstring is a statement made of string literals
alone (module, class and function docstrings, and any other bare string
statement).

    python tools/loc.py [DIR]

DIR defaults to the package directory next to this script.  Stdlib only.
"""

from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def code_lines(source: str) -> int:
    """The number of lines of `source` that hold a code token."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []

    def flush():
        # a statement of string literals alone is a docstring
        if statement and any(t.type != tokenize.STRING for t in statement):
            for t in statement:
                lines.update(range(t.start[0], t.end[0] + 1))
        statement.clear()

    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.NEWLINE:
            flush()
        elif tok.type not in _LAYOUT:
            statement.append(tok)
    flush()
    return len(lines)


def count(path: Path) -> tuple[int, int]:
    """(physical lines, code lines) of one file."""
    source = path.read_text(encoding="utf-8")
    return len(source.splitlines()), code_lines(source)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "cremona"
    total_physical = total_code = 0
    for path in sorted(root.glob("*.py")):
        physical, code = count(path)
        total_physical += physical
        total_code += code
        print(f"{physical:6d} {code:6d}  {path.name}")
    print(f"{total_physical:6d} {total_code:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
