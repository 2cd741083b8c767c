#!/usr/bin/env python3
"""Count the code lines of Python sources: lines that hold a token other
than a comment, a docstring or a line break, so blank lines, comments and
docstrings do not count.

usage: python .github/scripts/code_lines.py [PATH ...]

Each PATH is a .py file or a directory searched for .py files (src/lpmch
when none is given). Prints the total. A docstring is a string that forms
a statement of its own (a bare string expression), as tokenize sees it;
the count needs only the standard library.
"""

import sys
import tokenize
from pathlib import Path

# Tokens that carry no code; NEWLINE, which ends a statement, is kept to find
# the statements that are a bare string.
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path):
    """The number of code lines of one Python file."""
    with open(path, "rb") as fh:
        tokens = [t for t in tokenize.tokenize(fh.readline) if t.type not in _LAYOUT]
    lines = set()
    for i, tok in enumerate(tokens):
        if tok.type == tokenize.NEWLINE:
            continue
        statement_start = i == 0 or tokens[i - 1].type == tokenize.NEWLINE
        statement_end = i + 1 == len(tokens) or tokens[i + 1].type == tokenize.NEWLINE
        if tok.type == tokenize.STRING and statement_start and statement_end:
            continue  # a docstring
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(paths):
    files = []
    for p in map(Path, paths):
        files.extend(sorted(p.rglob("*.py")) if p.is_dir() else [p])
    print(sum(map(code_lines, files)))


if __name__ == "__main__":
    main(sys.argv[1:] or ["src/lpmch"])
