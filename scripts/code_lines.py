"""Count the code lines of the ``tnn`` package, per module and in total.

    python3 scripts/code_lines.py [DIR]

A code line holds a token that is not a comment.  Blank lines, lines with
only a comment and the lines of a docstring are not counted.  A docstring
is the string that opens a module, class or function body, found with
``ast``; the tokens come from ``tokenize``.  Every line of any other string
that spans lines is counted.  ``DIR`` is the source directory, ``src/tnn``
by default.  Each ``*.py`` file in it is counted, ``__init__.py`` included,
one line per module in name order, then the total.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Tokens that are not code: comments, line ends, indentation and the
# stream's ends.
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree):
    """The line numbers of every docstring in the module ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """The number of code lines of the Python ``source``."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    src = Path(args[0]) if args else ROOT / "src" / "tnn"
    total = 0
    for path in sorted(src.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{path.name:24} {count:6}")
    print(f"{'total':24} {total:6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
