"""``scripts/code_lines.py``: the package's size in code lines."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# Code lines marked `# code`; every other line is blank, a comment or a
# docstring.
SOURCE = '''"""Module docstring,
over two lines."""

import os  # code

# A comment.
X = """a string that is
not a docstring"""  # code


class A:  # code
    """Class docstring."""

    def f(self, x):  # code
        """Function docstring,

        with a blank line inside."""
        return (x +  # code
                1)  # code


async def g():  # code
    pass  # code
'''


def test_counts_only_code_lines():
    marked = sum("# code" in line for line in SOURCE.splitlines())
    assert marked == 8
    # The second line of X's string holds no `# code` mark but is code.
    assert code_lines.code_lines(SOURCE) == marked + 1


def test_docstring_lines_found_by_ast():
    import ast

    assert code_lines.docstring_lines(ast.parse(SOURCE)) == {1, 2, 12, 15,
                                                              16, 17}


def test_main_prints_modules_and_total(tmp_path, capsys):
    (tmp_path / "b.py").write_text(SOURCE)
    (tmp_path / "a.py").write_text("# only a comment\n\nx = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    out = capsys.readouterr().out.split("\n")
    assert [line.split() for line in out if line] == [
        ["a.py", "1"], ["b.py", "9"], ["total", "10"]]
