from code_lines import code_lines, main

SOURCE = '''"""Module docstring,
over two lines."""

# a comment line
import math  # a trailing comment


def f(x):
    """Function docstring."""

    y = (x +
         1)
    s = """not a
docstring"""
    return y, s


class C:
    """Class docstring."""
    z = 1
'''


def test_counts_lines_with_a_token_outside_comments_and_docstrings(
        tmp_path, capsys):
    # import, def, the two lines of y and of s, return, class and z
    assert code_lines(SOURCE) == 9
    (tmp_path / "m.py").write_text(SOURCE)
    assert main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "     9  m.py\n     9  total\n"
