from code_lines import code_lines, main

SNIPPET = '''"""Module docstring,
over two lines."""

import os  # a comment

# a comment line


class A:
    """Class docstring."""

    x = """a string value,
    not a docstring"""

    def f(self):
        """Function docstring."""
        return (1 +
                2)
'''


def test_counts_code_lines_without_blanks_comments_and_docstrings():
    # import, class, the two lines of x, def, the two lines of return
    assert code_lines(SNIPPET) == 7


def test_the_script_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "b.py").write_text("x = 1\n")
    assert main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["7", "1", "8"] and lines[-1].endswith("total")
