import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
spec = importlib.util.spec_from_file_location("loc", os.path.join(ROOT, "tools", "loc.py"))
loc = importlib.util.module_from_spec(spec)
spec.loader.exec_module(loc)

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps its line


# a comment line
class Thing:
    """Class docstring."""

    def method(self):
        """Method
        docstring."""
        text = """a multi-line
string literal"""
        return (text,
                os.sep)
'''


def test_counts_code_lines_without_docstrings_comments_or_blanks():
    # import, class, def, the two lines of the literal, the two of the return
    assert loc.code_lines(SOURCE) == 7


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    assert loc.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["7", "1", "8"]
    assert lines[-1].split()[1] == "total"
