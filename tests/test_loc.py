import importlib.util
import os
import subprocess

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


def test_against_a_revision_prints_both_counts_and_the_change(tmp_path, monkeypatch, capsys):
    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                       cwd=tmp_path, check=True, capture_output=True)

    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "a.py").write_text(SOURCE)
    (pkg / "gone.py").write_text("x = 1\ny = 2\n")
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "start")
    (pkg / "a.py").write_text(SOURCE + "extra = 1\n")
    (pkg / "gone.py").unlink()
    (pkg / "new.py").write_text("z = 3\n")
    monkeypatch.chdir(tmp_path)
    assert loc.main(["--against", "HEAD", "pkg"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    assert rows == [["7", "8", "+1", "pkg/a.py"], ["2", "0", "-2", "pkg/gone.py"],
                    ["0", "1", "+1", "pkg/new.py"], ["9", "9", "+0", "total"]]


def test_against_an_unknown_revision_fails(tmp_path, monkeypatch, capsys):
    subprocess.run(["git", "init", "-q"], cwd=tmp_path, check=True)
    (tmp_path / "a.py").write_text("x = 1\n")
    monkeypatch.chdir(tmp_path)
    assert loc.main(["--against", "nosuchref", "."]) == 1
    assert "error:" in capsys.readouterr().err
