import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LIMIT = 100  # characters per line, the width the code is written to


def test_no_line_is_longer_than_the_limit():
    long = []
    for folder in ("src/lasir", "tools", "tests", "demos"):
        for dirpath, _, names in os.walk(os.path.join(ROOT, folder)):
            for name in sorted(n for n in names if n.endswith(".py")):
                path = os.path.join(dirpath, name)
                with open(path, encoding="utf-8") as fh:
                    long += [f"{os.path.relpath(path, ROOT)}:{i}: {len(line)} characters"
                             for i, line in enumerate(fh.read().splitlines(), 1)
                             if len(line) > LIMIT]
    assert long == []
