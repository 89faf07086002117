"""Count code lines per module of a Python package.

A code line is a physical line that holds part of a token other than a
comment, a docstring or a line break: blank lines, comment lines and
docstrings (the leading string statement of a module, class or function)
are left out. Lines spanned by any other multi-line token, such as a string
literal, all count.

    python tools/loc.py [DIR_OR_FILE ...]     (default: src/lasir)

prints one line per module and the total.

    python tools/loc.py --against REF [DIR_OR_FILE ...]

prints each module's code lines at the git revision REF (read with
`git show`), now, and the change, then the totals; a module missing on one
side counts as 0 there. Paths are taken relative to the current directory,
which must lie inside the repository.
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from revision import git  # noqa: E402

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set:
    """Line numbers covered by the docstrings of `tree`'s module, classes and
    functions."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Number of code lines in the Python `source`."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def counts_at(ref: str, targets) -> dict:
    """Code lines of each module under `targets` at the git revision `ref`."""
    names = git("ls-tree", "-r", "--name-only", ref, "--", *map(str, targets)).decode()
    return {Path(name): code_lines(git("show", f"{ref}:./{name}").decode())
            for name in names.splitlines() if name.endswith(".py")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Count code lines per module.")
    parser.add_argument("targets", nargs="*", type=Path, default=[Path("src/lasir")])
    parser.add_argument("--against", metavar="REF", help="also count at this git revision")
    args = parser.parse_args(argv)
    files = sorted(f for t in args.targets for f in ([t] if t.is_file() else t.rglob("*.py")))
    now = {path: code_lines(path.read_text(encoding="utf-8")) for path in files}
    if args.against is None:
        for path, count in now.items():
            print(f"{count:6d}  {path}")
        print(f"{sum(now.values()):6d}  total")
        return 0
    try:
        before = counts_at(args.against, args.targets)
    except subprocess.CalledProcessError as exc:
        print(f"error: {exc.stderr.decode().strip()}", file=sys.stderr)
        return 1
    rows = [(before.get(p, 0), now.get(p, 0), str(p)) for p in sorted(before.keys() | now.keys())]
    rows.append((sum(before.values()), sum(now.values()), "total"))
    print(f"{'before':>6}  {'now':>6}  {'change':>6}  module")
    for old, new, name in rows:
        print(f"{old:6d}  {new:6d}  {new - old:+6d}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
