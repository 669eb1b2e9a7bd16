"""Source lines of src/, per module and in total.

Two measures of each module:
- lines: non-blank lines that are not only a # comment, the measure
  ROADMAP.md tracks;
- no-doc: the same lines less those of docstrings (of the module, its
  classes and its functions), found through ast.

With --against REV, each measure's change from that git revision follows
it, with the revision's files read through git show; a module that exists
on one side only counts 0 on the other.  The working tree is read as it is,
uncommitted edits included.

    python scripts/src_lines.py [--against REV]
"""

from __future__ import annotations

import argparse
import ast
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = "src"


def measure(text: str) -> tuple[int, int]:
    """(lines, no-doc) of one module's source text."""
    lines = {number for number, line in enumerate(text.splitlines(), 1)
             if line.strip() and not line.lstrip().startswith("#")}
    docs = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docs.update(range(first.lineno, first.end_lineno + 1))
    return len(lines), len(lines - docs)


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout


def tree_modules() -> dict[str, tuple[int, int]]:
    return {path.relative_to(ROOT).as_posix(): measure(path.read_text(encoding="utf-8"))
            for path in sorted((ROOT / SRC).rglob("*.py"))}


def rev_modules(rev: str) -> dict[str, tuple[int, int]]:
    names = git("ls-tree", "-r", "--name-only", rev, "--", SRC).split()
    return {name: measure(git("show", f"{rev}:{name}")) for name in names if name.endswith(".py")}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="REV", help="also print the change from REV")
    args = parser.parse_args()
    now, then = tree_modules(), {}
    if args.against:
        try:
            then = rev_modules(args.against)
        except subprocess.CalledProcessError as err:  # an unknown revision
            parser.error(err.stderr.strip())
    names = sorted(set(now) | set(then))
    width = max(len(name) for name in names)
    header = f"{'module':<{width}}  {'lines':>6}  {'no-doc':>6}"
    if args.against:
        header += f"  {'Δlines':>7}  {'Δno-doc':>7}"
    print(header)
    rows = []
    for name in names:
        lines, nodoc = now.get(name, (0, 0))
        old_lines, old_nodoc = then.get(name, (0, 0))
        rows.append((name, lines, nodoc, lines - old_lines, nodoc - old_nodoc))
    rows.append(("total", *(sum(column) for column in list(zip(*rows))[1:])))
    for name, lines, nodoc, d_lines, d_nodoc in rows:
        row = f"{name:<{width}}  {lines:>6}  {nodoc:>6}"
        if args.against:
            row += f"  {d_lines:>+7}  {d_nodoc:>+7}"
        print(row)


if __name__ == "__main__":
    main()
