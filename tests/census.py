"""Statement and branch census of tier-1 over ``src/bansim``.

Runs the tier-1 suite in this process under a line tracer
(``sys.settrace`` and ``threading.settrace``) that records, for frames
whose code lives in ``src/bansim``, every line run and every step from one
line to the next.  It then walks each module's syntax tree and fails,
naming ``file:line``, for:

- every statement no test reaches;
- every ``if`` and ``while`` whose test always went the same way.

A statement no input reaches is deleted, or covered by a test that checks
something; ``ALLOWLIST`` exempts the few that no test can reach, each with
its reason.  Run from anywhere, with the test dependencies installed::

    python tests/census.py

Exit 0 when nothing is unreached, 1 when something is, and pytest's own
code when the suite itself fails.  The name keeps pytest from collecting it:
tier-1 nested in tier-1 would double its time.  Conditional expressions and
``and``/``or`` operands are not checked.  The stdlib alone does the census.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "bansim"

# (module under SRC, the statement's first source line, stripped): why no
# test reaches it.  An entry exempts the statement, both arms of its test
# and every statement inside it
ALLOWLIST = {
    ("harness/cli.py", 'if __name__ == "__main__":'):
        "runs only as `python -m bansim.harness.cli`; tests call main() "
        "and the installed `bansim` script calls it too",
}

RETURN = -1  # the line a frame steps to when it returns

# co_filename -> (lines run, (from, to) steps), or None outside SRC
_seen: dict[str, tuple[set, set] | None] = {}


def _trace(frame, event, arg):
    filename = frame.f_code.co_filename
    if filename not in _seen:
        inside = Path(os.path.realpath(filename)).is_relative_to(SRC)
        _seen[filename] = (set(), set()) if inside else None
    record = _seen[filename]
    if record is None:
        return None
    lines, steps = record
    prev = None

    def local(frame, event, arg):
        nonlocal prev
        if event == "line":
            line = frame.f_lineno
            lines.add(line)
            steps.add((prev, line))
            prev = line
        elif event == "return":
            steps.add((prev, RETURN))
        elif event == "exception":
            # a test that raises leaves for a handler, not for either arm
            prev = None
        return local

    return local


def _first_line(node: ast.stmt) -> int:
    return min([node.lineno] + [d.lineno for d in
                                getattr(node, "decorator_list", [])])


def _is_docstring(node: ast.stmt, parent: ast.AST) -> bool:
    return (isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                ast.AsyncFunctionDef))
            and parent.body[0] is node and isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def _header(node: ast.stmt) -> range:
    """The lines whose events show that a statement ran: a simple
    statement's own lines, or a compound statement's lines up to its body."""
    if getattr(node, "body", None):
        return range(_first_line(node), _first_line(node.body[0]))
    return range(_first_line(node), node.end_lineno + 1)


def census(module: str, source: str, lines: set[int],
           steps: set[tuple[int | None, int]]) -> tuple[list[str], set]:
    """The unreached statements and one-sided branches of one module, as
    ``file:line: what`` strings, and the allowlist keys it matched."""
    tree = ast.parse(source)
    text = source.splitlines()
    faults, matched = [], set()
    where = f"src/bansim/{module}"
    nodes = []

    def walk(parent, exempt):
        for field in ("body", "orelse", "finalbody", "handlers", "cases"):
            for node in getattr(parent, field, []):
                if isinstance(node, (ast.ExceptHandler, ast.match_case)):
                    walk(node, exempt)
                    continue
                if (_is_docstring(node, parent)
                        or isinstance(node, (ast.Global, ast.Nonlocal))):
                    continue
                key = (module, text[node.lineno - 1].strip())
                if key in ALLOWLIST:
                    matched.add(key)
                nodes.append((node, exempt or key in ALLOWLIST))
                walk(node, exempt or key in ALLOWLIST)

    walk(tree, False)
    for node, exempt in nodes:
        if exempt:
            continue
        if not lines.intersection(_header(node)):
            faults.append(f"{where}:{node.lineno}: statement never reached")
            continue
        if isinstance(node, (ast.If, ast.While)):
            test = set(range(node.lineno, node.test.end_lineno + 1))
            body = range(_first_line(node.body[0]), node.body[-1].end_lineno + 1)
            arms = {b in body for a, b in steps if a in test and b not in test}
            kind = "if" if isinstance(node, ast.If) else "while"
            for arm, word in ((True, "true"), (False, "false")):
                if arm not in arms:
                    faults.append(f"{where}:{node.lineno}: {kind} never {word}")
    return faults, matched


def main() -> int:
    import pytest

    os.chdir(ROOT)
    sys.settrace(_trace)
    threading.settrace(_trace)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider",
                            "--continue-on-collection-errors"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if code != 0:
        print(f"census: tier-1 failed (pytest exit {int(code)})", file=sys.stderr)
        return int(code)
    runs: dict[Path, tuple[set, set]] = {}
    for filename, record in _seen.items():
        if record is not None:
            path = Path(os.path.realpath(filename))
            lines, steps = runs.setdefault(path, (set(), set()))
            lines |= record[0]
            steps |= record[1]
    faults, matched = [], set()
    for path in sorted(SRC.rglob("*.py")):
        lines, steps = runs.get(path, (set(), set()))
        module = path.relative_to(SRC).as_posix()
        found, keys = census(module, path.read_text(), lines, steps)
        faults += found
        matched |= keys
    for module, line in sorted(ALLOWLIST.keys() - matched):
        faults.append(f"src/bansim/{module}: allowlisted {line!r} matches "
                      "no statement")
    for fault in faults:
        print(fault, file=sys.stderr)
    print(f"census: {len(faults)} unreached", file=sys.stderr)
    return 1 if faults else 0


if __name__ == "__main__":
    raise SystemExit(main())
