"""Statement, branch and reach census of tier-1 over ``src/bansim``.

Runs the tier-1 suite in this process under a line tracer
(``sys.settrace`` and ``threading.settrace``) that records, for frames
whose code lives in ``src/bansim``, every step from one line to the next.
It records apart the steps the program's own traffic runs: those at import
(beneath a module's top level), beneath ``bansim.harness.cli.main`` and
beneath code under ``perfbench/``.  A test's direct call into a module is
not the program's traffic.  It then walks each module's syntax tree and
fails, naming ``file:line``, for:

- every statement no test reaches;
- every ``if`` and ``while`` whose test always went the same way;
- every statement, and every arm of an ``if`` or ``while``, that tests
  reach only by direct calls (the reach rule).

A statement no input reaches is deleted, or covered by a test that checks
something; ``ALLOWLIST`` exempts the few that no test can reach, each with
its reason, together with every statement inside them.  A statement that
only direct calls reach is deleted, or reached from a config, or kept by a
``REACH`` entry that gives its reason: an internal invariant, or a check of
a public function's arguments.  A ``REACH`` entry exempts its own statement
and arms, never the statements inside it.  Run from anywhere, with the test
dependencies installed::

    python tests/census.py

Exit 0 when nothing is at fault, 1 when something is, and pytest's own code
when the suite itself fails.  The name keeps pytest from collecting it:
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

# the program's entry points besides a module's import: each file or
# directory, with the one function of it that is an entry, or None for all
ENTRIES = {ROOT / "perfbench": None, SRC / "harness" / "cli.py": "main"}

# (module under SRC, the statement's first source line, stripped): why no
# test reaches it.  An entry exempts the statement, both arms of its test
# and every statement inside it
ALLOWLIST = {
    ("harness/cli.py", 'if __name__ == "__main__":'):
        "runs only as `python -m bansim.harness.cli`; tests call main() "
        "and the installed `bansim` script calls it too",
}

# why only direct calls reach a check and the statements it guards
_DFE = ("a DFE output that goes non-finite: the feedforward sum overflows "
        "first, under run_experiment's errstate, and feedback taps fitted to "
        "unit-power training symbols stay small.  No mud_compare config "
        "found reaches it: singular and near-singular systems at ridge "
        "1e-300, templates from 1e-150 to 1e150 and nb 50 run or exit 2 "
        "earlier")
_SCHEMES = ("a constellation check: the program builds only the four SCHEMES, "
            "finite rectangular grids of 2, 4, 8 and 16 points")
_SAMPLES = ("nearest_labels' argument check: the program slices what numpy "
            "computes under run_experiment's errstate, which raises on "
            "overflow and NaN; no config found reaches it")
_NEGATIVE = ("numpy's guard on a negative seed word: the program's seeds are "
             "checked non-negative as `seed` and `--seed` are parsed")
_HIGH_INDEX = ("child indices of 2**32 and above: the program starts at 0, and "
               "2**32 trials would not end; "
               "test_indices_of_two_words_are_seeded_as_numpy_does checks them")
_NAN_FIRST = ("a column whose first value is NaN: the program plots finite "
              "columns alone")
_LOG_Y = ("emit_svg's argument check: the runners ask for a log-y plot only "
          "when every value is positive")
_EMPTY = "emit_svg's argument check: every plotted table has a row"
_LENGTHS = ("ResultTable's argument check: each runner fills its columns "
            "from one loop or one array")
_KINDS = ("ResultTable's argument check: each runner's column holds one of "
          "float, int or str")
_DISCONNECTED = ("parse_topology puts every tree edge into the radio graph, "
                 "so from a tree-node source each sweep covers one more tree "
                 "node until the tree is covered; on a disconnected graph a "
                 "direct call ends here instead of looping")

# (module under SRC, the statement's first source line, stripped): why only
# direct calls reach it.  An entry exempts the statement and both arms of
# its test, not the statements inside it
REACH = {
    ("_kernels.py", "size = float(abs(yn))"):
        "Python's abs overflows only on a y of finite parts whose modulus "
        "passes the float range: every cma_convergence config probed, mu up "
        "to 1.7e308 included, passes DIVERGENCE_LIMIT a step earlier",
    ("_kernels.py", "while stop < ff.size:"):
        "a repair that runs to the last symbol, its decisions differing from "
        "the sweep's guesses in every chunk; the program's runs settle first",
    ("_kernels.py", "if not np.isfinite(soft).all():"): _DFE,
    ("_kernels.py", 'raise ValueError("cannot slice a non-finite DFE output")'): _DFE,
    ("sigproc.py", "if not np.isfinite(constellation).all():"): _SCHEMES,
    ("sigproc.py", 'raise ValueError("constellation points must be finite")'): _SCHEMES,
    ("sigproc.py", "if not len(re) * len(im) == len(label) == constellation.size:"):
        _SCHEMES,
    ("sigproc.py", 'raise ValueError("constellation is not a rectangular grid")'):
        _SCHEMES,
    ("sigproc.py", "if bps < 1 or size != 1 << bps:"): _SCHEMES,
    ("sigproc.py", 'raise ValueError(f"a constellation needs 2**k points with k >= 1, '
     'got {size}")'): _SCHEMES,
    ("sigproc.py", "if not (np.isfinite(real).all() and np.isfinite(imag).all()):"):
        _SAMPLES,
    ("sigproc.py", 'raise ValueError("cannot slice a non-finite sample")'): _SAMPLES,
    ("seeding.py", "if value < 0:"): _NEGATIVE,
    ("seeding.py", 'raise ValueError(f"seed words must come from non-negative ints, '
     'got {value}")'): _NEGATIVE,
    ("seeding.py", "if block >> 32:"): _HIGH_INDEX,
    ("seeding.py", "index_words.append((index >> 32).astype(np.uint32))"): _HIGH_INDEX,
    ("harness/svg.py", "if values[0] != values[0]:"): _NAN_FIRST,
    ("harness/svg.py", "return float(values[0])"): _NAN_FIRST,
    ("harness/svg.py", "if bad.size:"): _LOG_Y,
    ("harness/svg.py", "i = int(bad[0])"): _LOG_Y,
    ("harness/svg.py", "raise ValueError("): _LOG_Y,
    ("harness/svg.py", "if not x.size:"): _EMPTY,
    ("harness/svg.py", 'raise ValueError("empty table")'): _EMPTY,
    ("harness/svg.py", "if spec.title:"):
        "an untitled plot: every runner titles its plots, and emit_svg draws "
        "any PlotSpec",
    ("harness/table.py", "if len(set(lengths.values())) > 1:"): _LENGTHS,
    ("harness/table.py", 'raise ValueError(f"columns differ in length: {lengths}")'):
        _LENGTHS,
    ("harness/table.py", "if len(kinds) > 1 or not kinds <= _FORMATS.keys():"): _KINDS,
    ("harness/table.py", "raise ValueError("): _KINDS,
    ("harness/table.py", 'raise KeyError(f"no column named {name!r}") from None'):
        "column's argument check: each PlotSpec names columns of its table",
    ("zigbee.py", "if not progressed:"): _DISCONNECTED,
    ("zigbee.py", "break  # disconnected: residual left as diagnostic"): _DISCONNECTED,
}

RETURN = -1  # the line a frame steps to when it returns


class Tracer:
    """A trace function for ``sys.settrace`` that records, for each file
    under `src`, the ``(from, to)`` line steps its frames run: apart, those
    of frames the program runs and those of the rest.  The program runs a
    module's top level, each frame of an entry (a path of `entries`, and its
    function name unless None), and whatever those call."""

    def __init__(self, src: Path, entries: dict[Path, str | None]):
        self.src, self.entries = src, entries
        # co_filename -> (steps of direct calls, the program's steps), of
        # files under src
        self.runs: dict[str, tuple[set, set]] = {}
        # co_filename -> (its runs or None, its entry: True for every
        # function, a function name, or False)
        self._places: dict[str, tuple[tuple[set, set] | None, str | bool]] = {}

    def _place(self, filename: str):
        place = self._places.get(filename)
        if place is None:
            path = Path(os.path.realpath(filename))
            runs = None
            if path.is_relative_to(self.src):
                runs = self.runs[filename] = (set(), set())
            entry = next((name or True for root, name in self.entries.items()
                          if path.is_relative_to(root)), False)
            place = self._places[filename] = (runs, entry)
        return place

    def _is_entry(self, code) -> bool:
        entry = self._place(code.co_filename)[1]
        return entry is True or entry == code.co_name

    def _reached(self, frame) -> bool:
        """Whether the program runs a frame under src: it is a top level or
        an entry, or its nearest traced caller was run by the program, or
        an entry calls it through untraced code."""
        if frame.f_code.co_name == "<module>" or self._is_entry(frame.f_code):
            return True
        frame = frame.f_back
        while frame is not None:
            reached = getattr(frame.f_trace, "reached", None)
            if reached is not None:
                return reached
            if self._is_entry(frame.f_code):
                return True
            frame = frame.f_back
        return False

    def trace(self, frame, event, arg):
        place = self._places.get(frame.f_code.co_filename)
        if place is None:
            place = self._place(frame.f_code.co_filename)
        if place[0] is None:
            return None
        direct, program = place[0]
        reached = self._reached(frame)
        add = (program if reached else direct).add
        prev = None

        def local(frame, event, arg):
            nonlocal prev
            if event == "line":
                add((prev, frame.f_lineno))
                prev = frame.f_lineno
            elif event == "return":
                add((prev, RETURN))
            else:
                # a test that raises leaves for a handler, not for either arm
                prev = None
            return local

        # the frames this one calls read it back through their f_back.f_trace
        local.reached = reached
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


def _arms(node: ast.If | ast.While, steps: set) -> set[bool]:
    """The arms of a branch that `steps` took: True into its body."""
    test = set(range(node.lineno, node.test.end_lineno + 1))
    body = range(_first_line(node.body[0]), node.body[-1].end_lineno + 1)
    return {b in body for a, b in steps if a in test and b not in test}


def census(modules: dict[str, tuple[str, set, set]], allowlist: dict,
           reach: dict) -> tuple[list[str], list[str]]:
    """The faults of the modules, each named by its path under the package
    and given as (source, steps tier-1 ran, steps the program ran), as
    ``module:line: what`` strings: (the unreached statements, one-sided
    branches and stale `allowlist` keys; the statements and arms only direct
    calls reach, and stale `reach` keys)."""
    unreached, direct = [], []
    matched, used = set(), set()
    for module, (source, steps, program) in modules.items():
        lines = {b for _, b in steps}
        program_lines = {b for _, b in program}
        text = source.splitlines()
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
                    if key in allowlist:
                        matched.add(key)
                    nodes.append((node, key, exempt or key in allowlist))
                    walk(node, exempt or key in allowlist)

        walk(ast.parse(source), False)
        for node, key, exempt in nodes:
            if exempt:
                continue
            where = f"{module}:{node.lineno}"
            if not lines.intersection(_header(node)):
                unreached.append(f"{where}: statement never reached")
                continue
            found = []
            program_ran = bool(program_lines.intersection(_header(node)))
            if not program_ran:
                found.append(f"{where}: statement reached only by direct calls")
            if isinstance(node, (ast.If, ast.While)):
                kind = "if" if isinstance(node, ast.If) else "while"
                arms, program_arms = _arms(node, steps), _arms(node, program)
                for arm, word in ((True, "true"), (False, "false")):
                    if arm not in arms:
                        unreached.append(f"{where}: {kind} never {word}")
                    elif program_ran and arm not in program_arms:
                        found.append(f"{where}: {kind} {word} only by direct calls")
            if found and key in reach:
                used.add(key)
            else:
                direct += found
    for module, line in sorted(allowlist.keys() - matched):
        unreached.append(f"{module}: allowlisted {line!r} matches no statement")
    for module, line in sorted(reach.keys() - used):
        direct.append(f"{module}: REACH entry {line!r} exempts nothing")
    return unreached, direct


def main() -> int:
    import pytest

    os.chdir(ROOT)
    tracer = Tracer(SRC, ENTRIES)
    sys.settrace(tracer.trace)
    threading.settrace(tracer.trace)
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
    for filename, (direct, program) in tracer.runs.items():
        steps, merged = runs.setdefault(Path(os.path.realpath(filename)), (set(), set()))
        steps |= direct | program
        merged |= program
    modules = {}
    for path in sorted(SRC.rglob("*.py")):
        steps, program = runs.get(path, (set(), set()))
        modules[path.relative_to(SRC).as_posix()] = (path.read_text(), steps, program)
    unreached, direct = census(modules, ALLOWLIST, REACH)
    for fault in unreached + direct:
        print(f"src/bansim/{fault}", file=sys.stderr)
    print(f"census: {len(unreached)} unreached, {len(direct)} reached only by "
          "direct calls", file=sys.stderr)
    return 1 if unreached or direct else 0


if __name__ == "__main__":
    raise SystemExit(main())
