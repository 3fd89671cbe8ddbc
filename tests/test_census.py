"""The census's reach rule on a small synthetic package, through the same
``Tracer`` and ``census`` that ``tests/census.py`` runs over ``src/bansim``:
a statement only a direct call reaches is reported, one an entry point runs
is not, and a ``REACH`` entry exempts its own statement alone and is
reported once it exempts nothing."""

import importlib.util
import sys
import textwrap

import census

MODULE = textwrap.dedent('''\
    def check(x):
        if x < 0:
            raise ValueError("negative")
        return x


    def twice(x):
        return 2 * check(x)


    def spare():
        return 1


    def later():
        return 0


    LIMIT = check(3)
    ''')


def _load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(tmp_path):
    """The synthetic module's source and its (steps, the program's steps):
    imported, then called directly, beneath the entry function ``main``,
    beneath another function of the entry's file, and beneath a file of
    the entry directory."""
    package, bench = tmp_path / "pkg", tmp_path / "bench"
    package.mkdir()
    bench.mkdir()
    (package / "mod.py").write_text(MODULE)
    (package / "cli.py").write_text("def main(mod):\n    return mod.twice(1)\n\n\n"
                                    "def helper(mod):\n    return mod.spare()\n")
    (bench / "run.py").write_text("def drive(mod):\n    return mod.later()\n")
    tracer = census.Tracer(package, {bench: None, package / "cli.py": "main"})
    outer = sys.gettrace()  # the census's own tracer, when it runs this test
    sys.settrace(tracer.trace)
    try:
        mod = _load(package / "mod.py", "census_mod")
        cli, run = _load(package / "cli.py", "census_cli"), _load(bench / "run.py", "run")
        try:
            mod.check(-1)
        except ValueError:
            pass
        assert cli.main(mod) == 2 and cli.helper(mod) == 1 and run.drive(mod) == 0
    finally:
        sys.settrace(outer)
    [(direct, program)] = [runs for filename, runs in tracer.runs.items()
                           if filename.endswith("mod.py")]
    return {"mod.py": (MODULE, direct | program, program)}


def test_direct_calls_alone_are_reported(tmp_path):
    modules = _run(tmp_path)
    # the import ran check's false arm and return; main ran twice, and the
    # entry directory ran later; the direct call and helper are not entries
    assert census.census(modules, {}, {}) == ([], [
        "mod.py:2: if true only by direct calls",
        "mod.py:3: statement reached only by direct calls",
        "mod.py:12: statement reached only by direct calls",
    ])


def test_reach_entry_exempts_its_statement_alone(tmp_path):
    modules = _run(tmp_path)
    reach = {("mod.py", "if x < 0:"): "its arm", ("mod.py", "return 1"): "spare",
             ("mod.py", "return 0"): "reached", ("mod.py", "pass"): "no statement"}
    assert census.census(modules, {}, reach) == ([], [
        "mod.py:3: statement reached only by direct calls",
        "mod.py: REACH entry 'pass' exempts nothing",
        "mod.py: REACH entry 'return 0' exempts nothing",
    ])


def test_allowlist_exempts_the_body_too(tmp_path):
    modules = _run(tmp_path)
    allowlist = {("mod.py", "if x < 0:"): "both arms and the raise"}
    assert census.census(modules, allowlist, {}) == ([], [
        "mod.py:12: statement reached only by direct calls",
    ])
