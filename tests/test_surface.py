"""The public surface of ``bansim`` is what the program itself runs.

Every public top-level name of a ``bansim`` module must be read somewhere in
the code under ``src/`` or ``perfbench/``; a name only the tests call
belongs in the tests.  Every default of a public top-level function must be
left to it by at least one call in the same program code: a default that
every program call overrides is one only the tests read.  So must every
default of a ``bansim`` dataclass field, except in the classes ``SCHEMAS``
reads through ``_fields``, whose defaults are the config defaults.  Every
field of a ``bansim`` dataclass must be read as an attribute by the same
program code, outside ``__post_init__``: a field that only its own check or
the tests read is state the program does not need.
A dataclass whose fields ``SCHEMAS`` reads as config keys defines no
``__post_init__``: each key's kind holds its range, and a check in the class
would be a second home for the same rule.
Every exception class a ``bansim`` module defines must be named in an
``except`` of the same program code: a type that no handler tells apart from
its base is one more name for the base.
``ConfigError`` is built only where a config is parsed and where
``run_experiment`` turns a rejected setting into one: the runners and models
raise ``ValueError``, and the experiment's name is prefixed once.
The harness turns config values into arrays, and the models take those
arrays as they are: ``np.asarray`` is called only under ``harness/``.  The
harness alone turns the config seed into random streams, and the models take
``np.random.Generator``s: no module outside ``harness/`` and ``seeding``
calls ``default_rng``, ``spawn``, ``SeedSequence``, ``PCG64`` or
``Generator``, or imports ``seeding``.  ``seeding`` computes
``SeedSequence``'s hash itself, so it builds no ``SeedSequence`` either.
No module calls ``np.convolve`` or ``np.correlate``, whose sums follow the
OpenBLAS core: ``channels.apply_channel`` convolves in a fixed order.
Regressor rows have one home: ``sliding_window_view`` is called only in
``_kernels`` (``frames``).
What the README names exists: the repo paths it quotes, the ``bansim``
modules (its module table lists each one), the experiments with their
configs, and the CLI's flags.
"""

import ast
import builtins
import dataclasses
import importlib
import re
from pathlib import Path

import pytest

from bansim.harness import cli
from bansim.harness.config import EXPERIMENTS, SCHEMAS, _fields, parse_config
import readme

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bansim"

def _module(path: Path) -> str:
    return ".".join(path.relative_to(PACKAGE).with_suffix("").parts)


def _public_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {n for n in names if not n.startswith("_")}


def _identifiers_read(tree: ast.Module) -> set[str]:
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return read


def test_every_public_name_has_a_program_caller():
    program = sorted(PACKAGE.rglob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    read = set()
    for path in program:
        read |= _identifiers_read(ast.parse(path.read_text(), str(path)))
    defined = {
        (_module(path), name)
        for path in sorted(PACKAGE.rglob("*.py"))
        for name in _public_names(ast.parse(path.read_text(), str(path)))
    }
    assert ("channels", "path_loss_db") in defined  # the scan sees the package
    unused = sorted(f"{mod}.{name}" for mod, name in defined if name not in read)
    assert unused == [], f"public names no program code reads: {unused}"


def _on_path(node: ast.expr) -> bool:
    """Whether an expression is built from ``Path(...)``, as in
    ``Path(__file__).resolve().parent``, whose attributes are not fields."""
    while isinstance(node, (ast.Attribute, ast.Call, ast.Subscript)):
        node = node.func if isinstance(node, ast.Call) else node.value
    return isinstance(node, ast.Name) and node.id == "Path"


def _walk(node: ast.AST):
    """``ast.walk`` that skips ``__post_init__`` bodies: a dataclass checking
    its own fields there does not make them read."""
    yield node
    for child in ast.iter_child_nodes(node):
        if not (isinstance(child, ast.FunctionDef) and child.name == "__post_init__"):
            yield from _walk(child)


def _attributes_read(tree: ast.AST) -> set[str]:
    return {node.attr for node in _walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and not _on_path(node.value)}


def test_path_attributes_are_not_field_reads():
    code = "ROOT = Path(__file__).resolve().parent.parent\nnode.depth\nnode.key()"
    assert _attributes_read(ast.parse(code)) == {"depth", "key"}


def test_post_init_checks_are_not_field_reads():
    code = ("class C:\n    def __post_init__(self):\n        self.unit > 0\n"
            "    def use(self):\n        return self.taps\n")
    assert _attributes_read(ast.parse(code)) == {"taps"}


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def test_every_dataclass_field_is_read():
    fields = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                fields.update((_module(path), node.name, item.target.id)
                              for item in node.body
                              if isinstance(item, ast.AnnAssign)
                              and isinstance(item.target, ast.Name))
    assert ("channels", "BanModelParams", "delta_ns") in fields  # the scan sees them
    program = sorted(PACKAGE.rglob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    read = set()
    for path in program:
        read |= _attributes_read(ast.parse(path.read_text(), str(path)))
    unread = sorted(f"{mod}.{cls}.{name}" for mod, cls, name in fields
                    if name not in read)
    assert unread == [], f"dataclass fields nothing reads: {unread}"


def _schema_classes() -> list[tuple[type, str, dict]]:
    """(class, section, keys) of each ``bansim`` dataclass whose fields are
    all keys of one ``SCHEMAS`` section."""
    classes = {cls for path in sorted(PACKAGE.rglob("*.py"))
               for cls in vars(importlib.import_module(f"bansim.{_module(path)}")).values()
               if isinstance(cls, type) and dataclasses.is_dataclass(cls)}
    found = [(cls, section, keys) for cls in classes
             for schema in SCHEMAS.values() for section, keys in schema.items()
             if {f.name for f in dataclasses.fields(cls)} <= keys.keys()]
    # the scan sees the parameter classes
    assert {"BanModelParams", "PathLossParams", "GbhdsParams",
            "LaThresholds"} <= {cls.__name__ for cls, _, _ in found}
    return found


def test_schema_dataclasses_define_no_post_init():
    checked = sorted({cls.__name__ for cls, _, _ in _schema_classes()
                      if "__post_init__" in vars(cls)})
    assert checked == [], f"dataclasses that check config keys themselves: {checked}"


def test_field_keys_default_to_their_fields():
    # a key _fields derives from a field has one default, the field's; a key
    # declared again in SCHEMAS would leave the field's default to the tests
    differ = sorted(f"[{section}] {key}" for cls, section, keys in _schema_classes()
                    for key, (_, default) in _fields(cls).items()
                    if keys[key][1] != default)
    assert differ == [], f"keys whose default is not their field's: {differ}"


def _exception_classes(trees: dict[str, ast.Module]) -> set[tuple[str, str]]:
    """(module, class) of each class deriving, directly or through other
    classes found here, from a built-in exception or from a class named
    ``*Error`` or ``*Exception``, such as numpy's ``LinAlgError``."""
    classes = {(mod, node.name): [base.attr if isinstance(base, ast.Attribute) else
                                  getattr(base, "id", None) for base in node.bases]
               for mod, tree in trees.items() for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)}
    names = {name for name in dir(builtins)
             if isinstance(getattr(builtins, name), type)
             and issubclass(getattr(builtins, name), BaseException)}
    found: set[tuple[str, str]] = set()
    while True:
        more = {key for key, bases in classes.items()
                if any(base in names or str(base).endswith(("Error", "Exception"))
                       for base in bases)}
        if more <= found:
            return found
        found |= more
        names |= {name for _, name in more}


def _names_caught(tree: ast.AST) -> set[str]:
    """The names an ``except`` clause catches: ``A``, ``m.A`` and each
    element of a tuple of them."""
    caught = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            caught.update(t.attr if isinstance(t, ast.Attribute) else t.id
                          for t in types if isinstance(t, (ast.Attribute, ast.Name)))
    return caught


def test_except_scan_sees_every_form():
    code = ("try:\n    f()\nexcept A:\n    pass\nexcept m.B as exc:\n    pass\n"
            "except (C, n.D):\n    pass\nexcept:\n    pass\n")
    assert _names_caught(ast.parse(code)) == {"A", "B", "C", "D"}
    classes = ("class E(ValueError): pass\nclass F(E): pass\n"
               "class G(np.linalg.LinAlgError): pass\nclass H: pass\n")
    assert _exception_classes({"m": ast.parse(classes)}) == {("m", "E"), ("m", "F"),
                                                             ("m", "G")}


def test_every_exception_class_is_caught_by_name():
    trees = {_module(path): ast.parse(path.read_text(), str(path))
             for path in sorted(PACKAGE.rglob("*.py"))}
    errors = _exception_classes(trees)
    assert ("harness.config", "ConfigError") in errors  # the scan sees them
    program = sorted(PACKAGE.rglob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    caught = set()
    for path in program:
        caught |= _names_caught(ast.parse(path.read_text(), str(path)))
    uncaught = sorted(f"{mod}.{name}" for mod, name in errors if name not in caught)
    assert uncaught == [], f"exception classes no program except names: {uncaught}"


def _asarray_calls(path: Path) -> list[str]:
    lines = sorted(node.lineno
                   for node in ast.walk(ast.parse(path.read_text(), str(path)))
                   if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                   and node.func.attr == "asarray")
    return [f"{path.relative_to(PACKAGE)}:{line}" for line in lines]


def test_asarray_only_at_the_config_boundary():
    harness = PACKAGE / "harness"
    calls = {path: _asarray_calls(path) for path in sorted(PACKAGE.rglob("*.py"))}
    # the scan sees the boundary's own conversions of config lists
    assert any(calls[path] for path in harness.glob("*.py"))
    models = [site for path, sites in calls.items() if harness not in path.parents
              for site in sites]
    assert models == [], f"np.asarray outside harness/: {models}"



def _defaulted(fn: ast.FunctionDef) -> list[tuple[str, int | None]]:
    """(name, position) of each parameter of ``fn`` that has a default; a
    keyword-only parameter has no position."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    return ([(arg.arg, i) for i, arg in enumerate(positional) if i >= first]
            + [(arg.arg, None) for arg, default in zip(args.kwonlyargs, args.kw_defaults)
               if default is not None])


def _omits(call: ast.Call, name: str, position: int | None) -> bool:
    """Whether a call surely leaves a parameter to its default: no
    ``*args`` or ``**kwargs``, no argument at its position and no keyword
    of its name."""
    if (any(isinstance(arg, ast.Starred) for arg in call.args)
            or any(kw.arg in (None, name) for kw in call.keywords)):
        return False
    return position is None or len(call.args) <= position


def _field_defaulted(cls: ast.ClassDef) -> list[tuple[str, int]]:
    """(name, position) of each ``__init__`` parameter of a dataclass that
    has a default: a field with a value, unless it is a ``field(...)`` call
    with neither ``default`` nor ``default_factory``; a field with
    ``init=False`` is no parameter."""
    found, position = [], 0
    for item in cls.body:
        if not (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)):
            continue
        value = item.value
        if isinstance(value, ast.Call) and _callee(value) == "field":
            options = {kw.arg: kw.value for kw in value.keywords}
            if getattr(options.get("init"), "value", True) is False:
                continue
            if "default" not in options and "default_factory" not in options:
                value = None
        if value is not None:
            found.append((item.target.id, position))
        position += 1
    return found


def _fields_classes(tree: ast.AST) -> set[str]:
    """The classes named as the first argument of a ``_fields(...)`` call."""
    return {arg.attr if isinstance(arg, ast.Attribute) else arg.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and _callee(node) == "_fields"
            for arg in node.args[:1]}


def test_default_scan_sees_every_form():
    fn = ast.parse("def f(a, b=1, /, c=2, *d, e, g=3, **h): pass").body[0]
    assert _defaulted(fn) == [("b", 1), ("c", 2), ("g", None)]
    calls = {code: ast.parse(code).body[0].value
             for code in ("f(0)", "f(0, 1)", "f(0, c=2)", "f(*x)", "f(0, **k)",
                          "f(0, 1, 2, g=3)")}
    assert [code for code, call in calls.items() if _omits(call, "c", 2)] == [
        "f(0)", "f(0, 1)"]
    assert [code for code, call in calls.items() if _omits(call, "g", None)] == [
        "f(0)", "f(0, 1)", "f(0, c=2)"]
    cls = ast.parse("class C:\n    a: int\n    b: list = field(repr=False)\n"
                    "    c: int = 1\n    d: int = field(init=False)\n"
                    "    e: int = field(default=2)\n"
                    "    f: list = field(default_factory=list)\n"
                    "    g: int = field(init=False, default=0)\n"
                    "    def h(self): pass\n").body[0]
    assert _field_defaulted(cls) == [("c", 2), ("e", 3), ("f", 4)]
    schema = ast.parse("_fields(m.A, x=1)\n_fields(B)\nfields(C)")
    assert _fields_classes(schema) == {"A", "B"}


def test_every_default_is_left_to_it_by_a_program_call():
    # a default that every program call overrides is a second source for the
    # argument, and only the tests read it; so is a dataclass field's, except
    # in the classes _fields reads, whose defaults are the config defaults
    trees = {_module(path): ast.parse(path.read_text(), str(path))
             for path in sorted(PACKAGE.rglob("*.py"))}
    schema_classes = set().union(*map(_fields_classes, trees.values()))
    defaults = {(mod, node.name, name): position
                for mod, tree in trees.items() for node in tree.body
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
                for name, position in _defaulted(node)}
    defaults.update({(mod, node.name, name): position
                     for mod, tree in trees.items() for node in ast.walk(tree)
                     if isinstance(node, ast.ClassDef) and _is_dataclass(node)
                     and node.name not in schema_classes
                     for name, position in _field_defaulted(node)})
    program = sorted(PACKAGE.rglob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    calls = [node for path in program
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Call)]
    # the scan sees them: a function's, a field's, and the schema classes
    assert ("harness.cli", "main", "argv") in defaults
    assert ("harness.svg", "PlotSpec", "log_y") in defaults
    assert {"BanModelParams", "PathLossParams", "GbhdsParams",
            "LaThresholds"} <= schema_classes
    unused = sorted(f"{mod}.{fn}({name})" for (mod, fn, name), position in defaults.items()
                    if not any(_callee(call) == fn and _omits(call, name, position)
                               for call in calls))
    assert unused == [], f"defaults no program call leaves to them: {unused}"


# the calls that build a seed object or a generator from a seed, and the ones
# that also build a bit generator or a Generator around it
SEED_OBJECTS = ("default_rng", "spawn", "SeedSequence")
STREAM_CALLS = (*SEED_OBJECTS, "PCG64", "Generator")


def _callee(node: ast.Call) -> str | None:
    """``name`` of a call ``<name>(...)`` or ``<x>.<name>(...)``."""
    callee = node.func
    return (callee.attr if isinstance(callee, ast.Attribute) else
            callee.id if isinstance(callee, ast.Name) else None)


def _calls(tree: ast.AST, names: tuple[str, ...]) -> list[int]:
    """Lines of the calls ``<name>(...)`` and ``<x>.<name>(...)``."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and _callee(node) in names)


def _seeding_imports(tree: ast.AST) -> list[int]:
    """Lines that import ``seeding`` or a name from it, in any form."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")
            if module[-1] == "seeding" or any(a.name == "seeding" for a in node.names):
                lines.append(node.lineno)
        elif isinstance(node, ast.Import):
            if any(a.name.split(".")[-1] == "seeding" for a in node.names):
                lines.append(node.lineno)
    return sorted(lines)


def test_seeding_calls_scan_sees_both_forms():
    code = ("def gen_a(seed):\n    return np.random.default_rng(seed)\n"
            "def gen_b(seed):\n    return seed.spawn(2)\n"
            "def gen_c(seed):\n    return default_rng(seed)\n"
            "def gen_d(seed):\n    return np.random.SeedSequence(seed)\n"
            "def gen_e(seed):\n    return Generator(np.random.PCG64(seed))\n")
    assert _calls(ast.parse(code), SEED_OBJECTS) == [2, 4, 6, 8]
    assert _calls(ast.parse(code), STREAM_CALLS) == [2, 4, 6, 8, 10, 10]


def test_seeding_imports_scan_sees_every_form():
    imports = ("from . import seeding\nfrom .seeding import child_streams\n"
               "import bansim.seeding\nfrom bansim import channels, seeding\n"
               "from . import channels\nimport numpy\n")
    assert _seeding_imports(ast.parse(imports)) == [1, 2, 3, 4]


def _stream_sites(path) -> list[str]:
    """The stream-building calls and ``seeding`` imports of one module."""
    tree = ast.parse(path.read_text(), str(path))
    return ([f"{path.name}:{line}" for line in _calls(tree, STREAM_CALLS)] +
            [f"{path.name}:{line} imports seeding" for line in _seeding_imports(tree)])


def test_channel_generators_take_stream_states():
    # the channel draws take the Generators the harness built; a seed object
    # or generator built in channels (the gen_* functions or the helpers they
    # call) would bring the per-draw seeding cost back
    path = PACKAGE / "channels.py"
    tree = ast.parse(path.read_text(), str(path))
    generators = {node.name for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef) and node.name.startswith("gen_")}
    assert {"gen_clusters", "gen_ref", "gen_outdoor_ban", "gen_indoor_ban"} <= generators
    assert _stream_sites(path) == [], f"stream seeding in {path.name}"


def test_self_pruning_takes_generators():
    # broadcast_compare hands each trial the Generator the harness built for
    # it; a generator built from a seed inside zigbee would seed twice
    path = PACKAGE / "zigbee.py"
    tree = ast.parse(path.read_text(), str(path))
    functions = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert {"self_pruning_broadcast", "broadcast_compare"} <= functions
    assert _stream_sites(path) == [], f"stream seeding in {path.name}"


def test_models_take_generators():
    # the harness alone turns a seed into streams, directly or through
    # bansim.seeding; a model that built its own would be a second place
    # deciding how a seed becomes a stream
    harness = PACKAGE / "harness"
    models = [path for path in sorted(PACKAGE.rglob("*.py"))
              if harness not in path.parents and path.name != "seeding.py"]
    assert {"sigproc.py", "equalize.py", "channels.py", "linkadapt.py",
            "zigbee.py"} <= {path.name for path in models}
    found = [site for path in models for site in _stream_sites(path)]
    assert found == [], f"streams decided outside harness/: {found}"


def test_seeding_builds_no_seed_sequence():
    # seeding hashes a block of spawn keys at once; numpy's SeedSequence,
    # default_rng or spawn there would hash one key per object again
    path = PACKAGE / "seeding.py"
    tree = ast.parse(path.read_text(), str(path))
    assert _calls(tree, SEED_OBJECTS) == [], f"seed objects in {path.name}"


# (callee, the one module that may call it)
ONE_HOME = [("sliding_window_view", "_kernels")]


@pytest.mark.parametrize("name,home", ONE_HOME, ids=[name for name, _ in ONE_HOME])
def test_receiver_array_recipe_has_one_home(name, home):
    # a second regressor-row builder would be a second place to mend when
    # its padding changes
    callers = sorted(_module(path) for path in PACKAGE.rglob("*.py")
                     if _calls(ast.parse(path.read_text(), str(path)), (name,)))
    assert callers == [home], f"{name} called outside {home}: {callers}"


def test_no_module_convolves_through_blas():
    # np.convolve and np.correlate sum each output with BLAS's dot, whose
    # order follows the OpenBLAS core; apply_channel's polyphase sum has a
    # fixed order, and a second convolution would not
    assert _calls(ast.parse("np.convolve(a, b)"), ("convolve",)) == [1]
    sites = [f"{_module(path)}:{line}" for path in sorted(PACKAGE.rglob("*.py"))
             for line in _calls(ast.parse(path.read_text(), str(path)),
                                ("convolve", "correlate"))]
    assert sites == [], f"BLAS convolutions in bansim: {sites}"


def _config_error_sites(tree: ast.AST) -> list[tuple[str, int]]:
    """(enclosing top-level function or "<module>", line) of each call
    ``ConfigError(...)`` or ``<x>.ConfigError(...)``."""
    sites = []
    for top in tree.body:
        scope = top.name if isinstance(top, ast.FunctionDef) else "<module>"
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and _callee(node) == "ConfigError":
                sites.append((scope, node.lineno))
    return sites


def test_config_error_scan_sees_both_forms():
    code = ("raise ConfigError('a')\ndef f():\n    raise config.ConfigError('b')\n"
            "def g():\n    raise ValueError('c')\n")
    assert _config_error_sites(ast.parse(code)) == [("<module>", 1), ("f", 3)]


def test_config_error_is_built_at_the_config_boundary():
    # the runners reject a setting with ValueError, as the models do, and
    # run_experiment names the experiment once; a ConfigError built in a
    # runner would skip that prefix
    sites = {_module(path): _config_error_sites(ast.parse(path.read_text(), str(path)))
             for path in sorted(PACKAGE.rglob("*.py"))}
    assert sites["harness.config"]  # the scan sees the parser's own
    assert {scope for scope, _ in sites["harness.experiments"]} == {"run_experiment"}
    elsewhere = [f"{mod}:{line} in {scope}" for mod, found in sites.items()
                 if mod not in ("harness.config", "harness.experiments")
                 for scope, line in found]
    assert elsewhere == [], f"ConfigError built outside the config boundary: {elsewhere}"


def test_readme_paths_exist():
    paths = [span for span in readme.spans()
             if span.startswith(("configs/", "perfbench/", "src/", "tests/"))]
    assert "configs/la_sim.cfg" in paths  # the scan sees the experiments table
    missing = [path for path in paths if not (ROOT / path).exists()]
    assert missing == [], f"README paths that do not exist: {missing}"


def test_readme_modules_import():
    named = {span for span in readme.spans() if re.fullmatch(r"bansim(\.\w+)+", span)}
    assert "bansim.seeding" in named
    for name in sorted(named):
        importlib.import_module(name)


def test_readme_module_table_lists_the_package():
    listed = sorted(span for module, _ in readme.table("Module")
                    for span in readme.spans(module))
    modules = sorted(f"bansim.{_module(path)}" for path in PACKAGE.rglob("*.py")
                     if path.name != "__init__.py")
    assert listed == modules


def test_readme_experiments_table_lists_the_experiments():
    rows = [(readme.spans(experiment), readme.spans(configs))
            for experiment, configs, _ in readme.table("Experiment")]
    assert sorted(experiment for [experiment], _ in rows) == sorted(EXPERIMENTS)
    for [experiment], configs in rows:
        assert configs
        for path in configs:
            parse_config((ROOT / path).read_text(), experiment)


def test_readme_synopsis_flags_are_the_parsers():
    [synopsis] = [line for line in readme.text().splitlines()
                  if line.startswith("bansim <experiment> ")]
    flags = {flag for action in cli.build_parser()._actions
             for flag in action.option_strings} - {"-h", "--help"}
    assert set(re.findall(r"--[\w-]+", synopsis)) == flags
