"""The public surface of ``bansim`` is what the program itself runs.

Every public top-level name of a ``bansim`` module must be read somewhere in
the code under ``src/`` or ``perfbench/``; a name only the tests call
belongs in the tests.  Every field of a ``bansim`` dataclass must be read as
an attribute by the same program code, outside ``__post_init__``: a field
that only its own check or the tests read is state the program does not need.
Every exception class a ``bansim`` module defines must be named in an
``except`` of the same program code: a type that no handler tells apart from
its base is one more name for the base.
The harness turns config values into arrays, and the models take those
arrays as they are: ``np.asarray`` is called only under ``harness/``.  The
harness alone turns the config seed into random streams, and the models take
``np.random.Generator``s: no module outside ``harness/`` and ``seeding``
calls ``default_rng``, ``spawn``, ``SeedSequence``, ``PCG64`` or
``Generator``, or imports ``seeding``.  ``seeding`` computes
``SeedSequence``'s hash itself, so it builds no ``SeedSequence`` either.
"""

import ast
import builtins
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bansim"

# public names kept without a program caller
ALLOWED = {
    # the README promises Cskip address arithmetic in both directions
    ("zigbee", "identify_relatives"),
}

# dataclass fields kept without a program reader
FIELDS_ALLOWED = {
    # the self-pruning event log is compared slot by slot with the per-slot
    # reference in tests/zigbee_reference.py
    ("zigbee", "EventLogRow", "slot"),
    ("zigbee", "EventLogRow", "node"),
}


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
    assert ALLOWED <= defined, "allowlist names a definition that is gone"
    assert ("channels", "path_loss_db") in defined  # the scan sees the package
    unused = sorted(f"{mod}.{name}" for mod, name in defined - ALLOWED
                    if name not in read)
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
    assert FIELDS_ALLOWED <= fields, "allowlist names a field that is gone"
    program = sorted(PACKAGE.rglob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    read = set()
    for path in program:
        read |= _attributes_read(ast.parse(path.read_text(), str(path)))
    unread = sorted(f"{mod}.{cls}.{name}" for mod, cls, name in fields - FIELDS_ALLOWED
                    if name not in read)
    assert unread == [], f"dataclass fields nothing reads: {unread}"


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



# the calls that build a seed object or a generator from a seed, and the ones
# that also build a bit generator or a Generator around it
SEED_OBJECTS = ("default_rng", "spawn", "SeedSequence")
STREAM_CALLS = (*SEED_OBJECTS, "PCG64", "Generator")


def _seeding_calls(tree: ast.AST, names: tuple[str, ...]) -> list[int]:
    """Lines of the calls ``<name>(...)`` and ``<x>.<name>(...)``."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            callee = node.func
            name = (callee.attr if isinstance(callee, ast.Attribute) else
                    callee.id if isinstance(callee, ast.Name) else None)
            if name in names:
                lines.append(node.lineno)
    return sorted(lines)


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
    assert _seeding_calls(ast.parse(code), SEED_OBJECTS) == [2, 4, 6, 8]
    assert _seeding_calls(ast.parse(code), STREAM_CALLS) == [2, 4, 6, 8, 10, 10]


def test_seeding_imports_scan_sees_every_form():
    imports = ("from . import seeding\nfrom .seeding import child_streams\n"
               "import bansim.seeding\nfrom bansim import channels, seeding\n"
               "from . import channels\nimport numpy\n")
    assert _seeding_imports(ast.parse(imports)) == [1, 2, 3, 4]


def _stream_sites(path) -> list[str]:
    """The stream-building calls and ``seeding`` imports of one module."""
    tree = ast.parse(path.read_text(), str(path))
    return ([f"{path.name}:{line}" for line in _seeding_calls(tree, STREAM_CALLS)] +
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
    assert _seeding_calls(tree, SEED_OBJECTS) == [], f"seed objects in {path.name}"
