"""The public surface of ``bansim`` is what the program itself runs.

Every public top-level name of a ``bansim`` module must be read somewhere in
the code under ``src/`` or ``perfbench/``; a name only the tests call
belongs in the tests.  Every field of a ``bansim`` dataclass must be read as
an attribute by the same program code, outside ``__post_init__``: a field
that only its own check or the tests read is state the program does not need.
The harness turns config values into arrays, and the models take those
arrays as they are: ``np.asarray`` is called only under ``harness/``.  The
channel generators take the Generators ``bansim.seeding`` builds: ``channels``
calls no ``default_rng`` and no ``spawn``, and ``seeding`` computes
``SeedSequence``'s hash itself, so it builds no ``SeedSequence`` either.
"""

import ast
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



# the calls that build a generator or a seed object per stream
PER_STREAM = ("default_rng", "spawn")
SEED_OBJECTS = (*PER_STREAM, "SeedSequence")


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


def test_seeding_calls_scan_sees_both_forms():
    code = ("def gen_a(seed):\n    return np.random.default_rng(seed)\n"
            "def gen_b(seed):\n    return seed.spawn(2)\n"
            "def gen_c(seed):\n    return default_rng(seed)\n"
            "def gen_d(seed):\n    return np.random.SeedSequence(seed)\n")
    assert _seeding_calls(ast.parse(code), PER_STREAM) == [2, 4, 6]
    assert _seeding_calls(ast.parse(code), SEED_OBJECTS) == [2, 4, 6, 8]


def test_channel_generators_take_stream_states():
    # the channel draws are seeded by bansim.seeding, a block of draws at a
    # time; a seed object or generator built per stream in channels (the gen_*
    # functions or the helpers they call) would bring the per-draw seeding
    # cost back
    path = PACKAGE / "channels.py"
    tree = ast.parse(path.read_text(), str(path))
    generators = {node.name for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef) and node.name.startswith("gen_")}
    assert {"gen_clusters", "gen_ref", "gen_outdoor_ban", "gen_indoor_ban"} <= generators
    assert _seeding_calls(tree, PER_STREAM) == [], f"per-stream seeding in {path.name}"


def test_seeding_builds_no_seed_sequence():
    # seeding hashes a block of spawn keys at once; numpy's SeedSequence,
    # default_rng or spawn there would hash one key per object again
    path = PACKAGE / "seeding.py"
    tree = ast.parse(path.read_text(), str(path))
    assert _seeding_calls(tree, SEED_OBJECTS) == [], f"seed objects in {path.name}"
