import importlib
import tracemalloc
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bansim import seeding, zigbee
from bansim.harness import cli
from graphutil import flood, graph_to_scene, random_connected_graphs, relatives
from zigbee_reference import (oos_reference, parse_topology_reference,
                              self_pruning_reference)

ROOT = Path(__file__).resolve().parent.parent


def trial_streams(seed, trials):
    """The trials' Generators as run_broadcast_sim builds them: the children
    of SeedSequence(seed).spawn(trials), each seeded when it is taken."""
    return (rng for (rng,) in seeding.child_streams(seed, trials, [()]))


def star_scene(n_leaves=6):
    shape = {0: list(range(1, n_leaves + 1))}
    for leaf in range(1, n_leaves + 1):
        shape[leaf] = []
    tree = zigbee.assign_addresses(shape, n_leaves, 1)
    radio = {0: set(range(1, n_leaves + 1))}
    radio.update((leaf, {0}) for leaf in range(1, n_leaves + 1))
    return tree, radio


def chain_scene(n=5):
    shape = {i: [i + 1] for i in range(n - 1)}
    shape[n - 1] = []
    tree = zigbee.assign_addresses(shape, 1, n - 1)
    radio = {i: {j for j in (i - 1, i + 1) if 0 <= j < n} for i in range(n)}
    return tree, radio


def random_shape(rng, n_nodes, n_chl, d_l):
    shape = {0: []}
    depth = {0: 0}
    for key in range(1, n_nodes):
        parents = [
            k for k in shape
            if len(shape[k]) < n_chl and depth[k] < d_l
        ]
        if not parents:  # tree saturated for these (n_chl, d_l)
            break
        parent = int(rng.choice(parents))
        shape[parent].append(key)
        shape[key] = []
        depth[key] = depth[parent] + 1
    return shape


def test_cskip_values():
    assert zigbee.cskip(0, 2, 2) == 3
    assert zigbee.cskip(1, 2, 2) == 1
    assert zigbee.cskip(2, 2, 2) == 0
    assert zigbee.cskip(0, 1, 3) == 3
    assert zigbee.address_space(2, 2) == 7


def test_root_and_children_addresses():
    shape = {0: [10, 11], 10: [], 11: []}
    tree = zigbee.assign_addresses(shape, 2, 2)
    parent, children = relatives(tree)
    assert tree[0] == (0, 0)
    assert parent[0] is None
    assert tree[10] == (1, 1)
    assert tree[11] == (1 + zigbee.cskip(0, 2, 2), 1)
    assert parent[10] == 0 and children[10] == []


def test_tree_shape_errors():
    with pytest.raises(ValueError, match="^a node appears as a child twice$"):
        zigbee.assign_addresses({0: [1], 2: [1]}, 2, 2)
    with pytest.raises(ValueError, match="^expected exactly one root, found 2$"):
        zigbee.assign_addresses({0: [], 1: []}, 2, 2)
    with pytest.raises(ValueError, match="^node 0 has 3 children > 2$"):
        zigbee.assign_addresses({0: [1, 2, 3], 1: [], 2: [], 3: []}, 2, 2)
    with pytest.raises(ValueError, match="^node 2 at depth 2 cannot have children$"):
        zigbee.assign_addresses({0: [1], 1: [2], 2: [3], 3: []}, 2, 2)  # too deep
    # a detached cycle: one root, but nodes 2 and 3 hang off nothing
    with pytest.raises(ValueError, match="node 2 is not reachable"):
        zigbee.assign_addresses({0: [1, 4], 1: [], 4: [], 2: [3], 3: [2]}, 2, 2)
    # block addresses past 64 bits: n_chl 2 reaches 2**64 at d_l 64
    assert zigbee.assign_addresses({0: []}, 2, 63) == {0: (0, 0)}
    with pytest.raises(ValueError, match="n_chl 2 and d_l 64 "):
        zigbee.assign_addresses({0: []}, 2, 64)


def test_addresses_unique_and_in_range():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n_chl, d_l = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        shape = random_shape(rng, int(rng.integers(2, 15)), n_chl, d_l)
        tree = zigbee.assign_addresses(shape, n_chl, d_l)
        addresses = [address for address, _depth in tree.values()]
        assert len(set(addresses)) == len(addresses)
        space = zigbee.address_space(n_chl, d_l)
        assert all(0 <= a < space for a in addresses)


def test_self_pruning_star_leaves_stay_silent():
    tree, radio = star_scene()
    state = flood(tree, radio, 0, 7, seed=3)
    assert state.forward_set == {0}
    assert state.covered == set(tree)


def test_self_pruning_chain_interior_forwards():
    tree, radio = chain_scene(5)
    state = flood(tree, radio, 0, 7, seed=4)
    assert state.covered == set(tree)
    assert state.forward_set == {0, 1, 2, 3}  # every interior node forwards


def test_self_pruning_deterministic_given_seed():
    tree, radio = graph_to_scene(nx.erdos_renyi_graph(12, 0.4, seed=5))
    a = flood(tree, radio, 0, 7, seed=6)
    b = flood(tree, radio, 0, 7, seed=6)
    assert a.forward_set == b.forward_set
    assert a.events == b.events


@pytest.mark.parametrize("strategy", ["self_pruning", "oos"])
def test_event_log_is_a_view_of_events(strategy):
    # one row per event, in order, with the action its flag names; the rows
    # are built once and kept for every later read
    tree, radio = graph_to_scene(nx.erdos_renyi_graph(12, 0.4, seed=5))
    state = (flood(tree, radio, 0, 7, seed=6) if strategy == "self_pruning"
             else zigbee.oos_select(tree, radio, 0))
    log = state.event_log
    assert len(log) == len(state.events) > 1
    assert [r.action for r in log] == ["tx" if tx else "skip"
                                       for _slot, _node, tx in state.events]
    assert {r.action for r in log} == (
        {"tx", "skip"} if strategy == "self_pruning" else {"tx"})
    assert state.event_log is log


def _scenes(kind, monkeypatch):
    """(tree, radio) pairs: perfbench topologies or random connected graphs."""
    if kind == "random":
        return [graph_to_scene(g) for g in random_connected_graphs(12, 8, seed=21)]
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    n_nodes = int(kind.removeprefix("perfbench"))
    text = workloads.gen_zigbee_topology(np.random.default_rng(n_nodes), n_nodes,
                                         workloads.TREE_N_CHL, workloads.TREE_D_L,
                                         workloads.EXTRA_NEIGHBORS)
    return [zigbee.parse_topology(text)]


@pytest.mark.parametrize("kind", ["perfbench300", "perfbench1500", "random"])
def test_self_pruning_matches_reference(monkeypatch, kind):
    """The slot buckets and the one array draw per trial reproduce the
    per-slot scan with scalar draws: same events, coverage and forwarders."""
    for tree, radio in _scenes(kind, monkeypatch):
        parent, children = relatives(tree)
        root = next(k for k in tree if parent[k] is None)
        leaf = next(k for k in tree if not children[k])
        mid = max((k for k in tree if children[k] and parent[k] is not None),
                  key=lambda k: len(children[k]))
        for source in (root, leaf, mid):
            for max_backoff in (0, 1, 7, 30):
                seeds = np.random.SeedSequence([source, max_backoff]).spawn(2)
                for seed in seeds:
                    got = flood(tree, radio, source, max_backoff, seed)
                    want = self_pruning_reference(tree, radio, source,
                                                  max_backoff, seed)
                    assert got.events == want.events
                    assert got.covered == want.covered
                    assert got.forward_set == want.forward_set


def test_self_pruning_masks_past_64_bits_match_reference():
    """Masks wider than a machine word.  The source's 64 other neighbours
    also neighbour the hub and come before it in address order, so when the
    hub decides, only its 10 leaves, its neighbours past the 65th, are left
    to cover.  Keys are negative and out of address order: the leaves come
    last by address and first by key."""
    source, hub = 5, 1000
    shared, leaves = list(range(100, 164)), list(range(-10, 0))
    shape = {source: [*shared, hub], hub: leaves}
    shape.update((k, []) for k in shared + leaves)
    tree = zigbee.assign_addresses(shape, 65, 2)
    radio = {source: {*shared, hub}, hub: {source, *shared, *leaves}}
    radio.update((k, {source, hub}) for k in shared)
    radio.update((k, {hub}) for k in leaves)
    assert len(radio[hub]) >= 70 and sorted(tree) != sorted(tree, key=tree.get)
    for start in (source, leaves[0]):
        for max_backoff in (0, 7, 30):
            for seed in range(3):
                got = flood(tree, radio, start, max_backoff, seed)
                want = self_pruning_reference(tree, radio, start, max_backoff, seed)
                assert got.events == want.events
                assert got.covered == want.covered == set(tree)
                assert got.forward_set == want.forward_set
                assert hub in got.forward_set


def _assert_oos_matches_reference(tree, radio, source):
    got, want = zigbee.oos_select(tree, radio, source), oos_reference(tree, radio, source)
    assert got.events == want.events
    assert got.covered == want.covered
    assert got.forward_set == want.forward_set


@pytest.mark.parametrize("kind", ["perfbench300", "perfbench1500", "random"])
def test_oos_matches_reference(monkeypatch, kind):
    """Testing each node's neighbours against the covered set selects what
    the shrinking set of nodes still to cover selected."""
    for tree, radio in _scenes(kind, monkeypatch):
        # about 16 sources per scene, spread over the node keys
        for source in sorted(tree)[:: max(1, len(tree) // 16)]:
            _assert_oos_matches_reference(tree, radio, source)


BACKOFF_RANGES = [0, 1, 2, 3, 5, 6, 7, 8, 9, 15, 16, 31, 100, 255, 1000, 65535,
                  2**31 - 1, 2**32 - 2, 2**32 - 1, 2**32, 2**40, 2**62, 2**63 - 1]


@pytest.mark.parametrize("max_backoff", BACKOFF_RANGES)
def test_backoff_array_draw_matches_scalar_draws(max_backoff):
    """One array draw gives the values of successive scalar draws and leaves
    the generator in the same state."""
    for seed in range(3):
        array_rng = np.random.default_rng(seed)
        drawn = array_rng.integers(0, max_backoff + 1, size=50).tolist()
        scalar_rng = np.random.default_rng(seed)
        assert drawn == [int(scalar_rng.integers(0, max_backoff + 1))
                         for _ in range(50)]
        assert array_rng.bit_generator.state == scalar_rng.bit_generator.state


def test_self_pruning_jumps_empty_slots():
    # backoffs near 2**62 slots: visiting each slot in turn would never end
    tree, radio = chain_scene(5)
    state = flood(tree, radio, 0, 2**62, seed=4)
    assert state.covered == set(tree)
    assert state.forward_set == {0, 1, 2, 3}
    slots = [slot for slot, _node, _tx in state.events]
    assert slots == sorted(slots) and slots[-1] > 2**62


def test_oos_star_source_only():
    tree, radio = star_scene()
    state = zigbee.oos_select(tree, radio, 0)
    assert state.forward_set == {0}
    assert state.covered == set(tree)


def test_oos_deterministic_and_complete_on_chain():
    tree, radio = chain_scene(6)
    a = zigbee.oos_select(tree, radio, 0)
    b = zigbee.oos_select(tree, radio, 0)
    assert a.forward_set == b.forward_set
    assert a.covered == set(tree)


def test_disconnected_radio_reports_partial_coverage():
    # node 2 is in the tree structure but unreachable by radio
    tree = {0: (0, 0), 1: (1, 1), 2: (4, 1)}
    radio = {0: {1}, 1: {0}, 2: set()}
    state = zigbee.oos_select(tree, radio, 0)
    assert 2 not in state.covered
    _assert_oos_matches_reference(tree, radio, 0)
    sp = flood(tree, radio, 0, 3, seed=0)
    assert 2 not in sp.covered


def test_broadcast_compare_star():
    tree, radio = star_scene()
    summary = zigbee.broadcast_compare(tree, radio, 0, trial_streams(7, 20),
                                       max_backoff=7)
    # (self-pruning rebroadcasts, its coverage, OOS rebroadcasts, its coverage)
    assert summary == (0.0, 1.0, 0, 1.0)


def test_broadcast_compare_seeds_each_trial_when_it_runs(monkeypatch):
    # a trial count no host could hold the seeds of: the first three trials
    # still run, in little memory, on the children spawn(3) would give
    class Stop(Exception):
        pass

    seeds = []

    def three_trials(graph, source, max_backoff, rng):
        seeds.append(rng)
        if len(seeds) == 3:
            raise Stop
        return zigbee.BroadcastState({source}, {source}, [])

    monkeypatch.setattr(zigbee, "self_pruning_broadcast", three_trials)
    tree, radio = star_scene()
    tracemalloc.start()
    try:
        with pytest.raises(Stop):
            zigbee.broadcast_compare(tree, radio, 0, trial_streams(7, 10**12), 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6
    children = np.random.SeedSequence(7).spawn(3)
    assert ([rng.bit_generator.state for rng in seeds]
            == [np.random.default_rng(child).bit_generator.state for child in children])


def test_broadcast_compare_builds_no_event_rows(monkeypatch):
    """A comparison reads coverage and forward sets alone, so neither the
    floods nor the sweep build the rows of their event logs."""
    [(tree, radio)] = _scenes("perfbench1500", monkeypatch)
    want = zigbee.broadcast_compare(tree, radio, 0, trial_streams(9, 12), 7)

    def no_rows(*_args):
        raise AssertionError("an event log row was built")

    monkeypatch.setattr(zigbee, "EventLogRow", no_rows)
    assert zigbee.broadcast_compare(tree, radio, 0, trial_streams(9, 12), 7) == want
    # reading a log builds its rows, which now raises
    state = flood(tree, radio, 0, 7, seed=9)
    assert len(state.events) > 1
    with pytest.raises(AssertionError, match="row was built"):
        state.event_log


def test_parse_topology_and_event_log():
    text = """
    [params]
    n_chl = 2
    d_l = 2
    [tree]
    0 1
    0 2
    [radio]
    1 2
    """
    tree, radio = zigbee.parse_topology(text)
    assert set(tree) == {0, 1, 2}
    assert radio[1] == {0, 2}
    state = zigbee.oos_select(tree, radio, 0)
    # the source covers both other nodes, so it is the one event
    assert state.events == [(0, 0, True)] and state.covered == {0, 1, 2}
    with pytest.raises(ValueError, match="^topology line 1: content outside"):
        zigbee.parse_topology("0 1")  # content outside any section
    # each malformed line is named by its number, not by a raw unpack error
    for bad in ("[tree]\n0 1 2", "[tree]\n0 x", "[radio]\n0", "[params]\nn_chl 2",
                "[params]\nfanout = 2"):
        with pytest.raises(ValueError, match="^topology line 2: expected "):
            zigbee.parse_topology(bad)
    # a [params] value that is no integer breaks the range rule
    for value in ("two", "2.5"):
        with pytest.raises(ValueError, match=r"^topology line 2: \[params\] n_chl must be "
                           rf"an integer of at least 1, got '{value}'$"):
            zigbee.parse_topology(f"[params]\nn_chl = {value}")
    with pytest.raises(ValueError, match="^topology line 2: node 0 is linked to itself"):
        zigbee.parse_topology("[tree]\n0 0")
    # a [params] key set twice names both lines, after any header between
    with pytest.raises(ValueError, match=r"^topology line 4: \[params\] n_chl was "
                       r"already set on line 2$"):
        zigbee.parse_topology("[params]\nn_chl = 2\n[ params ]\nn_chl = 2\n[tree]\n0 1")
    # a header names a known section in its case, as a config's does, even
    # with no line under it
    for header in ("[PARAMS]", "[ Tree ]", "[radios]"):
        with pytest.raises(ValueError, match=rf"^topology line 2: unknown section "
                           rf"\[{header[1:-1].strip()}\]; known: \['params', 'tree', "
                           rf"'radio'\]$"):
            zigbee.parse_topology(f"[tree]\n{header}\n")


@st.composite
def topology_texts(draw):
    """A topology file around a random tree and radio links, with the layout
    varied line by line, and now and then one line the parser must reject
    or a header the parser does not know."""
    n = draw(st.integers(1, 12))
    keys = draw(st.lists(st.integers(-20, 40), min_size=n, max_size=n, unique=True))
    parents = [draw(st.integers(0, i - 1)) for i in range(1, n)]
    kids, depth = [0] * n, [0] * n
    for i, parent in enumerate(parents, 1):
        kids[parent] += 1
        depth[i] = depth[parent] + 1
    # a radio key outside the tree, now and then
    radio_keys = st.sampled_from(keys + [99])
    radio_edges = draw(st.lists(st.tuples(radio_keys, radio_keys).filter(
        lambda e: e[0] != e[1]), max_size=8))
    blank = st.sampled_from(["", "  ", "\t", "# note", "  # [tree]", "#1 2"])

    def edge(a, b):
        pad = draw(st.sampled_from(["", " ", "\t"]))
        sep = draw(st.sampled_from([" ", "\t", "  ", " \t "]))
        tail = draw(st.sampled_from(["", " ", "\t", " # link", "#7", "\t# 1 2"]))
        return f"{pad}{a}{sep}{b}{tail}"

    def section(header, lines):
        lines = [header, *lines]
        for _ in range(draw(st.integers(0, 2))):
            lines.insert(draw(st.integers(1, len(lines))), draw(blank))
        return lines

    slack = draw(st.integers(-1, 1))  # -1: too wide or too deep a tree
    params = [f"n_chl = {max(kids) + slack}", f"d_l={max(max(depth), 1) + slack}"]
    sections = [
        section(draw(st.sampled_from(["[params]", "[ params ]", "[ Params ]"])), params),
        section(draw(st.sampled_from(["[tree]", "[ tree ]\t# spanning", "[TREE]"])),
                [edge(keys[p], keys[i]) for i, p in enumerate(parents, 1)]),
        section(draw(st.sampled_from(["[radio]", "[ radio ]", "[bogus]"])),
                [edge(a, b) for a, b in radio_edges]),
    ]
    lines = [line for sec in draw(st.permutations(sections)) for line in sec]
    if draw(st.booleans()):
        # one bad line: before any header, or in a section after its header
        # and any number of its lines
        lines.insert(draw(st.integers(0, len(lines))), draw(st.one_of(
            st.sampled_from(keys).map(lambda key: f"{key}\t{key}"),
            st.tuples(*[st.sampled_from(keys)] * 3).map(lambda e: "%d %d %d" % e),
            st.sampled_from(["5", "1 x", "x 1", "1.0 2", "[1] 2", "n_chl = 2",
                             "n_chl 2", "fanout = 3", "d_l = two", "[tree", "1 = 2"]))))
    ends = draw(st.sampled_from(["\n", "\r\n"]))
    return ends.join(lines) + draw(st.sampled_from(["", ends]))


def _parsed(parse, text):
    try:
        tree, radio = parse(text)
    except ValueError as exc:
        return type(exc), str(exc)
    return list(tree.items()), radio


@settings(max_examples=200, deadline=None)
@given(topology_texts())
def test_parse_topology_matches_reference(text):
    """Edge lines on their own path give the tree, radio graph or error
    message of the parser that sent every line through every check."""
    assert _parsed(zigbee.parse_topology, text) == _parsed(parse_topology_reference,
                                                           text)


def test_deep_chain_runs_through_cli(tmp_path):
    # 1500 levels: deeper than the interpreter's default recursion limit
    n = 1500
    edges = "\n".join(f"{i} {i + 1}" for i in range(n - 1))
    topology = tmp_path / "chain.txt"
    topology.write_text(f"[params]\nn_chl = 1\nd_l = {n}\n[tree]\n{edges}\n")
    tree, _ = zigbee.parse_topology(topology.read_text())
    assert list(tree) == list(range(n))
    assert [address for address, _depth in tree.values()] == list(range(n))
    cfg = tmp_path / "chain.cfg"
    cfg.write_text(f"[common]\nseed = 1\n[broadcast_sim]\ntopology = {topology}\n"
                   "trials = 2\n")
    out = tmp_path / "out"
    assert cli.main(["broadcast_sim", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "broadcast_compare.csv").exists()
