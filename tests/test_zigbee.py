import importlib
from pathlib import Path

import numpy as np
import pytest

from bansim import zigbee
from bansim.harness import cli
from graphutil import graph_to_scene, random_connected_graphs, relatives
from zigbee_reference import oos_reference, self_pruning_reference

ROOT = Path(__file__).resolve().parent.parent


def star_scene(n_leaves=6):
    shape = {0: list(range(1, n_leaves + 1))}
    for leaf in range(1, n_leaves + 1):
        shape[leaf] = []
    tree = zigbee.assign_addresses(shape, n_leaves, 1)
    edges = [(0, leaf) for leaf in range(1, n_leaves + 1)]
    radio = zigbee.RadioGraph.from_edges(edges, nodes=tree.nodes)
    return tree, radio


def chain_scene(n=5):
    shape = {i: [i + 1] for i in range(n - 1)}
    shape[n - 1] = []
    tree = zigbee.assign_addresses(shape, 1, n - 1)
    edges = [(i, i + 1) for i in range(n - 1)]
    radio = zigbee.RadioGraph.from_edges(edges, nodes=tree.nodes)
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
    assert tree.address(0) == 0
    assert parent[0] is None
    assert tree.address(10) == 1
    assert tree.address(11) == 1 + zigbee.cskip(0, 2, 2)
    assert parent[10] == 0 and children[10] == []


def test_tree_shape_errors():
    with pytest.raises(zigbee.TreeShapeError):
        zigbee.assign_addresses({0: [1], 2: [1]}, 2, 2)  # child claimed twice
    with pytest.raises(zigbee.TreeShapeError):
        zigbee.assign_addresses({0: [], 1: []}, 2, 2)  # two roots
    with pytest.raises(zigbee.TreeShapeError):
        zigbee.assign_addresses({0: [1, 2, 3], 1: [], 2: [], 3: []}, 2, 2)
    with pytest.raises(zigbee.TreeShapeError):
        zigbee.assign_addresses({0: [1], 1: [2], 2: [3], 3: []}, 2, 2)  # too deep
    # a detached cycle: one root, but nodes 2 and 3 hang off nothing
    with pytest.raises(zigbee.TreeShapeError, match="node 2 is not reachable"):
        zigbee.assign_addresses({0: [1, 4], 1: [], 4: [], 2: [3], 3: [2]}, 2, 2)


def test_addresses_unique_and_in_range():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n_chl, d_l = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        shape = random_shape(rng, int(rng.integers(2, 15)), n_chl, d_l)
        tree = zigbee.assign_addresses(shape, n_chl, d_l)
        addresses = [n.address for n in tree.nodes.values()]
        assert len(set(addresses)) == len(addresses)
        space = zigbee.address_space(n_chl, d_l)
        assert all(0 <= a < space for a in addresses)


def test_identify_relatives_roundtrip():
    rng = np.random.default_rng(1)
    for _ in range(200):
        n_chl, d_l = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        shape = random_shape(rng, int(rng.integers(2, 15)), n_chl, d_l)
        tree = zigbee.assign_addresses(shape, n_chl, d_l)
        parent_of, children = relatives(tree)
        assert children == shape  # the helper reads back the tree edges
        for key, node in tree.nodes.items():
            parent, ranges = zigbee.identify_relatives(node.address, n_chl, d_l)
            if parent_of[key] is None:
                assert parent is None
            else:
                assert parent == tree.address(parent_of[key])
            for child in children[key]:
                addr = tree.address(child)
                assert any(lo <= addr < hi for lo, hi in ranges)


def test_identify_relatives_root_and_leaf():
    parent, ranges = zigbee.identify_relatives(0, 2, 2)
    assert parent is None and ranges
    leaf_addr = 2  # depth-2 leaf under child 1 in the (2, 2) layout
    parent, ranges = zigbee.identify_relatives(leaf_addr, 2, 2)
    assert parent == 1 and ranges == []
    with pytest.raises(ValueError):
        zigbee.identify_relatives(zigbee.address_space(2, 2), 2, 2)


def test_self_pruning_star_leaves_stay_silent():
    tree, radio = star_scene()
    state = zigbee.self_pruning_broadcast(tree, radio, 0, 7, seed=3)
    assert state.forward_set == {0}
    assert state.covered == set(tree.nodes)


def test_self_pruning_chain_interior_forwards():
    tree, radio = chain_scene(5)
    state = zigbee.self_pruning_broadcast(tree, radio, 0, 7, seed=4)
    assert state.covered == set(tree.nodes)
    assert state.forward_set == {0, 1, 2, 3}  # every interior node forwards


def test_self_pruning_deterministic_given_seed():
    tree, radio = graph_to_scene(
        __import__("networkx").erdos_renyi_graph(12, 0.4, seed=5)
    )
    a = zigbee.self_pruning_broadcast(tree, radio, 0, 7, seed=6)
    b = zigbee.self_pruning_broadcast(tree, radio, 0, 7, seed=6)
    assert a.forward_set == b.forward_set
    assert [
        (r.slot, r.node, r.action) for r in a.event_log
    ] == [(r.slot, r.node, r.action) for r in b.event_log]


def _events(state):
    return [(r.slot, r.node, r.action) for r in state.event_log]


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
        root = next(k for k in tree.nodes if parent[k] is None)
        leaf = next(k for k in tree.nodes if not children[k])
        mid = max((k for k in tree.nodes if children[k] and parent[k] is not None),
                  key=lambda k: len(children[k]))
        for source in (root, leaf, mid):
            for max_backoff in (0, 1, 7, 30):
                seeds = np.random.SeedSequence([source, max_backoff]).spawn(2)
                for seed in seeds:
                    got = zigbee.self_pruning_broadcast(tree, radio, source,
                                                        max_backoff, seed)
                    want = self_pruning_reference(tree, radio, source,
                                                  max_backoff, seed)
                    assert _events(got) == _events(want)
                    assert got.covered == want.covered
                    assert got.forward_set == want.forward_set


def _assert_oos_matches_reference(tree, radio, source):
    got, want = zigbee.oos_select(tree, radio, source), oos_reference(tree, radio, source)
    assert _events(got) == _events(want)
    assert got.covered == want.covered
    assert got.forward_set == want.forward_set


@pytest.mark.parametrize("kind", ["perfbench300", "perfbench1500", "random"])
def test_oos_matches_reference(monkeypatch, kind):
    """Testing each node's neighbours against the covered set selects what
    the shrinking set of nodes still to cover selected."""
    for tree, radio in _scenes(kind, monkeypatch):
        # about 16 sources per scene, spread over the node keys
        for source in sorted(tree.nodes)[:: max(1, len(tree.nodes) // 16)]:
            _assert_oos_matches_reference(tree, radio, source)


BACKOFF_RANGES = [0, 1, 2, 3, 5, 6, 7, 8, 9, 15, 16, 31, 100, 255, 1000, 65535,
                  2**31 - 1, 2**32 - 2, 2**32 - 1, 2**32, 2**40, 2**62]


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
    state = zigbee.self_pruning_broadcast(tree, radio, 0, 2**62, seed=4)
    assert state.covered == set(tree.nodes)
    assert state.forward_set == {0, 1, 2, 3}
    slots = [r.slot for r in state.event_log]
    assert slots == sorted(slots) and slots[-1] > 2**62


def test_oos_star_source_only():
    tree, radio = star_scene()
    state = zigbee.oos_select(tree, radio, 0)
    assert state.forward_set == {0}
    assert state.covered == set(tree.nodes)


def test_oos_deterministic_and_complete_on_chain():
    tree, radio = chain_scene(6)
    a = zigbee.oos_select(tree, radio, 0)
    b = zigbee.oos_select(tree, radio, 0)
    assert a.forward_set == b.forward_set
    assert a.covered == set(tree.nodes)


def test_disconnected_radio_reports_partial_coverage():
    # node 2 is in the tree structure but unreachable by radio
    tree = zigbee.ZigbeeTree({
        0: zigbee.ZigbeeNode(0, 0),
        1: zigbee.ZigbeeNode(1, 1),
        2: zigbee.ZigbeeNode(4, 1),
    })
    radio = zigbee.RadioGraph({0: {1}, 1: {0}, 2: set()})
    state = zigbee.oos_select(tree, radio, 0)
    assert 2 not in state.covered
    _assert_oos_matches_reference(tree, radio, 0)
    sp = zigbee.self_pruning_broadcast(tree, radio, 0, 3, seed=0)
    assert 2 not in sp.covered


def test_broadcast_compare_star():
    tree, radio = star_scene()
    summary = zigbee.broadcast_compare(tree, radio, 0, trials=20, seed=7,
                                       max_backoff=7)
    assert summary.mean_self_pruning_rebroadcasts == 0.0
    assert summary.oos_rebroadcasts == 0
    assert summary.self_pruning_coverage == 1.0
    assert summary.oos_coverage == 1.0


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
    assert set(tree.nodes) == {0, 1, 2}
    assert radio.neighbors[1] == {0, 2}
    state = zigbee.oos_select(tree, radio, 0)
    with pytest.raises(ValueError, match="^topology line 1: content outside"):
        zigbee.parse_topology("0 1")  # content outside any section
    # each malformed line is named by its number, not by a raw unpack error
    for bad in ("[tree]\n0 1 2", "[tree]\n0 x", "[radio]\n0", "[params]\nn_chl 2",
                "[params]\nn_chl = two", "[params]\nn_chl = 2.5",
                "[params]\nfanout = 2"):
        with pytest.raises(ValueError, match="^topology line 2: expected "):
            zigbee.parse_topology(bad)
    with pytest.raises(ValueError, match="^topology line 2: node 0 is linked to itself"):
        zigbee.parse_topology("[tree]\n0 0")


def test_deep_chain_runs_through_cli(tmp_path):
    # 1500 levels: deeper than the interpreter's default recursion limit
    n = 1500
    edges = "\n".join(f"{i} {i + 1}" for i in range(n - 1))
    topology = tmp_path / "chain.txt"
    topology.write_text(f"[params]\nn_chl = 1\nd_l = {n}\n[tree]\n{edges}\n")
    tree, _ = zigbee.parse_topology(topology.read_text())
    assert list(tree.nodes) == list(range(n))
    assert [node.address for node in tree.nodes.values()] == list(range(n))
    cfg = tmp_path / "chain.cfg"
    cfg.write_text(f"[common]\nseed = 1\n[broadcast_sim]\ntopology = {topology}\n"
                   "trials = 2\n")
    out = tmp_path / "out"
    assert cli.main(["broadcast_sim", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "broadcast_compare.csv").exists()
