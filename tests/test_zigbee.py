import numpy as np
import pytest

from bansim import zigbee
from graphutil import graph_to_scene  # noqa: F401  (shared helper sanity)


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
    assert tree.address(0) == 0
    assert tree.nodes[0].role == "coordinator"
    assert tree.address(10) == 1
    assert tree.address(11) == 1 + zigbee.cskip(0, 2, 2)
    assert tree.nodes[10].role == "RFD"


def test_tree_shape_errors():
    with pytest.raises(zigbee.TreeShapeError):
        zigbee.assign_addresses({0: [1], 2: [1]}, 2, 2)  # child claimed twice
    with pytest.raises(zigbee.TreeShapeError):
        zigbee.assign_addresses({0: [], 1: []}, 2, 2)  # two roots
    with pytest.raises(zigbee.TreeShapeError):
        zigbee.assign_addresses({0: [1, 2, 3], 1: [], 2: [], 3: []}, 2, 2)
    with pytest.raises(zigbee.TreeShapeError):
        zigbee.assign_addresses({0: [1], 1: [2], 2: [3], 3: []}, 2, 2)  # too deep


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
        for node in tree.nodes.values():
            parent, ranges = zigbee.identify_relatives(node.address, n_chl, d_l)
            if node.parent is None:
                assert parent is None
            else:
                assert parent == tree.address(node.parent)
            for child in node.children:
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


def test_radio_graph_validation():
    with pytest.raises(ValueError):
        zigbee.RadioGraph({0: {1}, 1: set()})
    tree, _ = chain_scene(3)
    bad = zigbee.RadioGraph.from_edges([(0, 1)], nodes=tree.nodes)
    with pytest.raises(ValueError):
        bad.check_covers_tree(tree)


def test_self_pruning_star_leaves_stay_silent():
    tree, radio = star_scene()
    state = zigbee.self_pruning_broadcast(tree, radio, 0, 7, seed=3)
    assert state.forward_set == {0}
    assert state.rebroadcast_count == 0
    assert state.covered == set(tree.nodes)


def test_self_pruning_chain_interior_forwards():
    tree, radio = chain_scene(5)
    state = zigbee.self_pruning_broadcast(tree, radio, 0, 7, seed=4)
    assert state.covered == set(tree.nodes)
    assert state.rebroadcast_count == 3  # every interior node forwards


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
    shape = {0: [1], 1: [], 2: []}
    # node 2 is in the tree structure but unreachable by radio
    tree = zigbee.ZigbeeTree(
        2, 2,
        {
            0: zigbee.ZigbeeNode(0, 0, None, [1], 0, "coordinator"),
            1: zigbee.ZigbeeNode(1, 1, 0, [], 1, "RFD"),
            2: zigbee.ZigbeeNode(2, 4, 0, [], 1, "RFD"),
        },
    )
    radio = zigbee.RadioGraph({0: {1}, 1: {0}, 2: set()})
    state = zigbee.oos_select(tree, radio, 0)
    assert 2 not in state.covered
    sp = zigbee.self_pruning_broadcast(tree, radio, 0, 3, seed=0)
    assert 2 not in sp.covered
    del shape


def test_broadcast_compare_star():
    tree, radio = star_scene()
    summary = zigbee.broadcast_compare(tree, radio, 0, trials=20, seed=7)
    assert summary.mean_self_pruning_rebroadcasts == 0.0
    assert summary.oos_forward_set_size == 1
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
    with pytest.raises(ValueError):
        zigbee.parse_topology("0 1")  # content outside any section
