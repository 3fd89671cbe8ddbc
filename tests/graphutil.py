"""Shared helpers for broadcast tests: wrap arbitrary connected graphs in a
logical tree (breadth-first spanning tree from the source), flood a tree and
radio graph by self pruning from a seed, and brute-force the minimum forward
set for comparison against the deterministic sweep."""

from itertools import combinations

import networkx as nx
import numpy as np

from bansim import zigbee


def graph_to_scene(graph: nx.Graph, source: int = 0):
    """Build (tree, radio neighbours) from a graph via a BFS spanning tree."""
    nodes = sorted(graph.nodes)
    shape = {n: [] for n in nodes}
    depth = {source: 0}
    queue = [source]
    while queue:
        x = queue.pop(0)
        for y in sorted(graph.neighbors(x)):
            if y not in depth:
                depth[y] = depth[x] + 1
                shape[x].append(y)
                queue.append(y)
    n_chl = max(1, max(len(kids) for kids in shape.values()))
    d_l = max(1, max(depth.values()))
    tree = zigbee.assign_addresses(shape, n_chl, d_l)
    radio = {n: set(graph.neighbors(n)) for n in nodes}
    return tree, radio


def flood(tree, radio, source, max_backoff, seed):
    """Self-pruning flood over a tree and radio graph, with backoffs drawn
    from ``np.random.default_rng(seed)``, as the per-slot reference draws
    them."""
    return zigbee.self_pruning_broadcast(zigbee.neighbour_masks(tree, radio), source,
                                         max_backoff, np.random.default_rng(seed))


def relatives(tree: dict[int, tuple[int, int]]):
    """(parent, children) of every node key, read off the tree edges that
    the block addresses encode.  Addresses run in pre-order (each router's
    block follows it and holds exactly its descendants), so a node's parent
    is the nearest shallower node before it in address order; children come
    in address order, the order of the shape the tree was built from."""
    parent, children = {}, {}
    path = []  # the ancestors of the next node, deepest last
    for key in sorted(tree, key=tree.get):
        while path and tree[path[-1]][1] >= tree[key][1]:
            path.pop()
        parent[key] = path[-1] if path else None
        children[key] = []
        if path:
            children[path[-1]].append(key)
        path.append(key)
    return parent, children


def min_forward_set_size(graph: nx.Graph, source: int = 0) -> int:
    """Smallest transmitting set: contains the source, induces a connected
    subgraph (every forwarder must have heard the packet), and its closed
    neighborhood covers every node."""
    nodes = sorted(graph.nodes)
    others = [n for n in nodes if n != source]
    for size in range(1, len(nodes) + 1):
        for extra in combinations(others, size - 1):
            s = {source, *extra}
            if not nx.is_connected(graph.subgraph(s)):
                continue
            covered = set(s)
            for x in s:
                covered |= set(graph.neighbors(x))
            if len(covered) == len(nodes):
                return size
    raise AssertionError("graph is connected; a forward set must exist")


def connected_atlas_graphs(max_nodes: int = 7):
    """All connected graphs with 2..max_nodes nodes from the graph atlas,
    relabeled to integer nodes 0..n-1."""
    for g in nx.graph_atlas_g():
        n = g.number_of_nodes()
        if 2 <= n <= max_nodes and nx.is_connected(g):
            yield nx.convert_node_labels_to_integers(g, ordering="sorted")


def random_connected_graphs(n_nodes: int, count: int, seed: int):
    """Seeded connected Erdos-Renyi samples with n_nodes nodes."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        g = nx.erdos_renyi_graph(n_nodes, 0.35, seed=int(rng.integers(2**31)))
        if nx.is_connected(g):
            out.append(g)
    return out
