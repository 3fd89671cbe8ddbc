"""ZigBee logical tree with distributed block addressing, plus two broadcast
strategies over a 1-hop radio neighbor graph: random-backoff self pruning
and the deterministic on-tree forward-node selection sweep.

Nodes carry integer keys; the tree assigns each key a block address from
the Cskip recurrence so parent/child relations are recoverable from the
address alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def cskip(depth: int, n_chl: int, d_l: int) -> int:
    """Address-block stride for a router at the given depth (all-routers)."""
    if depth >= d_l:
        return 0
    if n_chl == 1:
        return d_l - depth
    return (1 - n_chl ** (d_l - depth)) // (1 - n_chl)


def address_space(n_chl: int, d_l: int) -> int:
    return 1 + n_chl * cskip(0, n_chl, d_l)


@dataclass
class ZigbeeNode:
    key: int
    address: int
    parent: int | None  # parent key
    children: list[int]
    depth: int
    role: str  # coordinator | FFD | RFD


@dataclass
class ZigbeeTree:
    n_chl: int
    d_l: int
    nodes: dict[int, ZigbeeNode]

    def address(self, key: int) -> int:
        return self.nodes[key].address

    def keys_by_level_order(self) -> list[int]:
        return sorted(self.nodes, key=lambda k: (self.nodes[k].depth,
                                                 self.nodes[k].address))


class TreeShapeError(ValueError):
    """Parent/child structure violates n_chl or d_l."""


def assign_addresses(shape: dict[int, list[int]], n_chl: int, d_l: int) -> ZigbeeTree:
    """Build a tree from {node key: [child keys]} and assign block addresses."""
    all_children = [c for kids in shape.values() for c in kids]
    if len(set(all_children)) != len(all_children):
        raise TreeShapeError("a node appears as a child twice")
    roots = [k for k in shape if k not in set(all_children)]
    if len(roots) != 1:
        raise TreeShapeError(f"expected exactly one root, found {len(roots)}")
    root = roots[0]
    nodes: dict[int, ZigbeeNode] = {}

    def visit(key: int, address: int, parent: int | None, depth: int) -> None:
        if depth > d_l:
            raise TreeShapeError(f"node {key} exceeds maximum depth {d_l}")
        kids = shape.get(key, [])
        if len(kids) > n_chl:
            raise TreeShapeError(f"node {key} has {len(kids)} children > {n_chl}")
        if kids and depth >= d_l:
            raise TreeShapeError(f"node {key} at depth {d_l} cannot have children")
        if parent is None:
            role = "coordinator"
        elif kids:
            role = "FFD"
        else:
            role = "RFD"
        nodes[key] = ZigbeeNode(key, address, parent, list(kids), depth, role)
        stride = cskip(depth, n_chl, d_l)
        for i, child in enumerate(kids):
            visit(child, address + 1 + i * stride, key, depth + 1)

    visit(root, 0, None, 0)
    return ZigbeeTree(n_chl, d_l, nodes)


def identify_relatives(address: int, n_chl: int, d_l: int):
    """Recover (parent address or None, child address block ranges) by arithmetic."""
    if not (0 <= address < address_space(n_chl, d_l)):
        raise ValueError(f"address {address} out of range")
    parent = None
    cur, depth = 0, 0
    while cur != address:
        stride = cskip(depth, n_chl, d_l)
        idx = (address - cur - 1) // stride
        parent = cur
        cur = cur + 1 + idx * stride
        depth += 1
    stride = cskip(depth, n_chl, d_l)
    if stride == 0:
        return parent, []
    ranges = [(address + 1 + i * stride, address + 1 + (i + 1) * stride)
              for i in range(n_chl)]
    return parent, ranges


@dataclass
class RadioGraph:
    neighbors: dict[int, set[int]]

    def __post_init__(self) -> None:
        for x, nbrs in self.neighbors.items():
            for y in nbrs:
                if x not in self.neighbors.get(y, set()):
                    raise ValueError(f"radio graph not symmetric: {x}-{y}")

    @classmethod
    def from_edges(cls, edges, nodes=None) -> "RadioGraph":
        nbrs: dict[int, set[int]] = {n: set() for n in (nodes or [])}
        for a, b in edges:
            nbrs.setdefault(a, set()).add(b)
            nbrs.setdefault(b, set()).add(a)
        return cls(nbrs)

    def check_covers_tree(self, tree: ZigbeeTree) -> None:
        for node in tree.nodes.values():
            for child in node.children:
                if child not in self.neighbors.get(node.key, set()):
                    raise ValueError(
                        f"tree edge {node.key}-{child} missing from radio graph"
                    )


@dataclass
class EventLogRow:
    slot: int
    node: int
    action: str  # tx | skip
    covered_count: int


@dataclass
class BroadcastState:
    covered: set[int]
    forward_set: set[int]  # transmitting nodes, source included
    rebroadcast_count: int
    event_log: list[EventLogRow] = field(default_factory=list)


def self_pruning_broadcast(
    tree: ZigbeeTree,
    radio: RadioGraph,
    source: int,
    max_backoff: int,
    seed,
) -> BroadcastState:
    if source not in tree.nodes:
        raise ValueError(f"source {source} not in tree")
    rng = np.random.default_rng(seed)
    nbr = radio.neighbors
    covered = {source} | nbr[source]
    forward_set = {source}
    log = [EventLogRow(0, source, "tx", len(covered))]
    # pending: node -> [expiry slot, residual neighbor set]
    pending: dict[int, list] = {}
    for x in sorted(nbr[source], key=tree.address):
        residual = nbr[x] - nbr[source] - {source}
        pending[x] = [1 + int(rng.integers(0, max_backoff + 1)), residual]
    slot = 1
    while pending:
        due = sorted(
            (x for x, (t, _) in pending.items() if t == slot), key=tree.address
        )
        for x in due:
            residual = pending.pop(x)[1]
            if not residual:
                log.append(EventLogRow(slot, x, "skip", len(covered)))
                continue
            forward_set.add(x)
            newly = (nbr[x] | {x}) - covered
            covered |= nbr[x] | {x}
            log.append(EventLogRow(slot, x, "tx", len(covered)))
            for y in sorted(nbr[x], key=tree.address):
                if y in forward_set:
                    continue
                if y in pending:
                    pending[y][1] -= nbr[x] | {x}
                elif y in newly:
                    res = nbr[y] - nbr[x] - {x}
                    pending[y] = [slot + 1 + int(rng.integers(0, max_backoff + 1)),
                                  res]
        slot += 1
    return BroadcastState(covered, forward_set, len(forward_set) - 1, log)


def oos_select(tree: ZigbeeTree, radio: RadioGraph, source: int) -> BroadcastState:
    if source not in tree.nodes:
        raise ValueError(f"source {source} not in tree")
    nbr = radio.neighbors
    order = tree.keys_by_level_order()  # top-to-bottom, left-to-right by address
    covered = {source} | nbr[source]
    to_cover = set(tree.nodes) - covered
    forward_set = {source}
    log = [EventLogRow(0, source, "tx", len(covered))]
    sweep = 0
    while to_cover:
        progressed = False
        sweep += 1
        for x in order:
            if x in forward_set:
                continue
            if x in covered and nbr[x] & to_cover:
                forward_set.add(x)
                covered |= nbr[x]
                to_cover -= nbr[x]
                log.append(EventLogRow(sweep, x, "tx", len(covered)))
                progressed = True
        if not progressed:
            break  # disconnected: residual left as diagnostic
    return BroadcastState(covered, forward_set, len(forward_set) - 1, log)


@dataclass
class BroadcastSummary:
    mean_self_pruning_rebroadcasts: float
    self_pruning_coverage: float
    oos_rebroadcasts: int
    oos_coverage: float
    oos_forward_set_size: int


def broadcast_compare(
    tree: ZigbeeTree, radio: RadioGraph, source: int, trials: int,
    seed, max_backoff: int = 7,
) -> BroadcastSummary:
    if trials < 1:
        raise ValueError("need at least one trial")
    n = len(tree.nodes)
    children = np.random.SeedSequence(seed).spawn(trials)
    counts, coverage = [], []
    for child in children:
        state = self_pruning_broadcast(tree, radio, source, max_backoff, child)
        counts.append(state.rebroadcast_count)
        coverage.append(len(state.covered) / n)
    oos = oos_select(tree, radio, source)
    return BroadcastSummary(
        float(np.mean(counts)),
        float(np.mean(coverage)),
        oos.rebroadcast_count,
        len(oos.covered) / n,
        len(oos.forward_set),
    )


# ---------------------------------------------------------------------------
# topology files: `[params]`, `[tree]`, `[radio]` sections with edge lines


def parse_topology(text: str):
    """Parse a topology file into (ZigbeeTree, RadioGraph)."""
    section = None
    params: dict[str, int] = {}
    tree_edges: list[tuple[int, int]] = []
    radio_edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            continue
        if section == "params":
            key, value = (part.strip() for part in line.split("=", 1))
            params[key] = int(value)
        elif section == "tree":
            a, b = line.split()
            tree_edges.append((int(a), int(b)))
        elif section == "radio":
            a, b = line.split()
            radio_edges.append((int(a), int(b)))
        else:
            raise ValueError(f"line {lineno}: content outside a known section")
    n_chl = params.get("n_chl", 4)
    d_l = params.get("d_l", 5)
    shape: dict[int, list[int]] = {}
    for parent, child in tree_edges:
        shape.setdefault(parent, []).append(child)
        shape.setdefault(child, [])
    tree = assign_addresses(shape, n_chl, d_l)
    radio = RadioGraph.from_edges(tree_edges + radio_edges, nodes=tree.nodes)
    radio.check_covers_tree(tree)
    return tree, radio
