"""ZigBee logical tree with distributed block addressing, plus two broadcast
strategies over a 1-hop radio neighbor graph: random-backoff self pruning
and the deterministic on-tree forward-node selection sweep.

Nodes carry integer keys; the tree assigns each key a block address from
the Cskip recurrence so parent/child relations are recoverable from the
address alone.
"""

from __future__ import annotations

import heapq
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
    address: int
    depth: int


@dataclass
class ZigbeeTree:
    nodes: dict[int, ZigbeeNode]

    def address(self, key: int) -> int:
        return self.nodes[key].address


class TreeShapeError(ValueError):
    """Parent/child structure violates n_chl or d_l."""


def assign_addresses(shape: dict[int, list[int]], n_chl: int, d_l: int) -> ZigbeeTree:
    """Build a tree from {node key: [child keys]} and assign block addresses."""
    all_children = [c for kids in shape.values() for c in kids]
    child_set = set(all_children)
    if len(child_set) != len(all_children):
        raise TreeShapeError("a node appears as a child twice")
    roots = [k for k in shape if k not in child_set]
    if len(roots) != 1:
        raise TreeShapeError(f"expected exactly one root, found {len(roots)}")
    nodes: dict[int, ZigbeeNode] = {}
    # pre-order with an explicit stack: a chain as deep as d_l allows must
    # not hit the interpreter's recursion limit
    stack: list[tuple[int, int, int]] = [(roots[0], 0, 0)]
    while stack:
        key, address, depth = stack.pop()
        if depth > d_l:
            raise TreeShapeError(f"node {key} exceeds maximum depth {d_l}")
        kids = shape.get(key, [])
        if len(kids) > n_chl:
            raise TreeShapeError(f"node {key} has {len(kids)} children > {n_chl}")
        if kids and depth >= d_l:
            raise TreeShapeError(f"node {key} at depth {d_l} cannot have children")
        nodes[key] = ZigbeeNode(address, depth)
        stride = cskip(depth, n_chl, d_l)
        # reversed, so the first child is visited next
        for i in reversed(range(len(kids))):
            stack.append((kids[i], address + 1 + i * stride, depth + 1))
    # a detached cycle has no root of its own, so it passes the root count
    unreached = next((k for k in shape if k not in nodes), None)
    if unreached is not None:
        raise TreeShapeError(f"node {unreached} is not reachable from root {roots[0]}")
    return ZigbeeTree(nodes)


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

    @classmethod
    def from_edges(cls, edges, nodes=None) -> "RadioGraph":
        nbrs: dict[int, set[int]] = {n: set() for n in (nodes or [])}
        for a, b in edges:
            nbrs.setdefault(a, set()).add(b)
            nbrs.setdefault(b, set()).add(a)
        return cls(nbrs)


@dataclass
class EventLogRow:
    slot: int
    node: int
    action: str  # tx | skip


@dataclass
class BroadcastState:
    covered: set[int]
    forward_set: set[int]  # transmitting nodes, source included
    event_log: list[EventLogRow] = field(default_factory=list)


def self_pruning_broadcast(
    tree: ZigbeeTree,
    radio: RadioGraph,
    source: int,
    max_backoff: int,
    seed,
) -> BroadcastState:
    """Flood from `source`: a node that hears the packet waits a random
    backoff, then transmits only if the transmissions it heard left some
    neighbour of it uncovered.

    `source` and every radio node must be tree nodes.  `seed` is anything
    ``np.random.default_rng`` takes; a Generator is advanced by one draw per
    tree node.
    """
    nbr = radio.neighbors
    address = {key: node.address for key, node in tree.nodes.items()}.__getitem__
    # a node waits at most once, so one draw per tree node is enough; the
    # array gives the values that scalar draws would, in the same order
    backoffs = iter(np.random.default_rng(seed).integers(
        0, max_backoff + 1, size=len(tree.nodes)).tolist())
    covered = {source} | nbr[source]
    forward_set = {source}
    log = [EventLogRow(0, source, "tx")]
    pending: dict[int, set[int]] = {}  # waiting node -> residual neighbours
    due: dict[int, list[int]] = {}  # expiry slot -> nodes waiting for it
    slots: list[int] = []  # heap of the slots in `due`

    def wait(nodes, heard: set[int], slot: int) -> None:
        # the draws go to the nodes in address order
        for y in sorted(nodes, key=address):
            pending[y] = nbr[y] - heard
            expiry = slot + 1 + next(backoffs)
            if expiry in due:
                due[expiry].append(y)
            else:
                due[expiry] = [y]
                heapq.heappush(slots, expiry)

    wait(nbr[source], nbr[source] | {source}, 0)
    while slots:
        # every expiry lies after the slot that set it: the bucket is complete
        slot = heapq.heappop(slots)
        for x in sorted(due.pop(slot), key=address):
            if not pending.pop(x):
                log.append(EventLogRow(slot, x, "skip"))
                continue
            forward_set.add(x)
            log.append(EventLogRow(slot, x, "tx"))
            closed = nbr[x] | {x}
            # a set difference: unlike the draws, it does not depend on order
            for y in nbr[x]:
                if y in pending:
                    pending[y] -= closed
            newly = closed - covered
            covered |= closed
            wait(newly, closed, slot)
    return BroadcastState(covered, forward_set, log)


def oos_select(tree: ZigbeeTree, radio: RadioGraph, source: int) -> BroadcastState:
    """Sweep the tree top to bottom, left to right by address, adding each
    covered node with an uncovered radio neighbour to the forward set, until
    every tree node is covered or a sweep adds none.  The source and every
    radio neighbour are tree nodes, as ``parse_topology`` and
    ``broadcast_compare`` ensure: then the covered set is a subset of the
    tree, so its size tells when the tree is covered."""
    nbr = radio.neighbors
    order = sorted(tree.nodes, key=lambda k: (tree.nodes[k].depth, tree.address(k)))
    covered = {source} | nbr[source]
    forward_set = {source}
    log = [EventLogRow(0, source, "tx")]
    sweep = 0
    while len(covered) < len(tree.nodes):
        progressed = False
        sweep += 1
        for x in order:
            if x in forward_set:
                continue
            if x in covered and not nbr[x] <= covered:
                forward_set.add(x)
                covered |= nbr[x]
                log.append(EventLogRow(sweep, x, "tx"))
                progressed = True
        if not progressed:
            break  # disconnected: residual left as diagnostic
    return BroadcastState(covered, forward_set, log)


@dataclass
class BroadcastSummary:
    mean_self_pruning_rebroadcasts: float
    self_pruning_coverage: float
    oos_rebroadcasts: int
    oos_coverage: float


def broadcast_compare(
    tree: ZigbeeTree, radio: RadioGraph, source: int, trials: int,
    seed, max_backoff: int,
) -> BroadcastSummary:
    if source not in tree.nodes:
        raise ValueError(f"source {source} not in tree")
    n = len(tree.nodes)
    children = np.random.SeedSequence(seed).spawn(trials)
    counts, coverage = [], []
    for child in children:
        state = self_pruning_broadcast(tree, radio, source, max_backoff, child)
        counts.append(len(state.forward_set) - 1)
        coverage.append(len(state.covered) / n)
    oos = oos_select(tree, radio, source)
    return BroadcastSummary(
        float(np.mean(counts)),
        float(np.mean(coverage)),
        len(oos.forward_set) - 1,
        len(oos.covered) / n,
    )


# ---------------------------------------------------------------------------
# topology files: `[params]`, `[tree]`, `[radio]` sections with edge lines

_TOPOLOGY_LINE = {"params": "`n_chl = <int>` or `d_l = <int>`",
                  "tree": "two integer node keys", "radio": "two integer node keys"}


def parse_topology(text: str):
    """Parse a topology file into (ZigbeeTree, RadioGraph).  The radio links
    join distinct tree nodes and include every tree edge."""
    section = None
    params = {"n_chl": 4, "d_l": 5}
    edges: dict[str, list[tuple[int, int]]] = {"tree": [], "radio": []}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            continue
        if section not in _TOPOLOGY_LINE:
            raise ValueError(f"topology line {lineno}: content outside a known section")
        parts = [p.strip() for p in line.split("=" if section == "params" else None)]
        try:
            if len(parts) != 2 or (section == "params" and parts[0] not in params):
                raise ValueError
            if section == "params":
                params[parts[0]] = int(parts[1])
                continue
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"topology line {lineno}: expected "
                             f"{_TOPOLOGY_LINE[section]}, got {line!r}") from None
        # outside the `try`, whose handler would replace this message
        if a == b:
            raise ValueError(f"topology line {lineno}: node {a} is linked to itself")
        edges[section].append((a, b))
    shape: dict[int, list[int]] = {}
    for parent, child in edges["tree"]:
        shape.setdefault(parent, []).append(child)
        shape.setdefault(child, [])
    tree = assign_addresses(shape, params["n_chl"], params["d_l"])
    for a, b in edges["radio"]:
        for key in (a, b):
            if key not in tree.nodes:
                raise ValueError(f"radio edge {a} {b}: node {key} is not in [tree]")
    radio = RadioGraph.from_edges(edges["tree"] + edges["radio"], nodes=tree.nodes)
    return tree, radio
