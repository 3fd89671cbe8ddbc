"""ZigBee logical tree with distributed block addressing, plus two broadcast
strategies over a 1-hop radio neighbor graph: random-backoff self pruning
and the deterministic on-tree forward-node selection sweep.

Nodes carry integer keys; the tree assigns each key a block address from
the Cskip recurrence so parent/child relations are recoverable from the
address alone.  A tree is ``{key: (address, depth)}`` and a radio graph is
``{key: set of neighbour keys}``.  Self pruning runs on the graph form that
``neighbour_masks`` prepares from the two, once for any number of floods.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from itertools import compress

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


def assign_addresses(shape: dict[int, list[int]], n_chl: int, d_l: int):
    """Build a tree from {node key: [child keys]}: {key: (block address,
    depth)}, in pre-order.  Block addresses must fit in 64 bits; a shape that
    breaks n_chl or d_l raises ValueError."""
    # with n_chl >= 2 the space exceeds n_chl ** d_l: a d_l past 64 fails
    # without the power, whose big-int cost grows with d_l
    if n_chl >= 2 and (d_l > 64 or address_space(n_chl, d_l) >= 2**64):
        raise ValueError(f"n_chl {n_chl} and d_l {d_l} need block "
                             "addresses past 64 bits")
    all_children = [c for kids in shape.values() for c in kids]
    child_set = set(all_children)
    if len(child_set) != len(all_children):
        raise ValueError("a node appears as a child twice")
    roots = [k for k in shape if k not in child_set]
    if len(roots) != 1:
        raise ValueError(f"expected exactly one root, found {len(roots)}")
    tree: dict[int, tuple[int, int]] = {}
    # pre-order with an explicit stack: a chain as deep as d_l allows must
    # not hit the interpreter's recursion limit
    stack: list[tuple[int, int, int]] = [(roots[0], 0, 0)]
    while stack:
        key, address, depth = stack.pop()
        if depth > d_l:
            raise ValueError(f"node {key} exceeds maximum depth {d_l}")
        kids = shape.get(key, [])
        if len(kids) > n_chl:
            raise ValueError(f"node {key} has {len(kids)} children > {n_chl}")
        if kids and depth >= d_l:
            raise ValueError(f"node {key} at depth {d_l} cannot have children")
        tree[key] = (address, depth)
        stride = cskip(depth, n_chl, d_l)
        # reversed, so the first child is visited next
        for i in reversed(range(len(kids))):
            stack.append((kids[i], address + 1 + i * stride, depth + 1))
    # a detached cycle has no root of its own, so it passes the root count
    unreached = next((k for k in shape if k not in tree), None)
    if unreached is not None:
        raise ValueError(f"node {unreached} is not reachable from root {roots[0]}")
    return tree


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
class EventLogRow:
    action: str  # tx | skip


@dataclass
class BroadcastState:
    covered: set[int]
    forward_set: set[int]  # transmitting nodes, source included
    events: list[tuple[int, int, bool]]  # (slot, node key, transmitted)

    @cached_property
    def event_log(self) -> list[EventLogRow]:
        """Each event's action, built on the first read, for perfbench's meter."""
        return [EventLogRow("tx" if tx else "skip") for _slot, _node, tx in self.events]


def neighbour_masks(tree, radio):
    """Prepare a tree and radio graph for ``self_pruning_broadcast``: the
    tuple ``(keys, rank, edges)``.  ``keys`` lists the node keys in address
    order and ``rank`` maps each key to its index there.  ``edges[x]`` lists
    ``(y, mask)`` for the neighbours ``y`` of rank ``x``, in ascending rank;
    bit j of ``mask`` is set when y's j-th neighbour, by rank, lies outside
    x's closed neighbourhood.  A waiting node's residual neighbours are a
    mask over its own neighbour list: x's transmission leaves ``mask`` of
    them to a node that starts waiting on it, and ``&= mask`` of them to one
    that already waits.

    `tree` and `radio` are as ``parse_topology`` returns them; every radio
    node must be a tree node.  No seed enters the graph, so one serves every
    trial of a comparison."""
    # addresses are unique, so (address, depth) pairs sort as addresses do
    keys = sorted(tree, key=tree.__getitem__)
    rank = {key: i for i, key in enumerate(keys)}
    # each node's neighbours in ascending rank, the j-th with bit j
    powers = [1 << j for j in range(max(map(len, radio.values()), default=0))]
    bits = [dict(zip(sorted(map(rank.__getitem__, radio[key])), powers))
            for key in keys]
    edges: list[list[tuple[int, int]]] = [[] for _ in keys]
    # one pass per radio edge x < y: the neighbours the two share give both
    # masks, and each row still fills in ascending rank
    for x, near in enumerate(bits):
        for y in near:
            if y < x:
                continue
            theirs = bits[y]
            inside_x, inside_y = near[y], theirs[x]
            for z in near.keys() & theirs.keys():
                inside_x += near[z]
                inside_y += theirs[z]
            edges[x].append((y, (1 << len(theirs)) - 1 - inside_y))
            edges[y].append((x, (1 << len(near)) - 1 - inside_x))
    return keys, rank, edges


def self_pruning_broadcast(graph, source: int, max_backoff: int,
                           rng: np.random.Generator) -> BroadcastState:
    """Flood from `source`: a node that hears the packet waits a random
    backoff, then transmits only if the transmissions it heard left some
    neighbour of it uncovered.

    `graph` is what ``neighbour_masks`` returns and `source` a tree node
    key.  `rng` is advanced by one array draw of one backoff per tree node;
    the nodes that start waiting on one transmission take theirs in address
    order.  The state's ``events`` hold each decision in the order made.
    """
    keys, rank, edges = graph
    # a node waits at most once, so one draw per tree node is enough; the
    # array gives the values that scalar draws would, in the same order
    backoffs = iter(rng.integers(0, max_backoff + 1, size=len(keys)).tolist())
    source = rank[source]
    covered = bytearray(len(keys))
    covered[source] = 1
    pending = [0] * len(keys)  # residual neighbour bits of each waiting node
    pending[source] = 1  # the source transmits at slot 0
    due = {0: [source]}  # expiry slot -> nodes waiting for it
    slots = [0]  # heap of the slots in `due`
    events = []
    while slots:
        # every expiry lies after the slot that set it: the bucket is complete
        slot = heapq.heappop(slots)
        for x in sorted(due.pop(slot)):
            if not pending[x]:
                events.append((slot, keys[x], False))
                continue
            events.append((slot, keys[x], True))
            # ascending rank: new waiters take their draws in address order;
            # clearing bits of a node that has decided changes nothing
            for y, mask in edges[x]:
                if covered[y]:
                    pending[y] &= mask
                    continue
                covered[y] = 1
                pending[y] = mask
                expiry = slot + 1 + next(backoffs)
                if expiry in due:
                    due[expiry].append(y)
                else:
                    due[expiry] = [y]
                    heapq.heappush(slots, expiry)
    forward_set = {x for _slot, x, tx in events if tx}
    return BroadcastState(set(compress(keys, covered)), forward_set, events)


def oos_select(tree, radio, source: int) -> BroadcastState:
    """Sweep the tree top to bottom, left to right by address, adding each
    covered node with an uncovered radio neighbour to the forward set, until
    every tree node is covered or a sweep adds none.  `tree` and `radio` are
    as ``parse_topology`` returns them, so every radio neighbour is a tree
    node, and the source is one too (the ``broadcast_sim`` runner checks
    it): then the covered set is a subset of the tree, so its size tells
    when the tree is covered."""
    order = sorted(tree, key=lambda k: tree[k][::-1])
    covered = {source} | radio[source]
    forward_set = {source}
    events = [(0, source, True)]  # (sweep, transmitter, True)
    sweep = 0
    while len(covered) < len(tree):
        progressed = False
        sweep += 1
        for x in order:
            if x in forward_set:
                continue
            if x in covered and not radio[x] <= covered:
                forward_set.add(x)
                covered |= radio[x]
                events.append((sweep, x, True))
                progressed = True
        if not progressed:
            break  # disconnected: residual left as diagnostic
    return BroadcastState(covered, forward_set, events)


def broadcast_compare(tree, radio, source: int, rngs, max_backoff: int):
    """(mean self-pruning rebroadcasts over one trial per Generator of the
    iterable `rngs`, their mean coverage, OOS rebroadcasts, OOS coverage);
    coverage is the share of tree nodes reached.  The trials share one
    ``neighbour_masks`` graph; each takes its Generator only when it runs.
    The source is a tree node, and max_backoff at most 2**63 - 1, the
    largest backoff numpy's int64 draws hold."""
    n = len(tree)
    graph = neighbour_masks(tree, radio)
    counts, coverage = [], []
    for rng in rngs:
        state = self_pruning_broadcast(graph, source, max_backoff, rng)
        counts.append(len(state.forward_set) - 1)
        coverage.append(len(state.covered) / n)
    oos = oos_select(tree, radio, source)
    return (float(np.mean(counts)), float(np.mean(coverage)),
            len(oos.forward_set) - 1, len(oos.covered) / n)


# ---------------------------------------------------------------------------
# topology files: `[params]`, `[tree]`, `[radio]` sections with edge lines

_TOPOLOGY_LINE = {"params": "`n_chl = <int>` or `d_l = <int>`",
                  "tree": "two integer node keys", "radio": "two integer node keys"}


def parse_topology(text: str):
    """Parse a topology file into the tree ``{key: (address, depth)}`` and
    the radio graph ``{key: set of neighbour keys}``.  The radio links join
    distinct tree nodes and include every tree edge."""
    section = None
    params = {"n_chl": 4, "d_l": 5}
    set_on: dict[str, int] = {}  # the line that set each [params] key
    edges: dict[str, list[tuple[int, int]]] = {"tree": [], "radio": []}
    for lineno, raw in enumerate(text.splitlines(), 1):
        # an edge line of two distinct integers stops here; a `#` leaves a
        # field that is no integer, so comments take the checks below
        parts = raw.split()
        if len(parts) == 2 and section in edges:
            try:
                a, b = int(parts[0]), int(parts[1])
            except ValueError:
                pass
            else:
                if a != b:
                    edges[section].append((a, b))
                    continue
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
            # a [params] key and its value, or an edge's two nodes
            a = parts[0] if section == "params" else int(parts[0])
            b = int(parts[1])
        except ValueError:
            raise ValueError(f"topology line {lineno}: expected "
                             f"{_TOPOLOGY_LINE[section]}, got {line!r}") from None
        # outside the `try`, whose handler would replace these messages
        if section == "params":
            if a in set_on:
                raise ValueError(f"topology line {lineno}: [params] {a} was already "
                                 f"set on line {set_on[a]}")
            set_on[a] = lineno
            params[a] = b
            continue
        if a == b:
            raise ValueError(f"topology line {lineno}: node {a} is linked to itself")
        edges[section].append((a, b))
    shape: dict[int, list[int]] = {}
    for parent, child in edges["tree"]:
        shape.setdefault(parent, []).append(child)
        shape.setdefault(child, [])
    tree = assign_addresses(shape, params["n_chl"], params["d_l"])
    radio: dict[int, set[int]] = {key: set() for key in tree}
    # every tree edge joins tree nodes, so only a radio edge can fail here
    for a, b in edges["tree"] + edges["radio"]:
        for key in (a, b):
            if key not in tree:
                raise ValueError(f"radio edge {a} {b}: node {key} is not in [tree]")
        radio[a].add(b)
        radio[b].add(a)
    return tree, radio
