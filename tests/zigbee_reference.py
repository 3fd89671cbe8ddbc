"""Per-slot reference for ``bansim.zigbee.self_pruning_broadcast`` and
per-sweep reference for ``bansim.zigbee.oos_select``.

``self_pruning_reference`` takes the arguments of the function and returns
what it returns.  Every slot it rescans all waiting nodes, draws one scalar
backoff per newly covered node and visits every neighbour of a transmitter
in address order.  The bucketed function must reproduce its ``events``,
the ``(slot, node key, transmitted)`` tuples in the order the nodes decide,
``covered`` and ``forward_set`` exactly; ``test_zigbee.py`` checks that on
benchmark topologies and random graphs.  ``oos_reference`` keeps the set of
nodes still to cover and shrinks it as each forwarder covers more;
``oos_select``, which tests coverage against the covered set alone, must
return the same forward set, coverage and events.

``parse_topology_reference`` is ``bansim.zigbee.parse_topology`` as it was
before edge lines took a path of their own: every line goes through the
comment strip, the header test (a header names a known section, in its
case) and the section checks, a `[params]` key
set twice, or to a value that is no integer or below its least, included.  The parser must return the
same tree and radio graph, or raise the same message.
"""

import numpy as np

from bansim.zigbee import BroadcastState, assign_addresses


def self_pruning_reference(tree, radio, source, max_backoff, seed):
    if source not in tree:
        raise ValueError(f"source {source} not in tree")
    rng = np.random.default_rng(seed)
    nbr = radio
    address = {key: a for key, (a, _depth) in tree.items()}.__getitem__
    covered = {source} | nbr[source]
    forward_set = {source}
    events = [(0, source, True)]
    # pending: node -> [expiry slot, residual neighbor set]
    pending: dict[int, list] = {}
    for x in sorted(nbr[source], key=address):
        residual = nbr[x] - nbr[source] - {source}
        pending[x] = [1 + int(rng.integers(0, max_backoff + 1)), residual]
    slot = 1
    while pending:
        due = sorted(
            (x for x, (t, _) in pending.items() if t == slot), key=address
        )
        for x in due:
            residual = pending.pop(x)[1]
            if not residual:
                events.append((slot, x, False))
                continue
            forward_set.add(x)
            newly = (nbr[x] | {x}) - covered
            covered |= nbr[x] | {x}
            events.append((slot, x, True))
            for y in sorted(nbr[x], key=address):
                if y in forward_set:
                    continue
                if y in pending:
                    pending[y][1] -= nbr[x] | {x}
                elif y in newly:
                    res = nbr[y] - nbr[x] - {x}
                    pending[y] = [slot + 1 + int(rng.integers(0, max_backoff + 1)),
                                  res]
        slot += 1
    return BroadcastState(covered, forward_set, events)


def oos_reference(tree, radio, source):
    nbr = radio
    # top-to-bottom, left-to-right by address
    order = sorted(tree, key=lambda k: (tree[k][1], tree[k][0]))
    covered = {source} | nbr[source]
    to_cover = set(tree) - covered
    forward_set = {source}
    events = [(0, source, True)]
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
                events.append((sweep, x, True))
                progressed = True
        if not progressed:
            break  # disconnected: residual left as diagnostic
    return BroadcastState(covered, forward_set, events)


_TOPOLOGY_LINE = {"params": "`n_chl = <int>` or `d_l = <int>`",
                  "tree": "two integer node keys", "radio": "two integer node keys"}
_LEAST = {"n_chl": 1, "d_l": 0}


def parse_topology_reference(text: str):
    section = None
    params = {"n_chl": 4, "d_l": 5}
    set_on: dict[str, int] = {}  # the line that set each [params] key
    edges: dict[str, list[tuple[int, int]]] = {"tree": [], "radio": []}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            # a header names its section as a config's does, case and all
            section = line[1:-1].strip()
            if section not in _TOPOLOGY_LINE:
                raise ValueError(f"topology line {lineno}: unknown section [{section}]; "
                                 f"known: {list(_TOPOLOGY_LINE)}")
            continue
        if section not in _TOPOLOGY_LINE:
            raise ValueError(f"topology line {lineno}: content outside a known section")
        parts = [p.strip() for p in line.split("=" if section == "params" else None)]
        try:
            if len(parts) != 2 or (section == "params" and parts[0] not in params):
                raise ValueError
            # a [params] key and its value, or an edge's two nodes
            a, b = parts if section == "params" else map(int, parts)
        except ValueError:
            raise ValueError(f"topology line {lineno}: expected "
                             f"{_TOPOLOGY_LINE[section]}, got {line!r}") from None
        if section == "params":
            if a in set_on:
                raise ValueError(f"topology line {lineno}: [params] {a} was already "
                                 f"set on line {set_on[a]}")
            try:
                value = int(b)
                if value < _LEAST[a]:
                    raise ValueError
            except ValueError:
                raise ValueError(f"topology line {lineno}: [params] {a} must be an "
                                 f"integer of at least {_LEAST[a]}, got {b!r}") from None
            set_on[a] = lineno
            params[a] = value
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
    for a, b in edges["tree"] + edges["radio"]:
        for key in (a, b):
            if key not in tree:
                raise ValueError(f"radio edge {a} {b}: node {key} is not in [tree]")
        radio[a].add(b)
        radio[b].add(a)
    return tree, radio
