"""Per-slot reference for ``bansim.zigbee.self_pruning_broadcast`` and
per-sweep reference for ``bansim.zigbee.oos_select``.

``self_pruning_reference`` takes the arguments of the function and returns
what it returns.  Every slot it rescans all waiting nodes, draws one scalar
backoff per newly covered node and visits every neighbour of a transmitter
in address order.  The bucketed function must reproduce its event log,
``covered`` and ``forward_set`` exactly; ``test_zigbee.py`` checks that on
benchmark topologies and random graphs.  ``oos_reference`` keeps the set of
nodes still to cover and shrinks it as each forwarder covers more;
``oos_select``, which tests coverage against the covered set alone, must
return the same forward set, coverage and event log.
"""

import numpy as np

from bansim.zigbee import BroadcastState, EventLogRow


def self_pruning_reference(tree, radio, source, max_backoff, seed):
    if source not in tree:
        raise ValueError(f"source {source} not in tree")
    rng = np.random.default_rng(seed)
    nbr = radio
    address = {key: a for key, (a, _depth) in tree.items()}.__getitem__
    covered = {source} | nbr[source]
    forward_set = {source}
    log = [EventLogRow(0, source, "tx")]
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
                log.append(EventLogRow(slot, x, "skip"))
                continue
            forward_set.add(x)
            newly = (nbr[x] | {x}) - covered
            covered |= nbr[x] | {x}
            log.append(EventLogRow(slot, x, "tx"))
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
    return BroadcastState(covered, forward_set, log)


def oos_reference(tree, radio, source):
    nbr = radio
    # top-to-bottom, left-to-right by address
    order = sorted(tree, key=lambda k: (tree[k][1], tree[k][0]))
    covered = {source} | nbr[source]
    to_cover = set(tree) - covered
    forward_set = {source}
    log = [EventLogRow(0, source, "tx")]
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
                log.append(EventLogRow(sweep, x, "tx"))
                progressed = True
        if not progressed:
            break  # disconnected: residual left as diagnostic
    return BroadcastState(covered, forward_set, log)
