"""Random test-graph generators (Erdos-Renyi style and planted
partitions).  All generators are deterministic given a ``seed``, which
may also be a numpy ``Generator`` to draw from."""

from __future__ import annotations

import numpy as np

from .graph import Graph, compact_labels


def random_graph(n, p, *, weighted=False, loops=False, seed=None):
    """Erdos-Renyi graph with edge probability ``p``.

    Weights are 1, or uniform in ``(0, 5]`` when ``weighted``; with
    ``loops`` each node gets a self-loop with probability ``p``.
    """
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    mask = rng.random(iu.size) < p
    iu, ju = iu[mask], ju[mask]
    if weighted:
        ws = rng.uniform(0.0, 5.0, iu.size)
        ws[ws == 0.0] = 5.0  # keep weights strictly positive
    else:
        ws = np.ones(iu.size)
    if loops:
        li = np.flatnonzero(rng.random(n) < p)
        iu, ju = np.concatenate([iu, li]), np.concatenate([ju, li])
        ws = np.concatenate([ws, rng.uniform(0.0, 5.0, li.size)
                             if weighted else np.ones(li.size)])
    return Graph.from_arrays(n, iu, ju, ws)


def small_graphs(count, *, seed):
    """``count`` random graphs of 5 to 8 nodes at edge probability 0.45,
    each with no isolated node, every second one weighted: small enough
    for :func:`oracle.exact_optimum`."""
    rng = np.random.default_rng(seed)
    graphs = []
    while len(graphs) < count:
        g = random_graph(int(rng.integers(5, 9)), 0.45,
                         weighted=len(graphs) % 2 == 1,
                         seed=int(rng.integers(2 ** 32)))
        if np.all(g.degrees > 0):
            graphs.append(g)
    return graphs


def random_labels(n, *, max_kappa=None, seed=None):
    """Random partition of ``n`` nodes into at most ``max_kappa``
    communities, compacted to dense ids."""
    rng = np.random.default_rng(seed)
    if max_kappa is None:
        max_kappa = max(1, n // 2)
    labels = rng.integers(0, max_kappa, size=n)
    out, _ = compact_labels(labels)
    return out


def planted_partition_graph(n, groups, p_in, p_out, *, seed=None):
    """Unweighted graph with ``groups`` equal planted communities.

    Within-group pairs get an edge with probability ``p_in``, cross-group
    pairs with ``p_out``.  Returns ``(Graph, truth)`` where ``truth`` is
    the planted group of each node.
    """
    if n % groups:
        raise ValueError("n must be divisible by the number of groups")
    rng = np.random.default_rng(seed)
    size = n // groups
    truth = np.repeat(np.arange(groups), size)
    srcs, dsts = [], []

    iu, ju = np.triu_indices(size, k=1)
    for gidx in range(groups):
        mask = rng.random(iu.size) < p_in
        srcs.append(iu[mask] + gidx * size)
        dsts.append(ju[mask] + gidx * size)

    # Cross links: per block pair, draw the edge count then sample pairs.
    for ga in range(groups):
        for gb in range(ga + 1, groups):
            count = rng.binomial(size * size, p_out)
            if count == 0:
                continue
            flat = rng.choice(size * size, size=count, replace=False)
            srcs.append(flat // size + ga * size)
            dsts.append(flat % size + gb * size)

    src = np.concatenate(srcs)
    return Graph.from_arrays(n, src, np.concatenate(dsts),
                             np.ones(src.size)), truth


def recovered_groups(truth, flat):
    """Count planted groups matched by a detected community.

    A group counts as recovered when some detected community contains a
    strict majority of the group's nodes and the group supplies a strict
    majority of that community's nodes.
    """
    truth = np.asarray(truth)
    flat = np.asarray(flat)
    comm_sizes = np.bincount(flat)
    hits = 0
    for gidx in np.unique(truth):
        members = flat[truth == gidx]
        counts = np.bincount(members, minlength=comm_sizes.size)
        best = int(np.argmax(counts))
        overlap = counts[best]
        if overlap * 2 > members.size and overlap * 2 > comm_sizes[best]:
            hits += 1
    return hits
