"""Vectorized, seeded planted-partition generator.

``synth.planted_partition_graph`` loops in Python over every pair of
groups and builds a ``Graph`` from Python tuples, which is slow for many
groups or many edges.  This draws the same model with a fixed number of
numpy calls whatever the group count:

- inside each group, every node pair is an edge with probability
  ``p_in``, drawn for all groups in one array;
- across groups, the edge count is drawn from the binomial over all
  cross-group pairs, and that many distinct cross-group pairs are drawn
  uniformly (rejection sampling on random node pairs), which makes each
  cross-group pair an edge with probability ``p_out``.

Self-pairs and duplicate pairs never reach the output.
"""

from __future__ import annotations

import numpy as np


def planted_edges(n, groups, p_in, p_out, *, seed):
    """Return ``(src, dst, truth)`` for an unweighted planted graph.

    ``src < dst`` on every row, no pair appears twice, and ``truth[i]`` is
    the planted group of node ``i``.  Expected degree is
    ``p_in * (n / groups - 1)`` inside the node's group plus
    ``p_out * (n - n / groups)`` across groups.
    """
    if n % groups:
        raise ValueError("n must be divisible by the number of groups")
    rng = np.random.default_rng(seed)
    size = n // groups
    truth = np.repeat(np.arange(groups, dtype=np.int64), size)

    iu, ju = np.triu_indices(size, k=1)
    hit = rng.random((groups, iu.size)) < p_in
    grp, pair = np.nonzero(hit)
    src_in = iu[pair] + grp * size
    dst_in = ju[pair] + grp * size

    cross_pairs = n * (n - size) // 2
    want = int(rng.binomial(cross_pairs, p_out))
    keys = np.empty(0, dtype=np.int64)
    while keys.size < want:
        draw = 2 * (want - keys.size) + 16
        u = rng.integers(0, n, draw)
        v = rng.integers(0, n, draw)
        cross = truth[u] != truth[v]
        u, v = u[cross], v[cross]
        cand = np.minimum(u, v) * n + np.maximum(u, v)
        merged = np.concatenate([keys, cand])
        # Keep the first occurrence of each pair, in draw order.
        _, first = np.unique(merged, return_index=True)
        keys = merged[np.sort(first)]
    keys = keys[:want]

    src = np.concatenate([src_in, keys // n])
    dst = np.concatenate([dst_in, keys % n])
    return src, dst, truth
