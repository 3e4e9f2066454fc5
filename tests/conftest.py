"""Shared builders for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from anylouvain import Graph, make_criterion, synth
from anylouvain.graph import SENTINEL

# (id, alpha) pairs covering every shipped criterion.
ALL_CRITERIA = [
    ("ng", None), ("zc", None), ("oz", 0.5), ("wc", None), ("bm", None),
    ("di", None), ("du", None), ("g", None), ("pd", None),
]

CRITERION_IDS = [f"{cid}" if a is None else f"{cid}{a}"
                 for cid, a in ALL_CRITERIA]


@pytest.fixture(params=ALL_CRITERIA, ids=CRITERION_IDS)
def criterion(request):
    cid, alpha = request.param
    return make_criterion(cid, alpha)


def triangle():
    return Graph.from_edges(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])


def two_triangles():
    return Graph.from_edges(6, [(0, 1, 1), (1, 2, 1), (0, 2, 1),
                                (3, 4, 1), (4, 5, 1), (3, 5, 1)])


def path3():
    return Graph.from_edges(3, [(0, 1, 1), (1, 2, 1)])


def compatible_graph(crit, rng, *, n_max=20, p=0.4):
    """Random graph valid for ``crit``: unweighted where required, no
    isolated nodes where degree-rescaling needs them, positive mass."""
    while True:
        n = int(rng.integers(3, n_max + 1))
        weighted = crit.weighted_ok and bool(rng.integers(2))
        g = synth.random_graph(n, p, weighted=weighted,
                               loops=bool(rng.integers(2)) and crit.id != "wc",
                               seed=int(rng.integers(2 ** 32)))
        if g.consts.two_m == 0:
            continue
        if crit.id in ("pd", "wc") and np.any(g.degrees == 0):
            continue
        return g


def neighbors(g, i):
    """Views of neighbor ids and weights of node ``i`` (no loop)."""
    lo, hi = g.indptr[i], g.indptr[i + 1]
    return g.nbr[lo:hi], g.wgt[lo:hi]


def neighbor_community_weights(g, i, labels):
    """Incident weight of node ``i`` towards each adjacent community,
    one Python step per neighbor: the reference for the optimizer's
    vectorized sums.

    Returns a dict ``{community: d_w(i, community)}`` where
    ``d_w(i, C) = sum_{j in C, j != i} w_ij``.  Communities with no
    incident weight are omitted, except the node's own community (when
    ``labels[i]`` is not :data:`SENTINEL`), which is always present.
    """
    nbrs, ws = neighbors(g, i)
    out = {}
    own = int(labels[i])
    if own != SENTINEL:
        out[own] = 0.0
    for j, w in zip(nbrs, ws):
        c = int(labels[j])
        out[c] = out.get(c, 0.0) + float(w)
    return out
