"""Cross-check of Newman-Girvan quality against networkx's modularity.

The two agree on graphs without self-loops.  They differ by convention
on self-loops: this package counts a loop of weight ``w`` once, in the
node's degree, in the internal mass and in ``2m``, while networkx counts
it twice in the degree (and so in ``2m`` and in the internal mass).
"""

import numpy as np
import pytest

from anylouvain import Graph, as_criterion, datasets, synth

nx = pytest.importorskip("networkx")


def _to_networkx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    for i in range(g.n):
        for k in range(g.indptr[i], g.indptr[i + 1]):
            if i < g.nbr[k]:
                h.add_edge(i, int(g.nbr[k]), weight=float(g.wgt[k]))
        if g.loop[i]:
            h.add_edge(i, i, weight=float(g.loop[i]))
    return h


def _edges(g):
    """``(i, j, w)`` triples of ``g``, each edge and loop once."""
    return [(u, v, w) for u, v, w in _to_networkx(g).edges(data="weight")]


def _modularity(g, labels):
    """``ng`` quality normalized by ``2m``: the classical modularity."""
    return as_criterion("ng").relational(g, labels) / g.consts.two_m


def _nx_modularity(g, labels):
    groups = [set(np.flatnonzero(labels == c).tolist())
              for c in np.unique(labels)]
    return nx.community.modularity(_to_networkx(g), groups, weight="weight")


def test_karate_matches_networkx():
    g, _ = datasets.karate_club()
    rng = np.random.default_rng(67)
    for labels in [np.zeros(g.n, dtype=np.int64), np.arange(g.n),
                   *(synth.random_labels(g.n, seed=rng) for _ in range(5))]:
        assert _modularity(g, labels) == pytest.approx(
            _nx_modularity(g, labels), rel=1e-12, abs=1e-12)


def test_loop_free_random_graphs_match_networkx():
    rng = np.random.default_rng(71)
    for _ in range(20):
        g = synth.random_graph(int(rng.integers(3, 30)), 0.3,
                               weighted=bool(rng.integers(2)), seed=rng)
        if g.consts.two_m == 0:
            continue
        labels = synth.random_labels(g.n, seed=rng)
        assert _modularity(g, labels) == pytest.approx(
            _nx_modularity(g, labels), rel=1e-12, abs=1e-12)


def test_self_loops_counted_once_unlike_networkx():
    """Intended difference: the two values disagree on a graph with
    loops, and agree once each loop weight is doubled on this side,
    which is networkx's count of a loop."""
    rng = np.random.default_rng(73)
    g = synth.random_graph(30, 0.2, weighted=True, loops=True, seed=rng)
    assert np.count_nonzero(g.loop) > 0
    labels = synth.random_labels(g.n, seed=rng)
    ours, theirs = _modularity(g, labels), _nx_modularity(g, labels)
    assert abs(ours - theirs) > 1e-3
    doubled = Graph.from_edges(
        g.n, [(u, v, 2.0 * w if u == v else w) for u, v, w in _edges(g)])
    assert _modularity(doubled, labels) == pytest.approx(
        theirs, rel=1e-12, abs=1e-12)
