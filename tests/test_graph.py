"""Graph container, degrees, neighbor weights, and coarsening."""

import numpy as np
import pytest

from anylouvain import (Graph, aggregate, compact_labels, datasets,
                        neighbor_community_weights, singleton_labels)
from anylouvain.errors import LouvainError, NegativeWeight
from anylouvain import synth

from conftest import path3, triangle


def test_isolated_node_degree_zero():
    g = Graph.from_edges(2, [])
    assert g.degree(0) == 0.0


def test_triangle_degrees():
    g = triangle()
    assert [g.degree(i) for i in range(3)] == [2.0, 2.0, 2.0]


def test_karate_degree_sum():
    g, labels = datasets.karate_club()
    assert g.n == 34
    assert g.edge_count == 78
    assert g.degrees.sum() == pytest.approx(2 * 78)
    assert g.consts.two_m == pytest.approx(156.0)


def test_self_loop_counts_once_in_degree_and_mass():
    g = Graph.from_edges(2, [(0, 1, 2.0), (1, 1, 3.0)])
    assert g.degree(0) == 2.0
    assert g.degree(1) == 5.0
    assert g.consts.two_m == pytest.approx(2 + 2 + 3)
    assert g.degrees.sum() == pytest.approx(g.consts.two_m)


def test_duplicate_edges_merge():
    g = Graph.from_edges(2, [(0, 1, 2.0), (1, 0, 3.0)])
    nbrs, ws = g.neighbors(0)
    assert list(nbrs) == [1]
    assert list(ws) == [5.0]


def test_negative_weight_rejected():
    with pytest.raises(NegativeWeight):
        Graph.from_edges(2, [(0, 1, -1.0)])


@pytest.mark.parametrize("w", [float("nan"), float("inf")])
@pytest.mark.parametrize("loop", [False, True])
def test_non_finite_weight_rejected(w, loop):
    with pytest.raises(LouvainError, match="finite"):
        Graph.from_edges(2, [(0, 0 if loop else 1, w)])


@pytest.mark.parametrize("edges", [[(0, 2, 1.0)], [(2, 1, 1.0)],
                                   [(0, -1, 1.0)], [(-1, -1, 1.0)]])
def test_node_id_out_of_range_rejected(edges):
    with pytest.raises(LouvainError, match="outside 0..1"):
        Graph.from_edges(2, edges)


def test_adjacency_symmetric():
    rng = np.random.default_rng(0)
    g = synth.random_graph(25, 0.3, weighted=True, loops=True, rng=rng)
    dense = g.dense()
    assert np.allclose(dense, dense.T)


def test_neighbor_weights_single_community():
    g = Graph.from_edges(4, [(0, 1, 2.0), (0, 2, 3.0)])
    labels = np.array([1, 0, 0, 0])
    assert neighbor_community_weights(g, 0, labels) == {0: 5.0, 1: 0.0}


def test_neighbor_weights_triangle_singletons():
    g = triangle()
    got = neighbor_community_weights(g, 0, singleton_labels(3))
    assert got == {0: 0.0, 1: 1.0, 2: 1.0}


def test_neighbor_weights_path():
    # a-b-c with {a,b} together: b sees 1.0 towards each side
    g = path3()
    labels = np.array([0, 0, 1])
    assert neighbor_community_weights(g, 1, labels) == {0: 1.0, 1: 1.0}


def test_aggregate_singletons_is_identity():
    g = synth.random_graph(12, 0.4, weighted=True, loops=True, seed=3)
    meta = aggregate(g, singleton_labels(12), 12)
    assert np.allclose(meta.dense(), g.dense())
    assert np.array_equal(meta.size, g.size)
    assert meta.consts is g.consts


def test_aggregate_triangle_one_community():
    meta = aggregate(triangle(), np.zeros(3, dtype=np.int64), 1)
    assert meta.n == 1
    assert meta.loop[0] == pytest.approx(6.0)  # ordered-pair internal mass
    assert meta.size[0] == 3


def test_aggregate_two_disjoint_edges():
    g = Graph.from_edges(4, [(0, 1, 1), (2, 3, 1)])
    meta = aggregate(g, np.array([0, 0, 1, 1]), 2)
    assert meta.n == 2
    assert list(meta.loop) == [2.0, 2.0]
    assert meta.edge_count == 2  # the two loops only, no cross edge


def test_aggregate_conserves_mass():
    rng = np.random.default_rng(4)
    for _ in range(25):
        n = int(rng.integers(2, 40))
        g = synth.random_graph(n, 0.3, weighted=True, loops=True, rng=rng)
        labels = synth.random_labels(n, rng=rng)
        meta = aggregate(g, labels)
        assert meta.degrees.sum() == pytest.approx(g.consts.two_m)
        assert meta.size.sum() == g.consts.n0


def test_aggregate_idempotent_after_singletons():
    g = synth.random_graph(15, 0.4, weighted=True, seed=9)
    labels = synth.random_labels(15, seed=10)
    meta = aggregate(g, labels)
    again = aggregate(meta, singleton_labels(meta.n), meta.n)
    assert np.allclose(again.dense(), meta.dense())
    assert np.array_equal(again.size, meta.size)


def test_compact_labels():
    labels, kappa = compact_labels(np.array([5, 5, 9, 2]))
    assert kappa == 3
    assert list(labels) == [1, 1, 2, 0]
    with pytest.raises(ValueError):
        compact_labels(np.array([0, -1]))
