"""Graph container, degrees, neighbor weights, and coarsening."""

import numpy as np
import pytest
import scipy.sparse as sp

from anylouvain import (Graph, RunConfig, aggregate, compact_labels,
                        datasets, detect, singleton_labels)
from anylouvain.errors import LouvainError, NegativeWeight
from anylouvain import graph, synth

from conftest import (neighbor_community_weights, neighbors, path3,
                      triangle)


def test_isolated_node_degree_zero():
    g = Graph.from_edges(2, [])
    assert g.degrees[0] == 0.0


def test_triangle_degrees():
    g = triangle()
    assert [g.degrees[i] for i in range(3)] == [2.0, 2.0, 2.0]


def test_karate_degree_sum():
    g, labels = datasets.karate_club()
    assert g.n == 34
    assert g.edge_count == 78
    assert g.degrees.sum() == pytest.approx(2 * 78)
    assert g.consts.two_m == pytest.approx(156.0)


def test_self_loop_counts_once_in_degree_and_mass():
    g = Graph.from_edges(2, [(0, 1, 2.0), (1, 1, 3.0)])
    assert g.degrees[0] == 2.0
    assert g.degrees[1] == 5.0
    assert g.consts.two_m == pytest.approx(2 + 2 + 3)
    assert g.degrees.sum() == pytest.approx(g.consts.two_m)


def test_duplicate_edges_merge():
    g = Graph.from_edges(2, [(0, 1, 2.0), (1, 0, 3.0)])
    nbrs, ws = neighbors(g, 0)
    assert list(nbrs) == [1]
    assert list(ws) == [5.0]


def test_duplicate_edges_add_in_input_order():
    # Rows of 20 and more entries, where scipy's index sort reorders
    # duplicates; 0.1 + 0.2 + 0.3 depends on the order of the terms.
    rng = np.random.default_rng(5)
    edges = [(0, j, w) for j in range(1, 21) for w in (0.1, 0.2, 0.3) * 2]
    edges += [(j, j % 20 + 1, w) for j in range(1, 21) for w in (0.3, 0.1)]
    edges = [edges[k] for k in rng.permutation(len(edges))]
    edges = [(j, i, w) if rng.random() < 0.3 else (i, j, w)
             for i, j, w in edges]
    # Entries (i, j) and (j, i): the edges of the pair in line order.
    ref = {}
    for i, j, w in edges:
        ref[i, j] = ref.get((i, j), 0.0) + w
        ref[j, i] = ref.get((j, i), 0.0) + w
    g = Graph.from_edges(21, edges)
    got = {(i, int(j)): float(w) for i in range(21)
           for j, w in zip(*neighbors(g, i))}
    assert got == ref
    dense = g.dense()
    assert dense.tobytes() == dense.T.tobytes()
    # The check above sees the order: the sorted order and the old rule
    # (the i, j lines, then the j, i lines) give other sums.
    in_sorted_order = {key: sum(sorted(w for i, j, w in edges
                                       if {i, j} == set(key)))
                       for key in ref}
    assert in_sorted_order != ref
    one_way_first = {}
    for flip in (False, True):
        for i, j, w in edges:
            key = (j, i) if flip else (i, j)
            one_way_first[key] = one_way_first.get(key, 0.0) + w
    assert one_way_first != ref


@pytest.mark.parametrize("size", [50, 1000, 2 ** 62],
                         ids=["bincount", "packed-sort", "argsort"])
def test_key_sums_add_in_input_order(size):
    rng = np.random.default_rng(6)
    keys = rng.integers(0, 50, 300)
    weights = rng.choice([0.0, 0.1, 0.2, 0.3], 300)
    weights[keys == 7] = 0.0
    ref = {}
    for k, w in zip(keys.tolist(), weights.tolist()):
        ref[k] = ref.get(k, 0.0) + w
    ref = {k: w for k, w in sorted(ref.items()) if w != 0}
    got_keys, got = graph._key_sums(keys.copy(), weights, size)
    assert dict(zip(got_keys.tolist(), got.tolist())) == ref
    assert list(got_keys) == sorted(ref)


def test_negative_weight_rejected():
    with pytest.raises(NegativeWeight):
        Graph.from_edges(2, [(0, 1, -1.0)])


@pytest.mark.parametrize("w", [float("nan"), float("inf")])
@pytest.mark.parametrize("loop", [False, True])
def test_non_finite_weight_rejected(w, loop):
    with pytest.raises(LouvainError, match="finite"):
        Graph.from_edges(2, [(0, 0 if loop else 1, w)])


def test_loop_overflow_builds_and_fails_as_overflow():
    # Finite loop weights whose sum overflows build an infinite loop, as
    # an edge sum does, and the quality check reports the overflow.
    g = Graph.from_edges(1, [(0, 0, 1e308), (0, 0, 1e308)])
    assert g.loop[0] == np.inf
    with pytest.raises(LouvainError, match="overflow"):
        detect(g, RunConfig())


@pytest.mark.parametrize("edges", [[(0, 2, 1.0)], [(2, 1, 1.0)],
                                   [(0, -1, 1.0)], [(-1, -1, 1.0)]])
def test_node_id_out_of_range_rejected(edges):
    with pytest.raises(LouvainError, match="outside 0..1"):
        Graph.from_edges(2, edges)


def test_adjacency_symmetric():
    rng = np.random.default_rng(0)
    g = synth.random_graph(25, 0.3, weighted=True, loops=True, rng=rng)
    dense = g.dense()
    assert dense.tobytes() == dense.T.tobytes()
    # Duplicate lines of each pair, given either way round.
    src, dst = rng.integers(0, 25, 600), rng.integers(0, 25, 600)
    dense = Graph.from_arrays(25, src, dst, rng.uniform(0, 1, 600)).dense()
    assert dense.tobytes() == dense.T.tobytes()
    g = Graph.from_edges(2, [(0, 1, 0.001), (1, 0, 0.001), (0, 1, 7.0)])
    assert g.dense().tolist() == [[0.0, 7.002], [7.002, 0.0]]


def test_dense_matches_loop_built_matrix():
    g = synth.random_graph(30, 0.3, weighted=True, loops=True, seed=2)
    ref = np.zeros((g.n, g.n))
    for i in range(g.n):
        for j, w in zip(*neighbors(g, i)):
            ref[i, j] = w
        ref[i, i] = g.loop[i]
    assert g.dense().tobytes() == ref.tobytes()
    assert g.dense(7, 19).tobytes() == ref[7:19].tobytes()


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


def scipy_meta(g, labels, kappa):
    """scipy's ``proj.T @ A @ proj``, the loops on the diagonal of A."""
    a = sp.csr_matrix((g.wgt, g.nbr, g.indptr), shape=(g.n, g.n))
    a = (a + sp.diags(g.loop)).tocsr()
    proj = sp.csr_matrix((np.ones(g.n), labels, np.arange(g.n + 1)),
                         shape=(g.n, kappa))
    return (proj.T @ a @ proj).toarray()


def loop_meta(g, labels, kappa):
    """The meta-graph summed in ``aggregate``'s documented order, one
    float at a time: for C <= D the entries (i, j), i in C and j in D, in
    CSR order, mirrored to (D, C); then the member loops in node order."""
    out = np.zeros((kappa, kappa))
    for i in range(g.n):
        for j, w in zip(*neighbors(g, i)):
            c, d = labels[i], labels[j]
            if c <= d:
                out[c, d] += w
    member = np.zeros(kappa)
    for i in range(g.n):
        member[labels[i]] += g.loop[i]
    for c in range(kappa):
        out[c + 1:, c] = out[c, c + 1:]
        out[c, c] += member[c]
    return out


@pytest.mark.parametrize("loops,weighted", [(True, True), (False, True),
                                            (False, False)])
@pytest.mark.parametrize("n,p,kappa,path", [(40, 0.5, 3, "bincount"),
                                            (60, 0.1, 30, "sort")])
def test_aggregate_symmetric_in_documented_order(n, p, kappa, path, loops,
                                                 weighted):
    g = synth.random_graph(n, p, weighted=weighted, loops=loops, seed=n)
    labels = np.arange(n) % kappa
    np.random.default_rng(kappa).shuffle(labels)
    assert (kappa * kappa <= g.nbr.size) == (path == "bincount")
    meta = aggregate(g, labels, kappa)
    # A second level folds the loops of the first.
    top = aggregate(meta, np.arange(kappa) % 2, 2)
    for fine, lab, k, coarse in ((g, labels, kappa, meta),
                                 (meta, np.arange(kappa) % 2, 2, top)):
        dense = coarse.dense()
        assert dense.tobytes() == dense.T.tobytes()
        assert dense.tobytes() == loop_meta(fine, lab, k).tobytes()
        np.testing.assert_allclose(dense, scipy_meta(fine, lab, k),
                                   rtol=1e-12, atol=0)


def test_compact_labels():
    labels, kappa = compact_labels(np.array([5, 5, 9, 2]))
    assert kappa == 3
    assert list(labels) == [1, 1, 2, 0]
    with pytest.raises(ValueError):
        compact_labels(np.array([0, -1]))
