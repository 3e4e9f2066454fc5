"""Graph container, degrees, neighbor weights, and coarsening."""

from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp

from anylouvain import (Graph, RunConfig, aggregate, as_criterion,
                        compact_labels, datasets, detect, singleton_labels)
from anylouvain.errors import LouvainError, NegativeWeight, TooLarge
from anylouvain import graph, synth

from conftest import (assert_same_graph, neighbor_community_weights,
                      neighbors, path3, reference_csr, traced_peak, triangle)


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
    # Whole float ids name the same nodes.
    assert_same_graph(Graph.from_edges(2, [(0.0, 1.0, 2.0), (1.0, 0, 3.0)]),
                      g)


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

    # One weight per pair of adjacent keys, as the CSR build passes them,
    # gives the keys and sums of the weights repeated per key, to the bit.
    per_pair = rng.choice([0.0, 0.1, 0.2, 0.3], 150)
    per_pair[(keys.reshape(-1, 2) == 7).any(axis=1)] = 0.0
    want = graph._key_sums(keys.copy(), np.repeat(per_pair, 2), size)
    got = graph._key_sums(keys.copy(), per_pair, size)
    assert 7 in keys and 7 not in want[0]  # a zero sum is dropped
    assert [a.dtype for a in got] == [a.dtype for a in want]
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    # No weights weighs every key 1: counts, as with explicit ones.
    want = graph._key_sums(keys.copy(), np.ones(300), size)
    got = graph._key_sums(keys.copy(), None, size)
    assert [a.dtype for a in got] == [a.dtype for a in want]
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def _unit_edges(n, m, seed):
    """``m`` unit-weight edges over ``n`` nodes with duplicates given
    both ways round and loops; the top node ids are left isolated."""
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n - 2, m)
    dst = np.where(rng.random(m) < 0.1, src, rng.integers(0, n - 2, m))
    twice = rng.integers(0, m, m // 3)  # duplicates, half of them flipped
    a, b = src[twice], dst[twice]
    flip = rng.random(twice.size) < 0.5
    return (np.concatenate([src, np.where(flip, b, a)]),
            np.concatenate([dst, np.where(flip, a, b)]))


# (n, edges): few nodes and many edges take the bincount branch of
# _key_sums (a key range no longer than the keys), many nodes the sort;
# past 2**15 nodes the keys are int64 (n << bits past 2**31).
CSR_SHAPES = {"bincount": (12, 300), "sort": (400, 300),
              "sort-int64": (2 ** 15 + 1, 300)}


def _key_sums_branch(build):
    """``build()`` and the branch of its one ``_key_sums`` call with the
    keys' dtype."""
    with mock.patch.object(graph, "_key_sums", wraps=graph._key_sums) as ks:
        out = build()
    (keys, _, size), = [c.args for c in ks.call_args_list]
    return out, ("bincount" if size <= keys.size else "sort", keys.dtype)


@pytest.mark.parametrize("shape", CSR_SHAPES)
@pytest.mark.parametrize("weights", ["unit", "broadcast", "weighted",
                                     "unit-edges-weighted-loops"])
def test_from_arrays_matches_reference_csr(shape, weights):
    n, m = CSR_SHAPES[shape]
    src, dst = _unit_edges(n, m, seed=n)
    rng = np.random.default_rng(1)
    w = {"unit": np.ones(src.size),
         "broadcast": np.broadcast_to(1.0, src.size),
         "weighted": rng.choice([0.0, 0.1, 0.2, 0.3, 1.0], src.size),
         "unit-edges-weighted-loops": np.where(src == dst, 0.3, 1.0)}[weights]
    g, branch = _key_sums_branch(lambda: Graph.from_arrays(n, src, dst, w))
    assert branch == (shape.removesuffix("-int64"),
                      np.int64 if shape.endswith("int64") else np.int32)
    assert_same_graph(g, reference_csr(n, zip(src, dst, w)))
    assert g.degrees[-2:].tolist() == [0.0, 0.0]  # isolated nodes


@pytest.mark.parametrize("n", [0, 1, 3, 2 ** 15])
def test_from_arrays_empty_input(n):
    for w in (np.zeros(0), np.broadcast_to(1.0, 0)):
        g = Graph.from_arrays(n, np.zeros(0, dtype=np.int64),
                              np.zeros(0, dtype=np.int64), w)
        assert_same_graph(g, reference_csr(n, []))


@pytest.mark.parametrize("n,width", [(2 ** 15, np.int32),
                                     (2 ** 15 + 1, np.int64)])
@pytest.mark.parametrize("pairs", ["duplicates", "distinct"])
def test_unit_keys_are_int32_below_2_31(n, width, pairs):
    # n << bits is 2**30 at n = 2**15 and 2**31 + 2**16 one node later.
    # Keys below 2**31 are int32 over the ids' buffer: folded when a pair
    # is given twice, else cut in place into nbr.  Past it they are an
    # int64 array of their own.  Either way nbr is int32.
    src, dst = _unit_edges(n, 3000, seed=8)
    if pairs == "distinct":  # each pair once, either way round
        _, first = np.unique(np.minimum(src, dst) * n + np.maximum(src, dst),
                             return_index=True)
        src, dst = src[first], dst[first]
    w = np.broadcast_to(1.0, src.size)
    with mock.patch.object(graph, "_CHUNK", 500):  # keys in many chunks
        g, branch = _key_sums_branch(lambda: Graph.from_arrays(n, src, dst, w))
    assert branch == ("sort", width)
    assert g.unit_weights == (pairs == "distinct")
    assert np.count_nonzero(g.loop) and g.degrees[-1] == 0.0
    assert_same_graph(g, reference_csr(n, zip(src, dst, np.ones(src.size))))


def test_int64_keys_none_folded_give_nbr_over_the_ids():
    # Distinct weighted pairs past 2**15 nodes: the keys are int64 in an
    # array of their own, and with no key folded the int32 nbr is
    # written over the ids' buffer, which the build no longer needs.
    n = 2 ** 15 + 1
    src, dst = _unit_edges(n, 3000, seed=8)
    _, first = np.unique(np.minimum(src, dst) * n + np.maximum(src, dst),
                         return_index=True)
    src, dst = src[first], dst[first]
    w = np.random.default_rng(2).uniform(0.5, 2.0, src.size)
    pairs = np.column_stack((src, dst)).astype(np.int32)
    g = graph._from_pairs(n, pairs, w.copy())
    assert np.count_nonzero(g.loop) and np.shares_memory(g.nbr, pairs)
    assert_same_graph(g, reference_csr(n, zip(src, dst, w)))


@pytest.mark.parametrize("loops", [(), (0.5, 3.0), (0.0,)],
                         ids=["no-loops", "loops", "zero-loop"])
def test_unit_constants_match_explicit_ones(loops):
    # Over the 1.0 broadcast, two_m and w_max are read from nnz and 1
    # without a pass over wgt: the same bits as over an array of ones.
    src, dst = _unit_edges(60, 200, seed=9)
    _, first = np.unique(np.minimum(src, dst) * 60 + np.maximum(src, dst),
                         return_index=True)
    keep = first[src[first] != dst[first]]
    src = np.concatenate([src[keep], np.arange(len(loops))])
    dst = np.concatenate([dst[keep], np.arange(len(loops))])
    w = np.concatenate([np.ones(keep.size), loops])
    g = Graph.from_arrays(60, src, dst, w)
    assert g.unit_weights
    ones = _with_ones(g)
    assert not ones.unit_weights
    assert g.degrees.tobytes() == ones.degrees.tobytes()
    assert (g.consts.two_m.hex(), g.consts.w_max.hex()) == (
        ones.consts.two_m.hex(), ones.consts.w_max.hex())
    assert g.consts.w_max == max((1.0, *loops))
    assert_same_graph(g, reference_csr(60, zip(src, dst, w)))


def test_unit_weights_skip_the_stable_sort():
    # Unit weights are counted on the bare keys; any other weight goes
    # through the stable sort and its gather.
    n, m = CSR_SHAPES["sort"]
    src, dst = _unit_edges(n, m, seed=2)
    ones = np.ones(src.size)
    with mock.patch.object(graph, "_stable_sort",
                           side_effect=AssertionError("stable sort")):
        unit = Graph.from_arrays(n, src, dst, ones)
    assert_same_graph(unit, reference_csr(n, zip(src, dst, ones)))
    with mock.patch.object(graph, "_stable_sort",
                           wraps=graph._stable_sort) as stable:
        twos = Graph.from_arrays(n, src, dst, 2 * ones)
    assert stable.call_count == 1
    assert twos.wgt.tobytes() == (2 * unit.wgt).tobytes()


@pytest.mark.parametrize("shape", CSR_SHAPES)
def test_aggregate_of_unweighted_graph_matches_reference(shape):
    n, m = CSR_SHAPES[shape]
    src, dst = _unit_edges(n, m, seed=3)
    g = Graph.from_arrays(n, src, dst, np.broadcast_to(1.0, src.size))
    labels = np.arange(n) % 5
    meta = aggregate(g, labels, 5)
    # The meta-graph of the plain reference: each CSR entry (i, j) with
    # labels C <= D once, then the member loops.
    rows = np.repeat(np.arange(n), np.diff(g.indptr))
    c, d = labels[rows], labels[g.nbr]
    edges = [(a, b, w) for a, b, w in zip(c, d, g.wgt) if a <= b]
    edges += [(a, a, w) for a, w in zip(labels, g.loop)]
    ref = reference_csr(5, edges)
    for name in ("indptr", "nbr", "wgt", "loop", "degrees"):
        a, b = getattr(meta, name), getattr(ref, name)
        assert (name, a.dtype, a.tobytes()) == (name, b.dtype, b.tobytes())


# Each bad input, (n, src, dst, w), with the error that names its first
# offending edge.
BAD_ARRAYS = {
    "negative-id": (3, (0, -1, 5), (1, 2, 1), (1.0, 1.0, 1.0),
                    LouvainError, "edge (-1, 2) names a node outside 0..2"),
    "id-equals-n": (3, (0, 1, 2), (1, 3, 4), (1.0, 1.0, 1.0),
                    LouvainError, "edge (1, 3) names a node outside 0..2"),
    "fractional-id": (3, (0.5,), (1.7,), (1.0,), LouvainError,
                      "edge (0.5, 1.7) names a node outside 0..2"),
    "nan-id": (3, (0.0, np.nan), (1.0, 2.0), (1.0, 1.0), LouvainError,
               "edge (nan, 2.0) names a node outside 0..2"),
    "negative-n": (-1, (), (), (), LouvainError,
                   "node count must be non-negative, got -1"),
    "unequal-lengths": (3, (0, 1), (1,), (1.0, 1.0), LouvainError,
                        "src, dst and w must be 1-D arrays of one length"),
    "2-D-weights": (3, (0, 1), (1, 2), ((1.0, 1.0),), LouvainError,
                    "src, dst and w must be 1-D arrays of one length"),
    "negative-before-nan": (3, (0, 1, 2), (1, 2, 0), (1.0, -2.0, np.nan),
                            NegativeWeight, "edge (1, 2) has weight -2.0"),
    "nan-before-negative": (3, (0, 1, 2), (1, 2, 0), (np.nan, 1.0, -0.5),
                            NegativeWeight, "edge (2, 0) has weight -0.5"),
    "nan": (3, (0, 1), (1, 2), (1.0, np.nan),
            LouvainError, "edge weights must be finite"),
    "inf": (3, (0, 1), (1, 2), (np.inf, 1.0),
            LouvainError, "edge weights must be finite"),
    "-inf": (3, (0, 1), (1, 2), (1.0, -np.inf),
             NegativeWeight, "edge (1, 2) has weight -inf"),
    "id-before-weight": (3, (0, 3), (1, 1), (-1.0, 1.0),
                         LouvainError, "edge (3, 1) names a node outside"),
    "float-n": (2.5, (0,), (1,), (1.0,), LouvainError,
                "node count must be an integer, got 2.5"),
    "True-n": (True, (0,), (0,), (1.0,), LouvainError,
               "node count must be an integer, got True"),
    "False-n": (False, (), (), (), LouvainError,
                "node count must be an integer, got False"),
    "numpy-bool-n": (np.True_, (0,), (0,), (1.0,), LouvainError,
                     "node count must be an integer, got "),
    "string-ids": (3, ("0",), ("1",), (1.0,), LouvainError,
                   "node ids must be numbers"),
    "string-weights": (3, (0,), (1,), ("x",), LouvainError,
                       "edge weights must be numbers"),
    "complex-weights": (3, (0,), (1,), (1j,), LouvainError,
                        "edge weights must be numbers"),
    "numeric-string-weights": (3, (0,), (1,), ("1.5",), LouvainError,
                               "edge weights must be numbers"),
    "id-before-string-weight": (3, ("0",), (1,), ("x",), LouvainError,
                                "node ids must be numbers"),
    "object-ids": (3, (0, None), (1, 2), (1.0, 1.0), LouvainError,
                   "node ids must be numbers"),
    # Refused before anything of size n is allocated (16 GB of loops).
    "2**31-nodes": (2 ** 31, (0,), (1,), (1.0,), TooLarge,
                    "2147483648 nodes: a graph holds fewer than 2147483648"),
}


@pytest.mark.parametrize("name", BAD_ARRAYS)
def test_from_arrays_names_first_bad_edge(name):
    n, src, dst, w, error, message = BAD_ARRAYS[name]
    with pytest.raises(error) as err:
        Graph.from_arrays(n, src, dst, w)
    assert type(err.value) is error
    assert str(err.value).startswith(message)


def test_node_limit_is_the_first_node_count_refused(monkeypatch):
    monkeypatch.setattr(graph, "NODE_LIMIT", 4)
    assert Graph.from_arrays(3, [0], [2], [1.0]).nbr.tolist() == [2, 0]
    with pytest.raises(TooLarge, match="4 nodes"):
        Graph.from_arrays(4, [0], [2], [1.0])


def test_from_arrays_leaves_read_only_weights_alone():
    src, dst = _unit_edges(50, 200, seed=4)
    weighted = np.where(src % 3, 1.0, 2.5)
    weighted.flags.writeable = False
    ids = src.tobytes() + dst.tobytes()
    for w in (np.broadcast_to(1.0, src.size), weighted):
        before = w.copy()
        g = Graph.from_arrays(50, src, dst, w)
        assert w.tobytes() == before.tobytes()
        assert src.tobytes() + dst.tobytes() == ids
        assert_same_graph(g, reference_csr(50, zip(src, dst, before)))


def _pretreated(cid, edges):
    return lambda: as_criterion(cid).pretreat(
        Graph.from_edges(1 + max(max(e[:2]) for e in edges), edges))


OVERFLOW = [(0, 1, 1e308), (1, 2, 1e308), (2, 0, 1e308)]
EDGE_AND_LOOP = [(0, 1, 1e308), (0, 0, 1e308), (1, 2, 1.0)]
LOOPS = [(0, 0, 1e308), (0, 0, 1e308), (1, 2, 1.0)]

LEVEL0_GRAPHS = {
    "edgeless": lambda: Graph.from_edges(3, []),
    "loops-only": lambda: Graph.from_edges(2, [(0, 0, 2.5), (1, 1, 0.5)]),
    "zero-loops": lambda: Graph.from_edges(
        3, [(0, 0, 0.0), (0, 1, 2.0), (1, 1, 0.0), (1, 2, 0.5)]),
    "isolated": lambda: Graph.from_edges(5, [(0, 1, 1.0), (1, 2, 3.0)]),
    # Unweighted, with "a b", "b a", "a b": the pair weighs 3, so its
    # rows' sums are not their lengths.
    "repeated-unit-pair": lambda: Graph.from_edges(
        3, [(0, 1, 1.0), (1, 0, 1.0), (0, 1, 1.0), (1, 2, 1.0)]),
    "wc": _pretreated("wc", [(0, 1, 1.0), (1, 2, 1.0), (2, 2, 1.0)]),
    "pd": _pretreated("pd", [(0, 1, 2.0), (1, 2, 0.5), (2, 2, 4.0)]),
    "overflow": lambda: Graph.from_edges(3, OVERFLOW),
    "overflow-edge-and-loop": lambda: Graph.from_edges(3, EDGE_AND_LOOP),
    "overflow-loops": lambda: Graph.from_edges(3, LOOPS),
    # Overflowing degrees give NaN weights, zero loops and a NaN loop.
    "overflow-pd": _pretreated("pd", OVERFLOW),
    "overflow-edge-and-loop-pd": _pretreated("pd", EDGE_AND_LOOP),
    "overflow-loops-pd": _pretreated("pd", LOOPS),
}


@pytest.mark.parametrize("name", LEVEL0_GRAPHS)
def test_level0_constants_match_reference(name):
    g = LEVEL0_GRAPHS[name]()
    # The plain formulas: every weight and every positive loop in one
    # array, the degrees summed per CSR row.
    rows = np.repeat(np.arange(g.n), np.diff(g.indptr))
    with np.errstate(over="ignore", invalid="ignore"):
        two_m = float(g.wgt.sum() + g.loop.sum())
        w_all = np.concatenate([g.wgt, g.loop[g.loop > 0]])
        w_max = float(w_all.max()) if w_all.size else 1.0
        degrees = np.bincount(rows, weights=g.wgt, minlength=g.n) + g.loop
    assert repr((g.consts.two_m, g.consts.w_max)) == repr((two_m, w_max))
    assert g.degrees.tobytes() == degrees.tobytes()


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
                                   [(0, -1, 1.0)], [(-1, -1, 1.0)],
                                   [(0.5, 1, 1.0)], [(0, 1.5, 1.0)],
                                   [(np.nan, 1, 1.0)], [(0, np.inf, 1.0)],
                                   [(1e300, 0, 1.0)]])
def test_node_id_out_of_range_rejected(edges):
    with pytest.raises(LouvainError, match="outside 0..1"):
        Graph.from_edges(2, edges)


def test_adjacency_symmetric():
    rng = np.random.default_rng(0)
    g = synth.random_graph(25, 0.3, weighted=True, loops=True, seed=rng)
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
        g = synth.random_graph(n, 0.3, weighted=True, loops=True, seed=rng)
        labels = synth.random_labels(n, seed=rng)
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


# -- implicit unit weights ----------------------------------------------


def test_unit_csr_weights_are_a_read_only_broadcast():
    # Distinct unit pairs give a broadcast of 1.0; a pair given twice
    # sums to 2 and keeps a real weight array.
    n, m = CSR_SHAPES["sort"]
    src, dst = _unit_edges(n, m, seed=5)
    g = Graph.from_arrays(n, src, dst, np.ones(src.size))
    assert not g.unit_weights and g.wgt.flags.writeable
    assert_same_graph(g, reference_csr(n, zip(src, dst, np.ones(src.size))))
    keys = np.unique(np.where(src == dst, -1, np.minimum(src, dst) * n
                              + np.maximum(src, dst)))[1:]
    a, b = np.divmod(keys, n)
    g = Graph.from_arrays(n, a, b, np.ones(a.size))
    assert g.unit_weights
    assert g.wgt.strides == (0,) and not g.wgt.flags.writeable
    with pytest.raises(ValueError):
        g.wgt[0] = 2.0
    assert_same_graph(g, reference_csr(n, zip(a, b, np.ones(a.size))))


@pytest.mark.parametrize("size", [40, 100])  # bincount, then sort branch
def test_key_sums_of_distinct_keys_are_a_broadcast(size):
    keys = np.random.default_rng(6).permutation(size)[:40]
    got = graph._key_sums(keys.copy(), None, size)
    want = graph._key_sums(keys.copy(), np.ones(40), size)
    assert got[1].strides == (0,)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def _with_ones(g):
    """``g`` with its weights written out as an array of ones."""
    return Graph(g.n, g.indptr, g.nbr, np.ones(g.nbr.size), g.loop, g.size,
                 g.aux)


@pytest.mark.parametrize("cid,alpha", [
    ("ng", None), ("zc", None), ("oz", 0.3), ("wc", None), ("bm", None),
    ("di", None), ("du", None), ("g", None), ("pd", None)])
def test_broadcast_weights_run_as_ones(cid, alpha):
    # Counting in place of summing ones changes no bit: detect (long and
    # short rows, every level's aggregate), state_from_labels, relational
    # and dense agree between a broadcast and an array of ones.
    crit = as_criterion(cid, alpha)
    for n, p in ((150, 0.6), (300, 0.03)):
        unit = synth.random_graph(n, p, loops=cid != "wc", seed=n)
        assert unit.unit_weights
        ones = _with_ones(unit)
        assert_same_graph(unit, ones)
        cfg = RunConfig(criterion=cid, alpha=alpha)
        a, b = detect(unit, cfg), detect(ones, cfg)
        assert a.flat.tobytes() == b.flat.tobytes()
        for la, lb in zip(a.levels, b.levels, strict=True):
            assert la.labels.tobytes() == lb.labels.tobytes()
            assert ((la.quality, la.sweeps, la.moves, la.kappa)
                    == (lb.quality, lb.sweeps, lb.moves, lb.kappa))
            assert_same_graph(la.graph, lb.graph)
        labels = a.levels[0].labels
        assert_same_graph(aggregate(unit, labels), aggregate(ones, labels))
        if cid in ("wc", "pd"):
            unit, ones = crit.pretreat(unit), crit.pretreat(ones)
        sa, sb = (crit.state_from_labels(g, a.flat) for g in (unit, ones))
        for name in ("in_w", "tot", "sz", "aux"):
            assert getattr(sa, name).tobytes() == getattr(sb, name).tobytes()
        assert crit.relational(unit, a.flat) == crit.relational(ones, a.flat)
        assert unit.dense().tobytes() == ones.dense().tobytes()


@pytest.mark.parametrize("groups,size", [(20, 150), (1000, 22)],
                         ids=["counted", "sort"])
def test_aggregate_peak_memory(groups, size):
    # Few communities over unit weights are counted a chunk of keys at a
    # time, in a few chunk-sized temporaries; many communities build the
    # keys as one array per adjacency entry and sort it.  Building the
    # row term and labels[nbr] apart held two words per entry, the
    # stable sort and gather of explicit ones four.  Groups of nodes
    # joined inside and to the next group give a few meta-edges each.
    n = groups * size
    src, dst = np.triu_indices(size, k=1)
    base = np.arange(groups)[:, None] * size
    src = np.concatenate([(base + src).ravel(), np.arange(n)])
    dst = np.concatenate([(base + dst).ravel(), (np.arange(n) + size) % n])
    g = Graph.from_arrays(n, src, dst, np.broadcast_to(1.0, src.size))
    labels = np.arange(n) // size
    assert (groups * groups <= g.nbr.size) == (groups == 20)
    meta, peak, _ = traced_peak(lambda: aggregate(g, labels, groups))
    assert peak <= (3 * 8 * graph._CHUNK if groups == 20
                    else 1.25 * 8 * g.nbr.size)
    assert_same_graph(meta, aggregate(_with_ones(g), labels, groups))


def test_planted_partition_graph_keeps_edges_in_groups():
    with pytest.raises(ValueError, match="divisible"):
        synth.planted_partition_graph(10, 3, 0.5, 0.1, seed=0)
    # p_out = 0 draws no cross link: every edge joins two nodes of a group.
    g, truth = synth.planted_partition_graph(20, 2, 0.5, 0.0, seed=0)
    rows = np.repeat(np.arange(g.n), np.diff(g.indptr))
    assert g.nbr.size and np.array_equal(truth[rows], truth[g.nbr])


def test_from_arrays_leaves_writeable_weights_alone():
    # The build moves the edges that are not loops to the front of the
    # weights it owns; the caller's are copied first.
    src, dst = _unit_edges(50, 200, seed=4)
    w = np.where(src % 3, 1.0, 2.5)
    before = w.copy()
    g = Graph.from_arrays(50, src, dst, w)
    assert w.tobytes() == before.tobytes()
    assert_same_graph(g, reference_csr(50, zip(src, dst, before)))


@pytest.mark.parametrize("chunk", [1 << 16, 500])  # blocks; one row each
def test_weighted_degrees_hold_no_row_id_array(chunk):
    # Each block of rows is summed by its own bincount, which adds a
    # row's weights in row order as one bincount over all rows does; a
    # row-id array as long as the adjacency (503,390 entries, 4 MB) is
    # never made.
    src, dst = np.triu_indices(710, k=1)
    w = np.random.default_rng(3).uniform(0.1, 5.0, src.size)
    g = Graph.from_arrays(710, src, dst, w)
    rows = np.repeat(np.arange(g.n), np.diff(g.indptr))
    want = np.bincount(rows, g.wgt, minlength=g.n) + g.loop
    with mock.patch.object(graph, "_CHUNK", chunk):
        h, peak, _ = traced_peak(lambda: Graph(
            g.n, g.indptr, g.nbr, g.wgt, g.loop, g.size, g.aux))
    assert h.degrees.tobytes() == want.tobytes()
    assert peak <= 3 * 8 * chunk + 8 * 4 * g.n < 8 * g.nbr.size


def test_loops_compacted_in_place_peak_memory():
    # A weighted build with a few loops moves the other edges to the
    # front of its own pairs and weights, a chunk at a time.  Copying
    # them (pairs[off], w[off]) peaked at 7.2 words per edge, against
    # 4.2 with no loop.
    src, dst = np.triu_indices(710, k=1)  # 251,695 edges
    rng = np.random.default_rng(0)
    pairs = np.column_stack((src, dst)).astype(np.int32)
    pairs = pairs[rng.permutation(src.size)]
    loops = rng.choice(src.size, 20, replace=False)
    pairs[loops, 1] = pairs[loops, 0]
    w = rng.uniform(0.1, 5.0, src.size)
    want = Graph.from_arrays(710, pairs[:, 0], pairs[:, 1], w)
    g, peak, _ = traced_peak(lambda: graph._from_pairs(710, pairs, w))
    assert np.count_nonzero(g.loop) == 20
    assert peak <= 4.3 * 8 * src.size
    assert_same_graph(g, want)
