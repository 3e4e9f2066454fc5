"""Shared builders for the test suite."""

from __future__ import annotations

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from anylouvain import Graph, as_criterion, synth
from anylouvain.graph import SENTINEL, Level0Constants

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
    return as_criterion(cid, alpha)


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


GRAPH_ARRAYS = ("indptr", "nbr", "wgt", "loop", "size", "aux", "degrees")


def reference_csr(n, edges):
    """The level-0 graph of ``(i, j, w)`` triples, built one Python step
    per edge: the reference for ``Graph.from_arrays``.

    Entries ``(i, j)`` and ``(j, i)`` both add the pair's weights in
    input order into a dict, and loops add into their own list; zero
    sums are dropped.  The degrees add each row's sums in ascending
    neighbor order, then the loop.  Returns a namespace with the seven
    ``Graph`` arrays and ``consts``.
    """
    sums, loop = {}, [0.0] * n
    for i, j, w in edges:
        i, j, w = int(i), int(j), float(w)
        if i == j:
            loop[i] += w
        else:
            sums[i, j] = sums.get((i, j), 0.0) + w
            sums[j, i] = sums.get((j, i), 0.0) + w
    entries = sorted(key for key, s in sums.items() if s != 0)
    indptr = np.zeros(n + 1, dtype=np.int64)
    for i, _ in entries:
        indptr[i + 1] += 1
    degrees = [0.0] * n
    for key in entries:
        degrees[key[0]] += sums[key]
    wgt = np.array([sums[key] for key in entries], dtype=np.float64)
    loop = np.array(loop, dtype=np.float64)
    tops = [a.max() for a in (wgt, loop[loop > 0]) if a.size]
    consts = Level0Constants(n0=n, two_m=float(wgt.sum() + loop.sum()),
                             w_max=float(max(tops)) if tops else 1.0)
    return SimpleNamespace(
        indptr=np.cumsum(indptr),
        nbr=np.array([j for _, j in entries], dtype=np.int64), wgt=wgt,
        loop=loop, size=np.ones(n, dtype=np.int64),
        aux=np.zeros(n, dtype=np.float64),
        degrees=np.array(degrees, dtype=np.float64) + loop, consts=consts)


def assert_same_graph(got, want):
    """The seven ``Graph`` arrays (dtypes and bytes) and the constants
    of ``got`` equal ``want``'s."""
    for name in GRAPH_ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert (name, a.dtype, a.tobytes()) == (name, b.dtype, b.tobytes())
    assert repr(got.consts) == repr(want.consts)


def traced_peak(call):
    """``(result, peak, held)``: the tracemalloc peak of ``call()`` and
    what its result still holds, in bytes over what was allocated before
    it."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = call()
        held, peak = tracemalloc.get_traced_memory()
        return out, peak - base, held - base
    finally:
        tracemalloc.stop()


# Overflowing weights give inf/NaN gains here as in one_pass; numpy's
# scalars would warn where the pass's Python floats do not.
@np.errstate(over="ignore", invalid="ignore")
def reference_pass(g, st, rng):
    """``(labels, sweeps, moves)`` of one greedy pass over ``st``, written
    from ``louvain.one_pass``'s docstring with the state's own calls: the
    reference for every fork of that kernel.

    Each sweep shuffles the order once and visits every node: it sums the
    node's neighbour communities in a dict in row order, removes the
    node, and inserts it where the scalar gain is highest, its own
    community first, then the others by ascending id, each winning only
    with a strictly higher gain, then the spare unless the node vacated
    its own.  The spare is the empty slot that a move emptied last, or
    else the lowest one.  Sweeps stop after one that moves nothing.
    """
    gain = st.crit.gain_fn(st)
    order, empty = np.arange(g.n), np.flatnonzero(st.sz == 0)[::-1].tolist()
    sweeps = moves = 0
    moved = g.n > 0
    while moved:
        rng.shuffle(order)
        sweeps, moved = sweeps + 1, False
        for i in order.tolist():
            lo, hi = g.indptr[i], g.indptr[i + 1]
            sums = {}
            for j, w in zip(g.nbr[lo:hi].tolist(), g.wgt[lo:hi].tolist()):
                c = int(st.part[j])
                sums[c] = sums.get(c, 0.0) + w
            c_old = int(st.part[i])
            dw_old = sums.get(c_old, 0.0)
            st.remove(i, c_old, dw_old)
            best, top = c_old, gain(i, c_old, dw_old)
            for c in sorted(sums.keys() - {c_old}):
                x = gain(i, c, sums[c])
                if x > top:
                    best, top = c, x
            if st.sz[c_old] > 0 and gain(i, empty[-1], 0.0) > top:
                best = empty[-1]
            st.insert(i, best, sums.get(best, 0.0))
            if best != c_old:
                moved, moves = True, moves + 1
                if best == empty[-1]:
                    empty.pop()
                if st.sz[c_old] == 0:
                    empty.append(c_old)
    return st.part.copy(), sweeps, moves
