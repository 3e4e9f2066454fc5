"""The five-call criterion contract, driven by generated inputs.

Hypothesis draws small weighted graphs with self-loops and random
partitions for all nine criteria (``wc`` on unweighted graphs only,
``oz`` with a drawn ``alpha``) and checks the contract's identities:
``remove`` and ``insert`` are inverses, ``kappa`` counts the communities,
``gain_scale`` times a gain difference is the pairwise quality change,
and a coarse graph's accumulator total is the level-0 pairwise sum, each
within the graph's ``criteria.tolerance``; with weights over 300 orders
of magnitude, ``detect``'s quality meets both evaluation paths within
it.  A failure shrinks to a minimal graph and partition.

The contract is also the plug-in surface: a criterion declared here, with
``du``'s formulas and nothing else, reproduces ``du`` bit for bit.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from anylouvain import (aggregate, as_criterion, compact_labels, Criterion,
                        datasets, delta_oracle, detect, Graph, RunConfig)
from anylouvain.criteria import tolerance
from anylouvain.errors import LouvainError, ZeroEdgeMass

from conftest import ALL_CRITERIA, neighbor_community_weights
from test_golden import FIXTURE, SEEDS, golden_graphs, record

IDS = [cid for cid, _ in ALL_CRITERIA]

SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def graphs(draw, unweighted, wide=False):
    """A graph on 2-7 nodes: a path through all of them, so no node is
    isolated, plus random edges and loops.  Weights are multiples of 1/4
    (every sum of them is exact), log-uniform over 1e-150..1e150 when
    ``wide``, or all 1 when ``unweighted``."""
    n = draw(st.integers(2, 7))
    weight = (st.just(1.0) if unweighted
              else st.floats(-150, 150).map(lambda e: 10.0 ** e) if wide
              else st.integers(1, 16).map(lambda k: k / 4))
    edges = [(i, j, draw(weight))
             for i in range(n) for j in range(i, n)
             if j == i + 1 or draw(st.booleans())]
    return Graph.from_edges(n, edges)


def setup(data, cid, wide=False):
    """The criterion and its pretreated level-0 graph, drawn; ``wide``
    as for :func:`graphs`."""
    alpha = None
    if cid == "oz":
        alpha = data.draw(st.floats(0, 1, exclude_min=True, exclude_max=True),
                          label="alpha")
    crit = as_criterion(cid, alpha)
    g = crit.pretreat(data.draw(graphs(not crit.weighted_ok, wide),
                                label="graph"))
    try:
        crit.check(g)
    except LouvainError:
        assume(False)  # e.g. bm on a graph with no absent-link mass
    return crit, g


def partition(data, n, label):
    return np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=n,
                                       max_size=n), label=label))


def state(data, cid):
    crit, g = setup(data, cid)
    labels = partition(data, g.n, "labels")
    return crit, g, labels, crit.state_from_labels(g, labels)


@pytest.mark.parametrize("cid", IDS)
@SETTINGS
@given(data=st.data())
def test_remove_insert_restores_state(cid, data):
    crit, g, labels, st_ = state(data, cid)
    i = data.draw(st.integers(0, g.n - 1), label="node")
    c = int(labels[i])
    dw = neighbor_community_weights(g, i, labels)[c]
    before = [a.copy() for a in (st_.part, st_.in_w, st_.tot, st_.sz,
                                 st_.aux)]
    kappa = st_.kappa
    st_.remove(i, c, dw)
    st_.insert(i, c, dw)
    after = [st_.part, st_.in_w, st_.tot, st_.sz, st_.aux]
    assert st_.kappa == kappa
    if cid in ("wc", "pd"):
        # Their pretreatment divides, so a float subtracted and added
        # back may round once; the rest is exact.
        for a, b in zip(before, after):
            assert np.allclose(a, b, rtol=1e-12, atol=1e-12)
    else:
        for a, b in zip(before, after):
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("cid", IDS)
@SETTINGS
@given(data=st.data())
def test_kappa_counts_communities_after_moves(cid, data):
    crit, g, labels, st_ = state(data, cid)
    moves = data.draw(st.lists(st.tuples(st.integers(0, g.n - 1),
                                         st.integers(0, len(st_.sz) - 1)),
                               max_size=10), label="moves")
    assert st_.kappa == len(set(labels.tolist()))
    for i, c_new in moves:
        dws = neighbor_community_weights(g, i, st_.part)
        c_old = int(st_.part[i])
        st_.remove(i, c_old, dws[c_old])
        st_.insert(i, c_new, dws.get(c_new, 0.0))
        assert st_.kappa == len(set(st_.part.tolist()))


@pytest.mark.parametrize("cid", IDS)
@SETTINGS
@given(data=st.data())
def test_scaled_gain_difference_is_quality_change(cid, data):
    crit, g, labels, st_ = state(data, cid)
    i = data.draw(st.integers(0, g.n - 1), label="node")
    c_new = data.draw(st.integers(0, len(st_.sz) - 1), label="target")
    c_old = int(labels[i])
    dws = neighbor_community_weights(g, i, labels)
    st_.remove(i, c_old, dws[c_old])
    delta = crit.gain_scale * (st_.gain(i, c_new, dws.get(c_new, 0.0))
                               - st_.gain(i, c_old, dws[c_old]))
    expected = delta_oracle(crit, g, labels, i, c_new)
    assert abs(delta - expected) <= tolerance(g)


@pytest.mark.parametrize("cid", IDS)
@SETTINGS
@given(data=st.data())
def test_coarse_total_is_level0_pairwise_sum(cid, data):
    crit, g = setup(data, cid)
    fine, kappa = compact_labels(partition(data, g.n, "fold"))
    coarse = aggregate(g, fine, kappa)
    labels = partition(data, kappa, "labels")
    total = crit.state_from_labels(coarse, labels).total()
    expected = crit.relational(g, labels[fine])
    assert abs(total - expected) <= tolerance(g)


@pytest.mark.parametrize("cid", IDS)
@SETTINGS
@given(data=st.data())
def test_detect_meets_both_paths_at_any_weight_scale(cid, data):
    crit, g = setup(data, cid, wide=True)
    try:
        h = detect(g, RunConfig(criterion=crit))
    except LouvainError:
        return  # e.g. a sum that overflows float64
    total = crit.state_from_labels(g, h.flat).total()
    pairwise = crit.relational(g, h.flat)
    assert abs(h.quality - total) <= tolerance(g)
    assert abs(total - pairwise) <= tolerance(g)


class PluggedUniformity(Criterion):
    """``du`` written as a plug-in: its formulas and the edge-mass rule,
    with a pairwise sum over the whole dense matrix."""

    id = "du-plugged"
    label = "Deviation to Uniformity, plugged in"
    needs_edge_mass = True

    def gain_fn(self, st):
        size, sz = st.g.size, st.sz
        rho = st.g.consts.two_m / st.g.consts.n0 ** 2

        def gain(i, c, dw):
            return dw - rho * size[i] * sz[c]
        return gain

    def _total(self, c, in_w, tot, sz, aux):
        return np.sum(in_w - (c.two_m / c.n0 ** 2) * sz ** 2.0)

    def _relational(self, g0, labels):
        c = g0.consts
        x = labels[..., :, None] == labels[..., None, :]
        return np.sum((g0.dense() - c.two_m / c.n0 ** 2) * x, axis=(-2, -1))


def test_plugged_criterion_reproduces_du():
    expected = json.loads(FIXTURE.read_text())
    plugged, du = PluggedUniformity(), as_criterion("du")
    for name, g in golden_graphs().items():
        for seed, want in zip(SEEDS, expected[f"{name}/du"]):
            got = record(g, plugged, None, seed)
            assert got == want, f"{name}, seed {seed}"
            # The golden graphs fit in one row block of du's pairwise sum.
            labels = np.array(got["flat"])
            stack = np.stack([labels, np.zeros_like(labels), np.arange(g.n)])
            assert plugged.relational(g, labels) == du.relational(g, labels)
            assert (plugged.relational(g, stack).tobytes()
                    == du.relational(g, stack).tobytes())


def test_plugged_criterion_names_itself_in_the_summary():
    h = detect(datasets.karate_club()[0],
               RunConfig(criterion=PluggedUniformity(), seed=0))
    assert json.loads(h.to_json())["criterion"] == "du-plugged"
    assert h.to_text().startswith("criterion: du-plugged\n")


def test_plugged_criterion_keeps_the_shared_rules():
    plugged = PluggedUniformity()
    with pytest.raises(ZeroEdgeMass, match="du-plugged: graph has no edge"):
        plugged.init(Graph.from_edges(3, []))
    g = Graph.from_edges(3, [(0, 1, 2.0), (1, 2, 1.0)])
    assert plugged.pretreat(g) is g
    with pytest.raises(ValueError, match="labels must assign"):
        plugged.state_from_labels(g, [0, 0])
