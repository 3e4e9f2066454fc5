"""Criterion contract: init/remove/insert/gain/total plus the pairwise
evaluator, checked against hand values and the brute-force oracle."""

import numpy as np
import pytest

from anylouvain import (Graph, RunConfig, aggregate, as_criterion,
                        compact_labels, datasets, delta_oracle, detect,
                        relational_total, singleton_labels, synth)
from anylouvain.errors import (LouvainError, NodeAlreadyPlaced,
                               NodeNotInCommunity, NotPluggable,
                               UnknownCommunity, WeightedInputNotSupported,
                               ZeroDegreeNode, ZeroEdgeMass)

from anylouvain import criteria
from anylouvain.criteria import tolerance
from conftest import (compatible_graph, neighbor_community_weights,
                      traced_peak, triangle, two_triangles)


# -- init ---------------------------------------------------------------

def test_init_karate_ng():
    g, _ = datasets.karate_club()
    st = as_criterion("ng").init(g)
    assert st.tot.sum() == pytest.approx(156.0)
    assert np.all(st.in_w == 0.0)
    assert st.kappa == 34


def test_init_single_node_with_loop():
    g = Graph.from_edges(1, [(0, 0, 3.0)])
    st = as_criterion("zc").init(g)
    assert st.in_w[0] == pytest.approx(3.0)
    assert st.sz[0] == 1


def test_init_equals_state_from_singletons(criterion):
    # The O(n) init against the bincount rebuild, bit for bit, on the
    # pretreated level-0 graph (with and without loops) and coarse levels.
    rng = np.random.default_rng(8)
    graphs = []
    for _ in range(12):
        g = criterion.pretreat(compatible_graph(criterion, rng))
        labels = synth.random_labels(g.n, seed=rng)
        graphs += [g, aggregate(g, *compact_labels(labels))]
    assert any(g.loop.any() for g in graphs[0::2])
    for g in graphs:
        got = criterion.init(g)
        want = criterion.state_from_labels(g, singleton_labels(g.n))
        for name in ("part", "in_w", "tot", "sz", "aux"):
            a, b = getattr(got, name), getattr(want, name)
            assert (name, a.dtype, a.tobytes()) == (name, b.dtype,
                                                    b.tobytes())


def test_pd_pretreat_triangle():
    g = as_criterion("pd").pretreat(triangle())
    assert np.allclose(g.wgt, 0.5)
    assert g.consts.extra["sq_sum"] == pytest.approx(1.5)


def test_wc_pretreat_triangle_adds_loops():
    g = as_criterion("wc").pretreat(triangle())
    assert np.allclose(g.wgt, 1.0 / 3.0)
    assert np.allclose(g.loop, 1.0 / 3.0)  # unit loop over degree 3
    assert np.allclose(g.aux, g.loop)


@pytest.mark.parametrize("cid", ["wc", "pd"])
def test_detect_on_pretreated_graph_repeats_run(cid):
    g, _ = datasets.karate_club()
    gw = as_criterion(cid).pretreat(g)
    assert as_criterion(cid).pretreat(gw) is gw
    cfg = RunConfig(criterion=cid, seed=1)
    a, b = detect(g, cfg), detect(gw, cfg)
    assert np.array_equal(a.flat, b.flat)
    assert a.quality.hex() == b.quality.hex()


def test_ng_pretreat_is_identity():
    g = triangle()
    assert as_criterion("ng").pretreat(g) is g


def test_zero_edge_mass_rejected():
    g = Graph.from_edges(3, [])
    for cid in ("ng", "bm", "di", "du"):
        with pytest.raises(ZeroEdgeMass):
            as_criterion(cid).init(g)
    # no division by edge mass in these:
    as_criterion("zc").init(g)
    as_criterion("g").init(g)
    # Every pair linked, loops included: bm has no absent-link mass.
    full = Graph.from_edges(2, [(0, 1, 1.0), (0, 0, 1.0), (1, 1, 1.0)])
    with pytest.raises(ZeroEdgeMass, match="no absent-link mass"):
        as_criterion("bm").init(full)
    with pytest.raises(ZeroEdgeMass, match="no absent-link mass"):
        detect(full, RunConfig(criterion="bm"))


def test_pd_rejects_isolated_nodes():
    g = Graph.from_edges(3, [(0, 1, 1)])
    with pytest.raises(ZeroDegreeNode):
        as_criterion("pd").pretreat(g)


@pytest.mark.parametrize("cid", ["wc", "pd"])
def test_pd_requires_pretreat(cid):
    crit = as_criterion(cid)
    with pytest.raises(LouvainError, match=f"^{cid}: graph must be "
                       r"transformed with pretreat\(\) first$"):
        crit.init(triangle())
    with pytest.raises(LouvainError, match="pretreat"):
        crit.init(as_criterion("pd" if cid == "wc" else "wc")
                  .pretreat(triangle()))
    gw = crit.pretreat(triangle())
    assert crit.pretreat(gw) is gw
    crit.init(gw)


def test_wc_rejects_weighted_input():
    g = Graph.from_edges(2, [(0, 1, 2.0)])
    with pytest.raises(WeightedInputNotSupported):
        as_criterion("wc").pretreat(g)


def test_not_pluggable_ids():
    for cid in ("mg", "sm", "md"):
        with pytest.raises(NotPluggable):
            as_criterion(cid)


def test_oz_alpha_validated():
    with pytest.raises(LouvainError):
        as_criterion("oz")
    with pytest.raises(LouvainError):
        as_criterion("oz", alpha=1.0)
    as_criterion("oz", alpha=0.25)


# -- remove / insert ----------------------------------------------------

def test_remove_sole_member_empties_community():
    st = as_criterion("zc").init(triangle())
    st.remove(0, 0, 0.0)
    assert st.in_w[0] == 0.0
    assert st.sz[0] == 0


def test_zc_remove_drops_ordered_pair_mass():
    g = Graph.from_edges(2, [(0, 1, 2.0)])
    st = as_criterion("zc").state_from_labels(g, np.array([0, 0]))
    assert st.in_w[0] == pytest.approx(4.0)
    st.remove(0, 0, 2.0)
    assert st.in_w[0] == pytest.approx(0.0)


def test_pd_kappa_tracking():
    crit = as_criterion("pd")
    g = crit.pretreat(triangle())
    st = crit.init(g)
    assert st.kappa == 3
    st.remove(0, 0, 0.0)       # singleton emptied
    assert st.kappa == 2
    nbrs = neighbor_community_weights(g, 0, st.part)
    st.insert(0, 1, nbrs.get(1, 0.0))
    assert st.kappa == 2


def test_remove_insert_errors():
    st = as_criterion("ng").init(triangle())
    with pytest.raises(NodeNotInCommunity):
        st.remove(0, 1, 0.0)
    st.remove(0, 0, 0.0)
    with pytest.raises(NodeNotInCommunity):
        st.remove(0, 0, 0.0)
    st.insert(0, 0, 0.0)
    with pytest.raises(NodeAlreadyPlaced):
        st.insert(0, 0, 0.0)


def test_insert_empty_community():
    g = Graph.from_edges(2, [(0, 0, 1.5), (0, 1, 1.0)])
    st = as_criterion("zc").init(g)
    st.remove(0, 0, 0.0)
    st.insert(0, 2, 0.0)
    assert st.in_w[2] == pytest.approx(1.5)
    assert st.sz[2] == 1


def test_ng_insert_updates_tot():
    g = Graph.from_edges(5, [(0, 1, 1), (0, 2, 1), (0, 3, 1), (0, 4, 1),
                             (1, 2, 1), (1, 3, 1), (1, 4, 1),
                             (2, 3, 1), (2, 4, 1), (3, 4, 1)])
    st = as_criterion("ng").state_from_labels(g, np.array([0, 1, 1, 1, 2]))
    assert g.degrees[0] == 4.0
    assert st.tot[1] == pytest.approx(12.0)
    st.remove(4, 2, 0.0)
    st.insert(4, 1, 3.0)
    assert st.tot[1] == pytest.approx(16.0)


def test_remove_insert_inverse(criterion):
    rng = np.random.default_rng(17)
    for _ in range(20):
        g = criterion.pretreat(compatible_graph(criterion, rng))
        labels = synth.random_labels(g.n, seed=rng)
        st = criterion.state_from_labels(g, labels)
        before = (st.in_w.copy(), st.tot.copy(), st.sz.copy(),
                  st.aux.copy(), st.kappa)
        i = int(rng.integers(g.n))
        c = int(labels[i])
        dw = neighbor_community_weights(g, i, labels)[c]
        st.remove(i, c, dw)
        st.insert(i, c, dw)
        after = (st.in_w, st.tot, st.sz, st.aux, st.kappa)
        for a, b in zip(before, after):
            assert np.allclose(a, b, rtol=0, atol=1e-12)
        assert st.part[i] == c


def test_accumulators_match_rebuild_after_moves(criterion):
    rng = np.random.default_rng(23)
    g = criterion.pretreat(compatible_graph(criterion, rng))
    labels = synth.random_labels(g.n, seed=rng)
    st = criterion.state_from_labels(g, labels)
    for _ in range(30):  # random legal moves
        i = int(rng.integers(g.n))
        c_old = int(st.part[i])
        dws = neighbor_community_weights(g, i, st.part)
        st.remove(i, c_old, dws[c_old])
        c_new = int(rng.integers(g.n + 1))
        st.insert(i, c_new, dws.get(c_new, 0.0))
    fresh = criterion.state_from_labels(g, st.part)
    width = max(st.in_w.size, fresh.in_w.size)
    pad = lambda a: np.pad(np.asarray(a, dtype=float), (0, width - a.size))
    assert np.allclose(pad(st.in_w), pad(fresh.in_w), atol=1e-9)
    assert np.allclose(pad(st.tot), pad(fresh.tot), atol=1e-9)
    assert np.array_equal(pad(st.sz), pad(fresh.sz))
    assert np.allclose(pad(st.aux), pad(fresh.aux), atol=1e-9)
    assert st.kappa == fresh.kappa


# -- gain ---------------------------------------------------------------

def test_ng_gain_empty_target_zero():
    st = as_criterion("ng").init(triangle())
    st.remove(0, 0, 0.0)
    assert st.gain(0, 3, 0.0) == pytest.approx(0.0)


def test_pd_gain_empty_community_penalty():
    # transformed loop 1, size 1: gain into an empty slot is 1 - 1/2
    g = Graph.from_edges(1, [(0, 0, 1.0)])
    crit = as_criterion("pd")
    gt = crit.pretreat(g)
    assert gt.loop[0] == pytest.approx(1.0)
    st = crit.init(gt)
    st.remove(0, 0, 0.0)
    assert st.gain(0, 1, 0.0) == pytest.approx(1.0 - 0.5)


def test_zc_gain_prefers_merge_on_unit_edge():
    g = Graph.from_edges(2, [(0, 1, 1.0)])
    st = as_criterion("zc").init(g)
    st.remove(0, 0, 0.0)
    assert st.gain(0, 1, 1.0) == pytest.approx(1.0)
    assert st.gain(0, 0, 0.0) == pytest.approx(0.0)
    # full recount agrees: quality rises by gain_scale * 1
    assert delta_oracle("zc", g, np.array([0, 1]), 0, 1) == pytest.approx(2.0)


def test_gain_unknown_community():
    st = as_criterion("ng").init(triangle())
    st.remove(0, 0, 0.0)
    with pytest.raises(UnknownCommunity):
        st.gain(0, 99, 0.0)


def test_gain_matches_delta_oracle(criterion):
    """Quality change of a move equals gain_scale * gain difference."""
    rng = np.random.default_rng(31)
    lam = criterion.gain_scale
    for _ in range(60):
        g = criterion.pretreat(compatible_graph(criterion, rng, n_max=10))
        labels = synth.random_labels(g.n, seed=rng)
        i = int(rng.integers(g.n))
        c_old = int(labels[i])
        c_new = int(rng.integers(labels.max() + 2))
        st = criterion.state_from_labels(g, labels)
        dws = neighbor_community_weights(g, i, labels)
        st.remove(i, c_old, dws[c_old])
        dgain = (st.gain(i, c_new, dws.get(c_new, 0.0))
                 - st.gain(i, c_old, dws[c_old]))
        df = delta_oracle(criterion, g, labels, i, c_new)
        assert abs(df - lam * dgain) <= tolerance(g)


def test_meta_level_gain_matches_flat_delta(criterion):
    """Gains on a coarsened graph predict the exact quality change of
    the corresponding flat (original-node) move."""
    from anylouvain import aggregate
    rng = np.random.default_rng(37)
    lam = criterion.gain_scale
    for _ in range(25):
        g = criterion.pretreat(compatible_graph(criterion, rng, n_max=18))
        labels = synth.random_labels(g.n, seed=rng)
        kappa = int(labels.max()) + 1
        if kappa < 2:
            continue
        meta = aggregate(g, labels, kappa)
        mlabels = synth.random_labels(kappa, seed=rng)
        st = criterion.state_from_labels(meta, mlabels)
        i = int(rng.integers(kappa))
        c_old = int(mlabels[i])
        c_new = int(rng.integers(mlabels.max() + 2))
        dws = neighbor_community_weights(meta, i, mlabels)
        st.remove(i, c_old, dws[c_old])
        dgain = (st.gain(i, c_new, dws.get(c_new, 0.0))
                 - st.gain(i, c_old, dws[c_old]))
        st.insert(i, c_old, dws[c_old])
        after = mlabels.copy()
        after[i] = c_new
        df = (criterion.relational(g, after[labels])
              - criterion.relational(g, mlabels[labels]))
        assert abs(df - lam * dgain) <= tolerance(g)


# -- total & relational -------------------------------------------------

def test_ng_total_one_community_zero():
    g = synth.random_graph(8, 0.6, weighted=True, seed=5)
    st = as_criterion("ng").state_from_labels(g, np.zeros(8, dtype=int))
    assert st.total() == pytest.approx(0.0, abs=1e-12)


def test_du_total_one_community_zero():
    g = synth.random_graph(8, 0.6, seed=6)
    st = as_criterion("du").state_from_labels(g, np.zeros(8, dtype=int))
    assert st.total() == pytest.approx(0.0, abs=1e-12)


def test_zc_total_all_singletons():
    g, _ = datasets.karate_club()
    n, m = 34, 78
    st = as_criterion("zc").state_from_labels(g, singleton_labels(n))
    assert st.total() == pytest.approx(n * n - n - 2 * m)
    assert relational_total("zc", g, singleton_labels(n)) == pytest.approx(
        n * n - n - 2 * m)


def _total_relational_cases(criterion):
    rng = np.random.default_rng(41)
    for _ in range(40):
        g = criterion.pretreat(compatible_graph(criterion, rng, n_max=50))
        yield g, synth.random_labels(g.n, seed=rng)
    if criterion.id == "zc":
        # Large, sparse and weighted: zc's absent-link terms dominate, and
        # only the w_max * n0**2 term of tolerance(g) covers their rounding.
        for seed in (1, 2, 3):
            yield (synth.random_graph(2000, 0.002, weighted=True, seed=seed),
                   synth.random_labels(2000, max_kappa=400, seed=seed))


def test_total_matches_relational(criterion):
    for g, labels in _total_relational_cases(criterion):
        t = criterion.state_from_labels(g, labels).total()
        r = criterion.relational(g, labels)
        assert abs(t - r) <= tolerance(g)


def test_relational_singletons_match_init_total(criterion):
    rng = np.random.default_rng(43)
    g = criterion.pretreat(compatible_graph(criterion, rng))
    st = criterion.init(g)
    assert abs(criterion.relational(g, singleton_labels(g.n))
               - st.total()) <= tolerance(g)


def test_relational_requires_level0(criterion):
    rng = np.random.default_rng(47)
    g = criterion.pretreat(compatible_graph(criterion, rng))
    from anylouvain import aggregate
    meta = aggregate(g, synth.random_labels(g.n, seed=rng))
    if meta.n < g.n:  # folded nodes exist
        with pytest.raises(ValueError):
            criterion.relational(meta, singleton_labels(meta.n))


@pytest.mark.parametrize("shape,fill", [
    ((2, 2, 6), 0),   # more than one batch axis
    ((), 0),          # no node axis
    ((6, 1), 0),      # node axis not last
    ((5,), 0),        # too few nodes
    ((3, 7), 0),      # batch with too many nodes
    ((6,), -1),       # negative id
    ((3, 6), -1),     # negative id in a batch
])
def test_relational_rejects_bad_label_arrays(shape, fill):
    g = two_triangles()
    with pytest.raises(ValueError):
        as_criterion("ng").relational(g, np.full(shape, fill))


@pytest.mark.parametrize("labels", [[0, 0, 0, 1, 1], [0, 0, 0, 1, 1, 1, 1],
                                    [0, 0, 0, 1, 1, -1]],
                         ids=["short", "long", "negative"])
@pytest.mark.parametrize("path", ["state_from_labels", "relational"])
def test_labels_rule_shared_by_both_paths(path, labels):
    crit = as_criterion("ng")
    with pytest.raises(ValueError,
                       match="^labels must assign every node a community$"):
        getattr(crit, path)(two_triangles(), labels)


def test_relational_label_dtype_does_not_change_values(criterion):
    # Signed integers are compared in their own dtype, the rest as int64.
    rng = np.random.default_rng(71)
    g = criterion.pretreat(compatible_graph(criterion, rng, n_max=8))
    labels = np.stack([synth.random_labels(g.n, seed=rng) for _ in range(5)])
    want = criterion.relational(g, labels.astype(np.int64))
    for dtype in (np.int8, np.int16, np.uint8, np.float64):
        got = criterion.relational(g, labels.astype(dtype))
        assert got.tobytes() == want.tobytes()
    assert criterion.relational(g, labels[0].astype(np.int8)) == want[0]
    assert criterion.relational(g, labels[0].tolist()) == want[0]


def test_relational_stack_layout_does_not_change_bits(criterion):
    # A Fortran-ordered stack or a transposed view is scored as its
    # C-ordered copy: the single calls' bits, whatever the layout.
    rng = np.random.default_rng(41)
    g = criterion.pretreat(compatible_graph(criterion, rng, n_max=8))
    stack = np.stack([synth.random_labels(g.n, seed=rng) for _ in range(300)])
    want = np.array([criterion.relational(g, x) for x in stack])
    for labels in (stack, np.asfortranarray(stack),
                   np.ascontiguousarray(stack.T).T):
        assert criterion.relational(g, labels).tobytes() == want.tobytes()


@pytest.mark.parametrize("bad", [np.array([0, 0, 0, 1, 1, -1], np.int8),
                                 np.array([0, 0, 0, 1, 1, 2 ** 63], np.uint64),
                                 np.array([0, 0, 0, 1, 1, -1.0])])
def test_relational_rejects_negative_ids_in_any_dtype(bad):
    with pytest.raises(ValueError):
        as_criterion("ng").relational(two_triangles(), bad)


def test_relational_batch_returns_one_value_per_row():
    g = two_triangles()
    batch = np.array([[0, 0, 0, 1, 1, 1], [0, 1, 2, 3, 4, 5]])
    q = as_criterion("ng").relational(g, batch)
    assert q.shape == (2,)
    assert q[0] == as_criterion("ng").relational(g, batch[0])
    assert isinstance(as_criterion("ng").relational(g, batch[1]), float)


def test_oz_half_alpha_is_half_zc():
    rng = np.random.default_rng(53)
    for _ in range(10):
        g = synth.random_graph(15, 0.4, weighted=True, seed=rng)
        if g.consts.two_m == 0:
            continue
        labels = synth.random_labels(15, seed=rng)
        assert relational_total("oz", g, labels, alpha=0.5) == pytest.approx(
            0.5 * relational_total("zc", g, labels), rel=1e-12)


def test_unknown_criterion_id():
    for bad in ("nope", None, 5):
        with pytest.raises(LouvainError, match="nope|criterion must be"):
            as_criterion(bad)


def test_relational_over_many_blocks_matches_one_dense_block(criterion,
                                                             monkeypatch):
    # 700 nodes take four row blocks of 187 rows; one block of the whole
    # dense matrix is the plain reference.
    rng = np.random.default_rng(17)
    g = synth.random_graph(700, 0.02, weighted=criterion.weighted_ok,
                           loops=criterion.id != "wc", seed=17)
    g = criterion.pretreat(g)
    labels = np.stack([synth.random_labels(g.n, max_kappa=k, seed=rng)
                       for k in (3, 30, 700)])
    assert len(list(criteria._blocks(g, labels))) == 4
    got = criterion.relational(g, labels)
    assert got.tolist() == [criterion.relational(g, x) for x in labels]

    def one_block(g, labels):
        yield 0, g.n, g.dense(), labels[..., :, None] == labels[..., None, :]
    monkeypatch.setattr(criteria, "_blocks", one_block)
    np.testing.assert_allclose(got, criterion.relational(g, labels),
                               rtol=1e-12, atol=0)


@pytest.mark.parametrize("cid", ["ng", "pd"])
def test_relational_memory_is_flat_in_n(cid):
    # Row blocks hold a fixed number of cells, so the working memory
    # stays the same as the node count doubles (256-row blocks doubled
    # it, 8 MB per temporary at 4000 nodes).
    crit = as_criterion(cid)
    peaks = []
    for n in (2000, 4000):
        ring = np.arange(n)
        g = crit.pretreat(Graph.from_arrays(
            n, np.tile(ring, 2), np.concatenate([(ring + 1) % n,
                                                 (ring + 7) % n]),
            np.broadcast_to(1.0, 2 * n)))
        labels = np.arange(n) % 40
        _, peak, _ = traced_peak(lambda: crit.relational(g, labels))
        peaks.append(peak)
    assert peaks[1] <= 1.2 * peaks[0]
    assert peaks[1] <= 5e6
