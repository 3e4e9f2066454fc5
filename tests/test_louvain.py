"""Optimizer behavior: sweeps, hierarchy, determinism, quality bounds."""

import importlib.util
import json
import re
import warnings
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import anylouvain
from anylouvain import (Graph, LouvainError, RunConfig, as_criterion,
                        compose_flat, datasets, detect, exact_optimum,
                        one_pass, relational_total, synth)
from anylouvain import louvain
from anylouvain.criteria import tolerance
from anylouvain.oracle import improving_move

from classical import one_level
from conftest import (compatible_graph, reference_pass, traced_peak,
                      two_triangles)
from test_golden import (CASES as GOLDEN_CASES, golden_graphs,
                         mixed_degree_graph)


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(precision=0.0)
    with pytest.raises(ValueError):
        RunConfig(precision=-1e-6)
    cfg = RunConfig(seed=np.int64(3), max_levels=np.int32(2),
                    precision=np.float32(1e-3), alpha=np.float64(0.3))
    assert (cfg.seed, cfg.max_levels) == (3, 2)
    # The criterion reads back resolved: an id in any case builds the
    # object, and an object is kept as it is.
    assert RunConfig(criterion="NG").criterion.id == "ng"
    plugged = as_criterion("oz", 0.5)
    assert RunConfig(criterion=plugged).criterion is plugged
    assert json.loads(detect(datasets.karate_club()[0], cfg).to_json())[
        "seed"] == 3


@pytest.mark.parametrize("kwargs", [
    {"precision": 0.0}, {"precision": float("nan")},
    {"precision": float("inf")},
    {"max_levels": 0}, {"max_levels": -1},
    {"seed": -1}, {"seed": 1.5}, {"max_levels": 1.5},
    {"alpha": float("nan")}, {"alpha": float("inf")},
    {"criterion": 5}, {"criterion": None}, {"precision": "x"},
    {"alpha": "x"}, {"max_levels": True}, {"seed": False},
    {"precision": True}, {"alpha": True}, {"seed": np.True_},
    {"precision": np.True_}, {"criterion": "xyz"}, {"criterion": "mg"},
    {"criterion": "oz"}, {"criterion": "oz", "alpha": 1.5}])
def test_config_errors_are_louvain_errors(kwargs):
    with pytest.raises(LouvainError) as refused:
        RunConfig(**kwargs)
    if isinstance(kwargs.get("criterion"), str):
        # RunConfig refuses a criterion as as_criterion does.
        message = f"^{re.escape(str(refused.value))}$"
        with pytest.raises(refused.type, match=message):
            as_criterion(kwargs["criterion"], kwargs.get("alpha"))


def test_edgeless_graph_stays_singleton():
    g = Graph.from_edges(5, [])
    crit = as_criterion("zc")
    cfg = RunConfig(criterion="zc")
    lv = one_pass(g, cfg, crit.init(g))
    assert lv.moves == 0
    assert lv.kappa == 5 and lv.labels.tolist() == [0, 1, 2, 3, 4]


def test_two_triangles_one_pass_finds_both():
    g = two_triangles()
    cfg = RunConfig(criterion="ng", seed=2)
    crit = as_criterion("ng")
    lv = one_pass(g, cfg, crit.init(g))
    labels = lv.labels
    assert lv.kappa == 2 and sorted(set(labels.tolist())) == [0, 1]
    assert labels[0] == labels[1] == labels[2]
    assert labels[3] == labels[4] == labels[5]


def test_single_node_graph():
    g = Graph.from_edges(1, [(0, 0, 2.0)])
    h = detect(g, RunConfig(criterion="zc"))
    assert len(h.levels) == 1
    assert h.kappa_final == 1
    assert h.quality == pytest.approx(
        relational_total("zc", g, np.zeros(1, dtype=int)))


def test_karate_ng_four_communities_typical():
    g, _ = datasets.karate_club()
    h = detect(g, RunConfig(criterion="ng", seed=0, precision=5e-3))
    assert 3 <= h.kappa_final <= 5


def test_karate_zc_many_small_communities():
    g, _ = datasets.karate_club()
    h = detect(g, RunConfig(criterion="zc", seed=0, precision=5e-3))
    assert 15 <= h.kappa_final <= 24


def test_karate_pd_three_communities_typical():
    g, _ = datasets.karate_club()
    h = detect(g, RunConfig(criterion="pd", seed=0, precision=5e-3))
    assert 1 <= h.kappa_final <= 5


def test_determinism(criterion):
    rng = np.random.default_rng(8)
    g = compatible_graph(criterion, rng, n_max=30)
    cfg = RunConfig(criterion=criterion.id,
                    alpha=getattr(criterion, "alpha", None), seed=123)
    h1 = detect(g, cfg)
    h2 = detect(g, cfg)
    assert np.array_equal(h1.flat, h2.flat)
    assert h1.quality == h2.quality
    assert [lv.kappa for lv in h1.levels] == [lv.kappa for lv in h2.levels]


def test_level_quality_non_decreasing(criterion):
    rng = np.random.default_rng(13)
    for _ in range(8):
        g = criterion.pretreat(compatible_graph(criterion, rng, n_max=40))
        cfg = RunConfig(criterion=criterion.id,
                        alpha=getattr(criterion, "alpha", None),
                        seed=int(rng.integers(100)))
        h = detect(g, cfg)
        qs = [lv.quality for lv in h.levels]
        assert all(b >= a - tolerance(g) for a, b in zip(qs, qs[1:]))


def test_flat_matches_final_quality(criterion):
    rng = np.random.default_rng(19)
    for _ in range(8):
        g = criterion.pretreat(compatible_graph(criterion, rng, n_max=40))
        cfg = RunConfig(criterion=criterion.id,
                        alpha=getattr(criterion, "alpha", None),
                        seed=int(rng.integers(100)))
        h = detect(g, cfg)
        r = criterion.relational(g, h.flat)
        assert abs(r - h.quality) <= tolerance(g)


def test_never_beats_exact_optimum(criterion):
    rng = np.random.default_rng(29)
    for _ in range(12):
        g = criterion.pretreat(compatible_graph(criterion, rng, n_max=7))
        cfg = RunConfig(criterion=criterion.id,
                        alpha=getattr(criterion, "alpha", None),
                        seed=int(rng.integers(100)))
        h = detect(g, cfg)
        _, q_opt = exact_optimum(criterion, g)
        assert h.quality <= q_opt + tolerance(g)


def test_pass_from_any_partition(criterion):
    # Ids run past n, so starts leave gaps and take slot n, which an
    # all-singleton start keeps empty.
    rng = np.random.default_rng(41)
    cfg = RunConfig(criterion=criterion.id,
                    alpha=getattr(criterion, "alpha", None))
    for _ in range(60):
        g = criterion.pretreat(compatible_graph(criterion, rng, n_max=8))
        st = criterion.state_from_labels(g, rng.integers(0, g.n + 3, g.n))
        start = st.total()
        lv = one_pass(g, cfg, st, rng)
        fresh = criterion.state_from_labels(g, st.part)
        for name in ("in_w", "tot", "sz", "aux"):
            a, b = getattr(st, name), getattr(fresh, name)
            b = np.pad(b, (0, a.size - b.size))  # fewer spare slots
            assert np.allclose(a, b, rtol=1e-12, atol=1e-12), name
        assert lv.quality == st.total()
        assert lv.quality >= start - tolerance(g)
        _, compact = np.unique(st.part, return_inverse=True)
        assert np.array_equal(lv.labels, compact)
        assert improving_move(criterion, g, lv.labels) is None


def test_compose_flat_two_levels():
    g = two_triangles()
    h = detect(g, RunConfig(criterion="ng", seed=0))
    flat = compose_flat(h)
    assert np.array_equal(flat, h.flat)
    assert len(np.unique(flat)) == h.kappa_final
    # membership is a proper partition of all original nodes
    assert flat.shape == (6,)
    assert flat.min() == 0


def test_max_levels_cap():
    g, _ = datasets.karate_club()
    h = detect(g, RunConfig(criterion="ng", seed=0, max_levels=1))
    assert len(h.levels) == 1


def test_sweep_cap_guard():
    from anylouvain.criteria import NewmanGirvan
    from anylouvain.errors import SweepCapExceeded

    class Noisy(NewmanGirvan):
        """A broken gain: seeded noise, so every sweep keeps moving."""

        def gain_fn(self, st):
            rng = np.random.default_rng(0)
            return lambda i, c, dw: rng.random()

    g, _ = datasets.karate_club()
    with pytest.raises(SweepCapExceeded,
                       match="no convergence after 340 sweeps"):
        one_pass(g, RunConfig(criterion="ng"), Noisy().init(g))


def test_runs_stay_under_sweep_cap(criterion):
    rng = np.random.default_rng(37)
    for _ in range(5):
        g = compatible_graph(criterion, rng, n_max=30)
        h = detect(g, RunConfig(criterion=criterion.id,
                                alpha=getattr(criterion, "alpha", None),
                                seed=int(rng.integers(100))))
        assert all(lv.sweeps < 10 * max(lv.graph.n, 1) for lv in h.levels)


@pytest.mark.parametrize("cid", ["ng", "bm", "zc", "pd", "g"])
def test_non_finite_quality_raises(cid):
    # Finite weights whose sums overflow float64: 2m is infinite.
    g = Graph.from_edges(3, [(0, 1, 1e308), (1, 2, 1e308), (2, 0, 1e308)])
    with pytest.raises(LouvainError, match="overflow"):
        detect(g, RunConfig(criterion=cid))


def _runs(g, crit_id, alpha):
    """Labels, quality, sweeps and moves of ``detect`` for seeds 0-2."""
    out = []
    for seed in range(3):
        h = detect(g, RunConfig(criterion=crit_id, alpha=alpha, seed=seed))
        out.append((h.flat.tolist(), h.quality,
                    [(lv.sweeps, lv.moves, lv.kappa, lv.quality)
                     for lv in h.levels]))
    return out


@pytest.fixture(scope="module")
def graphs():
    return golden_graphs()


@pytest.mark.parametrize("graph,crit_id,alpha", GOLDEN_CASES,
                         ids=[f"{g}-{c}" for g, c, _ in GOLDEN_CASES])
def test_vector_branch_matches_scalar_branch(monkeypatch, graphs, graph,
                                             crit_id, alpha):
    # LONG_ROW 0 sends every non-empty row, on every level, down the
    # numpy branch; at n no row of any level is long.  At 8 karate and
    # the weighted graph mix both branches on one level too, so a long
    # row's move must drop its short neighbours' kept sums.
    g = graphs[graph]
    monkeypatch.setattr(louvain, "LONG_ROW", g.n)
    scalar = _runs(g, crit_id, alpha)
    for long_row in (0, 8):
        monkeypatch.setattr(louvain, "LONG_ROW", long_row)
        assert _runs(g, crit_id, alpha) == scalar


@pytest.mark.parametrize("cid", ["ng", "bm", "g", "pd"])
def test_vector_branch_overflow_fails_without_warnings(monkeypatch, cid):
    monkeypatch.setattr(louvain, "LONG_ROW", 0)
    star = [(0, j, 1e308) for j in range(1, 6)] + [(1, 2, 1e308)]
    g = Graph.from_edges(6, star)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(LouvainError, match="overflow"):
            detect(g, RunConfig(criterion=cid))


def _state_bytes(st):
    """The bytes of ``st``'s slot ids and of its four accumulators."""
    return tuple(getattr(st, a).tobytes()
                 for a in ("part", "in_w", "tot", "sz", "aux"))


def _against_reference(g, crit, labels, seed=0):
    """``one_pass`` and :func:`conftest.reference_pass` from ``labels``
    (None: ``init``'s singletons), each as its sweeps and moves and the
    bytes of the state it leaves (:func:`_state_bytes`); then the
    :class:`Level` that ``one_pass`` returns."""
    def record(run_pass):
        st = (crit.init(g) if labels is None
              else crit.state_from_labels(g, labels))
        return run_pass(st, np.random.default_rng(seed)), _state_bytes(st)

    lv, got = record(partial(one_pass, g, RunConfig()))
    (_, *counts), want = record(partial(reference_pass, g))
    return (lv.sweeps, lv.moves, *got), (*counts, *want), lv


def _check(g, st, order, spare):
    """:func:`louvain._quiet_prefix` with columns fresh from ``st``."""
    return louvain._quiet_prefix(g, st, order, spare, louvain._Columns(st))


def _assert_columns_follow(g, cols, labels):
    """Every node's community in ``labels`` has a column in ``cols``,
    and its table, if any, has one column per community of the
    snapshot, holding each node's neighbour count in that community
    (zero for one that has emptied)."""
    assert (cols.of[labels] >= 0).all()
    assert np.array_equal(np.flatnonzero(cols.of >= 0), cols.live)
    if cols.table is None:
        return
    assert cols.table.shape == (g.n, cols.live.size)
    rows = np.repeat(np.arange(g.n), np.diff(g.indptr))
    for k, c in enumerate(cols.live):
        want = np.bincount(rows[labels[g.nbr] == c], minlength=g.n)
        assert np.array_equal(cols.table[:, k], want), c


def _planted600(w=1.0):
    """``planted_partition_graph(600, 4, 0.6, 0.01, seed=3)``, rows of ~94
    entries, with every edge weighing ``w``, and its planted groups."""
    g, truth = synth.planted_partition_graph(600, 4, 0.6, 0.01, seed=3)
    if w != 1.0:
        rows = np.repeat(np.arange(g.n), np.diff(g.indptr))
        upper = rows < g.nbr
        g = Graph.from_arrays(g.n, rows[upper], g.nbr[upper],
                              np.full(np.count_nonzero(upper), w))
    return g, truth


def test_ng_pass_is_classical_louvain():
    # one_pass for ng against Louvain written without the contract
    # (tests/classical.py): labels, sweeps and moves bit for bit, on both
    # row branches, with the quiet check skipping visits (planted 600)
    # and with a move to the spare (the looped 6-node graph).  Visits are
    # not compared: the classical pass makes them all.
    def same(lv, rng):
        labels, sweeps, moves = one_level(lv.graph, rng)
        assert (lv.labels.tolist(), lv.sweeps, lv.moves) == (
            labels.tolist(), sweeps, moves)

    planted = _planted600()[0]
    for g in (datasets.karate_club()[0], planted,
              synth.random_graph(300, 0.05, weighted=True, seed=1),
              synth.random_graph(6, 0.4, weighted=True, loops=True,
                                 seed=29)):
        lv = one_pass(g, RunConfig(), as_criterion("ng").init(g),
                      np.random.default_rng(0))
        same(lv, np.random.default_rng(0))
        if g is planted:
            assert lv.visits < g.n * lv.sweeps  # the check skipped some
    for weighted in (False, True):
        h = detect(mixed_degree_graph(weighted), RunConfig())
        rng = np.random.default_rng(h.config.seed)
        assert len(h.levels) > 1
        for lv in h.levels:
            same(lv, rng)


@pytest.mark.parametrize("long_row", [0, 8, louvain.LONG_ROW])
def test_certified_pass_matches_every_visit(monkeypatch, criterion, long_row):
    # One pass against the reference, which makes every visit: graphs of
    # 3-60 nodes, unweighted, weighted and looped, sparse and dense,
    # from singletons or from random partitions of few communities (so
    # the check's block bound holds) up to ids past n.  At LONG_ROW 0
    # every row is long, at 8 rows fall on both sides of it, and at 64
    # no row is, so no check runs.  Blocks double from 4 nodes, not 32.
    monkeypatch.setattr(louvain, "LONG_ROW", long_row)
    monkeypatch.setattr(louvain, "_PROBE", 4)
    check, calls = louvain._quiet_prefix, []

    def counted(g, st, order, spare, cols):
        # A check reads the columns the pass kept through its moves, in
        # sweeps that check and sweeps that do not; fresh ones built from
        # the state give the same answer.
        calls.append(order.size < g.n)
        _assert_columns_follow(g, cols, st.part)
        got = check(g, st, order, spare, cols)
        assert got == check(g, st, order, spare, louvain._Columns(st))
        return got

    monkeypatch.setattr(louvain, "_quiet_prefix", counted)
    rng = np.random.default_rng(43)
    skipped = 0
    for k in range(30):
        g = criterion.pretreat(compatible_graph(
            criterion, rng, n_max=60, p=float(rng.choice([0.1, 0.5]))))
        labels = (None if k % 3 == 0 else
                  rng.integers(0, rng.integers(1, g.n + 3), g.n))
        got, want, res = _against_reference(g, criterion, labels, k)
        assert got == want
        skipped += g.n * res.sweeps - res.visits
    # No row of these graphs has more than 59 entries: below that some
    # visits are skipped, some at re-checks.
    assert (skipped > 0) == bool(calls) == any(calls) == (long_row < 59)


def test_check_of_a_suffix_matches_a_fresh_order(monkeypatch):
    # Four planted groups of long rows; five nodes sit in the wrong
    # group, so the check stops at them.  A suffix of the order is
    # checked as the same nodes in a fresh array, and as the first
    # failure of a node-by-node check.  Blocks double from 32 nodes.
    # At unit weights the check reads counts from the table; at weight
    # 0.5 it sums the rows, and the cell budget, cut to ~210 rows of ~94
    # entries, binds from the fourth block on.  The failures fall in the
    # first four blocks.
    monkeypatch.setattr(louvain, "_CELLS", 20000)
    for w in (1.0, 0.5):
        g, truth = _planted600(w)
        order = np.random.default_rng(5).permutation(g.n)
        labels = truth.copy()
        wrong = order[[40, 150, 151, 420, 530]]
        labels[wrong] = (labels[wrong] + 1) % 4
        st = as_criterion("ng").state_from_labels(g, labels)
        spare = int(np.flatnonzero(st.sz == 0)[0])
        quiet = [_check(g, st, order[j:j + 1], spare) == 1
                 for j in range(g.n)] + [False]
        assert not any(quiet[j] for j in (40, 150, 151, 420, 530))
        got = []
        for k in (0, 1, 39, 40, 41, 100, 151, 152, 301, 421, 531, g.n - 1,
                  g.n):
            suffix = order[k:]
            first = quiet.index(False, k) - k
            assert _check(g, st, suffix, spare) == first
            assert _check(g, st, suffix.copy(), spare) == first
            got.append(first)
        assert {0, 40, 109, 268} <= set(got)


def test_check_blocks_stay_within_the_cell_budget(monkeypatch):
    # At 2000 cells a block that sums rows of ~94 entries (weight 0.5)
    # holds ~21 of them; not cut at its row entries it would reach 500
    # nodes: 5 words per cell against 50.  At unit weights a block reads
    # the table's counts, 500 nodes x 4 columns.
    monkeypatch.setattr(louvain, "_CELLS", 2000)
    for w in (1.0, 0.5):
        g, truth = _planted600(w)
        st = as_criterion("ng").state_from_labels(g, truth)
        cols, order = louvain._Columns(st), np.arange(g.n)
        prefix, peak, _ = traced_peak(
            lambda: louvain._quiet_prefix(g, st, order, g.n, cols))
        assert prefix == g.n and peak < 8 * 8 * 2000
        assert (cols.table is None) == (w != 1.0)


def test_columns_follow_moves():
    # Node b's move empties its singleton community 4, whose column stays
    # and then counts no neighbour; node a's move into 4 and back takes
    # that column again.  A move into community 5, which has no column,
    # returns False and changes nothing.  After each move the kept table
    # holds the counts of the labels, and the kept columns check every
    # suffix as fresh ones do.
    g, truth = _planted600()
    order = np.random.default_rng(5).permutation(g.n)
    a, b = order[[50, 200]]
    labels = truth.copy()
    labels[b] = 4
    crit = as_criterion("ng")
    cols = louvain._Columns(crit.state_from_labels(g, labels))
    assert cols.table.shape == (g.n, 5)
    table = cols.table.copy()
    assert not cols.move(a, labels[a], 5)
    assert np.array_equal(cols.table, table)
    for i, c in ((b, truth[b]), (a, 4), (a, truth[a])):
        assert cols.move(i, labels[i], c)
        labels[i] = c
        _assert_columns_follow(g, cols, labels)
        st = crit.state_from_labels(g, labels)
        spare = int(np.flatnonzero(st.sz == 0)[0])
        for k in (0, 49, 50, 51, 199, 200, 201, 500):
            assert (louvain._quiet_prefix(g, st, order[k:], spare, cols)
                    == _check(g, st, order[k:], spare))
    assert cols.live.tolist() == [0, 1, 2, 3, 4]
    assert np.count_nonzero(st.sz) == 4
    assert not cols.table[:, 4].any()


def test_columns_are_rebuilt_after_a_move_opens_a_community(monkeypatch):
    # zc splits the few random communities of the start: the first sweep
    # checks on 12 columns; the second, over more communities than the
    # block bound allows, does not, and a move into a community without
    # a column discards the columns; the third checks again on 9 columns
    # built afresh.  g from three communities: three moves open a
    # community in sweeps that check, and each ends its sweep's checks
    # (a check on discarded columns would read stale ones).  Each check
    # reads the state's communities, and each pass is the reference's.
    monkeypatch.setattr(louvain, "LONG_ROW", 0)
    g, _ = synth.planted_partition_graph(60, 3, 0.6, 0.05, seed=0)
    labels = np.random.default_rng(0).integers(0, g.nbr.size // g.n, g.n)
    check, starts, builds = louvain._quiet_prefix, [], []

    def counted(g, st, order, spare, cols):
        starts.append(order.size == g.n)
        _assert_columns_follow(g, cols, st.part)
        return check(g, st, order, spare, cols)

    class Built(louvain._Columns):
        def __init__(self, st):
            super().__init__(st)
            builds.append(self.live.size)

    monkeypatch.setattr(louvain, "_quiet_prefix", counted)
    monkeypatch.setattr(louvain, "_Columns", Built)
    got, want, res = _against_reference(g, as_criterion("zc"), labels)
    assert got == want and res.sweeps == 3 and res.sweep_moves[1] > 0
    assert starts[0] and sum(starts) == 2
    assert builds == [12, 9]
    builds.clear()
    labels = np.random.default_rng(0).integers(0, 3, g.n)
    got, want, res = _against_reference(g, as_criterion("g"), labels)
    assert got == want and builds == [3, 4, 5, 6]


def test_table_build_holds_no_edge_sized_array(monkeypatch):
    # The table is counted one row range of about _CHUNK entries at a
    # time, so the build peaks at what the columns keep and about two
    # words per entry of one range, not per entry of all ~56,000
    # adjacency entries (~0.9 MB when unchunked).
    monkeypatch.setattr(louvain, "_CHUNK", 2048)
    g, truth = _planted600()
    st = as_criterion("ng").state_from_labels(g, truth)
    cols, peak, held = traced_peak(lambda: louvain._Columns(st))
    _assert_columns_follow(g, cols, truth)
    assert held >= cols.table.nbytes
    assert peak - held < 3 * 8 * 2048 < 8 * g.nbr.size


def test_unit_short_rows_share_their_weights():
    # A ring of 20,000 nodes, each joined to the next five (200,000
    # adjacency entries, rows of 10), at unit weights.  Every short row
    # shares one list of ones, so the rows hold a list pair and an int
    # object per entry: ~6.4 words per entry, where a float object per
    # entry held ~11.1.
    n = 20_000
    src = np.repeat(np.arange(n), 5)
    dst = (src + np.tile(np.arange(1, 6), n)) % n
    g = Graph.from_arrays(n, src, dst, np.broadcast_to(1.0, src.size))
    assert g.unit_weights
    rows, _, held = traced_peak(lambda: louvain._short_rows(g))
    assert held <= 8 * 8 * g.nbr.size
    assert rows[0][1] == [1.0] * 10
    assert all(wgt is rows[0][1] for _, wgt in rows)


def _two_cliques(weights):
    """Two 5-cliques joined by one edge, weights cycling over
    ``weights``, and the partition into the two cliques."""
    edges = [(b + i, b + j) for b in (0, 5)
             for i in range(5) for j in range(i + 1, 5)] + [(4, 5)]
    return (Graph.from_edges(10, [(i, j, weights[k % len(weights)])
                                  for k, (i, j) in enumerate(edges)]),
            np.repeat([0, 1], 5))


@pytest.mark.parametrize("weights", [(1.0,), (0.1, 0.2, 0.7)])
def test_check_refuses_an_inexact_round_trip(monkeypatch, weights):
    # No node of the two cliques moves.  With unit weights every visit
    # is certified; with 0.1 / 0.2 / 0.7, removing node 5 and inserting
    # it back does not give its community's tot back bit for bit, so
    # the prefix ends there.  The cliques' rows are short, so a pass
    # checks only at LONG_ROW 0.
    g, labels = _two_cliques(weights)
    crit = as_criterion("ng")
    st = crit.state_from_labels(g, labels)
    tot, d = st.tot[labels], g.degrees
    exact = ((tot - d) + d == tot).tolist() + [False]
    prefix = _check(g, st, np.arange(g.n), g.n)
    assert prefix == exact.index(False) == (g.n if weights == (1.0,) else 5)
    got, want, res = _against_reference(g, crit, labels)
    assert got == want and res.moves == 0 and res.visits == g.n
    monkeypatch.setattr(louvain, "LONG_ROW", 0)
    got, want, res = _against_reference(g, crit, labels)
    assert got == want and (res.visits == 0) == (weights == (1.0,))


def test_check_refuses_non_finite_gains(monkeypatch):
    # Weights of 2**1020 add up exactly, but bm's gain overflows.  At
    # LONG_ROW 0 the pass checks, and certifies nothing; its quality is
    # not finite, so it raises, with the reference's state written back.
    monkeypatch.setattr(louvain, "LONG_ROW", 0)
    check, prefixes = louvain._quiet_prefix, []

    def counted(*args):
        prefixes.append(check(*args))
        return prefixes[-1]

    w = 2.0 ** 1020
    g = Graph.from_edges(4, [(0, 1, w), (1, 2, w), (2, 3, w)])
    crit = as_criterion("bm")
    labels = np.zeros(4, dtype=np.int64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        st = crit.state_from_labels(g, labels)
        assert _check(g, st, np.arange(4), 4) == 0
        monkeypatch.setattr(louvain, "_quiet_prefix", counted)
        with pytest.raises(LouvainError, match="overflow"):
            one_pass(g, RunConfig(), st, np.random.default_rng(0))
        ref = crit.state_from_labels(g, labels)
        reference_pass(g, ref, np.random.default_rng(0))
    assert _state_bytes(st) == _state_bytes(ref)
    assert prefixes and not any(prefixes)


def test_sweeps_record_their_moves_and_visits(criterion):
    rng = np.random.default_rng(47)
    for _ in range(4):
        g = compatible_graph(criterion, rng, n_max=40)
        h = detect(g, RunConfig(criterion=criterion.id,
                                alpha=getattr(criterion, "alpha", None),
                                seed=int(rng.integers(100))))
        for lv in h.levels:
            assert len(lv.sweep_moves) == len(lv.sweep_visits) == lv.sweeps
            assert sum(lv.sweep_moves) == lv.moves
            assert sum(lv.sweep_visits) == lv.visits
            assert lv.sweep_moves[-1] == 0


def test_recheck_visits_only_the_movers():
    # Rows of ~94 entries, longer than LONG_ROW: level 0's second sweep
    # (seed 1) moves few nodes, so after its moves the rest is certified
    # again and that sweep visits little more than its movers.
    g, _ = _planted600()
    assert np.diff(g.indptr).min() > louvain.LONG_ROW
    got, want, res = _against_reference(g, as_criterion("ng"), None, 1)
    assert got == want and res.sweeps >= 3 and res.sweep_moves[1] > 0
    assert res.sweep_visits[1] < g.n // 4


def test_dense_movers_skip_the_recheck(monkeypatch):
    # From eight random communities on rows of ~94 entries the check's
    # gate holds from the first sweep, where most nodes move.  A move is
    # followed by a re-check only while its sweep has gone more than
    # _GAP nodes per move, so a sweep makes at most n // _GAP of them,
    # far fewer than its moves.  The pass is the reference's.
    g, _ = _planted600()
    labels = np.random.default_rng(7).integers(0, 8, g.n)
    check, starts = louvain._quiet_prefix, []

    def counted(g, st, order, spare, cols):
        if order.size == g.n:
            starts.append(0)
        else:
            starts[-1] += 1
        return check(g, st, order, spare, cols)

    monkeypatch.setattr(louvain, "_quiet_prefix", counted)
    got, want, res = _against_reference(g, as_criterion("ng"), labels, 1)
    assert got == want and len(starts) == res.sweeps
    assert max(starts) <= g.n // louvain._GAP < res.sweep_moves[0]
    assert sum(starts) > 0


def test_tied_node_is_certified():
    # Two 70-cliques, and node x joined to 40 nodes of each, in the
    # first clique's community: taken out, x has equal sums towards both
    # communities, whose accumulators are then equal too, so its gain
    # ties and it stays.  The check certifies such a node, as every
    # other, so the pass's one sweep makes no visit.  x's row, 80
    # entries, is long, as are the cliques'.
    edges = [(b + i, b + j, 1.0) for b in (0, 70)
             for i in range(70) for j in range(i + 1, 70)]
    edges += [(140, b + i, 1.0) for b in (0, 70) for i in range(40)]
    g = Graph.from_edges(141, edges)
    assert np.diff(g.indptr).min() > louvain.LONG_ROW
    labels = np.repeat([0, 1, 0], [70, 70, 1])
    crit = as_criterion("ng")
    st = crit.state_from_labels(g, labels)
    order = np.random.default_rng(0).permutation(g.n)
    assert _check(g, st, order, 2) == g.n
    got, want, lv = _against_reference(g, crit, labels)
    assert got == want and lv.labels.tolist() == labels.tolist()
    assert (lv.sweeps, lv.moves, lv.visits) == (1, 0, 0)


def test_recheck_needs_more_than_gap_nodes_per_move(monkeypatch):
    # Five nodes of the planted graph start in the wrong group.  At
    # _GAP 0 each move of the first sweep is followed by a re-check of
    # the rest of its order, so the re-checks give the count of nodes
    # the sweep has gone at each move.  At _GAP p, the count at the first
    # move, the k-th move is followed by one only where more than p * k
    # nodes have gone, so the first is not, and the pass is the same.
    g, truth = _planted600()
    labels = truth.copy()
    wrong = np.random.default_rng(5).choice(g.n, 5, replace=False)
    labels[wrong] = (labels[wrong] + 1) % 4
    check, sweeps = louvain._quiet_prefix, []

    def counted(g, st, order, spare, cols):
        if order.size == g.n:
            sweeps.append([])
        else:
            sweeps[-1].append(g.n - order.size)
        return check(g, st, order, spare, cols)

    def first_sweep(gap):
        """The pass's level and its first sweep's re-check counts."""
        monkeypatch.setattr(louvain, "_GAP", gap)
        sweeps.clear()
        got, want, lv = _against_reference(g, as_criterion("ng"), labels, 1)
        assert got == want
        return lv, sweeps[0]

    monkeypatch.setattr(louvain, "_quiet_prefix", counted)
    lv0, ends0 = first_sweep(0)
    assert len(ends0) == lv0.sweep_moves[0] > 1
    gap = ends0[0]
    lv1, ends1 = first_sweep(gap)
    assert lv1.sweep_moves == lv0.sweep_moves
    assert ends1 == [end for k, end in enumerate(ends0, 1) if end > gap * k]
    assert gap not in ends1


@pytest.mark.parametrize("precision,reason,levels", [
    (4.0, "precision", 2), (3.5, "no_moves", 3)])
def test_gain_of_exactly_precision_stops(precision, reason, levels):
    # zc on a unit graph has integer qualities: 30 after level 0 and 34
    # after level 1, which moves.  A gain of at most precision stops the
    # run, so precision 4 stops it there; below 4 level 2 runs and moves
    # nothing.  (Node 5 has no edge.)
    g = Graph.from_edges(7, [(0, 2, 1), (0, 3, 1), (0, 4, 1), (1, 2, 1),
                             (1, 3, 1), (1, 4, 1), (2, 3, 1), (2, 6, 1),
                             (3, 4, 1), (3, 6, 1)])
    h = detect(g, RunConfig(criterion="zc", seed=1, precision=precision))
    assert [lv.quality for lv in h.levels[:2]] == [30.0, 34.0]
    assert h.levels[1].moves > 0
    assert (h.stop_reason, len(h.levels)) == (reason, levels)


@pytest.mark.parametrize("kwargs,reason", [
    ({"max_levels": 1}, "max_levels"), ({"precision": 1e9}, "precision"),
    ({}, "no_moves")])
def test_stop_reason(kwargs, reason):
    g, _ = datasets.karate_club()
    h = detect(g, RunConfig(seed=0, **kwargs))
    assert h.stop_reason == reason
    assert json.loads(h.to_json())["stop_reason"] == reason
    assert h.to_text().endswith(f"stop_reason: {reason}")
    last = h.levels[-1]
    assert (last.moves == 0) == (reason == "no_moves")
    if reason == "precision":
        assert len(h.levels) == 2


def test_visits_count_the_visits_made():
    # On a dense planted graph, with rows longer than LONG_ROW, the
    # check skips the last sweep of level 0, which moves nothing; on
    # karate, whose rows are all short, it never runs.
    g, _ = synth.planted_partition_graph(400, 4, 0.5, 0.01, seed=3)
    assert np.diff(g.indptr).max() > louvain.LONG_ROW
    h = detect(g, RunConfig(seed=1))
    lv = h.levels[0]
    assert lv.sweeps >= 2 and lv.visits <= g.n * (lv.sweeps - 1)
    for seed in range(3):
        h = detect(datasets.karate_club()[0], RunConfig(seed=seed))
        assert all(lv.visits == lv.graph.n * lv.sweeps for lv in h.levels)


@pytest.fixture(scope="module")
def bench_worker():
    """``bench/worker.py``, loaded from its path as it stands."""
    path = Path(__file__).resolve().parents[1] / "bench" / "worker.py"
    spec = importlib.util.spec_from_file_location("bench_worker", path)
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    return worker


@pytest.mark.parametrize("graph,cid", [("karate", "ng"), ("karate", "pd"),
                                       ("planted", "ng")])
def test_bench_trace_matches_detect(bench_worker, graph, cid):
    # The benchmark's traced run rebuilds detect's level loop from
    # public calls (one_pass, Level, Hierarchy, compose_flat), and its
    # run fails when the result differs from detect's.  The planted
    # graph's rows are longer than LONG_ROW, so its passes check.
    g = datasets.karate_club()[0] if graph == "karate" else _planted600()[0]
    assert (np.diff(g.indptr).max() > louvain.LONG_ROW) == (graph != "karate")
    cfg = RunConfig(criterion=cid, seed=1)
    h, levels = bench_worker.traced_detect(anylouvain, g, cfg,
                                           bench_worker.Spans())
    want = detect(g, cfg)
    assert np.array_equal(h.flat, want.flat)
    assert (h.quality, h.kappa_final) == (want.quality, want.kappa_final)
    # Level by level too: a last level that moves nothing hides the
    # qualities of the levels before it.
    assert [(n, s, m, lv.kappa, lv.quality)
            for (n, s, m, _), lv in zip(levels, h.levels)] == [
        (lv.graph.n, lv.sweeps, lv.moves, lv.kappa, lv.quality)
        for lv in want.levels]
