"""Partition enumeration, the exact brute-force optimum and the pinned
greedy-versus-exact attainment table.

``data/attainment.json`` holds, per criterion, the figures of
:func:`oracle.attainment_table` on ``synth.small_graphs(120, seed=7)``:
runs, hits, the largest relative gap and how many results are level-0
local optima.  A change to the optimizer that moves a figure
re-baselines it, and says so where the change is recorded; never loosen
it to get a pass.  Run this file as a script against a checkout to
regenerate it::

    PYTHONPATH=<checkout>/src python tests/test_oracle.py
"""

import json
from pathlib import Path

import numpy as np
import pytest

from anylouvain import (BELL_NUMBERS, Graph, LouvainError, as_criterion,
                        datasets, delta_oracle, enumerate_partitions,
                        exact_optimum, oracle, synth)
from anylouvain.criteria import CRITERIA, LINEAR_CRITERIA, tolerance
from anylouvain.errors import TooLarge, WeightedInputNotSupported

from conftest import compatible_graph, triangle, two_triangles

ATTAINMENT = Path(__file__).parent / "data" / "attainment.json"


def attainment():
    table = oracle.attainment_table(synth.small_graphs(120, seed=7))
    return {cid: row._asdict() for cid, row in table.items()}


def test_enumeration_counts_match_bell_numbers():
    for n in range(9):
        seen = set()
        count = 0
        for labels in enumerate_partitions(n):
            seen.add(tuple(labels))
            count += 1
        assert count == BELL_NUMBERS[n]
        assert len(seen) == count  # no duplicates


def test_enumeration_small_cases():
    assert sum(1 for _ in enumerate_partitions(1)) == 1
    assert sum(1 for _ in enumerate_partitions(3)) == 5
    assert sum(1 for _ in enumerate_partitions(5)) == 52


def test_enumeration_is_canonical():
    for labels in enumerate_partitions(6):
        assert labels[0] == 0
        for k in range(1, 6):
            assert labels[k] <= labels[:k].max() + 1


def test_enumeration_cap():
    with pytest.raises(TooLarge):
        list(enumerate_partitions(11))
    with pytest.raises(TooLarge):
        exact_optimum("ng", synth.random_graph(12, 0.5, seed=0))


def test_cap_above_last_bell_number_refused_before_enumerating():
    # Raised by the call itself: no partition is ever produced.
    with pytest.raises(TooLarge):
        enumerate_partitions(34)
    with pytest.raises(TooLarge):
        exact_optimum("ng", datasets.karate_club()[0])
    assert len(list(enumerate_partitions(10))) == BELL_NUMBERS[10]


def test_batched_scoring_matches_reference_loop(criterion):
    """The batched optimum equals a strict-``>`` loop over single
    ``relational`` calls, so the first best partition in enumeration
    order wins; batched ``relational`` equals the stacked single calls."""
    rng = np.random.default_rng(61)
    for _ in range(6):
        g = criterion.pretreat(compatible_graph(criterion, rng, n_max=7))
        parts = list(enumerate_partitions(g.n))
        single = np.array([criterion.relational(g, p) for p in parts])
        assert np.array_equal(criterion.relational(g, np.stack(parts)),
                              single)
        ref_labels, ref_q = None, -np.inf
        for p, q in zip(parts, single):
            if q > ref_q:
                ref_labels, ref_q = p, q
        labels, q = exact_optimum(criterion, g)
        assert np.array_equal(labels, ref_labels)
        assert q == pytest.approx(ref_q, rel=1e-12, abs=1e-12)


def test_growth_table_is_cached_read_only():
    table = oracle._growth_table(6)
    assert oracle._growth_table(6) is table
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 1
    assert table.shape == (6, BELL_NUMBERS[6]) and table.flags.c_contiguous
    assert np.array_equal(np.stack(list(enumerate_partitions(6))), table.T)


def test_repeated_exact_optimum_calls_agree():
    g = synth.random_graph(8, 0.5, weighted=True, seed=5)
    first = exact_optimum("ng", g)
    for _ in range(2):
        labels, q = exact_optimum("ng", g)
        assert labels.dtype == np.int64
        assert np.array_equal(labels, first[0]) and q == first[1]
        labels[:] = 0  # the caller's copy, not the shared table
    assert np.array_equal(exact_optimum("ng", g)[0], first[0])


def test_k3_zc_optimum_is_one_community():
    labels, q = exact_optimum("zc", triangle())
    assert list(labels) == [0, 0, 0]
    assert q == pytest.approx(6.0)


def test_two_triangles_ng_optimum():
    labels, q = exact_optimum("ng", two_triangles())
    assert list(labels) == [0, 0, 0, 1, 1, 1]
    assert q == pytest.approx(6.0)


def test_edgeless_zc_optimum_is_singletons():
    g = Graph.from_edges(3, [])
    labels, q = exact_optimum("zc", g)
    assert list(labels) == [0, 1, 2]
    assert q == pytest.approx(6.0)


def test_empty_graph_optimum_is_the_empty_partition():
    labels, q = exact_optimum("zc", Graph.from_edges(0, []))
    assert labels.shape == (0,) and q == 0.0


def test_delta_oracle_null_move_is_zero(criterion):
    rng = np.random.default_rng(3)
    from conftest import compatible_graph
    for _ in range(10):
        g = criterion.pretreat(compatible_graph(criterion, rng, n_max=8))
        labels = synth.random_labels(g.n, seed=rng)
        i = int(rng.integers(g.n))
        assert delta_oracle(criterion, g, labels, i,
                            int(labels[i])) == pytest.approx(0.0)
    with pytest.raises(ValueError, match="must belong to a community"):
        delta_oracle(criterion, triangle(), [0, -1, 0], 1, 0)


def pretreated_small_graphs(crit):
    """The pinned 120 small graphs the criterion accepts, pretreated."""
    for g in synth.small_graphs(120, seed=7):
        try:
            yield crit.pretreat(g)
        except WeightedInputNotSupported:
            pass


def affine_gaps(crit, g, rng):
    """Gaps between ``relational`` and the affine model ``q0 + sum(c[ij]
    * x[ij])`` of :func:`oracle.pair_coefficients` on 20 random
    partitions of ``g``, in units of ``g``'s tolerance."""
    parts = np.stack([synth.random_labels(g.n, max_kappa=k, seed=rng)
                      for k in rng.integers(1, g.n + 1, size=20)])
    q0, c = oracle.pair_coefficients(crit, g)
    i, j = np.triu_indices(g.n, 1)
    affine = q0 + (parts[:, i] == parts[:, j]) @ c
    q = crit.relational(g, parts)
    return np.abs(q - affine) / tolerance(g)


@pytest.mark.parametrize("cid", LINEAR_CRITERIA)
def test_linear_criteria_are_affine_in_the_pair_indicator(cid):
    crit = as_criterion(cid, 0.3)
    rng = np.random.default_rng(29)
    for g in pretreated_small_graphs(crit):
        assert affine_gaps(crit, g, rng).max() <= 1.0


@pytest.mark.parametrize("cid", sorted(set(CRITERIA) - set(LINEAR_CRITERIA)))
def test_other_criteria_are_not_affine(cid):
    crit = as_criterion(cid)
    rng = np.random.default_rng(29)
    assert any(affine_gaps(crit, g, rng).max() > 1e3
               for g in pretreated_small_graphs(crit))


def brute_force(crit, g):
    """The first partition of the growth table with the largest
    ``relational`` quality, scored in one call, and its own quality."""
    parts = oracle._growth_table(g.n).T
    best = parts[int(np.argmax(crit.relational(g, parts)))]
    return best.astype(np.int64), crit.relational(g, best)


def tie_heavy_graphs():
    """Edgeless graphs for zc and oz, and complete unweighted graphs,
    whose optima tie over many partitions."""
    for n in (1, 2, 5, 8):
        for cid in ("zc", "oz"):
            yield cid, Graph.from_edges(n, [])
    for n in (2, 5, 8):
        complete = Graph.from_edges(
            n, [(i, j, 1.0) for i in range(n) for j in range(i + 1, n)])
        for cid in CRITERIA:
            yield cid, complete


#: Weights near float64's top: di's optimum there is ~1e-16 of its
#: terms, so only a tolerance on the terms' scale keeps it a candidate.
CANCELLING = Graph.from_edges(4, [(0, 1, 1e307), (1, 2, 1e307),
                                  (2, 3, 1e307), (3, 0, 1e307),
                                  (0, 2, 1e307)])


class SquaredNewmanGirvan(CRITERIA["ng"]):
    """A plug-in subclass of a linear criterion that is not affine."""

    def _relational(self, g0, labels):
        return super()._relational(g0, labels) ** 2


def test_exact_optimum_is_the_brute_force_to_the_bit():
    cases = [(cid, g) for cid in CRITERIA
             for g in pretreated_small_graphs(as_criterion(cid, 0.3))]
    cases += [("di", CANCELLING), *tie_heavy_graphs()]
    cases += [(SquaredNewmanGirvan(), g)
              for g in synth.small_graphs(10, seed=7)]
    for cid, g in cases:
        crit = as_criterion(cid, 0.3)
        g = crit.pretreat(g)
        labels, q = exact_optimum(crit, g)
        want_labels, want_q = brute_force(crit, g)
        assert np.array_equal(labels, want_labels), (cid, g.n)
        assert np.float64(q).tobytes() == np.float64(want_q).tobytes()


#: oz's pair coefficients are finite here, but their sums overflow.
OVERFLOWING = Graph.from_edges(3, [(0, 2, 8e307), (1, 2, 8e307)])


def test_non_finite_scores_fall_back_to_every_partition(monkeypatch):
    # oz then scores every partition, and raises as the brute force does
    # instead of returning the first one.
    crit = as_criterion("oz", 0.3)
    for solve in (brute_force, exact_optimum):
        with pytest.raises(LouvainError, match="quality is inf"):
            solve(crit, OVERFLOWING)
    # Where every partition's quality is finite, the result is the brute
    # force's.
    monkeypatch.setattr(oracle, "pair_coefficients",
                        lambda crit, g: (0.0, np.full(15, np.inf)))
    labels, q = exact_optimum("ng", two_triangles())
    want_labels, want_q = brute_force(as_criterion("ng"), two_triangles())
    assert np.array_equal(labels, want_labels) and q == want_q


def test_misclassified_criterion_fails_the_self_check(monkeypatch):
    monkeypatch.setattr(oracle, "LINEAR_CRITERIA", LINEAR_CRITERIA + ("g",))
    with pytest.raises(LouvainError, match="not its affine score"):
        exact_optimum("g", two_triangles())


def test_run_beating_the_optimum_raises(monkeypatch):
    monkeypatch.setattr(oracle, "exact_optimum", lambda crit, g: (None, -1.0))
    with pytest.raises(LouvainError, match="beats the optimum"):
        oracle.attainment_table([two_triangles()])


def test_attainment_table_is_pinned():
    want = json.loads(ATTAINMENT.read_text())
    got = attainment()
    assert list(got) == list(want)
    for cid, row in got.items():
        gap = row.pop("max_gap")
        assert gap == pytest.approx(want[cid].pop("max_gap"), rel=1e-9), cid
        assert row == want[cid], cid


def test_improving_move_is_the_first_single_node_gain():
    # Path 0-1-2 with node 2 alone: joining {0, 1} raises ng; a node
    # moved out of {0, 1} would lower it.  Two triangles are optimal.
    g = Graph.from_edges(3, [(0, 1, 1), (1, 2, 1)])
    assert oracle.improving_move("ng", g, [0, 0, 1]) == (2, 0)
    assert oracle.improving_move("ng", two_triangles(),
                                 [0, 0, 0, 1, 1, 1]) is None
    # One community of all nodes: splitting off a node into an empty
    # community is a move too.
    assert oracle.improving_move("zc", Graph.from_edges(3, []),
                                 [0, 0, 0]) == (0, 1)
    # No node, no move.
    assert oracle.improving_move("zc", Graph.from_edges(0, []), []) is None


if __name__ == "__main__":
    ATTAINMENT.write_text(json.dumps(attainment(), indent=1) + "\n")
