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

from anylouvain import (BELL_NUMBERS, Graph, datasets, delta_oracle,
                        enumerate_partitions, exact_optimum, oracle, synth)
from anylouvain.errors import TooLarge

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
    assert np.array_equal(np.stack(list(enumerate_partitions(6))), table)


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


if __name__ == "__main__":
    ATTAINMENT.write_text(json.dumps(attainment(), indent=1) + "\n")
