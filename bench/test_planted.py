"""Checks of the benchmark's planted-partition generator.

Run with ``python -m pytest bench``.
"""

import time

import numpy as np
import pytest

from planted import planted_edges


def test_same_seed_same_graph_other_seed_other_graph():
    a = planted_edges(1000, 10, 8 / 99, 2 / 900, seed=[3, 0])
    b = planted_edges(1000, 10, 8 / 99, 2 / 900, seed=[3, 0])
    c = planted_edges(1000, 10, 8 / 99, 2 / 900, seed=[3, 1])
    for x, y in zip(a, b):
        assert np.array_equal(x, y)
    assert not np.array_equal(a[0], c[0])


@pytest.mark.parametrize("seed", range(5))
def test_no_self_or_duplicate_pairs(seed):
    src, dst, _ = planted_edges(1000, 10, 8 / 99, 2 / 900, seed=seed)
    assert np.all(src < dst)
    keys = src * 1000 + dst
    assert np.unique(keys).size == keys.size


@pytest.mark.parametrize("n,groups", [(1000, 10), (10_000, 100)])
def test_size_degree_and_mixing(n, groups):
    size = n // groups
    src, dst, truth = planted_edges(n, groups, 8 / (size - 1),
                                    2 / (n - size), seed=7)
    assert truth.shape == (n,)
    assert np.array_equal(np.bincount(truth), np.full(groups, n // groups))
    assert max(src.max(), dst.max()) < n
    deg = np.bincount(np.concatenate([src, dst]), minlength=n)
    assert deg.mean() == pytest.approx(10.0, rel=0.03)
    cross = np.mean(truth[src] != truth[dst])
    assert cross == pytest.approx(0.2, abs=0.01)


def test_many_groups_stay_cheap():
    t0 = time.perf_counter()
    src, _, truth = planted_edges(100_000, 1000, 8 / 99, 2 / 99_900, seed=1)
    assert time.perf_counter() - t0 < 5.0
    assert np.unique(truth).size == 1000
    assert src.size == pytest.approx(500_000, rel=0.02)


def test_dense_matches_stated_probabilities():
    src, dst, truth = planted_edges(10_000, 20, 0.7, 2e-4, seed=2)
    inside = truth[src] == truth[dst]
    assert inside.sum() == pytest.approx(0.7 * 20 * 500 * 499 / 2, rel=0.01)
    assert (~inside).sum() == pytest.approx(2e-4 * 10_000 * 9_500 / 2,
                                            rel=0.05)


def test_rejects_uneven_groups():
    with pytest.raises(ValueError):
        planted_edges(1001, 10, 0.1, 0.01, seed=0)
