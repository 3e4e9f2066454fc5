"""Golden labels: ``detect`` must reproduce recorded runs bit for bit.

The fixture ``data/golden_labels.json`` holds, for every criterion
(``oz`` at alpha 0.3) and seeds 0-2, the flat labels, the exact quality
and per-level ``(sweeps, moves, kappa, quality)`` of ``detect`` with the
default ``RunConfig``.  The per-level quality is the accumulator total
after that level's pass, so a last-bit change in any pass shows even
when the final level hides it.  The graphs are karate, a weighted random graph with
self-loops, and a planted graph whose rows lie on both sides of
``louvain.LONG_ROW``, unweighted and weighted.  It was regenerated when
``aggregate`` began to sum each community pair once, in CSR order, into
both rows: every label, sweep, move and kappa stayed the same, and only
quality bits moved (28 final values, at most 2.8e-14 relative, all on
non-integer weights).  Run this file as a script against a checkout::

    PYTHONPATH=<checkout>/src python tests/test_golden.py

Any change to the optimizer that alters a single label, a quality bit or
a sweep count fails here.  Regenerate only for an intended change of
results, and say so where the change is recorded.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from anylouvain import Graph, RunConfig, datasets, detect, synth

FIXTURE = Path(__file__).parent / "data" / "golden_labels.json"
SEEDS = (0, 1, 2)
CRITERIA = (("ng", None), ("zc", None), ("oz", 0.3), ("wc", None),
            ("bm", None), ("di", None), ("du", None), ("g", None),
            ("pd", None))
UNWEIGHTED = ("karate", "mixed")
# (graph, criterion, alpha); wc is defined on unweighted graphs only.
CASES = [(graph, crit_id, alpha)
         for graph in ("karate", "weighted", "mixed", "mixed-weighted")
         for crit_id, alpha in CRITERIA
         if crit_id != "wc" or graph in UNWEIGHTED]


def mixed_degree_graph(weighted=False):
    """Planted graph with rows of very different lengths: one dense group
    of 150 nodes (degree ~135) and three sparse groups of 30 (degree ~9).
    Weighted, the weights are uniform in (0, 5), so the order in which a
    row's weights are summed shows in the last bits."""
    rng = np.random.default_rng(7)
    sizes = (150, 30, 30, 30)
    p_in = np.array([0.9, 0.25, 0.25, 0.25])
    truth = np.repeat(np.arange(len(sizes)), sizes)
    iu, ju = np.triu_indices(truth.size, k=1)
    same = truth[iu] == truth[ju]
    p = np.where(same, p_in[truth[iu]], 0.01)
    keep = rng.random(iu.size) < p
    ws = rng.uniform(0.0, 5.0, keep.sum()) if weighted else np.ones(keep.sum())
    return Graph.from_edges(truth.size, zip(iu[keep].tolist(),
                                            ju[keep].tolist(), ws.tolist()))


def golden_graphs():
    return {
        "karate": datasets.karate_club()[0],
        "weighted": synth.random_graph(40, 0.2, weighted=True, loops=True,
                                       seed=11),
        "mixed": mixed_degree_graph(),
        "mixed-weighted": mixed_degree_graph(weighted=True),
    }


def record(g, crit_id, alpha, seed):
    h = detect(g, RunConfig(criterion=crit_id, alpha=alpha, seed=seed))
    return {
        "flat": h.flat.tolist(),
        "quality": h.quality,
        "levels": [[lv.sweeps, lv.moves, lv.kappa, lv.quality]
                   for lv in h.levels],
    }


def generate():
    graphs = golden_graphs()
    return {f"{graph}/{crit_id}": [record(graphs[graph], crit_id, alpha, s)
                                   for s in SEEDS]
            for graph, crit_id, alpha in CASES}


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text()), golden_graphs()


@pytest.mark.parametrize("graph,crit_id,alpha", CASES,
                         ids=[f"{g}-{c}" for g, c, _ in CASES])
def test_detect_matches_golden(golden, graph, crit_id, alpha):
    expected, graphs = golden
    for seed, want in zip(SEEDS, expected[f"{graph}/{crit_id}"]):
        got = record(graphs[graph], crit_id, alpha, seed)
        assert got["flat"] == want["flat"], f"seed {seed}: labels differ"
        assert got["quality"] == want["quality"], f"seed {seed}"
        assert got["levels"] == want["levels"], f"seed {seed}"


def test_mixed_graph_straddles_long_row():
    from anylouvain.louvain import LONG_ROW
    row_len = np.diff(mixed_degree_graph().indptr)
    assert (row_len > LONG_ROW).any() and (row_len <= LONG_ROW).any()


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(generate(), separators=(",", ":")) + "\n")
