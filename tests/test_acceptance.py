"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -s``).

Tolerances are fixed here, not tuned: equivalences hold to 1e-9
relative; the karate means must land within +-2 of the published
community counts; the planted-partition stand-in must finish under 30 s
per criterion and recover at least 15 of 20 groups.
"""

import time

import numpy as np
import pytest

from anylouvain import (RunConfig, aggregate, as_criterion, datasets,
                        delta_oracle, detect, exact_optimum,
                        singleton_labels, synth)
from anylouvain.criteria import LINEAR_CRITERIA
from anylouvain.errors import NotPluggable, WeightedInputNotSupported

from conftest import neighbor_community_weights

ALL = [("ng", None), ("zc", None), ("oz", 0.5), ("wc", None), ("bm", None),
       ("di", None), ("du", None), ("g", None), ("pd", None)]

REL_TOL = 1e-9


def _report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f": {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


def _rel_err(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


def _graph_for(crit, rng, n_max=50):
    """Random graph per the acceptance recipe: n <= n_max, edge
    probability 0.1..0.5, unweighted or weights in (0, 5]."""
    while True:
        n = int(rng.integers(4, n_max + 1))
        p = float(rng.uniform(0.1, 0.5))
        weighted = crit.weighted_ok and bool(rng.integers(2))
        g = synth.random_graph(n, p, weighted=weighted,
                               seed=int(rng.integers(2 ** 32)))
        if g.consts.two_m == 0:
            continue
        if crit.id == "pd" and np.any(g.degrees == 0):
            continue
        return g


def test_evaluator_equivalence():
    """Accumulator total vs pairwise total on 200 random graphs each."""
    t0 = time.perf_counter()
    for cid, alpha in ALL:
        crit = as_criterion(cid, alpha)
        rng = np.random.default_rng(101)
        worst = 0.0
        for _ in range(200):
            g = crit.pretreat(_graph_for(crit, rng))
            labels = synth.random_labels(g.n, seed=rng)
            t = crit.state_from_labels(g, labels).total()
            r = crit.relational(g, labels)
            worst = max(worst, _rel_err(t, r))
        _report(f"evaluator equivalence [{cid}]", worst <= REL_TOL,
                f"worst rel err {worst:.2e} over 200 graphs")
    elapsed = time.perf_counter() - t0
    _report("evaluator equivalence runtime", elapsed < 60.0,
            f"{elapsed:.1f}s (< 60s)")


def test_gain_consistency():
    """1000 probe moves per criterion: quality change equals a fixed
    per-criterion multiple of the gain difference."""
    for cid, alpha in ALL:
        crit = as_criterion(cid, alpha)
        rng = np.random.default_rng(202)
        lam = None
        worst = 0.0
        probes = 0
        while probes < 1000:
            g = crit.pretreat(_graph_for(crit, rng, n_max=12))
            labels = synth.random_labels(g.n, seed=rng)
            st = crit.state_from_labels(g, labels)
            for _ in range(min(40, 1000 - probes)):
                i = int(rng.integers(g.n))
                c_old = int(st.part[i])
                c_new = int(rng.integers(g.n + 1))
                dws = neighbor_community_weights(g, i, st.part)
                st.remove(i, c_old, dws[c_old])
                dgain = (st.gain(i, c_new, dws.get(c_new, 0.0))
                         - st.gain(i, c_old, dws[c_old]))
                st.insert(i, c_old, dws[c_old])
                df = delta_oracle(crit, g, st.part, i, c_new)
                if abs(dgain) > 1e-12:
                    if lam is None:
                        lam = df / dgain  # measured once, then frozen
                    worst = max(worst,
                                abs(df - lam * dgain) / max(1.0, abs(df)))
                else:
                    worst = max(worst, abs(df))
                probes += 1
        _report(f"gain consistency [{cid}]",
                lam is not None and worst <= REL_TOL,
                f"lambda={lam:g}, worst rel err {worst:.2e}, "
                f"{probes} probes")


def _oracle_graphs(count=50, seed=303):
    """Unweighted, no isolated nodes: valid for every criterion."""
    rng = np.random.default_rng(seed)
    graphs = []
    while len(graphs) < count:
        n = int(rng.integers(3, 8))
        g = synth.random_graph(n, float(rng.uniform(0.3, 0.7)),
                               seed=int(rng.integers(2 ** 32)))
        if g.consts.two_m > 0 and not np.any(g.degrees == 0):
            graphs.append(g)
    return graphs


def test_oracle_bound():
    """Louvain never beats the enumerated optimum; report how often it
    attains it (soft 60% target)."""
    graphs = _oracle_graphs()
    for cid, alpha in ALL:
        crit = as_criterion(cid, alpha)
        violations = 0
        attained = 0
        for g in graphs:
            gw = crit.pretreat(g)
            _, q_opt = exact_optimum(crit, gw)
            h = detect(gw, RunConfig(criterion=cid, alpha=alpha, seed=7))
            tol = REL_TOL * max(1.0, abs(q_opt))
            if h.quality > q_opt + tol:
                violations += 1
            elif abs(h.quality - q_opt) <= tol:
                attained += 1
        _report(f"oracle bound [{cid}]", violations == 0,
                f"{violations} violations; optimum attained "
                f"{attained}/{len(graphs)}"
                + ("" if attained >= 30 else " (below soft 60% target)"))


def test_karate_table_reproduction():
    """Mean community counts over 10 seeded runs at precision 5e-3."""
    targets = {"ng": 4, "zc": 19, "di": 4, "du": 5, "bm": 4, "g": 10,
               "pd": 3}
    g, _ = datasets.karate_club()
    t0 = time.perf_counter()
    means = {}
    for cid in targets:
        kappas = [detect(g, RunConfig(criterion=cid, precision=5e-3,
                                      seed=s)).kappa_final
                  for s in range(10)]
        means[cid] = float(np.mean(kappas))
    elapsed = time.perf_counter() - t0
    for cid, want in targets.items():
        _report(f"karate community count [{cid}]",
                abs(means[cid] - want) <= 2.0,
                f"mean {means[cid]:.1f} vs published {want} (+-2)")
    _report("karate runtime", elapsed < 5.0, f"{elapsed:.2f}s (< 5s)")


def test_planted_partition_scale():
    """Desk-scale stand-in for the large-instance timing table."""
    g, truth = synth.planted_partition_graph(10_000, 20, 0.7, 2e-4,
                                             seed=55)
    for cid in LINEAR_CRITERIA:
        alpha = 0.5 if cid == "oz" else None
        t0 = time.perf_counter()
        h = detect(g, RunConfig(criterion=cid, alpha=alpha,
                                precision=5e-3, seed=1))
        elapsed = time.perf_counter() - t0
        recovered = synth.recovered_groups(truth, h.flat)
        _report(f"planted partition [{cid}]",
                elapsed < 30.0 and recovered >= 15,
                f"{elapsed:.1f}s, recovered {recovered}/20 groups, "
                f"kappa={h.kappa_final}")


def test_monotonicity_and_termination():
    """Per-level quality never decreases and no run hits the sweep cap."""
    rng = np.random.default_rng(404)
    cases = []
    for cid, alpha in ALL:
        crit = as_criterion(cid, alpha)
        for _ in range(12):
            cases.append((cid, alpha, crit.pretreat(_graph_for(crit, rng))))
    karate, _ = datasets.karate_club()
    for cid, alpha in ALL:
        crit = as_criterion(cid, alpha)
        cases.append((cid, alpha, crit.pretreat(karate)))
    bad = 0
    for cid, alpha, g in cases:
        cfg = RunConfig(criterion=cid, alpha=alpha,
                        seed=int(rng.integers(1000)))
        h = detect(g, cfg)  # raises SweepCapExceeded on non-termination
        qs = [lv.quality for lv in h.levels]
        if not all(b >= a - REL_TOL * max(1.0, abs(a))
                   for a, b in zip(qs, qs[1:])):
            bad += 1
        if any(lv.sweeps >= 10 * max(lv.graph.n, 1) for lv in h.levels):
            bad += 1
    _report("monotonicity & termination", bad == 0,
            f"{len(cases)} runs, {bad} violations")


def test_aggregation_invariance():
    """F(coarse graph, singletons) == F(original, partition)."""
    for cid, alpha in ALL:
        crit = as_criterion(cid, alpha)
        rng = np.random.default_rng(505)
        worst = 0.0
        for _ in range(100):
            g = crit.pretreat(_graph_for(crit, rng, n_max=40))
            labels = synth.random_labels(g.n, seed=rng)
            f_orig = crit.state_from_labels(g, labels).total()
            meta = aggregate(g, labels)
            f_meta = crit.state_from_labels(
                meta, singleton_labels(meta.n)).total()
            worst = max(worst, _rel_err(f_orig, f_meta))
        _report(f"aggregation invariance [{cid}]", worst <= REL_TOL,
                f"worst rel err {worst:.2e} over 100 pairs")


def test_negative_boundary():
    """Non-pluggable criteria and invalid inputs are turned away."""
    for cid in ("mg", "sm", "md"):
        with pytest.raises(NotPluggable) as err:
            as_criterion(cid)
        _report(f"non-pluggable rejection [{cid}]",
                "not pluggable" in str(err.value), str(err.value))
    from anylouvain import Graph
    weighted = Graph.from_edges(2, [(0, 1, 2.0)])
    with pytest.raises(WeightedInputNotSupported):
        as_criterion("wc").pretreat(weighted)
    _report("wc weighted-input rejection", True)
