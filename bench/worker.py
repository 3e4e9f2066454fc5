"""The benchmark's worker, run in a fresh interpreter by ``run.py``.

It times ``import anylouvain`` once, then runs ``--reps`` repetitions,
each on its own input file.  The timed part of a repetition calls the
package's public functions in the order ``anylouvain detect`` uses them:
``read_edge_list``, ``detect`` (or ``exact_optimum``),
``write_partition``.  The output checks run after the clock stops.
With ``--trace`` the same solve is repeated through ``traced_detect``, a
mirror of ``louvain.run`` built from public calls only, and each call is
timed from outside the package.

Prints one JSON object on its last stdout line.  A repetition that
raises or fails an output check lists why in its ``errors``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

#: Relative tolerance between the reported quality and the pairwise sum.
QUALITY_RTOL = 1e-9


class Spans:
    """Accumulated wall time per span name."""

    def __init__(self):
        self.seconds = defaultdict(float)

    @contextmanager
    def __call__(self, name):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] += time.perf_counter() - t0


def traced_detect(al, g0, cfg, spans):
    """``detect`` rebuilt from public calls, each wrapped in a span.

    Mirrors ``louvain.detect`` / ``louvain.run`` step by step; the caller
    checks that labels and quality equal the untraced run's, so a change
    to ``run`` that this mirror does not follow fails the benchmark.
    Returns the :class:`Hierarchy` and per-level ``(n, sweeps, moves,
    pass_seconds)`` records.
    """
    crit = al.as_criterion(cfg.criterion, cfg.alpha)
    with spans("criteria.pretreat"):
        g = crit.pretreat(g0)
    rng = np.random.default_rng(cfg.seed)
    h = al.Hierarchy()
    levels = []
    prev_q = None
    while True:
        with spans("criteria.init"):
            st = crit.init(g)
        t0 = time.perf_counter()
        res = al.one_pass(g, cfg, st, rng)
        levels.append((g.n, res.sweeps, res.moves, time.perf_counter() - t0))
        with spans("criteria.total"):
            quality = st.total()
        with spans("graph.compact"):
            labels, kappa = al.compact_labels(res.labels)
        h.levels.append(al.Level(g, labels, quality, kappa,
                                 res.sweeps, res.moves))
        done = (
            res.moves == 0
            or (prev_q is not None and quality - prev_q <= cfg.precision)
            or (cfg.max_levels is not None
                and len(h.levels) >= cfg.max_levels)
        )
        if done:
            break
        prev_q = quality
        with spans("graph.aggregate"):
            g = al.aggregate(g, labels, kappa)
    with spans("louvain.compose"):
        h.flat = al.compose_flat(h)
    h.kappa_final = int(h.flat.max()) + 1 if h.flat.size else 0
    return h, levels


def layer_metrics(spans, levels, kappa_final):
    """Per-layer figures of one traced detect."""
    visits = sum(n * sweeps for n, sweeps, _, _ in levels)
    pass_s = sum(t for *_, t in levels)
    n0, sweeps0, _, pass0 = levels[0] if levels else (0, 0, 0, 0.0)
    moves = sum(m for _, _, m, _ in levels)
    return {
        "louvain.pass_s": pass_s,
        "louvain.visits": visits,
        "louvain.sweeps": sum(s for _, s, _, _ in levels),
        "louvain.us_per_visit": 1e6 * pass_s / max(visits, 1),
        "louvain.L0.pass_s": pass0,
        "louvain.L0.sweeps": sweeps0,
        "louvain.L0.us_per_visit": 1e6 * pass0 / max(n0 * sweeps0, 1),
        "louvain.upper.pass_s": pass_s - pass0,
        "louvain.levels": len(levels),
        "louvain.moves": moves,
        "louvain.moves_per_visit": moves / max(visits, 1),
        "louvain.kappa_final": kappa_final,
        "criteria.pretreat_s": spans.seconds["criteria.pretreat"],
        "criteria.init_s": spans.seconds["criteria.init"],
        "criteria.total_s": spans.seconds["criteria.total"],
        "graph.aggregate_s": spans.seconds["graph.aggregate"],
        "graph.compact_s": spans.seconds["graph.compact"],
        "louvain.compose_s": spans.seconds["louvain.compose"],
    }


def solve_once(al, args, rep, import_s):
    """One repetition: timed read, solve and write, then the checks."""
    edges = args.work / f"input-{rep}.edges"
    output = args.work / f"partition-{rep}.tsv"
    t0 = time.perf_counter()
    g, labels = al.read_edge_list(edges)
    t_read = time.perf_counter()
    cfg = al.RunConfig(criterion=args.criterion)
    crit = al.as_criterion(args.criterion)
    if args.exact:
        g_solved = crit.pretreat(g)
        flat, quality = al.exact_optimum(crit, g_solved)
    else:
        h = al.detect(g, cfg)
        g_solved, flat, quality = h.levels[0].graph, h.flat, h.quality
    t_solve = time.perf_counter()
    al.write_partition(output, flat, labels)
    t_write = time.perf_counter()

    # -- output checks, after timing ----------------------------------
    errors = []
    pairwise = al.relational_total(crit, g_solved, flat)
    if abs(pairwise - quality) > QUALITY_RTOL * max(1.0, abs(quality)):
        errors.append(f"quality {quality!r} != pairwise sum {pairwise!r}")
    try:
        back = al.read_partition(output, labels)
    except al.LouvainError as exc:
        errors.append(f"written partition does not read back: {exc}")
    else:
        if not np.array_equal(back, al.compact_labels(flat)[0]):
            errors.append("written partition differs from the solved one")
    if args.exact:
        greedy = al.detect(g, cfg)
        if greedy.quality > quality + QUALITY_RTOL * max(1.0, abs(quality)):
            errors.append(f"detect quality {greedy.quality!r} beats the "
                          f"exact optimum {quality!r}")
        # The optimum's communities are the groups to recover.
        truth, found = flat, greedy.flat
    else:
        truth = np.load(args.work / f"truth-{rep}.npy")
        truth = truth[np.asarray(labels, dtype=np.int64)]
        found = flat
    # Quality is reported as the gain over the all-singleton partition,
    # which is positive for every criterion (``pd`` values are negative).
    baseline = crit.init(g_solved).total()

    out = {
        "wall_s": import_s + t_write - t0,
        "setup_s": import_s + t_read - t0,
        "solve_s": t_solve - t_read,
        "quality": quality - baseline,
        "recovered_frac": (al.synth.recovered_groups(truth, found)
                           / np.unique(truth).size),
        "errors": errors,
    }
    if args.trace:
        with open(edges, "rb") as fh:
            lines = sum(1 for _ in fh)
        out["layers"] = {
            "io.read_s": t_read - t0,
            "io.read_us_per_line": 1e6 * (t_read - t0) / lines,
            "io.lines": lines,
            "io.write_s": t_write - t_solve,
        }
        layers, diverged = trace_solve(al, g, cfg, args.exact, flat,
                                       quality, t_solve - t_read)
        out["layers"].update(layers)
        if diverged:
            errors.append(diverged)
    return out


def trace_solve(al, g, cfg, exact, flat, quality, untraced_s):
    """Repeat the solve with spans; returns the per-layer figures and an
    error message when the traced result differs from the untraced one."""
    spans = Spans()
    t0 = time.perf_counter()
    if exact:
        with spans("oracle.exact"):
            crit = al.as_criterion(cfg.criterion)
            t_flat, t_quality = al.exact_optimum(crit, crit.pretreat(g))
        levels, kappa = [], 0  # louvain is not called
    else:
        h, levels = traced_detect(al, g, cfg, spans)
        t_flat, t_quality, kappa = h.flat, h.quality, h.kappa_final
    traced_s = time.perf_counter() - t0
    partitions = al.BELL_NUMBERS[g.n] if exact else 0
    metrics = layer_metrics(spans, levels, kappa)
    metrics.update({
        "oracle.partitions": partitions,
        "oracle.exact_s": spans.seconds["oracle.exact"],
        "oracle.us_per_partition":
            1e6 * spans.seconds["oracle.exact"] / max(partitions, 1),
        "trace.overhead_s": traced_s - untraced_s,
    })
    diverged = None
    if t_quality != quality or not np.array_equal(t_flat, flat):
        diverged = ("traced run diverged from the untraced run: quality "
                    f"{t_quality!r} vs {quality!r}")
    return metrics, diverged


def peak_rss_mb():
    """This process's peak resident set size in MB.

    Linux carries the spawning parent's peak into ``ru_maxrss`` across
    ``exec``, so this reads the high-water mark of this process's own
    address space (``VmHWM``) instead.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--work", type=Path, required=True,
                    help="directory with input-<r>.edges (and truth-<r>.npy "
                    "of planted groups by node label) for each repetition")
    ap.add_argument("--reps", type=int, required=True)
    ap.add_argument("--criterion", required=True)
    ap.add_argument("--exact", action="store_true",
                    help="solve with exact_optimum instead of detect")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    import anylouvain as al
    import_s = time.perf_counter() - t0

    reps = []
    for rep in range(args.reps):
        try:
            reps.append(solve_once(al, args, rep, import_s))
        except Exception:  # one failed repetition must not hide the rest
            reps.append({"errors": [traceback.format_exc()]})
    print(json.dumps({"anylouvain": al.__file__,
                      "peak_rss_mb": peak_rss_mb(), "reps": reps}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
