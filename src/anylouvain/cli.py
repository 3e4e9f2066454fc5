"""Command-line interface: detect / eval / optimum / bench.

Graph inputs are edge-list files ("-" reads stdin's bytes).  Every
command takes its settings from :class:`RunConfig`, built before any file
is touched: a flag that is not given leaves the config's default.
"""

from __future__ import annotations

import argparse
import statistics
import sys
from dataclasses import fields, replace

from .criteria import EXPERIMENT_CRITERIA, tolerance
from .errors import LouvainError
from .graph import compact_labels
from .io import read_edge_list, read_partition, write_partition
from .louvain import RunConfig, detect
from .oracle import exact_optimum


def _read_graph(path):
    """The graph and node labels of the edge list at ``path`` ("-" reads
    stdin's bytes); a graph with no nodes raises :class:`LouvainError`."""
    g, labels = read_edge_list(getattr(sys.stdin, "buffer", sys.stdin)
                               if path == "-" else path)
    if g.n == 0:
        raise LouvainError(f"graph {path!r} has no nodes")
    return g, labels


def _config(args, **settings):
    """The :class:`RunConfig` of the settings flags given in ``args``,
    with ``settings`` added."""
    given = {f.name: getattr(args, f.name) for f in fields(RunConfig)
             if hasattr(args, f.name)}
    return RunConfig(**given, **settings)


def _cmd_detect(args):
    cfg = _config(args)
    g, labels = _read_graph(args.graph)
    h = detect(g, cfg)
    write_partition(args.output or sys.stdout, h.flat, labels)
    if args.levels_out:
        with open(args.levels_out, "w", encoding="utf-8") as fh:
            fh.write(h.levels_json() + "\n")
    if args.summary_out:
        with open(args.summary_out, "w", encoding="utf-8") as fh:
            fh.write(h.to_json() + "\n")
    print(h.to_text(), file=sys.stderr)
    return 0


def _cmd_eval(args):
    crit = _config(args).criterion
    g, labels = _read_graph(args.graph)
    flat = read_partition(args.partition, labels)
    g = crit.pretreat(g)
    pairwise = crit.relational(g, flat)
    aggregated = crit.state_from_labels(g, flat).total()
    print(f"quality[pairwise]   = {pairwise:.12g}")
    print(f"quality[aggregated] = {aggregated:.12g}")
    if abs(pairwise - aggregated) > tolerance(g):
        raise LouvainError("evaluation paths disagree; partition or "
                           "graph state is inconsistent")
    return 0


def _cmd_optimum(args):
    crit = _config(args).criterion
    g, labels = _read_graph(args.graph)
    best, quality = exact_optimum(crit, crit.pretreat(g))
    best, kappa = compact_labels(best)
    print(f"optimum quality = {quality:.12g}   communities = {kappa}")
    write_partition(args.output or sys.stdout, best, labels)
    return 0


def _cmd_bench(args):
    if args.runs < 1:
        raise LouvainError(f"--runs must be at least 1, got {args.runs}")
    wanted = []
    for tok in args.criteria.split(","):
        tok = tok.strip()
        if tok == "all":
            wanted.extend(EXPERIMENT_CRITERIA)
        elif tok:
            wanted.append(tok)
    configs = [_config(args, criterion=crit_id) for crit_id in wanted]
    g, _ = _read_graph(args.graph)

    header = (f"{'criterion':<10} {'time(s)':>10} {'±':>8} "
              f"{'kappa':>8} {'±':>7} {'quality':>14} {'±':>10}")
    print(header)
    for cfg in configs:
        crit_id = cfg.criterion.id
        times, kappas, quals = [], [], []
        error = None
        for r in range(args.runs):
            try:
                h = detect(g, replace(cfg, seed=cfg.seed + r))
                times.append(h.elapsed)
                kappas.append(h.kappa_final)
                quals.append(h.quality)
            except LouvainError as exc:
                error = exc
                break
        if error is not None:
            print(f"{crit_id:<10} error: {error}")
            continue
        print(f"{crit_id:<10} {statistics.mean(times):>10.3f} "
              f"{statistics.pstdev(times):>8.3f} "
              f"{statistics.mean(kappas):>8.1f} "
              f"{statistics.pstdev(kappas):>7.1f} "
              f"{statistics.mean(quals):>14.4f} "
              f"{statistics.pstdev(quals):>10.4f}")
    return 0


def _add_settings(p, *flags):
    """Add these flags of :class:`RunConfig`'s fields to ``p``.  None has
    a default here, so a flag that is not given leaves the field's."""
    spec = {
        "--criterion": dict(help="criterion id (ng zc oz wc bm di du g pd)"),
        "--alpha": dict(type=float,
                        help="trade-off parameter for the oz criterion"),
        "--precision": dict(type=float,
                            help="minimum per-level quality improvement"),
        "--seed": dict(type=int),
        "--max-levels": dict(type=int),
    }
    for flag in flags:
        p.add_argument(flag, default=argparse.SUPPRESS, **spec[flag])


def build_parser():
    ap = argparse.ArgumentParser(
        prog="anylouvain",
        description="Louvain community detection with pluggable "
                    "quality criteria")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("detect", help="detect communities in a graph")
    p.add_argument("graph", help="edge list file ('-' reads stdin's bytes)")
    _add_settings(p, "--criterion", "--alpha", "--precision", "--seed",
                  "--max-levels")
    p.add_argument("--output", help="partition file (default: stdout)")
    p.add_argument("--levels-out", help="per-level JSON dump")
    p.add_argument("--summary-out", help="run summary as JSON")
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("eval", help="evaluate a partition file")
    p.add_argument("graph")
    p.add_argument("partition")
    _add_settings(p, "--criterion", "--alpha")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("optimum",
                       help="exact optimum by enumeration (at most 10 nodes)")
    p.add_argument("graph")
    _add_settings(p, "--criterion", "--alpha")
    p.add_argument("--output", help="partition file (default: stdout)")
    p.set_defaults(func=_cmd_optimum)

    p = sub.add_parser("bench", help="timing / community-count table")
    p.add_argument("graph")
    p.add_argument("--criteria", default="all",
                   help="comma-separated ids, or 'all'")
    _add_settings(p, "--alpha", "--seed", "--precision")
    p.add_argument("--runs", type=int, default=10)
    p.set_defaults(func=_cmd_bench, precision=5e-3)

    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (LouvainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
