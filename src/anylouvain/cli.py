"""Command-line interface: detect / eval / optimum / bench.

Graph inputs are edge-list files ("-" reads stdin).  The criterion id and
alpha are validated before any file is touched.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time

from .criteria import EXPERIMENT_CRITERIA, as_criterion
from .errors import LouvainError
from .graph import compact_labels
from .io import read_edge_list, read_partition, write_partition
from .louvain import RunConfig, detect
from .oracle import exact_optimum

_AGREE_TOL = 1e-9


def _read_graph(path):
    if path == "-":
        return read_edge_list(sys.stdin)
    return read_edge_list(path)


def _config(args):
    return RunConfig(
        criterion=args.criterion,
        alpha=args.alpha,
        precision=args.precision,
        seed=args.seed,
        shuffle_nodes=not args.no_shuffle,
        max_levels=args.max_levels,
    )


def _cmd_detect(args):
    as_criterion(args.criterion, args.alpha)  # validate before I/O
    cfg = _config(args)
    g, labels = _read_graph(args.graph)
    if g.n == 0:
        raise LouvainError(f"graph {args.graph!r} has no nodes")
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
    crit = as_criterion(args.criterion, args.alpha)
    g, labels = _read_graph(args.graph)
    flat = read_partition(args.partition, labels)
    g = crit.pretreat(g)
    pairwise = crit.relational(g, flat)
    aggregated = crit.state_from_labels(g, flat).total()
    print(f"quality[pairwise]   = {pairwise:.12g}")
    print(f"quality[aggregated] = {aggregated:.12g}")
    if abs(pairwise - aggregated) > _AGREE_TOL * max(1.0, abs(pairwise)):
        raise LouvainError("evaluation paths disagree; partition or "
                           "graph state is inconsistent")
    return 0


def _cmd_optimum(args):
    crit = as_criterion(args.criterion, args.alpha)
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
    for crit_id in wanted:
        as_criterion(crit_id, args.alpha)  # validate before I/O
    g, _ = _read_graph(args.graph)

    header = (f"{'criterion':<10} {'time(s)':>10} {'±':>8} "
              f"{'kappa':>8} {'±':>7} {'quality':>14} {'±':>10}")
    print(header)
    for crit_id in wanted:
        times, kappas, quals = [], [], []
        error = None
        for r in range(args.runs):
            cfg = RunConfig(criterion=crit_id, alpha=args.alpha,
                            precision=args.precision, seed=args.seed + r,
                            shuffle_nodes=not args.no_shuffle)
            try:
                t0 = time.perf_counter()
                h = detect(g, cfg)
                times.append(time.perf_counter() - t0)
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


def _add_common(p, *, precision):
    p.add_argument("--criterion", default="ng",
                   help="criterion id (ng zc oz wc bm di du g pd)")
    p.add_argument("--alpha", type=float, default=None,
                   help="trade-off parameter for the oz criterion")
    p.add_argument("--precision", type=float, default=precision,
                   help="minimum per-level quality improvement")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-shuffle", action="store_true",
                   help="visit nodes in file order instead of shuffling")
    p.add_argument("--max-levels", type=int, default=None)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="anylouvain",
        description="Louvain community detection with pluggable "
                    "quality criteria")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("detect", help="detect communities in a graph")
    p.add_argument("graph", help="edge list file ('-' for stdin)")
    _add_common(p, precision=1e-6)
    p.add_argument("--output", help="partition file (default: stdout)")
    p.add_argument("--levels-out", help="per-level JSON dump")
    p.add_argument("--summary-out", help="run summary as JSON")
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("eval", help="evaluate a partition file")
    p.add_argument("graph")
    p.add_argument("partition")
    p.add_argument("--criterion", default="ng")
    p.add_argument("--alpha", type=float, default=None)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("optimum",
                       help="exact optimum by enumeration (at most 10 nodes)")
    p.add_argument("graph")
    p.add_argument("--criterion", default="ng")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--output", help="partition file (default: stdout)")
    p.set_defaults(func=_cmd_optimum)

    p = sub.add_parser("bench", help="timing / community-count table")
    p.add_argument("graph")
    p.add_argument("--criteria", default="all",
                   help="comma-separated ids, or 'all'")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--precision", type=float, default=5e-3)
    p.add_argument("--no-shuffle", action="store_true")
    p.set_defaults(func=_cmd_bench)

    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (LouvainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
