"""Edge list in, partition out: the anylouvain benchmark.

Usage::

    python3 bench/run.py --workload sparse-ng --seed 1 --seconds 20 --trace 0

``--workload all`` runs every workload in turn.  Run from anywhere; the
package is imported from the ``src`` directory next to ``bench``.

Each invocation draws one input per repetition from ``--seed`` (not
timed), then starts one fresh interpreter (``worker.py``) that imports
the package once and runs the repetitions one at a time, each with the
default ``RunConfig``.  The number of repetitions is ``--seconds``
divided by the workload's nominal repetition time, so it is fixed for a
given ``--seconds`` and the same on every commit.  Timings are the median
over repetitions; ``quality`` and ``recovered_frac`` are the mean, which
is deterministic for a given seed.  With ``--trace 1`` the per-layer figures
are reported instead (see ``worker.traced_detect``).

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is non-zero
when any repetition crashed or failed an output check.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Seconds from the start of a workload after which its worker is killed
#: and every repetition counted as failed, so a run ends within 180 s.
RUN_LIMIT_S = 170

# Why each workload, and what it exercises:
#   dense-ng   high degree (~350); the read dominates wall time, so parser
#              and CSR changes show here, hot-loop changes barely do.
#   sparse-ng  degree ~10; node visits dominate, so kernel and visit-queue
#              changes show here, parser changes do not.
#   sparse-pd  the sparse-ng inputs with a ratio criterion and a pretreat
#              step; most pass time sits on coarse levels.
#   exact-n9   the only user of oracle and the pairwise path; never runs
#              louvain.
# ``rep_s`` is the nominal cost of one repetition, input and checks
# included, on the reference machine in NOTES.md.
WORKLOADS = {
    "dense-ng": {"criterion": "ng", "rep_s": 6.0},
    "sparse-ng": {"criterion": "ng", "rep_s": 0.5},
    "sparse-pd": {"criterion": "pd", "rep_s": 0.8},
    "exact-n9": {"criterion": "ng", "rep_s": 3.0, "exact": True},
}

#: Aggregated as the mean over repetitions, which is deterministic for a
#: given seed; every other metric is the median.
MEAN_METRICS = ("quality", "recovered_frac")

# Planted partitions: dense has degree ~350 (~1.75M edges); sparse has
# groups of 100 with ~8 edges inside the group and ~2 across per node.
PLANTED = {
    "dense-ng": {"n": 10_000, "groups": 20, "p_in": 0.7, "p_out": 2e-4},
    "sparse-ng": {"n": 1_000, "groups": 10, "p_in": 8 / 99, "p_out": 2 / 900},
}
PLANTED["sparse-pd"] = PLANTED["sparse-ng"]
EXACT_N = 9


def build_inputs(name, seed, reps, work):
    """Write one edge list per repetition (and its planted groups) under
    ``work``, drawn from ``seed``."""
    import anylouvain as al
    from planted import planted_edges

    for rep in range(reps):
        sub = [seed, rep]
        wgt = truth = None
        if name == "exact-n9":
            g = _exact_graph(al, sub)
            rows = np.repeat(np.arange(g.n), np.diff(g.indptr))
            upper = rows < g.nbr
            src, dst, wgt = rows[upper], g.nbr[upper], g.wgt[upper]
        else:
            src, dst, truth = planted_edges(**PLANTED[name], seed=sub)
            np.save(work / f"truth-{rep}.npy", truth)
        _write_edges(work / f"input-{rep}.edges", src, dst, wgt)


def _exact_graph(al, seed):
    # Redraw until no node is isolated, so the edge list names all nodes
    # and the oracle enumerates Bell(EXACT_N) partitions.
    for k in range(1000):
        g = al.synth.random_graph(EXACT_N, 0.4, weighted=True,
                                  seed=[*seed, k])
        if np.all(g.degrees > 0):
            return g
    raise RuntimeError(f"no graph without isolated nodes for seed {seed}")


def _write_edges(path, src, dst, wgt=None):
    if wgt is None:
        text = "".join(f"{a} {b}\n" for a, b in zip(src.tolist(),
                                                     dst.tolist()))
    else:
        text = "".join(f"{a} {b} {w!r}\n" for a, b, w in
                       zip(src.tolist(), dst.tolist(), wgt.tolist()))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.flush()
        # Write back now, so that no disk flush of the inputs runs while
        # the worker is timed.
        os.fsync(fh.fileno())


def worker_env():
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": str(SRC),
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    })
    return env


def run_worker(spec, reps, work, trace, timeout):
    """Run the worker once; returns its per-repetition records, with an
    ``errors`` list on each, or raises ``RuntimeError`` when it crashed."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--work", str(work),
           "--reps", str(reps), "--criterion", spec["criterion"]]
    if spec.get("exact"):
        cmd.append("--exact")
    if trace:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd, env=worker_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"worker killed after {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exit {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    try:
        out = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise RuntimeError(f"worker printed no result: {proc.stdout[-500:]}"
                           ) from None
    if not Path(out["anylouvain"]).resolve().is_relative_to(SRC):
        raise RuntimeError(f"worker imported {out['anylouvain']}, "
                           f"not the package under {SRC}")
    for rec in out["reps"]:
        rec["peak_rss_mb"] = out["peak_rss_mb"]
        figures = [v for k, v in rec.items() if k not in ("errors", "layers")]
        figures += list(rec.get("layers", {}).values())
        if not all(math.isfinite(v) for v in figures):
            rec["errors"].append(f"non-finite metric in {rec}")
    return out["reps"]


def repetitions(spec, seconds, trace):
    reps = max(3, round(seconds / spec["rep_s"]))
    # A traced repetition solves twice (untraced, then traced).
    return max(2, reps // 2) if trace else reps


def run_workload(name, seed, seconds, trace, units):
    """Run one workload; returns the result object for the last line.

    ``units`` maps each metric to report to its unit.
    """
    deadline = time.monotonic() + RUN_LIMIT_S
    spec = WORKLOADS[name]
    reps = repetitions(spec, seconds, trace)
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=ROOT / ".bench_work"))
    try:
        build_inputs(name, seed, reps, work)
        try:
            records = run_worker(spec, reps, work, trace,
                                 max(1.0, deadline - time.monotonic()))
        except RuntimeError as exc:
            records = [{"errors": [str(exc)]}] * reps
        for rep, rec in enumerate(records):
            for err in rec["errors"]:
                print(f"{name} rep {rep}: FAILED: {err}", file=sys.stderr)
        results = [rec for rec in records if not rec["errors"]]
        if trace and name == "sparse-ng" and results:
            networkx_reference(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {}
    for key, unit in units.items() if results else ():
        vals = [(r["layers"] if trace else r)[key] for r in results]
        agg = statistics.fmean if key in MEAN_METRICS else statistics.median
        metrics[key] = {"value": agg(vals), "unit": unit}
    failed = len(records) - len(results)
    return {"correct": failed == 0, "attempted": len(records),
            "failed": failed, "metrics": metrics}


def networkx_reference(work):
    """networkx ``louvain_communities`` on the first sparse-ng input, next
    to anylouvain's partition of it; printed, never gated."""
    try:
        import networkx as nx
    except ImportError:
        print("reference: networkx not installed, skipped")
        return
    import anylouvain as al
    g, labels = al.read_edge_list(work / "input-0.edges")
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    rows = np.repeat(np.arange(g.n), np.diff(g.indptr))
    G.add_edges_from(zip(rows.tolist(), g.nbr.tolist()))
    t0 = time.perf_counter()
    comms = nx.community.louvain_communities(G, seed=0)
    nx_s = time.perf_counter() - t0
    ours = al.read_partition(work / "partition-0.tsv", labels)
    groups = [np.flatnonzero(ours == c).tolist()
              for c in range(int(ours.max()) + 1)]
    print("reference: " + json.dumps({
        "networkx": nx.__version__,
        "networkx_louvain_s": nx_s,
        "networkx_communities": len(comms),
        "networkx_modularity": nx.community.modularity(G, comms),
        "anylouvain_communities": len(groups),
        "anylouvain_modularity": nx.community.modularity(G, groups),
    }))


def environment():
    """Machine and library versions recorded with each result."""
    import scipy
    model, llc = "unknown", "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), model)
        caches = Path("/sys/devices/system/cpu/cpu0/cache")
        levels = {int((d / "level").read_text()): (d / "size").read_text()
                  for d in caches.glob("index*")}
        llc = levels[max(levels)].strip()
    except (OSError, ValueError, StopIteration):
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": model,
            "llc": llc, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__}


def _seed(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be non-negative")
    return value


def main(argv=None):
    ap = argparse.ArgumentParser(description="anylouvain benchmark")
    ap.add_argument("--workload", required=True,
                    choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=_seed, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "anylouvain" / "__init__.py").is_file():
        print(f"error: no anylouvain sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    print("env: " + json.dumps(environment()))

    if args.workload != "all":
        res = run_workload(args.workload, args.seed, args.seconds,
                           bool(args.trace), units)
        print(json.dumps(res))
        return 0 if res["correct"] else 1
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        res = run_workload(name, args.seed, args.seconds, bool(args.trace),
                           units)
        print(f"{name}: " + json.dumps(res))
        total["correct"] = total["correct"] and res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        total["metrics"].update({f"{name}/{key}": m
                                 for key, m in res["metrics"].items()})
    print(json.dumps(total))
    return 0 if total["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
