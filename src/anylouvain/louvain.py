"""The criterion-agnostic optimizer: local greedy sweeps plus the
hierarchical coarsen-and-repeat driver.

``one_pass`` repeatedly visits every node, takes it out of its community
and re-inserts it where the criterion's gain is highest; candidates are
the communities of its neighbors, its own community, and one empty
community (so communities can split).  ``run`` alternates passes with
graph coarsening until a level stops improving the quality by more than
the configured precision.

A pass works on Python-list copies of the criterion state and the node
constants, made at its start and written back at its end, and scores
candidates with the criterion's gain (:meth:`Criterion.gain_fn`).  A
visit takes one of two branches by the length of the node's row:

- at most :data:`LONG_ROW` neighbours: a dict sums the neighbour
  communities and the scalar gain scores them one by one, with no numpy
  call;
- longer rows: ``np.bincount`` sums the communities, a sort finds the
  distinct ones, and one call of the same gain over an index array
  scores them all, a fixed handful of numpy calls instead of a Python
  loop over the row and its candidates.

Both add a row's weights in row order and evaluate the same formula, so
a row gives bit-identical results on either branch.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .criteria import as_criterion
from .errors import ConfigError, SweepCapExceeded
from .graph import Graph, aggregate, compact_labels

__all__ = ["RunConfig", "Level", "Hierarchy", "one_pass", "run", "detect",
           "compose_flat"]


@dataclass
class RunConfig:
    """Knobs of one detection run.

    ``precision`` is the minimum quality improvement (in the criterion's
    own units) a coarsening level must bring for the loop to continue.
    ``seed`` drives the node visit order, re-shuffled before every sweep;
    two runs with equal config and graph produce identical results.
    """

    criterion: str = "ng"
    alpha: float | None = None
    precision: float = 1e-6
    seed: int = 0
    shuffle_nodes: bool = True
    max_levels: int | None = None

    def __post_init__(self):
        if not (math.isfinite(self.precision) and self.precision > 0):
            raise ConfigError(
                f"precision must be positive and finite, got {self.precision}")
        if self.max_levels is not None and self.max_levels < 1:
            raise ConfigError(
                f"max_levels must be at least 1, got {self.max_levels}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")


@dataclass
class Level:
    """One coarsening level: the graph it ran on, the partition the pass
    produced (compact ids) and the quality after the pass."""

    graph: Graph
    labels: np.ndarray
    quality: float
    kappa: int
    sweeps: int
    moves: int


@dataclass
class Hierarchy:
    """Result of a full run: every level, the composed flat partition of
    the original nodes and the :class:`RunConfig` the run used.

    This is the run's only record.  :meth:`to_json` and :meth:`to_text`
    render the summary (``detect --summary-out`` and its stderr block),
    :meth:`levels_json` the ``detect --levels-out`` dump; the first two
    need ``config``, which :func:`run` sets.
    """

    levels: list[Level] = field(default_factory=list)
    flat: np.ndarray | None = None
    kappa_final: int = 0
    elapsed: float = 0.0
    config: RunConfig | None = None

    @property
    def quality(self):
        return self.levels[-1].quality

    def to_json(self):
        """The summary as JSON, keys in the README's documented order."""
        cfg = self.config
        return json.dumps({
            "criterion": cfg.criterion,
            "alpha": cfg.alpha,
            "seed": cfg.seed,
            "precision": cfg.precision,
            "levels": [{"n": lv.graph.n, "m": lv.graph.edge_count,
                        "quality": lv.quality, "kappa": lv.kappa,
                        "sweeps": lv.sweeps} for lv in self.levels],
            "kappa_final": self.kappa_final,
            "quality": self.quality,
            "elapsed": self.elapsed,
        }, indent=2)

    def to_text(self):
        """The summary as a small human-readable block."""
        cfg = self.config
        lines = [
            f"criterion: {cfg.criterion}"
            + (f" (alpha={cfg.alpha})" if cfg.alpha is not None else ""),
            f"seed: {cfg.seed}   precision: {cfg.precision:g}",
            "level      n        m     kappa  sweeps  quality",
        ]
        for idx, lv in enumerate(self.levels):
            lines.append(f"{idx:>5}  {lv.graph.n:>7}  "
                         f"{lv.graph.edge_count:>7}  {lv.kappa:>6}"
                         f"  {lv.sweeps:>6}  {lv.quality:.6f}")
        lines.append(f"communities: {self.kappa_final}   "
                     f"quality: {self.quality:.6f}   "
                     f"elapsed: {self.elapsed:.3f}s")
        return "\n".join(lines)

    def memberships(self):
        """Yield, level by level, the community of every original node
        at that depth of the hierarchy (per-level partitions composed)."""
        if not self.levels:
            raise ValueError("hierarchy has no levels")
        flat = self.levels[0].labels
        yield flat
        for level in self.levels[1:]:
            flat = level.labels[flat]
            yield flat

    def levels_json(self):
        """Per level as JSON: sizes, sweeps, quality and the membership
        of every original node at that depth (:meth:`memberships`)."""
        pairs = enumerate(zip(self.levels, self.memberships()))
        return json.dumps({"levels": [
            {"level": idx, "n": lv.graph.n, "m": lv.graph.edge_count,
             "kappa": lv.kappa, "sweeps": lv.sweeps, "quality": lv.quality,
             "membership": membership.tolist()}
            for idx, (lv, membership) in pairs]}, indent=2)


class PassResult(NamedTuple):
    labels: np.ndarray
    sweeps: int
    moves: int


#: Rows longer than this are scored in numpy, a fixed handful of calls
#: per visit, instead of a Python loop over the row and its candidates.
#: The loop costs a fixed amount per neighbour and per candidate, the
#: numpy calls a fixed amount per visit; measured through ``one_pass`` on
#: planted graphs the two break even near degree 48 (``pd``), 56
#: (``ng``) and 72 (``bm``), see BENCH_8.json.
LONG_ROW = 64


def _short_rows(g):
    """Per node, ``(neighbours, weights)`` as Python lists for rows of at
    most ``LONG_ROW`` entries, ``None`` for longer rows."""
    row_len = np.diff(g.indptr)
    short = row_len <= LONG_ROW
    keep = np.repeat(short, row_len)
    nbr, wgt = g.nbr[keep].tolist(), g.wgt[keep].tolist()
    rows = []
    lo = 0
    for length, is_short in zip(row_len.tolist(), short.tolist()):
        if is_short:
            hi = lo + length
            rows.append((nbr[lo:hi], wgt[lo:hi]))
            lo = hi
        else:
            rows.append(None)
    return rows


# Overflowing weights give inf/NaN gains on the numpy branch as in the
# scalar gain, silently; the quality check of ``total`` reports them.
@np.errstate(over="ignore", invalid="ignore")
def one_pass(g, cfg, st, rng=None):
    """Greedy local optimization on one graph level.

    ``st`` must be a freshly initialized state (all-singleton partition).
    Nodes are visited in (re-)shuffled order; each visit removes the node
    and re-inserts it into the candidate community of highest gain.
    Candidates are scored in a fixed order, and a later one wins only with
    a strictly higher gain: the node's own community first (so ties keep
    it in place), then neighbouring communities by ascending id, then one
    empty community unless the node just vacated its own.  Sweeps repeat
    until one full sweep moves nothing; a pass still moving after
    ``10 * n`` sweeps raises :class:`SweepCapExceeded`.  Returns a
    :class:`PassResult`.

    The pass runs on Python-list copies of the state and the node
    constants (:meth:`CriterionState.as_lists`), written back into ``st``
    when the pass ends (also when it raises).  A visit takes one of two
    branches:

    - a row of at most :data:`LONG_ROW` neighbours sums its neighbour
      communities in a dict and scores them one by one with the
      criterion's scalar gain;
    - a longer row sums them with ``np.bincount``, finds the distinct
      ones by a sort, and scores all but the own community with one call
      of the same gain over an index array; the first maximum wins if it
      beats the own community's gain.  ``st``'s numpy accumulators feed
      that call; on a graph with a long row each visit writes the slots
      it changed back into them.

    Both branches add a row's weights in row order and evaluate the same
    formula, so the result is bit-identical whichever branch a row takes.
    """
    n = g.n
    order = np.arange(n)
    if rng is None:
        rng = np.random.default_rng(cfg.seed)

    ls = st.as_lists()
    part, sz = ls.part, ls.sz
    gain = st.crit.gain_fn(ls)
    rows = _short_rows(g)
    part_np = st.part  # kept current for the long rows' numpy lookups
    indptr, nbr, wgt = g.indptr.tolist(), g.nbr, g.wgt
    free = [n]  # stack of empty community ids; slot n starts unused
    if None in rows:
        # st's arrays stay current slot by slot for the vector gain.
        pairs = tuple(zip((st.in_w, st.tot, st.sz, st.aux),
                          (ls.in_w, ls.tot, ls.sz, ls.aux)))
        vgain = st.crit.gain_fn(st)
    else:
        pairs = ()

    sweeps = 0
    total_moves = 0
    improved = n > 0
    try:
        while improved:
            if sweeps >= 10 * max(n, 1):
                raise SweepCapExceeded(
                    f"no convergence after {sweeps} sweeps; gain "
                    f"implementation for {st.crit.id!r} is suspect")
            improved = False
            if cfg.shuffle_nodes:
                rng.shuffle(order)
            for i in order.tolist():
                c_old = part[i]
                row = rows[i]
                if row is None:
                    lo, hi = indptr[i], indptr[i + 1]
                    comms = part_np[nbr[lo:hi]]
                    # bincount adds each community's weights in row
                    # order, as the dict below does.
                    sums = np.bincount(comms, wgt[lo:hi])
                    dw_old = float(sums[c_old]) if c_old < sums.size else 0.0
                    comms.sort()
                    keep = comms != c_old
                    keep[1:] &= comms[1:] != comms[:-1]
                    cands = comms[keep]
                else:
                    sums = {}
                    for j, w in zip(*row):
                        c = part[j]
                        sums[c] = sums.get(c, 0.0) + w
                    dw_old = sums.pop(c_old, 0.0)

                ls.remove(i, c_old, dw_old)

                best, best_dw = c_old, dw_old
                top = gain(i, c_old, dw_old)
                if row is not None:
                    for c, dw in sums.items():
                        x = gain(i, c, dw)
                        # Ties go to the lower id, never away from c_old.
                        if x > top or (x == top and c < best != c_old):
                            best, best_dw, top = c, dw, x
                elif cands.size:
                    # Ascending ids: the first maximum is the lowest id.
                    dws = sums[cands]
                    x = vgain(i, cands, dws)
                    k = x.argmax()
                    if x[k] > top:
                        best, best_dw, top = (int(cands[k]), float(dws[k]),
                                              float(x[k]))
                spare = free[-1] if sz[c_old] > 0 else -1
                if spare >= 0 and gain(i, spare, 0.0) > top:
                    best, best_dw = spare, 0.0

                ls.insert(i, best, best_dw)
                for arr, lst in pairs:
                    arr[c_old] = lst[c_old]
                    arr[best] = lst[best]

                if best != c_old:
                    part_np[i] = best
                    improved = True
                    total_moves += 1
                    if best == spare:
                        free.pop()
                    if sz[c_old] == 0:
                        free.append(c_old)
            sweeps += 1
    finally:
        st.assign(ls)
    return PassResult(st.part.copy(), sweeps, total_moves)


def run(g0, cfg):
    """Full hierarchical optimization of ``g0`` under ``cfg``.

    The graph must already be pretreated when the criterion requires it
    (see :func:`detect` for the turnkey version).  Levels are recorded
    until a pass moves nothing or the level's quality improvement drops
    to ``cfg.precision`` or below.  A level whose quality is NaN or
    infinite raises :class:`LouvainError` (:meth:`CriterionState.total`).
    """
    crit = as_criterion(cfg.criterion, cfg.alpha)
    rng = np.random.default_rng(cfg.seed)
    t0 = time.perf_counter()
    h = Hierarchy(config=cfg)
    g = g0
    prev_q = None
    while True:
        st = crit.init(g)
        res = one_pass(g, cfg, st, rng)
        quality = st.total()
        labels, kappa = compact_labels(res.labels)
        h.levels.append(Level(g, labels, quality, kappa,
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
        g = aggregate(g, labels, kappa)
    h.flat = compose_flat(h)
    h.kappa_final = int(h.flat.max()) + 1 if h.flat.size else 0
    h.elapsed = time.perf_counter() - t0
    return h


def detect(g0, cfg):
    """Pretreat (when the criterion needs it) and run.

    Returns the :class:`Hierarchy`; its first level holds the working
    level-0 graph, i.e. the pretreated one for ``wc``/``pd``.
    """
    crit = as_criterion(cfg.criterion, cfg.alpha)
    return run(crit.pretreat(g0), cfg)


def compose_flat(h):
    """Compose per-level partitions into original-node communities: the
    last of :meth:`Hierarchy.memberships`."""
    *_, flat = h.memberships()
    return flat.copy()
