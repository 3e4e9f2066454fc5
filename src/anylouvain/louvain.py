"""The criterion-agnostic optimizer: local greedy sweeps plus the
hierarchical coarsen-and-repeat driver.

``one_pass`` repeatedly visits every node, takes it out of its community
and re-inserts it where the criterion's gain is highest; candidates are
the communities of its neighbors, its own community, and one empty
community (so communities can split).  ``detect`` alternates passes
with graph coarsening until a level stops improving the quality by more
than the configured precision.

A pass works on Python-list copies of the criterion state and the node
constants, made at its start and written back at its end, and scores
candidates with the criterion's gain (:meth:`Criterion.gain_fn`).  A
visit takes one of two branches by the length of the node's row:

- at most :data:`LONG_ROW` neighbours: a dict sums the neighbour
  communities and the scalar gain scores them one by one, with no numpy
  call;
- longer rows: ``np.bincount`` sums the communities, a sort orders the
  row's, and one call of the same gain over that index array scores
  them all, a fixed handful of numpy calls instead of a Python loop
  over the row and its candidates.

Both add a row's weights in row order and evaluate the same formula, so
a row gives bit-identical results on either branch.

A short row's dict of sums outlives its visit: the node keeps it until
one of its neighbours moves, and reuses it on later visits.  Each move
walks the mover's row and drops the dicts of its neighbours.  Rebuilt,
a dict would add the same row, in the same order, over the same
communities, so the kept one is equal to it bit for bit, and so are
every gain, move and quality.

The quiet check.  This is the one statement of its rules; the
docstrings of :func:`one_pass`, :class:`_Columns` and
:func:`_quiet_prefix` and the README refer to it.

- *What it does.*  One vectorized check (:func:`_quiet_prefix`) finds
  the longest prefix of a sweep's visit order in which no node would
  move and no visit would change the state, and the loop skips it; a
  sweep whose every node is certified moves nothing, still counts, and
  ends the pass.
- *When it runs.*  Only on a level with a row longer than
  :data:`LONG_ROW`, and only while ``n * kappa``, the (node x live
  community) block it scores, is at most the level's adjacency entries.
  It runs after each sweep's shuffle, and again after a move, on the
  rest of the order and from the state the move left, while the sweep's
  movers are sparse: more than :data:`_GAP` nodes of the order apart on
  average so far.
- *The three conditions.*  A node is certified only when its visit
  would be a no-op bit for bit: its neighbour-community sums equal a
  visit's (*same sums*); removing it and inserting it back restores its
  community's four accumulators, ``(x - y) + y == x`` (*same state*),
  so by induction the state stays that of the check's start; and its
  own community, taken without it, keeps a node and no candidate's gain
  beats it, all gains finite (*same decision*).  It uses the contract
  alone: the accumulators, the node constants and the criterion's gain.
- *Where the sums come from.*  The check's columns (:class:`_Columns`)
  are a snapshot of the live communities, built at a checking sweep
  when there are none and kept current by every move after it.  A move
  into a community without a column discards them: its sweep makes its
  remaining visits unchecked, and the next sweep whose gate holds builds
  fresh ones.  On a unit-weight level the columns hold a table of each
  node's neighbour count per column, exact in any order.  It is built
  only under the gate and has that build's ``kappa`` columns, so it
  holds at most one int32 per adjacency entry.  On other levels
  ``np.bincount`` adds each row's weights in row order, as a visit does.
- *What a check costs.*  On a level with a long row the state's numpy
  copy is current after every visit, for the long rows' gain, so a
  check starts at the cost of a few long visits, where short rows would
  cost tens.  Per node it then reads one row of the table, ~1 us on
  dense-ng's rows of ~350, or sums its row's entries, ~5 us, where a
  visit is ~30 us.  Its blocks double from :data:`_PROBE` nodes and read
  only their own nodes and rows, so a check that fails soon costs
  little however long the rest; one that fails at once still costs
  several visits, hence the :data:`_GAP` rule.  The gate holds on a
  dense level once its first sweep has merged the singletons: there the
  check saves the last sweep, which moves nothing, and a sweep that
  moves a few nodes visits little more than those.
"""

from __future__ import annotations

import json
import math
import operator
import time
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .criteria import _CELLS, Criterion, CriterionState, as_criterion
from .errors import ConfigError, SweepCapExceeded
from .graph import _CHUNK, Graph, _row_blocks, aggregate, compact_labels

__all__ = ["RunConfig", "Level", "Hierarchy", "one_pass", "detect",
           "compose_flat"]


@dataclass
class RunConfig:
    """Knobs of one detection run, and their one set of defaults.

    ``criterion`` is given as an id in any case or as a
    :class:`Criterion`, and holds the resolved criterion object
    (:func:`~anylouvain.criteria.as_criterion`), so a config that cannot
    run is refused here.  ``alpha`` is the criterion object's own alpha
    when it has one, else the one given.  ``precision`` is the minimum
    quality improvement (in the criterion's own units) a coarsening level
    must bring for the loop to continue.  ``seed`` seeds the shuffle of
    the node visit order before every sweep; two runs with equal config
    and graph produce identical results.
    """

    criterion: str | Criterion = "ng"
    alpha: float | None = None
    precision: float = 1e-6
    seed: int = 0
    max_levels: int | None = None

    def __post_init__(self):
        for name in ("seed", "max_levels", "precision", "alpha"):
            if isinstance(getattr(self, name), (bool, np.bool_)):
                raise ConfigError(
                    f"{name} must be a number, got {getattr(self, name)!r}")
        try:
            self.seed = operator.index(self.seed)
            if self.max_levels is not None:
                self.max_levels = operator.index(self.max_levels)
        except TypeError:
            raise ConfigError("seed and max_levels must be integers, got "
                              f"{self.seed!r}, {self.max_levels!r}") from None
        try:
            precision_ok = (math.isfinite(self.precision)
                            and self.precision > 0)
            alpha_ok = self.alpha is None or math.isfinite(self.alpha)
        except TypeError:
            raise ConfigError("precision and alpha must be real numbers, got "
                              f"{self.precision!r}, {self.alpha!r}") from None
        if not precision_ok:
            raise ConfigError(
                f"precision must be positive and finite, got {self.precision}")
        if not alpha_ok:
            raise ConfigError(f"alpha must be finite, got {self.alpha}")
        self.precision = float(self.precision)
        if self.max_levels is not None and self.max_levels < 1:
            raise ConfigError(
                f"max_levels must be at least 1, got {self.max_levels}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        self.criterion = as_criterion(self.criterion, self.alpha)
        # A criterion object runs at its own alpha, whatever alpha is given.
        self.alpha = getattr(self.criterion, "alpha", self.alpha)
        if self.alpha is not None:
            self.alpha = float(self.alpha)


@dataclass
class Level:
    """One coarsening level, as :func:`one_pass` returns it: the graph
    the pass ran on, the partition it ended in (compact ids
    ``0..kappa-1``), that partition's quality, and the pass's sweeps and
    moves."""

    graph: Graph
    labels: np.ndarray
    quality: float
    kappa: int
    sweeps: int
    moves: int
    #: Node visits the pass made: ``n * sweeps`` less the visits that
    #: :func:`one_pass`'s check proved would change nothing.
    visits: int | None = None
    #: Moves and visits of each sweep, in order; they sum to ``moves``
    #: and ``visits``.
    sweep_moves: tuple[int, ...] | None = None
    sweep_visits: tuple[int, ...] | None = None


@dataclass
class Hierarchy:
    """Result of a full run: every level, the composed flat partition of
    the original nodes, the :class:`RunConfig` the run used and why the
    run stopped: ``stop_reason`` is ``"no_moves"`` (the last pass moved
    nothing), ``"precision"`` (the last level raised the quality by at
    most ``precision``) or ``"max_levels"``.

    This is the run's only record.  :meth:`to_json` and :meth:`to_text`
    render the summary (``detect --summary-out`` and its stderr block),
    :meth:`levels_json` the ``detect --levels-out`` dump; the first two
    need ``config``, which :func:`detect` sets.
    """

    levels: list[Level] = field(default_factory=list)
    flat: np.ndarray | None = None
    kappa_final: int = 0
    elapsed: float = 0.0
    config: RunConfig | None = None
    stop_reason: str | None = None

    @property
    def quality(self):
        return self.levels[-1].quality

    def to_json(self):
        """The summary as JSON, keys in the README's documented order."""
        cfg = self.config
        return json.dumps({
            "criterion": cfg.criterion.id,
            "alpha": cfg.alpha,
            "seed": cfg.seed,
            "precision": cfg.precision,
            "levels": [_level_json(lv) for lv in self.levels],
            "stop_reason": self.stop_reason,
            "kappa_final": self.kappa_final,
            "quality": self.quality,
            "elapsed": self.elapsed,
        }, indent=2)

    def to_text(self):
        """The summary as a small human-readable block."""
        cfg = self.config
        lines = [
            f"criterion: {cfg.criterion.id}"
            + (f" (alpha={cfg.alpha})" if cfg.alpha is not None else ""),
            f"seed: {cfg.seed}   precision: {cfg.precision:g}",
            "level      n        m     kappa  sweeps    visits  quality",
        ]
        for idx, lv in enumerate(self.levels):
            lines.append(f"{idx:>5}  {lv.graph.n:>7}  "
                         f"{lv.graph.edge_count:>7}  {lv.kappa:>6}"
                         f"  {lv.sweeps:>6}  {lv.visits!s:>8}"
                         f"  {lv.quality:.6f}")
        lines.append(f"communities: {self.kappa_final}   "
                     f"quality: {self.quality:.6f}   "
                     f"elapsed: {self.elapsed:.3f}s")
        lines.append(f"stop_reason: {self.stop_reason}")
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
        """Per level as JSON: sizes, sweeps, visits (also per sweep, with
        the moves), quality and the membership of every original node at
        that depth (:meth:`memberships`)."""
        pairs = enumerate(zip(self.levels, self.memberships()))
        return json.dumps({"levels": [
            {"level": idx, **_level_json(lv),
             "membership": membership.tolist()}
            for idx, (lv, membership) in pairs]}, indent=2)


def _level_json(lv):
    """A level's keys in the summary and the levels dump."""
    return {"n": lv.graph.n, "m": lv.graph.edge_count, "quality": lv.quality,
            "kappa": lv.kappa, "sweeps": lv.sweeps, "visits": lv.visits,
            "sweep_moves": lv.sweep_moves, "sweep_visits": lv.sweep_visits}


#: Rows longer than this are scored in numpy, a fixed handful of calls
#: per visit, instead of a Python loop over the row and its candidates.
#: The loop costs a fixed amount per neighbour and per candidate, the
#: numpy calls a fixed amount per visit; measured through ``one_pass`` on
#: planted graphs the two break even near degree 48 (``pd``), 56
#: (``ng``) and 72 (``bm``), see BENCH_8.json.
LONG_ROW = 64

#: Nodes in the first block of :func:`_quiet_prefix`, so that a check
#: whose first nodes may move stops after a few numpy calls; each later
#: block is twice as long, up to the block budget.
_PROBE = 32

#: A move is followed by a check of the rest of its sweep only while the
#: sweep has gone more than this many nodes of its order per move so far.
#: A check that fails in its probe costs about six long visits (~0.12 ms
#: against ~20 us on unit-weight rows of ~120 entries, read from the
#: table), so where nodes move densely checking after every move made a
#: pass ~2x slower than never checking again.  Measured on planted graphs
#: of rows of ~100 entries, started from a coarse partition or with weak
#: structure, 8 had the lowest median of 4, 8, 16 and 32, and on dense-ng
#: all four were within ~5 % of every move; see BENCH_20/22.json.
_GAP = 8


def _short_rows(g):
    """Per node, ``(neighbours, weights)`` as Python lists for rows of at
    most ``LONG_ROW`` entries, ``None`` for longer rows.  On a unit-weight
    level every row shares one list of ones as long as the longest short
    row: a visit zips it with the row, and ``zip`` stops at the row's
    end."""
    row_len = np.diff(g.indptr)
    short = row_len <= LONG_ROW
    if not short.any():
        return [None] * g.n
    keep = slice(None) if short.all() else np.repeat(short, row_len)
    nbr = g.nbr[keep].tolist()
    unit = g.unit_weights
    if unit:
        ones = [1.0] * int(row_len[short].max())
    else:
        wgt = g.wgt[keep].tolist()
    rows = []
    lo = 0
    for length, is_short in zip(row_len.tolist(), short.tolist()):
        if is_short:
            hi = lo + length
            rows.append((nbr[lo:hi], ones if unit else wgt[lo:hi]))
            lo = hi
        else:
            rows.append(None)
    return rows


# Overflowing weights give inf/NaN gains on the numpy branch as in the
# scalar gain, silently; the quality check of ``total`` reports them.
@np.errstate(over="ignore", invalid="ignore")
def one_pass(g, cfg, st, rng=None):
    """Greedy local optimization on one graph level.

    ``st`` may hold any partition (:meth:`Criterion.state_from_labels`).
    Each sweep visits the nodes in an order ``rng`` shuffles anew; each
    visit removes the node and re-inserts it into the candidate of
    highest gain.  Candidates are scored in a fixed order, and a later
    one wins only with a strictly higher gain: the node's own community
    first (so ties keep it in place), then neighbouring communities by
    ascending id, then, unless the node just vacated its own, the spare:
    the empty slot of ``st`` that a move emptied last, or else its
    lowest empty slot.
    Sweeps repeat until one full sweep moves nothing; a pass still moving
    after ``10 * n`` sweeps raises :class:`SweepCapExceeded`.

    Returns the :class:`Level` of ``g``: the partition the pass ended
    in, in compact ids, its quality (:meth:`CriterionState.total`, which
    raises :class:`LouvainError` when it is NaN or infinite), and the
    sweeps, moves and visits made, also per sweep.  A sweep skips the
    nodes that the quiet check certifies, by the rules the module
    docstring states, so ``visits`` counts only the visits made.

    The pass runs on Python-list copies of the state and the node
    constants (:meth:`CriterionState.as_lists`), written back into ``st``
    when the pass ends (also when it raises), so ``st`` keeps the
    pass's state in its own slot ids.  A visit takes one of the
    two branches, short row or long row, that the module docstring
    states.
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
    nbr, wgt = g.nbr, g.wgt
    free = np.flatnonzero(st.sz == 0)[::-1].tolist()  # stack, lowest on top
    # A short row's neighbour-community sums, kept until a neighbour
    # moves; None where there are none to reuse.
    kept = [None] * n
    any_short = rows.count(None) < n
    if None in rows:
        indptr = g.indptr.tolist()  # read by long rows alone
        # st's arrays stay current slot by slot, for the vector gain and
        # the check.
        pairs = tuple(zip((st.in_w, st.tot, st.sz, st.aux),
                          (ls.in_w, ls.tot, ls.sz, ls.aux)))
        vgain = st.crit.gain_fn(st)
    else:
        pairs = ()

    cols = None  # the check's columns, kept while their snapshot holds
    sweep_moves, sweep_visits = [], []
    improved = n > 0
    try:
        while improved:
            if len(sweep_moves) >= 10 * max(n, 1):
                raise SweepCapExceeded(
                    f"no convergence after {len(sweep_moves)} sweeps; gain "
                    f"implementation for {st.crit.id!r} is suspect")
            improved = False
            rng.shuffle(order)
            start = 0
            # The module docstring's rule: a long row, and a (node x live
            # community) block no larger than the adjacency.
            check = pairs and n * (len(sz) - len(free)) <= g.nbr.size
            if check:
                cols = cols or _Columns(st)
                start = _quiet_prefix(g, st, order, free[-1], cols)
            moves, visits = 0, n - start
            rest = iter(order[start:].tolist())
            for i in rest:
                c_old = part[i]
                row = rows[i]
                if row is None:
                    lo, hi = indptr[i], indptr[i + 1]
                    comms = part_np.take(nbr[lo:hi])  # int32 ids
                    # bincount adds each community's weights in row
                    # order, as the dict below does.
                    sums = np.bincount(comms, wgt[lo:hi])
                    dw_old = float(sums[c_old]) if c_old < sums.size else 0.0
                    comms.sort()
                else:
                    sums = kept[i]
                    if sums is None:
                        sums = kept[i] = {}
                        for j, w in zip(*row):
                            c = part[j]
                            sums[c] = sums.get(c, 0.0) + w
                    dw_old = sums.get(c_old, 0.0)

                ls.remove(i, c_old, dw_old)
                for arr, lst in pairs:
                    arr[c_old] = lst[c_old]

                best, best_dw = c_old, dw_old
                top = gain(i, c_old, dw_old)
                if row is not None:
                    for c, dw in sums.items():
                        if c == c_old:
                            continue
                        x = gain(i, c, dw)
                        # Ties go to the lower id, never away from c_old.
                        if x > top or (x == top and c < best != c_old):
                            best, best_dw, top = c, dw, x
                else:
                    # Ascending ids: the first maximum is the lowest id,
                    # and c_old, taken without i, scores exactly top.
                    dws = sums[comms]
                    x = vgain(i, comms, dws)
                    k = x.argmax()
                    if x[k] > top:
                        best, best_dw, top = (int(comms[k]), float(dws[k]),
                                              float(x[k]))
                spare = free[-1] if sz[c_old] > 0 else -1
                if spare >= 0 and gain(i, spare, 0.0) > top:
                    best, best_dw = spare, 0.0

                ls.insert(i, best, best_dw)
                for arr, lst in pairs:
                    arr[best] = lst[best]

                if best != c_old:
                    # The neighbours' sums saw i in c_old: drop them.
                    if row is not None:
                        for j in row[0]:
                            kept[j] = None
                    elif any_short:
                        for j in nbr[indptr[i]:indptr[i + 1]].tolist():
                            kept[j] = None
                    part_np[i] = best
                    moves += 1
                    if best == spare:
                        free.pop()
                    if sz[c_old] == 0:
                        free.append(c_old)
                    if cols is not None and not cols.move(i, c_old, best):
                        cols = check = None
                    # While this sweep's movers are sparse, certify the
                    # rest again from the state as it is now, and skip
                    # the nodes that would stay put.
                    if check:
                        left = operator.length_hint(rest)
                        if left and n - left > _GAP * moves:
                            k = _quiet_prefix(g, st, order[n - left:],
                                              free[-1], cols)
                            visits -= k
                            next(islice(rest, k, k), None)
            sweep_moves.append(moves)
            sweep_visits.append(visits)
            improved = moves > 0
    finally:
        st.assign(ls)
    labels, kappa = compact_labels(st.part)
    return Level(g, labels, st.total(), kappa, len(sweep_moves),
                 sum(sweep_moves), sum(sweep_visits), tuple(sweep_moves),
                 tuple(sweep_visits))


class _Columns:
    """The columns of :func:`_quiet_prefix`'s (node x community) blocks,
    a snapshot of ``st``'s live communities in ascending order (see the
    module docstring): ``live[k]`` is the community of column ``k`` and
    ``of[c]`` the column of community ``c`` (-1 for none).  A node's
    column is ``of[st.part[i]]``: the pass writes each move into
    ``st.part`` before it checks.

    On a unit-weight level (:attr:`Graph.unit_weights`) ``table[i, k]``
    is also node ``i``'s count of neighbours in column ``k`` (int32),
    built one row range of about :data:`graph._CHUNK` entries at a time,
    so no edge-sized array is made.
    """

    def __init__(self, st):
        g = self.g = st.g
        live = self.live = np.flatnonzero(st.sz > 0)
        self.of = np.full(st.sz.size, -1, dtype=np.int64)
        self.of[live] = np.arange(live.size)
        kappa, self.table = live.size, None
        if g.unit_weights:
            node = self.of[st.part]
            self.table = np.zeros((g.n, kappa), dtype=np.int32)
            for r0, r1 in _row_blocks(g.indptr, _CHUNK):
                keys = node.take(g.nbr[g.indptr[r0]:g.indptr[r1]])
                keys += np.repeat(np.arange(0, (r1 - r0) * kappa, kappa),
                                  np.diff(g.indptr[r0:r1 + 1]))
                self.table[r0:r1] = np.bincount(
                    keys, minlength=(r1 - r0) * kappa).reshape(r1 - r0, kappa)
                del keys  # before the next block's take()

    def move(self, i, c_old, c):
        """Move node ``i`` from community ``c_old`` into ``c``: -1 and +1
        over its row in the table, which names each neighbour once.
        False, and nothing changed, when ``c`` has no column."""
        k = int(self.of[c])
        if k < 0:
            return False
        if self.table is not None:
            row = self.g.nbr[self.g.indptr[i]:self.g.indptr[i + 1]]
            self.table[row, self.of[c_old]] -= 1
            self.table[row, k] += 1
        return True


# A non-finite gain ends the prefix, and an emptied own community may
# divide by zero: neither is warned about.
@np.errstate(all="ignore")
def _quiet_prefix(g, st, order, spare, cols):
    """How many leading nodes of ``order``, the rest of a sweep's visit
    order, can be skipped: the length of the longest prefix in which,
    visited in turn from ``st``, no node would move and no visit would
    change ``st`` by a bit, under the module docstring's three
    conditions.

    ``spare`` is the empty community a visit would offer and ``cols``
    the :class:`_Columns` of ``st``.  Blocks of the order double from
    :data:`_PROBE` nodes, up to as many as keep each array of the block
    within :data:`criteria._CELLS` cells, one per row entry or per
    (node, column) pair.
    """
    live, of, table = cols.live, cols.of, cols.table
    crit, n, kappa = st.crit, order.size, live.size
    vgain = crit.gain_fn(st)
    lo, step = 0, _PROBE
    while lo < n:
        nodes = order[lo:lo + max(1, min(step, _CELLS // kappa))]
        if table is not None:
            count = table[nodes]
            sums = count.astype(np.float64)
        else:
            first = g.indptr[nodes]
            rl = g.indptr[nodes + 1] - first
            ends = np.cumsum(rl)  # the block's row entries up to each node
            m = max(1, int(ends.searchsorted(_CELLS, "right")))
            nodes, first, rl, ends = nodes[:m], first[:m], rl[:m], ends[:m]
            # The block's row entries, row after row, and their cell keys.
            at = np.repeat(first - (ends - rl), rl)
            at += np.arange(at.size)
            keys = np.repeat(np.arange(0, nodes.size * kappa, kappa), rl)
            keys += of[st.part[g.nbr[at]]]
            count = np.bincount(keys, minlength=nodes.size * kappa)
            sums = np.bincount(keys, g.wgt[at], minlength=count.size)
            del at, keys
            sums, count = sums.reshape(-1, kappa), count.reshape(-1, kappa)
        c_old, rows = st.part[nodes], np.arange(nodes.size)
        own_col = of[c_old]
        dw = sums[rows, own_col]
        removed, ok = [], True
        for acc, d in ((st.in_w, 2.0 * dw + g.loop[nodes]),
                       (st.tot, g.degrees[nodes]), (st.sz, g.size[nodes]),
                       (st.aux, g.aux[nodes])):
            acc = acc[c_old]
            removed.append(acc - d)
            ok &= (removed[-1] + d).view(np.int64) == acc.view(np.int64)
        own = crit.gain_fn(CriterionState(crit, g, None, *removed))(
            nodes, rows, dw)
        others = count > 0
        others[rows, own_col] = False
        x = vgain(nodes[:, None], live, sums)
        top = np.where(others, x, -np.inf).max(axis=1)
        fresh = vgain(nodes, spare, 0.0)
        quiet = (ok & (removed[2] > 0) & np.isfinite(own)
                 & np.isfinite(fresh) & (np.isfinite(x) | ~others).all(axis=1)
                 & (top <= own) & (fresh <= own))
        if not quiet.all():
            return lo + int(quiet.argmin())
        lo, step = lo + nodes.size, 2 * step
    return n


def detect(g0, cfg):
    """Full hierarchical optimization of ``g0`` under ``cfg``.

    ``g0`` is pretreated first when the criterion needs it; a graph
    already pretreated for it is kept as it is.  The levels that
    :func:`one_pass` returns are recorded until a pass moves nothing,
    the level's quality improvement drops to ``cfg.precision`` or below,
    or ``cfg.max_levels`` are recorded; ``Hierarchy.stop_reason`` names
    which.  A NaN or infinite quality raises :class:`LouvainError`.
    Returns the :class:`Hierarchy`; its first level holds the working
    level-0 graph, i.e. the pretreated one for ``wc``/``pd``, and its
    ``elapsed`` covers the pretreatment too.
    """
    t0 = time.perf_counter()
    crit = cfg.criterion
    rng = np.random.default_rng(cfg.seed)
    h = Hierarchy(config=cfg)
    g = crit.pretreat(g0)
    while True:
        lv = one_pass(g, cfg, crit.init(g), rng)
        h.levels.append(lv)
        h.stop_reason = (
            "no_moves" if lv.moves == 0
            else "precision" if (
                len(h.levels) > 1
                and lv.quality - h.levels[-2].quality <= cfg.precision)
            else "max_levels" if (cfg.max_levels is not None
                                  and len(h.levels) >= cfg.max_levels)
            else None)
        if h.stop_reason:
            break
        g = aggregate(g, lv.labels, lv.kappa)
    h.flat = compose_flat(h)
    h.kappa_final = h.levels[-1].kappa
    h.elapsed = time.perf_counter() - t0
    return h


def compose_flat(h):
    """Compose per-level partitions into original-node communities: the
    last of :meth:`Hierarchy.memberships`."""
    *_, flat = h.memberships()
    return flat.copy()
