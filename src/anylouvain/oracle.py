"""Exact brute force for small graphs: enumerate every partition, find
the true optimum of a criterion, and re-evaluate single moves from
scratch.  Everything here goes through the pairwise evaluation path, so
it stays independent of the incremental bookkeeping it is used to check.
All Bell(n) partitions are built at once (and once per n) as one table
of growth strings, one column per partition and one row per node, up to
n = 10.  :func:`attainment_table` scores the greedy optimizer against
both: the optimum and the single-node moves of :func:`improving_move`.

A criterion of :data:`LINEAR_CRITERIA` is affine in the pair indicator,
so :func:`exact_optimum` scores every partition from its
:func:`pair_coefficients`, comparing the table's rows two at a time, and
re-scores only the near-best ones; any other criterion is scored
``_BLOCK`` partitions per batched ``relational`` call.  The coefficients
and the returned quality both come from ``relational`` alone, so neither
path reads the incremental bookkeeping.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from .criteria import CRITERIA, LINEAR_CRITERIA, as_criterion, tolerance
from .errors import LouvainError, TooLarge, WeightedInputNotSupported
from .graph import SENTINEL
from .louvain import RunConfig, detect

#: Bell numbers B(0)..B(10): number of set partitions of n elements.
BELL_NUMBERS = (1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975)

_BLOCK = 1024  # partitions scored per batched pairwise call


@functools.lru_cache(maxsize=None)
def _growth_table(n):
    """Every restricted-growth string of length ``n``, one per column, in
    lexicographic order, so row ``i`` holds node ``i``'s label in every
    partition: each step repeats every prefix once per label it admits
    next (0 up to one past its largest) and appends them.  Raises
    :class:`TooLarge` unless ``n <= 10``.  Built once per ``n``, C-ordered
    and read-only, since every caller shares it."""
    top = len(BELL_NUMBERS) - 1
    if n > top:
        raise TooLarge(f"partition enumeration capped at n={top}, got n={n}")
    table = np.zeros((min(n, 1), 1), dtype=np.int8)
    peak = np.zeros(1, dtype=np.int64)  # largest label of each prefix
    for _ in range(1, n):
        reps = peak + 2
        col = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
        table = np.vstack([np.repeat(table, reps, axis=1),
                           col.astype(np.int8)])
        peak = np.maximum(np.repeat(peak, reps), col)
    table.flags.writeable = False
    return table


def enumerate_partitions(n):
    """Yield every set partition of ``n`` nodes exactly once.

    Partitions come out as restricted-growth label arrays: node 0 always
    gets community 0 and each new community id is one past the largest id
    seen so far, which makes the labeling canonical.  There are Bell(n)
    of them, so ``n`` is capped at 10; the cap is checked by this call,
    before any partition is built.
    """
    return (col.astype(np.int64) for col in _growth_table(n).T)


def pair_coefficients(criterion, g0):
    """``(q0, c)``: the ``relational`` quality of the all-singleton
    partition of ``g0`` and, per pair ``i < j`` in ``np.triu_indices(n,
    1)`` order, how much joining only that pair changes it, from one
    batched call.  For a criterion affine in the pair indicator, a
    partition's quality is ``q0 + sum(c[ij] * [t_i == t_j])``."""
    crit = as_criterion(criterion)
    n = g0.n
    i, j = np.triu_indices(n, 1)
    parts = np.tile(np.arange(n), (len(i) + 1, 1))
    parts[np.arange(1, len(i) + 1), j] = i
    q = crit.relational(g0, parts)
    with np.errstate(over="ignore"):
        return q[0], q[1:] - q[0]


def exact_optimum(criterion, g0):
    """Best partition of ``g0`` by exhaustive enumeration.

    Returns ``(labels, quality)``; ties go to the first partition in
    enumeration order, and ``quality`` is the single-partition
    ``relational`` value of the winner.  ``g0`` must be level 0 and
    pretreated if the criterion needs it; above 10 nodes it raises
    :class:`TooLarge`.

    The candidates are every partition, except for a built-in criterion
    of :data:`LINEAR_CRITERIA` (exactly its class, not a subclass): its
    partitions are scored from :func:`pair_coefficients`, and the
    candidates are those within :func:`~anylouvain.criteria.tolerance` of
    the top score (every partition if a coefficient or score is not
    finite).  The candidates are scored by ``relational`` and the first
    best wins, so the result is the brute force's to the bit.  Raises
    :class:`LouvainError` when the winner's quality is off its affine
    score by more than that tolerance: the criterion is then not affine.
    """
    crit = as_criterion(criterion)
    table = _growth_table(g0.n)
    cand, score = range(table.shape[1]), None
    if type(crit) in {CRITERIA[cid] for cid in LINEAR_CRITERIA}:
        q0, c = pair_coefficients(crit, g0)
        score = np.full(table.shape[1], q0)
        with np.errstate(over="ignore", invalid="ignore"):
            for cij, i, j in zip(c, *np.triu_indices(g0.n, 1)):
                np.add(score, cij, out=score, where=table[i] == table[j])
        # A pair's own partition scores q0 + c[ij], so finite scores imply
        # finite coefficients.
        if np.isfinite(score).all():
            cand = np.flatnonzero(score >= score.max() - tolerance(g0))
        else:
            score = None
    best, best_q = 0, -np.inf
    for lo in range(0, len(cand), _BLOCK):
        q = crit.relational(g0, table[:, cand[lo:lo + _BLOCK]].T)
        k = int(np.argmax(q))
        if q[k] > best_q:
            best, best_q = cand[lo + k], q[k]
    labels = table[:, best].astype(np.int64)
    quality = crit.relational(g0, labels)
    if score is not None and abs(quality - score[best]) > tolerance(g0):
        raise LouvainError(f"{crit.id}: quality {quality!r} of the optimum "
                           f"is not its affine score {float(score[best])!r}")
    return labels, quality


def delta_oracle(criterion, g0, labels, i, c_new):
    """Quality change of moving node ``i`` to community ``c_new``,
    computed by full re-evaluation of both partitions."""
    crit = as_criterion(criterion)
    labels = np.asarray(labels, dtype=np.int64)
    if labels[i] == SENTINEL:
        raise ValueError("node must belong to a community before the move")
    after = labels.copy()
    after[i] = c_new
    before_q, after_q = crit.relational(g0, np.stack([labels, after]))
    return float(after_q - before_q)


def improving_move(criterion, g0, labels):
    """The first single-node move that raises the quality of ``labels``
    on the small level-0 graph ``g0`` by more than its
    :func:`~anylouvain.criteria.tolerance`, as ``(node, community)``, or
    None when ``labels`` is a level-0 local optimum.

    The moves are the ones a local-move pass offers: node ``i`` into the
    community of a neighbour or into an empty one (id one past the
    largest).  They are tried node by node, each node's targets in
    ascending id, and scored in one batched ``relational`` call.
    """
    crit = as_criterion(criterion)
    labels = np.asarray(labels, dtype=np.int64)
    empty = int(labels.max(initial=-1)) + 1
    moves = [(i, c) for i in range(g0.n) for c in sorted(
        {empty, *labels[g0.nbr[g0.indptr[i]:g0.indptr[i + 1]]].tolist()}
        - {int(labels[i])})]
    if not moves:
        return None
    node, comm = np.array(moves).T
    after = np.repeat(labels[None], len(moves), axis=0)
    after[np.arange(len(moves)), node] = comm
    q0 = crit.relational(g0, labels)
    up = np.flatnonzero(crit.relational(g0, after) - q0 > tolerance(g0))
    return moves[up[0]] if up.size else None


class Attainment(NamedTuple):
    """One criterion's row of :func:`attainment_table`."""

    runs: int
    hits: int
    max_gap: float
    local_optima: int


def attainment_table(graphs):
    """Per criterion id, an :class:`Attainment` of :func:`detect` with
    the default :class:`RunConfig` on each of the small level-0
    ``graphs``, pretreated here; a graph the criterion refuses as
    weighted is skipped, and ``oz`` runs at alpha 0.3.

    A run hits when its quality is within the graph's
    :func:`~anylouvain.criteria.tolerance` of the enumerated optimum; its
    gap is ``(optimum - quality) / |optimum|`` (the bare difference for
    an optimum of 0); it is a local optimum when :func:`improving_move`
    finds no move from its partition.  A run that beats the optimum by
    more than that tolerance raises :class:`LouvainError`: the
    evaluation paths then disagree.
    """
    table = {}
    for cid in CRITERIA:
        cfg = RunConfig(criterion=cid, alpha=0.3)  # only oz reads alpha
        crit = cfg.criterion
        runs = hits = local = 0
        max_gap = 0.0
        for g in graphs:
            try:
                g = crit.pretreat(g)
            except WeightedInputNotSupported:
                continue
            _, best = exact_optimum(crit, g)
            h = detect(g, cfg)
            miss, tol = best - h.quality, tolerance(g)
            if miss < -tol:
                raise LouvainError(f"{cid}: run quality {h.quality!r} "
                                   f"beats the optimum {best!r}")
            runs += 1
            hits += miss <= tol
            max_gap = max(max_gap, miss / (abs(best) or 1.0))
            local += improving_move(crit, g, h.flat) is None
        table[cid] = Attainment(runs, hits, max_gap, local)
    return table
