"""Exact brute force for small graphs: enumerate every partition, find
the true optimum of a criterion, and re-evaluate single moves from
scratch.  Everything here goes through the pairwise evaluation path, so
it stays independent of the incremental bookkeeping it is used to check.
All Bell(n) partitions are built at once (and once per n) as a table of
growth strings and scored ``_BLOCK`` rows per batched ``relational``
call, up to n = 10.
"""

from __future__ import annotations

import functools

import numpy as np

from .criteria import as_criterion
from .errors import TooLarge
from .graph import SENTINEL

#: Bell numbers B(0)..B(10): number of set partitions of n elements.
BELL_NUMBERS = (1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975)

_BLOCK = 1024  # partitions scored per batched pairwise call


@functools.lru_cache(maxsize=None)
def _growth_table(n):
    """Every restricted-growth string of length ``n``, one per row, in
    lexicographic order: each step repeats every prefix once per label it
    admits next (0 up to one past its largest) and appends them.  Raises
    :class:`TooLarge` unless ``n <= 10``.  Built once per ``n`` and
    read-only, since every caller shares it."""
    top = len(BELL_NUMBERS) - 1
    if n > top:
        raise TooLarge(f"partition enumeration capped at n={top}, got n={n}")
    table = np.zeros((1, min(n, 1)), dtype=np.int8)
    peak = np.zeros(1, dtype=np.int64)  # largest label of each prefix
    for _ in range(1, n):
        reps = peak + 2
        col = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
        table = np.column_stack([np.repeat(table, reps, axis=0),
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
    return (row.astype(np.int64) for row in _growth_table(n))


def exact_optimum(criterion, g0, *, alpha=None):
    """Best partition of ``g0`` by exhaustive enumeration.

    Returns ``(labels, quality)``; ties go to the first partition in
    enumeration order, and ``quality`` is the single-partition
    ``relational`` value of the winner.  ``g0`` must be level 0 and
    pretreated if the criterion needs it; above 10 nodes it raises
    :class:`TooLarge`.
    """
    crit = as_criterion(criterion, alpha)
    table = _growth_table(g0.n)
    best, best_q = 0, -np.inf
    for lo in range(0, len(table), _BLOCK):
        q = crit.relational(g0, table[lo:lo + _BLOCK])
        k = int(np.argmax(q))
        if q[k] > best_q:
            best, best_q = lo + k, q[k]
    labels = table[best].astype(np.int64)
    return labels, crit.relational(g0, labels)


def delta_oracle(criterion, g0, labels, i, c_new, *, alpha=None):
    """Quality change of moving node ``i`` to community ``c_new``,
    computed by full re-evaluation of both partitions."""
    crit = as_criterion(criterion, alpha)
    labels = np.asarray(labels, dtype=np.int64)
    if labels[i] == SENTINEL:
        raise ValueError("node must belong to a community before the move")
    after = labels.copy()
    after[i] = c_new
    before_q, after_q = crit.relational(g0, np.stack([labels, after]))
    return float(after_q - before_q)
