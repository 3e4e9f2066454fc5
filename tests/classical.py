"""Classical Louvain: one level pass of Newman-Girvan modularity written
without the criterion contract, after Blondel et al. (2008, J. Stat.
Mech. P10008).  It is the external reference that ``one_pass`` for
``ng`` must match bit for bit.

It keeps ``one_pass``'s visit order, tie and spare rules and
``NewmanGirvan``'s gain in its float order, and nothing else of the
package: no ``Criterion``, no ``CriterionState``, no kept sums and no
quiet check.
"""

import numpy as np


def one_level(g, rng):
    """``(labels, sweeps, moves)`` of one modularity pass over ``g`` from
    singletons, the labels compacted as ``compact_labels`` does.

    Each sweep shuffles the visit order with ``rng`` and visits every
    node.  A visit sums the node's neighbour communities in a dict in row
    order, takes the node out and scores ``dw - deg[i] * tot[c] / m2``:
    its own community first, then the others by ascending id, each
    winning only with a strictly higher gain, then, unless the node
    vacated its own, the empty community that a move emptied last, else
    the lowest (community ``n``, one past the singletons, to begin with).
    Sweeps stop after one that moves nothing.
    """
    n, m2 = g.n, g.consts.two_m
    deg = g.degrees.tolist()
    indptr, nbr, wgt = g.indptr.tolist(), g.nbr.tolist(), g.wgt.tolist()
    part, tot, count = list(range(n)), deg + [0.0], [1] * n + [0]
    free = [n]  # the empty communities, the last emptied on top
    order = np.arange(n)
    sweeps = moves = 0
    moved = n > 0
    while moved:
        rng.shuffle(order)
        sweeps, moved = sweeps + 1, False
        for i in order.tolist():
            sums = {}
            for k in range(indptr[i], indptr[i + 1]):
                c = part[nbr[k]]
                sums[c] = sums.get(c, 0.0) + wgt[k]
            own = part[i]
            tot[own] -= deg[i]
            count[own] -= 1
            best, top = own, sums.get(own, 0.0) - deg[i] * tot[own] / m2
            for c in sorted(sums.keys() - {own}):
                gain = sums[c] - deg[i] * tot[c] / m2
                if gain > top:
                    best, top = c, gain
            spare = free[-1] if count[own] else None
            if spare is not None and 0.0 - deg[i] * tot[spare] / m2 > top:
                best = spare
            tot[best] += deg[i]
            count[best] += 1
            part[i] = best
            if best != own:
                moved, moves = True, moves + 1
                if best == spare:
                    free.pop()
                if count[own] == 0:
                    free.append(own)
    return np.unique(part, return_inverse=True)[1], sweeps, moves
