#!/usr/bin/env python3
"""The five-operation contract a criterion must honor, step by step.

Walks one node move on a toy graph and shows the two bookkeeping
guarantees everything else rests on:

1. the scaled gain predicts the exact quality change (up to the
   criterion's fixed scale factor), and
2. the accumulator total always equals the literal pairwise sum.
"""

import numpy as np

from anylouvain import Graph, as_criterion, delta_oracle, relational_total

# Two tight squares joined by one bridge edge.
g = Graph.from_edges(8, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1),
                         (0, 2, 1), (4, 5, 1), (5, 6, 1), (6, 7, 1),
                         (7, 4, 1), (4, 6, 1), (3, 4, 1)])
labels = np.array([0, 0, 0, 0, 1, 1, 1, 1])

for cid in ("ng", "zc", "pd"):
    crit = as_criterion(cid)
    gw = crit.pretreat(g)          # identity for ng/zc, rescaling for pd
    st = crit.state_from_labels(gw, labels)

    print(f"== {crit.label} ({cid}) ==")
    print(f"quality of the 2-block partition: {st.total():.6f}")
    print(f"pairwise re-evaluation:           "
          f"{relational_total(crit, gw, labels):.6f}")

    # Move the bridge node 3 across: remove, score candidates, compare
    # against a full recount of both partitions.  dws[C] is d_w(3, C),
    # node 3's edge weight into community C.
    lo, hi = gw.indptr[3], gw.indptr[4]
    dws = np.bincount(labels[gw.nbr[lo:hi]], weights=gw.wgt[lo:hi])
    st.remove(3, 0, dws[0])
    stay, move = st.gain(3, 0, dws[0]), st.gain(3, 1, dws[1])
    st.insert(3, 0, dws[0])
    predicted = crit.gain_scale * (move - stay)
    actual = delta_oracle(crit, gw, labels, 3, 1)
    print(f"moving node 3 across the bridge: gain diff {move - stay:+.6f} "
          f"x scale {crit.gain_scale:g} = {predicted:+.6f}")
    print(f"exact quality change:            {actual:+.6f}\n")
