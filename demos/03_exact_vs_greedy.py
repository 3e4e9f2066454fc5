#!/usr/bin/env python3
"""Greedy hierarchical search versus the enumerated optimum.

On graphs small enough to enumerate every set partition, the greedy
engine can be scored exactly: it must never beat the true optimum (the
table raises if it does), it usually attains it, and its result is
usually a level-0 local optimum, where no single node can move to raise
the quality.  This is the table that tests/data/attainment.json pins.
"""

from anylouvain import oracle, synth

table = oracle.attainment_table(synth.small_graphs(120, seed=7))
print(f"{'criterion':<10} {'attained optimum':>17} {'largest gap':>12} "
      f"{'local optima':>13}")
print("\n".join(f"{cid:<10} {row.hits:>13}/{row.runs:<3} "
                f"{row.max_gap:>12.4f} {row.local_optima:>9}/{row.runs}"
                for cid, row in table.items()))
print("\n(gaps are relative to the optimum; oz runs at alpha 0.3, and wc"
      "\n on the unweighted half of the graphs only)")
