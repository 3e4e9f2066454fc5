"""Louvain community detection with pluggable quality criteria.

The greedy multi-level optimizer is decoupled from the quality function:
any criterion implementing the init / remove / insert / gain / total
contract plugs in unchanged.  Nine criteria ship with the package
(``ng zc oz wc bm di du g pd``), each paired with an independent
pairwise evaluator, plus an exact brute-force oracle for small graphs.

>>> from anylouvain import datasets, RunConfig, detect
>>> g, labels = datasets.karate_club()
>>> h = detect(g, RunConfig(criterion="ng", seed=1))
>>> h.kappa_final
4
"""

from . import datasets, synth
from .criteria import (
    CRITERIA,
    EXPERIMENT_CRITERIA,
    LINEAR_CRITERIA,
    Criterion,
    as_criterion,
    relational_total,
)
from .errors import (
    ConfigError,
    LouvainError,
    NegativeWeight,
    NodeAlreadyPlaced,
    NodeNotInCommunity,
    NotPluggable,
    ParseError,
    SweepCapExceeded,
    TooLarge,
    UnknownCommunity,
    UnknownLabel,
    WeightedInputNotSupported,
    ZeroDegreeNode,
    ZeroEdgeMass,
)
from .graph import (
    Graph,
    aggregate,
    compact_labels,
    singleton_labels,
)
from .io import (
    read_edge_list,
    read_partition,
    write_partition,
)
from .louvain import (
    Hierarchy,
    Level,
    RunConfig,
    compose_flat,
    detect,
    one_pass,
)
from .oracle import (
    BELL_NUMBERS,
    delta_oracle,
    enumerate_partitions,
    exact_optimum,
)

__version__ = "0.1.0"
