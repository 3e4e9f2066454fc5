"""Reading edge lists, writing partitions, and run summaries.

Edge list format: one edge per line, ``src dst [weight]``, whitespace
delimited; node labels are arbitrary non-whitespace tokens; ``#`` starts
a comment line; duplicate pairs are summed; ``src == dst`` is a
self-loop.  Partition format: ``label<TAB>community`` with community ids
dense from 0.  Labels survive round trips untouched; internal dense node
ids never appear in files.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import NegativeWeight, ParseError, UnknownLabel
from .graph import Graph, compact_labels


def _lines(source):
    if hasattr(source, "read"):
        yield from source
    else:
        with open(source, "r", encoding="utf-8") as fh:
            yield from fh


def read_edge_list(source):
    """Parse an edge list into ``(Graph, labels)``.

    ``source`` is a path or a file-like object.  ``labels[i]`` is the
    original token of dense node id ``i``, assigned by first appearance.
    Raises :class:`ParseError` (with the line number) on malformed lines
    and NaN or infinite weights, and :class:`NegativeWeight` on a
    negative weight.
    """
    ids: dict[str, int] = {}
    edges = []
    for line_no, line in enumerate(_lines(source), start=1):
        if line.lstrip().startswith("#"):
            continue
        parts = line.split()
        if not parts:
            continue
        if len(parts) not in (2, 3):
            raise ParseError(line_no,
                             f"expected 'src dst [weight]', got {line!r}")
        if len(parts) == 3:
            try:
                w = float(parts[2])
            except ValueError:
                raise ParseError(line_no,
                                 f"bad weight token {parts[2]!r}") from None
            if not math.isfinite(w):
                raise ParseError(line_no,
                                 f"weight {parts[2]!r} is not finite")
        else:
            w = 1.0
        if w < 0:
            raise NegativeWeight(f"line {line_no}: weight {w} is negative")
        u = ids.setdefault(parts[0], len(ids))
        v = ids.setdefault(parts[1], len(ids))
        edges.append((u, v, w))
    labels = list(ids)
    return Graph.from_edges(len(labels), edges), labels


def write_partition(target, flat, labels):
    """Write ``label<TAB>community`` lines, one per node, in id order."""
    def _emit(fh):
        for i, name in enumerate(labels):
            fh.write(f"{name}\t{int(flat[i])}\n")

    if hasattr(target, "write"):
        _emit(target)
    else:
        with open(target, "w", encoding="utf-8") as fh:
            _emit(fh)


def read_partition(source, labels):
    """Read a partition file back against a graph's ``labels``.

    Every node must appear exactly once; unknown labels raise
    :class:`UnknownLabel`.  Community ids are compacted to ``0..kappa-1``.
    """
    ids = {name: i for i, name in enumerate(labels)}
    flat = np.full(len(labels), -1, dtype=np.int64)
    for line_no, line in enumerate(_lines(source), start=1):
        if line.lstrip().startswith("#"):
            continue
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 2:
            raise ParseError(line_no,
                             f"expected 'label<TAB>community', got {line!r}")
        name, comm = parts
        if name not in ids:
            raise UnknownLabel(f"line {line_no}: node {name!r} is not in "
                               "the graph")
        if flat[ids[name]] != -1:
            raise UnknownLabel(f"line {line_no}: node {name!r} listed twice")
        try:
            flat[ids[name]] = int(comm)
        except ValueError:
            raise ParseError(line_no,
                             f"bad community id {comm!r}") from None
    if np.any(flat == -1):
        missing = [labels[i] for i in np.flatnonzero(flat == -1)[:5]]
        raise UnknownLabel(f"partition does not cover the graph; missing "
                           f"e.g. {missing}")
    flat, _ = compact_labels(flat)
    return flat


@dataclass
class LevelStats:
    n: int
    m: int
    quality: float
    kappa: int
    sweeps: int


@dataclass
class RunSummary:
    """Structured record of one detection run.

    Serialized to JSON by :meth:`to_json` (stable field order) and to a
    small human-readable block by :meth:`to_text`.
    """

    criterion: str
    alpha: float | None
    seed: int
    precision: float
    levels: list[LevelStats] = field(default_factory=list)
    kappa_final: int = 0
    quality: float = 0.0
    elapsed: float = 0.0

    def to_json(self):
        return json.dumps(asdict(self), indent=2)

    def to_text(self):
        lines = [
            f"criterion: {self.criterion}"
            + (f" (alpha={self.alpha})" if self.alpha is not None else ""),
            f"seed: {self.seed}   precision: {self.precision:g}",
            "level      n        m     kappa  sweeps  quality",
        ]
        for idx, lv in enumerate(self.levels):
            lines.append(f"{idx:>5}  {lv.n:>7}  {lv.m:>7}  {lv.kappa:>6}"
                         f"  {lv.sweeps:>6}  {lv.quality:.6f}")
        lines.append(f"communities: {self.kappa_final}   "
                     f"quality: {self.quality:.6f}   "
                     f"elapsed: {self.elapsed:.3f}s")
        return "\n".join(lines)


def write_summary(h, cfg):
    """Condense a :class:`~anylouvain.louvain.Hierarchy` into a
    :class:`RunSummary`."""
    return RunSummary(
        criterion=cfg.criterion,
        alpha=cfg.alpha,
        seed=cfg.seed,
        precision=cfg.precision,
        levels=[LevelStats(lv.graph.n, lv.graph.edge_count, lv.quality,
                           lv.kappa, lv.sweeps) for lv in h.levels],
        kappa_final=h.kappa_final,
        quality=h.quality,
        elapsed=h.elapsed,
    )
