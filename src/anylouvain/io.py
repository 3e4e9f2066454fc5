"""Reading edge lists and writing partitions.

Edge list format: one edge per line, ``src dst [weight]``, whitespace
delimited; node labels are arbitrary non-whitespace tokens; ``#`` starts
a comment line; duplicate pairs are summed; ``src == dst`` is a
self-loop.  Partition format: ``label<TAB>community`` with community ids
dense from 0.  Labels survive round trips untouched; internal dense node
ids never appear in files.
"""

from __future__ import annotations

import itertools
import math
from contextlib import nullcontext

import numpy as np

from .errors import NegativeWeight, ParseError, UnknownLabel
from .graph import Graph, compact_labels


def _lines(source):
    """Yield ``(line_no, line)`` from a path (read as UTF-8) or a text
    file object; bytes that do not decode raise :class:`ParseError`."""
    with (nullcontext(source) if hasattr(source, "read")
          else open(source, "r", encoding="utf-8")) as fh:
        count = itertools.count(1)
        try:
            yield from zip(count, fh)
        except UnicodeDecodeError as exc:
            # ``zip`` drew the failing line's number before ``fh`` raised.
            # The decoder fails on a whole chunk, which starts on that
            # line; the chunk's newlines before the bad byte give the
            # exact line.
            line_no = (next(count) - 1
                       + exc.object.count(b"\n", 0, exc.start))
            raise ParseError(line_no,
                             f"not UTF-8 text ({exc.reason})") from None


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
    for line_no, line in _lines(source):
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
    :class:`UnknownLabel`, negative community ids :class:`ParseError`.
    Community ids are compacted to ``0..kappa-1``.
    """
    ids = {name: i for i, name in enumerate(labels)}
    flat = np.full(len(labels), -1, dtype=np.int64)
    for line_no, line in _lines(source):
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
            c = int(comm)
        except ValueError:
            raise ParseError(line_no,
                             f"bad community id {comm!r}") from None
        if c < 0:  # -1 marks an unset node above
            raise ParseError(line_no, f"community id {comm!r} is negative")
        flat[ids[name]] = c
    if np.any(flat == -1):
        missing = [labels[i] for i in np.flatnonzero(flat == -1)[:5]]
        raise UnknownLabel(f"partition does not cover the graph; missing "
                           f"e.g. {missing}")
    flat, _ = compact_labels(flat)
    return flat
