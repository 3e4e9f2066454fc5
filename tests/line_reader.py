"""Reference edge-list reader: the line-by-line parse and graph build
that ``io.read_edge_list`` and ``Graph.from_arrays`` replaced.

Kept as the oracle of ``test_reader.py``: the block reader must return
the same labels and bit-identical ``Graph`` arrays, and fail with the
same exception on the same line.
"""

from __future__ import annotations

import itertools
import math
import re
from contextlib import nullcontext

import numpy as np
import scipy.sparse as sp

from anylouvain import Graph
from anylouvain.errors import LouvainError, NegativeWeight, ParseError


def lines(source):
    """Yield ``(line_no, line)`` from a path (read as UTF-8) or a text
    file object; bytes that do not decode raise :class:`ParseError`.  A
    U+FEFF that starts the first line, a byte-order mark, is dropped."""
    with (nullcontext(source) if hasattr(source, "read")
          else open(source, "r", encoding="utf-8")) as fh:
        count = itertools.count(1)
        try:
            for line_no, line in zip(count, fh):
                yield line_no, (line.removeprefix("\ufeff") if line_no == 1
                                else line)
        except UnicodeDecodeError as exc:
            line_no = next(count) - 1
            if fh is not source:
                # A path: count from the file's start, because the text
                # layer may hold back a lone \r that ends the last chunk
                # and is then in neither the lines nor ``exc.object``.
                with open(source, "rb") as raw:
                    try:
                        raw.read().decode("utf-8")
                    except UnicodeDecodeError as whole:
                        exc, line_no = whole, 1
            # Universal newlines: \r\n, a lone \r and \n end a line.
            head = exc.object[:exc.start].decode("utf-8")
            line_no += len(re.findall(r"\r\n?|\n", head))
            raise ParseError(line_no,
                             f"not UTF-8 text ({exc.reason})") from None


def graph_from_edges(n, edges):
    """One Python pass over ``(i, j, w)`` triples, then scipy COO -> CSR.

    Each edge enters the COO input as ``(i, j)`` directly followed by
    ``(j, i)``, so both rows of a pair add its duplicates in line order
    (scipy keeps the input order of a row's duplicates on rows of up to
    16 entries)."""
    srcs, dsts, ws = [], [], []
    loop = np.zeros(n, dtype=np.float64)
    for i, j, w in edges:
        w = float(w)
        if w < 0:
            raise NegativeWeight(f"edge ({i}, {j}) has weight {w}")
        if i == j:
            loop[i] += w
        else:
            srcs.append(i)
            dsts.append(j)
            ws.append(w)
    ws = np.asarray(ws, dtype=np.float64)
    if not (np.isfinite(ws).all() and np.isfinite(loop).all()):
        raise LouvainError("edge weights must be finite")
    rows = [v for pair in zip(srcs, dsts) for v in pair]
    cols = [v for pair in zip(dsts, srcs) for v in pair]
    a = sp.coo_matrix(
        (np.repeat(ws, 2), (np.asarray(rows, dtype=np.int64),
                            np.asarray(cols, dtype=np.int64))),
        shape=(n, n),
    ).tocsr()
    a.sum_duplicates()
    a.eliminate_zeros()
    return Graph(n, a.indptr, a.indices, a.data, loop,
                 np.ones(n, dtype=np.int64), np.zeros(n, dtype=np.float64))


def read_edge_list(source):
    """``(Graph, labels)``, one line at a time."""
    ids: dict[str, int] = {}
    edges = []
    for line_no, line in lines(source):
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
    return graph_from_edges(len(labels), edges), labels
