"""Reference edge-list reader: the line-by-line parse that
``io.read_edge_list`` replaced, with the graph built one Python step
per edge by ``conftest.reference_csr``.

Kept as the oracle of ``test_reader.py``: the block reader must return
the same labels and bit-identical ``Graph`` arrays, and fail with the
same exception on the same line.
"""

from __future__ import annotations

import io
import math
import re
from contextlib import nullcontext

from anylouvain.errors import NegativeWeight, ParseError

from conftest import reference_csr


def lines(source):
    r"""Yield ``(line_no, line)`` of a path or a binary or text file
    object (one whose ``read`` returns ``str``), by one rule for all
    three.

    The content is the source's bytes; a text object's are its lines
    joined and encoded to UTF-8, a lone surrogate kept as its three
    bytes.  It is split with universal newlines: ``\n``, ``\r\n`` and a
    lone ``\r`` end a line, whatever lines a text object hands out.  A
    U+FEFF that starts it, a byte-order mark, is dropped.  Bytes that
    do not decode raise :class:`ParseError` on their line, after the
    lines before it.  So does a text object's own decode error, after
    the lines it handed out: it decodes a chunk before it hands out the
    chunk's lines.
    """
    failed = None
    with (nullcontext(source) if hasattr(source, "read")
          else open(source, "rb")) as fh:
        if isinstance(fh.read(0), str):
            handed = []
            try:
                handed.extend(fh)
            except UnicodeDecodeError as exc:
                failed = exc
            data = "".join(handed).encode("utf-8", "surrogatepass")
            head = data + (failed.object[:failed.start] if failed else b"")
        else:
            data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        failed, head = exc, data[:exc.start]
        data = head[:max(head.rfind(b"\n"), head.rfind(b"\r")) + 1]
    text = re.sub(r"\r\n?", "\n", data.decode("utf-8"))
    yield from enumerate(io.StringIO(text.removeprefix("\ufeff")), 1)
    if failed:
        line_no = 1 + len(re.findall(r"\r\n?|\n", head.decode("utf-8")))
        raise ParseError(line_no, f"not UTF-8 text ({failed.reason})")


def read_edge_list(source):
    """``(graph, labels)``, one line at a time; the graph is
    :func:`conftest.reference_csr`'s, one Python step per edge."""
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
    return reference_csr(len(labels), edges), labels
