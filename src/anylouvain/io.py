r"""Reading edge lists and writing partitions.

Edge list format: one edge per line, ``src dst [weight]``, whitespace
delimited; node labels are arbitrary non-whitespace tokens; ``#`` starts
a comment line; duplicate pairs are summed; ``src == dst`` is a
self-loop.  Partition format: ``label<TAB>community`` with community ids
dense from 0.  Labels survive round trips untouched; internal dense node
ids never appear in files.

Edge lists are read in blocks of whole lines.  A numpy scan of a block's
code points counts the tokens of each line, so no Python loop runs per
line or per edge.  A block whose lines are all ``src dst``, whose bytes
are all ASCII digits, `` ``, ``\t`` or ``\n``, and whose tokens are all
canonical decimals (no leading zero unless the token is ``0``, at most 18
digits) is parsed in C with one ``np.fromstring``, and only its distinct
labels meet the label dict.  Every other block is split into tokens
once.  Ids and ``Graph`` arrays are the same either way.
"""

from __future__ import annotations

import io
import itertools
import math

import numpy as np

from .errors import NegativeWeight, ParseError, UnknownLabel
from .graph import Graph, compact_labels

#: Bytes per block read from a path; a text file object is read
#: ``_BLOCK // 16 + 1`` lines at a time.
_BLOCK = 1 << 20

#: The code points ``str.isspace`` (and so ``str.split``) treats as
#: whitespace, written out so that import scans no Unicode table.
_SPACE = (9, 10, 11, 12, 13, 28, 29, 30, 31, 32, 133, 160, 5760, 8192,
          8193, 8194, 8195, 8196, 8197, 8198, 8199, 8200, 8201, 8202, 8232,
          8233, 8239, 8287, 12288)
#: ``bytes.translate`` table: 1 for an ASCII whitespace byte, else 0.
_ASCII_SPACE = bytes(c < 128 and c in _SPACE for c in range(256))


def _newlines(text):
    r"""Universal newlines: ``\r\n`` and ``\r`` become ``\n``."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def _path_blocks(path):
    """Yield ``(line_no, text)`` blocks of whole lines of a UTF-8 file.

    ``line_no`` is the number of the block's first line.  Bytes that do
    not decode raise :class:`ParseError` naming their line, after the
    lines before them have been yielded.
    """
    with open(path, "rb") as fh:
        line_no, rest = 1, b""
        while True:
            data = fh.read(_BLOCK)
            buf = rest + data
            if not buf:
                return
            # Cut after the last line end; a trailing \r may be half of
            # a \r\n, so it waits for the next read.
            cut = (max(buf.rfind(b"\n"), buf.rfind(b"\r", 0, len(buf) - 1))
                   + 1 if data else len(buf))
            buf, rest = buf[:cut], buf[cut:]
            try:
                text = _newlines(buf.decode("utf-8"))
            except UnicodeDecodeError as exc:
                head, error = _undecodable(line_no, exc)
                yield line_no, head
                raise error from None
            yield line_no, text
            line_no += text.count("\n")


def _undecodable(line_no, exc):
    r"""``(head, error)`` for the decode error ``exc`` in bytes whose
    first line is number ``line_no``: ``head`` is the text of the whole
    lines before the bad byte, and ``error`` the :class:`ParseError`
    naming the bad byte's line.  Line ends are counted after universal
    newline translation, so a lone ``\r`` ends a line."""
    head = _newlines(exc.object[:exc.start].decode("utf-8"))
    return head[:head.rfind("\n") + 1], ParseError(
        line_no + head.count("\n"), f"not UTF-8 text ({exc.reason})")


def _file_blocks(fh):
    """Yield ``(line_no, text)`` blocks of the lines a text file object
    hands out; a decode error raises :class:`ParseError` as in
    :func:`_path_blocks`.  The file object decodes a chunk before it
    hands out the chunk's lines, so the lines that share a chunk with a
    bad byte are never seen."""
    line_no = 1
    while True:
        lines = []  # extend() keeps the lines read before an error
        try:
            lines.extend(itertools.islice(fh, _BLOCK // 16 + 1))
        except UnicodeDecodeError as exc:
            yield line_no, _joined(lines)
            # The decoder fails on a whole chunk, which starts on the
            # line being read.
            raise _undecodable(line_no + len(lines), exc)[1] from None
        if not lines:
            return
        yield line_no, _joined(lines)
        line_no += len(lines)


def _joined(lines):
    r"""The text of ``lines``, in which each line ends at a ``\n``.

    A file object opened with ``newline=''`` hands out lines that may end
    in a lone ``\r``, and with ``newline='\r'`` or ``'\r\n'`` lines that
    may hold a ``\n``.  Only then, one Python step per line, does a
    ``\n`` follow each line and a ``\n`` inside a line become a space
    (both are whitespace to ``str.split``).  Other lines keep their text.
    """
    text = "".join(lines)
    if "\r" in text or text.count("\n") != len(lines) - (
            not text.endswith("\n")):
        text = "\n".join(line.removesuffix("\n").replace("\n", " ")
                         for line in lines) + "\n" * text.endswith("\n")
    return text


def _blocks(source):
    r"""Blocks of a path (read as UTF-8, universal newlines) or of a text
    file object.  Lines end at ``\n``."""
    if hasattr(source, "read"):
        return _file_blocks(source)
    return _path_blocks(source)


def _lines(source):
    """Yield ``(line_no, line)`` from a path or a text file object."""
    for line_no, text in _blocks(source):
        yield from zip(itertools.count(line_no), io.StringIO(text))


class _Ids(dict):
    """Label -> dense node id; a label gets the next id when first
    looked up, so ids follow first appearance."""

    def __missing__(self, label):
        self[label] = i = len(self)
        return i


def _numeric_ids(enc, cp, space, starts, ids):
    """The ids of the tokens of the ASCII block ``enc``, which begin at
    ``starts``, parsed in C as the module docstring states; None when the
    block does not qualify.  Only the distinct values, as ``str(v)`` in
    order of first appearance, meet ``ids``."""
    if enc.translate(None, b"0123456789 \t\n"):
        return None
    tail = ~space
    tail[:-1] &= space[1:]
    digits = np.flatnonzero(tail) + 1 - starts
    # At most 18 digits, and no leading "0" but the token "0" itself.
    if digits.max() > 18 or ((cp[starts] == 48) & (digits > 1)).any():
        return None
    vals = np.fromstring(enc, dtype=np.int64, sep=" ")
    n = vals.size
    if n != starts.size:
        return None
    top = int(vals.max())
    if top < 4 * n:  # values index an array of size max + 1
        uniq, idx = np.arange(top + 1), vals
    else:
        uniq, idx = np.unique(vals, return_inverse=True)
    lut = np.full(uniq.size, n)  # each value's first position
    np.minimum.at(lut, idx, np.arange(n))
    seen = np.flatnonzero(lut < n)
    seen = seen[np.argsort(lut[seen])]
    names = map(str, uniq[seen].tolist())
    lut[seen] = np.fromiter(map(ids.__getitem__, names), dtype=np.int64,
                            count=seen.size)
    return lut[idx]


def _parse_block(text, line_no, ids):
    """The edges of one block as ``(pairs, w)``: ``pairs`` holds the
    ids of ``src, dst`` of each edge in turn, ``w`` the weights.

    The block's first faulty line raises, as :func:`read_edge_list`
    describes.  ``line_no`` is the number of the block's first line.
    """
    enc = text.isascii() and text.encode("ascii")
    if enc:
        cp = np.frombuffer(enc, dtype=np.uint8)
        space = np.frombuffer(enc.translate(_ASCII_SPACE), dtype=bool)
    else:
        cp = np.frombuffer(text.encode("utf-32-le", "surrogatepass"),
                           dtype=np.uint32)
        space = np.isin(cp, _SPACE)
    start = ~space
    start[1:] &= space[:-1]
    starts = np.flatnonzero(start)  # where each token begins
    ends = np.flatnonzero(cp == 10)  # line k ends at ends[k]
    n_ends = ends.size
    if (starts.size == 2 * n_ends and "#" not in text
            and (starts[1::2] < ends).all()
            and (starts[2::2] > ends[:-1]).all()):
        # Every line is "src dst": line k holds tokens 2k and 2k + 1.
        pairs = (_numeric_ids(enc, cp, space, starts, ids)
                 if enc and starts.size else None)
        if pairs is None:
            tokens = text.split()
            pairs = np.fromiter(map(ids.__getitem__, tokens),
                                dtype=np.int64, count=len(tokens))
        return pairs, np.ones(n_ends)
    tokens = text.split()
    counts = np.bincount(np.searchsorted(ends, starts),
                         minlength=n_ends + 1)
    lead = np.cumsum(counts) - counts  # a line's first token
    lines = np.flatnonzero(counts)
    lines = lines[cp[starts[lead[lines]]] != 35]  # drop "#" lines
    bad = np.flatnonzero((counts[lines] < 2) | (counts[lines] > 3))
    bad_line = lines[bad[0]] if bad.size else None
    lines = lines[:bad[0]] if bad.size else lines
    seq = list(map(tokens.__getitem__,
                   (lead[lines, None] + (0, 1)).ravel().tolist()))
    w_lines = lines[counts[lines] == 3]
    w_tok = list(map(tokens.__getitem__, (lead[w_lines] + 2).tolist()))

    # Weights, then the earliest faulty line of any kind.
    vals = []
    try:
        vals.extend(map(float, w_tok))  # extend() keeps the good prefix
    except ValueError:
        pass
    w = np.array(vals, dtype=np.float64)
    odd = np.flatnonzero(~np.isfinite(w) | (w < 0))
    k = odd[0] if odd.size else len(vals)
    if k < len(w_tok):
        at = line_no + int(w_lines[k])
        if k == len(vals):
            raise ParseError(at, f"bad weight token {w_tok[k]!r}")
        if not math.isfinite(vals[k]):
            raise ParseError(at, f"weight {w_tok[k]!r} is not finite")
        raise NegativeWeight(f"line {at}: weight {vals[k]} is negative")
    if bad_line is not None:
        lo = ends[bad_line - 1] + 1 if bad_line else 0
        hi = ends[bad_line] + 1 if bad_line < n_ends else len(text)
        raise ParseError(line_no + int(bad_line),
                         f"expected 'src dst [weight]', got {text[lo:hi]!r}")

    wgt = np.ones(lines.size)
    wgt[np.searchsorted(lines, w_lines)] = w
    return np.fromiter(map(ids.__getitem__, seq), dtype=np.int64,
                       count=len(seq)), wgt


def read_edge_list(source):
    """Parse an edge list into ``(Graph, labels)``.

    ``source`` is a path (read as UTF-8 with universal newlines) or a
    text file object.  ``labels[i]`` is the original token of dense node
    id ``i``, assigned by first appearance.  Raises :class:`ParseError`
    (with the line number) on malformed lines, NaN or infinite weights
    and bytes that are not UTF-8, and :class:`NegativeWeight` on a
    negative weight; the first faulty line in the file is the one
    reported.
    """
    ids = _Ids()
    pairs, weights = [np.zeros(0, dtype=np.int64)], [np.zeros(0)]
    for line_no, text in _blocks(source):
        p, w = _parse_block(text, line_no, ids)
        pairs.append(p)
        weights.append(w)
    pairs = np.concatenate(pairs)
    labels = list(ids)
    return Graph.from_arrays(len(labels), pairs[0::2], pairs[1::2],
                             np.concatenate(weights)), labels


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

    A line whose first token starts with ``#`` is a comment unless that
    token is one of ``labels``.  Every node must appear exactly once;
    unknown labels raise :class:`UnknownLabel`, negative community ids
    :class:`ParseError`.  Community ids are compacted to ``0..kappa-1``.
    """
    ids = {name: i for i, name in enumerate(labels)}
    flat = np.full(len(labels), -1, dtype=np.int64)
    for line_no, line in _lines(source):
        parts = line.split()
        # An edge list's labels may start with "#" too.
        if not parts or (parts[0].startswith("#") and parts[0] not in ids):
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
        try:
            flat[ids[name]] = c
        except OverflowError:
            raise ParseError(line_no, f"community id {comm!r} does not "
                             "fit in 64 bits") from None
    if np.any(flat == -1):
        missing = [labels[i] for i in np.flatnonzero(flat == -1)[:5]]
        raise UnknownLabel(f"partition does not cover the graph; missing "
                           f"e.g. {missing}")
    flat, _ = compact_labels(flat)
    return flat
