r"""Reading edge lists and writing partitions.

Edge list format: one edge per line, ``src dst [weight]``, whitespace
delimited; node labels are arbitrary non-whitespace tokens; ``#`` starts
a comment line; duplicate pairs are summed; ``src == dst`` is a
self-loop.  Partition format: ``label<TAB>community`` with community ids
dense from 0.  Labels survive round trips untouched; internal dense node
ids never appear in files.

Both files are read from a path, a binary or a text file object by one
rule: their bytes (a text object's lines encoded back to UTF-8) are
decoded as UTF-8 in lines that end at ``\n``, ``\r\n`` or a lone
``\r``; a leading U+FEFF is dropped; bytes that are not UTF-8, and so a
text object's lone surrogates, raise :class:`ParseError` on their line.
A text object decodes a chunk before it hands out the chunk's lines, so
its own decode error is reported before a faulty line in that chunk.

Edge lists are read in blocks of whole lines.  A numpy scan of a block's
code points counts the tokens of each line, so no Python loop runs per
line or per edge; on an ASCII block it is one ``bytes.translate`` into
byte classes (:data:`_CLASS`), whose line ends also number the lines.  A
block whose lines are all ``src dst``, whose bytes are all ASCII digits,
`` ``, ``\t`` or ``\n``, and whose tokens are all canonical decimals (no
leading zero unless the token is ``0``, at most 18 digits) is parsed in
C with one ``np.fromstring``, and only its distinct labels meet the
label dict.  Every other block is split into tokens once.  Ids and
``Graph`` arrays are the same either way.  The ids the reader makes are
valid and its weights are checked per block, so the graph build does
not check them again.
"""

from __future__ import annotations

import io
import itertools
import math

import numpy as np

from .errors import NegativeWeight, ParseError, TooLarge, UnknownLabel
from .graph import NODE_LIMIT, _from_pairs, compact_labels

#: Bytes per read of a path or a binary file object; a text file object
#: hands over ``_BLOCK // 16 + 1`` lines at a time.
_BLOCK = 1 << 20

#: The code points ``str.isspace`` (and so ``str.split``) treats as
#: whitespace, written out so that import scans no Unicode table.
_SPACE = (9, 10, 11, 12, 13, 28, 29, 30, 31, 32, 133, 160, 5760, 8192,
          8193, 8194, 8195, 8196, 8197, 8198, 8199, 8200, 8201, 8202, 8232,
          8233, 8239, 8287, 12288)
#: ``bytes.translate`` table of byte classes: 0 an ASCII digit, 1 `` `` or
#: ``\t``, 3 ``\n``, 5 other ASCII whitespace, 4 anything else.  Bit 0
#: marks whitespace, and classes below 4 are the bytes of a numeric block.
_CLASS = bytes(0 if 48 <= c <= 57 else 1 if c in (9, 32) else 3 if c == 10
               else 5 if c < 128 and c in _SPACE else 4 for c in range(256))


def _newlines(text):
    r"""Universal newlines: ``\r\n`` and ``\r`` become ``\n``."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def _reads(source):
    r"""The bytes of ``source`` in pieces, the last one ``b""``.

    A path or a binary file object is read ``_BLOCK`` bytes at a time.
    A text file object (one whose ``read`` returns ``str``) hands over
    its lines in batches, encoded to UTF-8 with a lone surrogate kept as
    its three bytes, which do not decode.  When the object's own decoder
    fails, a ``b""`` follows the lines it handed out, and then the error
    is raised.
    """
    if not hasattr(source, "read"):
        with open(source, "rb") as fh:
            yield from _reads(fh)
        return
    text, data = isinstance(source.read(0), str), None
    while data != b"":
        if text:
            lines = []  # extend() keeps the lines read before an error
            try:
                lines.extend(itertools.islice(source, _BLOCK // 16 + 1))
            except UnicodeDecodeError:
                yield "".join(lines).encode("utf-8", "surrogatepass")
                yield b""
                raise
            data = "".join(lines).encode("utf-8", "surrogatepass")
        else:
            data = source.read(_BLOCK)
        yield data


def _undecodable(exc):
    r"""The text of the whole lines before the bad byte of the decode
    error ``exc``, after universal newline translation, so a lone ``\r``
    ends a line."""
    head = _newlines(exc.object[:exc.start].decode("utf-8"))
    return head[:head.rfind("\n") + 1]


def _blocks(source, line):
    r"""Blocks of whole lines of a path or a binary or text file object,
    decoded as UTF-8 with universal newlines, so that lines end at
    ``\n``.  The caller counts them, and ``line()`` returns its count so
    far plus one.  Bytes that do not decode raise :class:`ParseError`
    naming their line, after the lines before them have been yielded.  A
    U+FEFF that is the stream's first character, a byte-order mark, is
    dropped; anywhere else it is a label character."""
    rest, bom = b"", "\ufeff"  # "" once the first character is seen
    try:
        for data in _reads(source):
            buf = rest + data
            # Cut after the last line end; a trailing \r may be half of
            # a \r\n, so it waits for the next read.
            cut = (max(buf.rfind(b"\n"), buf.rfind(b"\r", 0, len(buf) - 1))
                   + 1 if data else len(buf))
            buf, rest = buf[:cut], buf[cut:]
            try:
                text = _newlines(buf.decode("utf-8"))
            except UnicodeDecodeError as exc:
                yield _undecodable(exc).removeprefix(bom)
                raise ParseError(line(),
                                 f"not UTF-8 text ({exc.reason})") from None
            if text:
                yield text.removeprefix(bom)
                bom = ""
    except UnicodeDecodeError as exc:
        # A text object's decoder fails on a whole chunk, which starts on
        # the line after those it handed out.
        raise ParseError(line() + _undecodable(exc).count("\n"),
                         f"not UTF-8 text ({exc.reason})") from None


def _lines(source):
    """Yield ``(line_no, line)`` from a path or a binary or text file
    object."""
    line_no = 0  # the last line's number
    for text in _blocks(source, lambda: line_no + 1):
        for line_no, line in enumerate(io.StringIO(text), line_no + 1):
            yield line_no, line


class _Ids(dict):
    """Label -> dense node id; a label gets the next id when first
    looked up, so ids follow first appearance.  A label that would make
    :data:`graph.NODE_LIMIT` of them raises :class:`TooLarge`."""

    def __missing__(self, label):
        i = len(self)
        if i + 1 >= NODE_LIMIT:
            raise TooLarge(f"{NODE_LIMIT} node labels or more: a graph "
                           f"holds fewer than {NODE_LIMIT} nodes")
        self[label] = i
        return i


def _numeric_ids(enc, n_digits, ids):
    r"""The ids of the tokens of the ASCII block ``enc``, whose
    bytes are ASCII digits, `` ``, ``\t`` and ``\n``, ``n_digits`` of
    them digits; parsed in C when they are canonical decimals as the
    module docstring states, None otherwise.  Only the distinct values,
    as ``str(v)`` in order of first appearance, meet ``ids``.  The ids
    are int32."""
    # A long token saturates; an unparsed one would fail n_digits below.
    vals = np.fromstring(enc, dtype=np.int64, sep=" ")
    n = vals.size
    top = int(vals.max())
    # A token has at least as many digits as its value's decimal form,
    # and as many only when it has no leading zero.  A token of more
    # than 18 digits parses to 10**18 or more, or to fewer digits.
    lengths = n + sum(np.count_nonzero(vals >= 10 ** k)
                      for k in range(1, len(str(top))))
    if top >= 10 ** 18 or lengths != n_digits:
        return None
    if top < 4 * n:  # values index an array of size max + 1
        uniq, idx = np.arange(top + 1), vals
    else:
        uniq, idx = np.unique(vals, return_inverse=True)
    del vals
    lut = np.full(uniq.size, n)  # each value's first position
    np.minimum.at(lut, idx, np.arange(n))
    seen = np.flatnonzero(lut < n)
    seen = seen[np.argsort(lut[seen])]
    names = map(str, uniq[seen].tolist())
    lut[seen] = np.fromiter(map(ids.__getitem__, names), dtype=np.int64,
                            count=seen.size)
    return lut.astype(np.int32)[idx]


def _parse_block(text, line_no, ids):
    r"""The edges of one block as ``(pairs, w, lines)``: ``pairs`` holds
    the int32 ids of ``src, dst`` of each edge in turn, ``w`` the
    weights, or the edge count when no line of the block has a weight,
    and ``lines`` the block's ``\n`` count.

    The block's first faulty line raises, as :func:`read_edge_list`
    describes.  ``line_no`` is the number of the block's first line.
    """
    enc = text.isascii() and text.encode("ascii")
    if enc:  # one class scan: the whitespace, and whether it is numeric
        cp = np.frombuffer(enc, dtype=np.uint8)
        cls = np.frombuffer(enc.translate(_CLASS), dtype=np.uint8)
        numeric, space = cls.max() < 4, np.bitwise_and(cls, 1).view(bool)
        del cls
    else:
        cp = np.frombuffer(text.encode("utf-32-le", "surrogatepass"),
                           dtype=np.uint32)
        numeric, space = False, np.isin(cp, _SPACE)
    start = ~space
    start[1:] &= space[:-1]
    starts = np.flatnonzero(start)  # where each token begins
    del start  # each scan array is dropped once used
    ends = np.flatnonzero(cp == 10)  # line k ends at ends[k]
    n_ends = ends.size
    if (starts.size == 2 * n_ends and (numeric or "#" not in text)
            and (starts[1::2] < ends).all()
            and (starts[2::2] > ends[:-1]).all()):
        # Every line is "src dst": line k holds tokens 2k and 2k + 1.
        n_digits = len(text) - np.count_nonzero(space)
        del cp, space, starts, ends
        pairs = (_numeric_ids(enc, n_digits, ids)
                 if numeric and n_ends else None)
        if pairs is None:
            tokens = text.split()
            pairs = np.fromiter(map(ids.__getitem__, tokens),
                                dtype=np.int32, count=len(tokens))
        return pairs, n_ends, n_ends
    del space
    counts = np.bincount(np.searchsorted(ends, starts),
                         minlength=n_ends + 1)
    lines = np.flatnonzero(counts)
    lead = (np.cumsum(counts) - counts)[lines]  # each line's first token
    keep = cp[starts[lead]] != 35  # drop "#" lines
    del cp, enc, starts
    lines, lead = lines[keep], lead[keep]
    counts = counts[lines]
    bad = np.flatnonzero((counts < 2) | (counts > 3))
    bad_line = lines[bad[0]] if bad.size else None
    if bad.size:
        lines, lead, counts = lines[:bad[0]], lead[:bad[0]], counts[:bad[0]]
    weighted = counts == 3
    del keep, counts
    # The tokens as an object array, indexed by arrays: no Python int
    # per index.  The labels meet the ids first, then only the weight
    # tokens stay alive while they are parsed.
    tokens = np.array(text.split(), dtype=object)
    seq = tokens[(lead[:, None] + (0, 1)).ravel()]
    pairs = np.fromiter(map(ids.__getitem__, seq), dtype=np.int32,
                        count=seq.size)
    del seq
    w_tok = tokens[lead[weighted] + 2]
    del tokens, lead

    # Weights, then the earliest faulty line of any kind.  Only a bad
    # token makes a list of Python floats, to find where it is.
    try:
        w = np.fromiter(map(float, w_tok), dtype=np.float64,
                        count=w_tok.size)
    except ValueError:
        vals = []
        try:
            vals.extend(map(float, w_tok))  # extend() keeps the good prefix
        except ValueError:
            pass
        w = np.array(vals, dtype=np.float64)
    odd = np.flatnonzero(~np.isfinite(w) | (w < 0))
    k = odd[0] if odd.size else w.size
    if k < w_tok.size:
        at = line_no + int(lines[weighted][k])
        if k == w.size:
            raise ParseError(at, f"bad weight token {w_tok[k]!r}")
        if not math.isfinite(w[k]):
            raise ParseError(at, f"weight {w_tok[k]!r} is not finite")
        raise NegativeWeight(f"line {at}: weight {float(w[k])} is negative")
    if bad_line is not None:
        lo = ends[bad_line - 1] + 1 if bad_line else 0
        hi = ends[bad_line] + 1 if bad_line < n_ends else len(text)
        raise ParseError(line_no + int(bad_line),
                         f"expected 'src dst [weight]', got {text[lo:hi]!r}")

    wgt = np.ones(lines.size)
    wgt[weighted] = w
    return pairs, wgt, n_ends


def read_edge_list(source):
    """Parse an edge list into ``(Graph, labels)``.

    ``source`` is a path, a binary or a text file object, read as the
    module docstring states.  ``labels[i]`` is the original token of
    dense node id ``i``, assigned by first appearance.  Raises
    :class:`ParseError` (with the line number) on malformed lines, NaN or
    infinite weights and bytes that are not UTF-8, and
    :class:`NegativeWeight` on a negative weight; the first faulty line
    in the file is the one reported.

    Each block's int32 ids are copied into one buffer, grown by realloc,
    and dropped; a file of ``graph.NODE_LIMIT`` labels or more raises
    :class:`TooLarge`.  A block of ``src dst`` lines makes no weight
    array: when no line of the file has a weight, the weights stay
    implicit (a read-only ``1.0`` broadcast over the edges) and the CSR
    build counts its keys, sorted in place, instead of summing weights.
    Such a read peaks at the ids' buffer (one 8-byte word per edge line,
    and up to a quarter of slack) beside the parse of one block: 1.69
    words per line on a dense-ng input of 1.76M lines.

    The CSR build writes each edge's two keys over its two ids (int32
    when their range ``n << bits`` is below ``2**31``, else an int64
    array of their own) and sorts them into the int32 neighbor ids, so
    the graph holds one word per line (1.03 there with its per-node
    arrays); its weights stay the broadcast unless a pair is given
    twice.  A file with weights also holds its weights (one) and the
    stable sort's packed keys and order (two each) or order and gathered
    weights, about six words per line at the build.  Its blocks are
    split into token strings, about 20 bytes per byte of a block's text
    while that block is parsed.
    """
    ids, line_no = _Ids(), 1
    pairs, end, weights = np.zeros(0, dtype=np.int32), 0, [0]
    for text in _blocks(source, lambda: line_no):
        block, w, lines = _parse_block(text, line_no, ids)
        line_no += lines
        if end + block.size > pairs.size:
            # A realloc, grown by a quarter at least so that the copies
            # it may make add up to O(lines); no view of pairs is alive.
            pairs.resize(max(end + block.size, pairs.size * 5 // 4),
                         refcheck=False)
        pairs[end:end + block.size] = block
        end += block.size
        weights.append(w)
        del block
    pairs.resize(end, refcheck=False)
    if all(isinstance(w, int) for w in weights):
        weights = np.broadcast_to(1.0, pairs.size // 2)
    else:  # the lines of an unweighted block weigh 1
        weights = np.concatenate([np.ones(w) if isinstance(w, int) else w
                                  for w in weights])
    return _from_pairs(len(ids), pairs.reshape(-1, 2), weights), list(ids)


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

    ``source`` is a path, a binary or a text file object, read as the
    module docstring states.  A line whose first token starts with ``#``
    is a comment unless that token is one of ``labels``.  Every node
    must appear exactly once; unknown labels raise :class:`UnknownLabel`,
    negative community ids :class:`ParseError`.  Community ids are
    compacted to ``0..kappa-1``.
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
