"""The block-vectorized edge-list reader against the line-by-line
reference in ``line_reader.py``: same labels, bit-identical ``Graph``
arrays, and the same exception on the same line."""

import io
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import anylouvain.io as reader
from anylouvain import Graph, read_edge_list
from anylouvain.errors import LouvainError, NegativeWeight, ParseError

import line_reader

LABELS = ["a", "b", "c", "0", "17", "\u00e9", "\u7bc0\u70b9", "a#",
          "\ufeffx", "#"]
SEPS = [" ", "\t", "  ", " \t ", "\xa0", "\u3000", "\x0c", "\x1c", "\x85",
        "\u2028"]
WEIGHTS = ["1", "2.5", "0", "0.0", "1e-3", "-0", "3e2", "7", "1_0"]
BAD_WEIGHTS = ["x", "nan", "inf", "-1", "-inf", "1e400", "--2"]
ENDS = ["\n", "\r\n", "\r"]
# Small blocks make most inputs span several blocks.
BLOCKS = [1, 5, 16, 64, 1 << 20]

sep = st.sampled_from(SEPS)
pad = st.sampled_from(["", " ", "\t", "\xa0"])
label = st.sampled_from(LABELS)


@st.composite
def edge_line(draw, weights=WEIGHTS):
    parts = [draw(label), draw(label)]
    if draw(st.booleans()):
        parts.append(draw(st.sampled_from(weights)))
    out = draw(pad) + parts[0]
    for part in parts[1:]:
        out += draw(sep) + part
    return out + draw(pad)


comment_line = st.builds(lambda lead, body: lead + "#" + body, pad,
                         st.sampled_from(["", " c", "a b 1", "#"]))
blank_line = st.sampled_from(["", " ", "\t", "\xa0 "])
bad_columns = st.builds(lambda a, s, b, c, d: a + s + b + s + c + s + d,
                        label, sep, label, label, label) | label
good_line = edge_line() | comment_line | blank_line
any_line = (good_line | edge_line(WEIGHTS + BAD_WEIGHTS) | bad_columns)


@st.composite
def document(draw, line, ends=ENDS):
    rows = draw(st.lists(line, max_size=25))
    out = "".join(row + draw(st.sampled_from(ends)) for row in rows)
    return out + draw(line)  # the last line may lack its end


def outcome(read, source):
    """Labels and every graph array, or the error type and message."""
    try:
        g, labels = read(source)
    except LouvainError as exc:
        return "error", type(exc).__name__, str(exc)
    arrays = [(a.dtype.str, a.tobytes()) for a in
              (g.indptr, g.nbr, g.wgt, g.loop, g.size, g.aux, g.degrees)]
    return (labels, g.n, arrays, g.consts.n0, g.consts.two_m.hex(),
            g.consts.w_max.hex())


def source(kind, data, tmp):
    """A path, a text wrapper over ``data`` (universal newlines) or a
    StringIO of its text."""
    if kind == "path":
        path = tmp / "input.edges"
        path.write_bytes(data)
        return path
    if kind == "wrapper":
        return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
    return io.StringIO(data.decode("utf-8"))


def reference(kind, data, tmp):
    """The reference's outcome, except that on a path a faulty line
    before a bad byte is reported first.  (A text wrapper decodes a
    whole chunk before it hands out the chunk's lines, so there both
    readers see the bad byte first.)"""
    out = outcome(line_reader.read_edge_list, source(kind, data, tmp))
    if kind == "path" and out[0] == "error" and "not UTF-8" in out[2]:
        bad_line = int(out[2].split(":")[0].removeprefix("line "))
        head = b"".join(data.splitlines(keepends=True)[:bad_line - 1])
        before = outcome(line_reader.read_edge_list, source(kind, head, tmp))
        if before[0] == "error":
            out = before
    return out


def check_same(data, block, tmp):
    kinds = ["path", "wrapper"]
    try:
        data.decode("utf-8")
        kinds.append("stringio")
    except UnicodeDecodeError:
        pass
    with mock.patch.object(reader, "_BLOCK", block):
        for kind in kinds:
            expected = reference(kind, data, tmp)
            assert outcome(read_edge_list, source(kind, data, tmp)) == expected


SETTINGS = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@pytest.fixture(scope="module")
def tmp(tmp_path_factory):
    return tmp_path_factory.mktemp("reader")


@SETTINGS
@given(text=document(good_line), block=st.sampled_from(BLOCKS))
def test_matches_reference_on_valid_input(tmp, text, block):
    check_same(text.encode("utf-8"), block, tmp)


@SETTINGS
@given(text=document(any_line), block=st.sampled_from(BLOCKS))
def test_matches_reference_on_any_input(tmp, text, block):
    check_same(text.encode("utf-8"), block, tmp)


@SETTINGS
@given(text=document(any_line), at=st.integers(0),
       bad=st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"]),
       block=st.sampled_from(BLOCKS))
def test_matches_reference_on_bad_bytes(tmp, text, at, bad, block):
    data = text.encode("utf-8")
    at %= len(data) + 1
    check_same(data[:at] + bad + data[at:], block, tmp)


@SETTINGS
@given(text=document(edge_line() | bad_columns, ends=["\n"]),
       block=st.sampled_from([64, 1 << 20]))
def test_matches_reference_on_column_mixes(tmp, text, block):
    # Blocks of edge lines only, where a 3- and a 1-token line add up
    # to two "src dst" lines.
    check_same(text.encode("utf-8"), block, tmp)


# Numeric labels: a block of canonical decimals only, in "src dst" lines
# split by " " or "\t", is read in C; every other block token by token.
CANONICAL = ["0", "7", "10", "9" * 18]
NON_CANONICAL = ["00", "007", "+1", "-0", "1" * 19, "9" * 19, "1e3", "\u0663"]
NUM_SEPS = [" ", "\t", "  "]


def numeric_line(number, sep):
    pad = st.sampled_from(["", " ", "\t"])
    return st.builds(lambda p, a, s, b, q: p + a + s + b + q,
                     pad, number, sep, number, pad)


canonical = st.sampled_from(CANONICAL) | st.integers(0, 99).map(str)
numeric_lines = (numeric_line(canonical, st.sampled_from(NUM_SEPS))
                 | numeric_line(canonical | st.sampled_from(NON_CANONICAL),
                                st.sampled_from(NUM_SEPS + ["\x0b", "\x1c"])))


@SETTINGS
@given(text=document(numeric_lines, ends=["\n", "\r\n"]),
       block=st.sampled_from([1, 16, 1 << 20]))
def test_matches_reference_on_numeric_labels(tmp, text, block):
    # One-line blocks (block 1) mix fast and slow blocks in one file.
    check_same(text.encode("utf-8"), block, tmp)


@pytest.mark.parametrize("digits", [1, 17])
@pytest.mark.parametrize("block", [64, 1 << 20])
def test_numeric_blocks_are_read_in_c(tmp_path, digits, block):
    # One digit: values index an array of size max + 1; 17 digits: far
    # sparser than the token count, so they are ranked by a sort.
    rng = np.random.default_rng(digits)
    names = rng.integers(10 ** (digits - 1), 10 ** digits, 60)
    data = "".join(f"{a}\t{b}\n" for a, b in
                   rng.choice(names, (500, 2)).tolist()).encode()
    check_same(data, block, tmp_path)
    path = tmp_path / "numeric.edges"
    path.write_bytes(data)
    with mock.patch.object(reader, "_BLOCK", block), \
            mock.patch.object(np, "fromstring", wraps=np.fromstring) as c, \
            mock.patch.object(np, "unique", wraps=np.unique) as by_sort:
        read_edge_list(path)
        assert c.call_count == len(list(reader._blocks(path)))
    assert by_sort.called == (digits == 17)


def without_echo(out):
    """An outcome with the echoed line dropped from an error message."""
    return out[:2] + (out[2].split(":")[0],) if out[0] == "error" else out


@SETTINGS
@given(text=document(any_line), newline=st.sampled_from(["", "\r", "\n",
                                                         "\r\n"]),
       block=st.sampled_from([1, 16, 1 << 20]))
def test_matches_reference_on_file_object_lines(text, newline, block):
    # A text wrapper without newline translation hands out lines that
    # end in a lone \r or hold a \n; the reader follows its lines.  The
    # echoed line of an error may show a \n after a lone \r end, and a
    # \n inside the line as a space.
    def wrapper():
        return io.TextIOWrapper(io.BytesIO(text.encode("utf-8")),
                                encoding="utf-8", newline=newline)
    with mock.patch.object(reader, "_BLOCK", block):
        assert without_echo(outcome(read_edge_list, wrapper())) == \
            without_echo(outcome(line_reader.read_edge_list, wrapper()))


@pytest.mark.parametrize("text, line", [("a b 1\nc\n", 2),
                                        ("a\nb c 1\n", 1),
                                        ("a b c d\ne\nf\na b\n", 1),
                                        ("a b\nc d 1\nf g\nh i 2\nk\n", 5)])
def test_unbalanced_columns_are_parse_errors(text, line):
    with pytest.raises(ParseError) as err:
        read_edge_list(io.StringIO(text))
    assert err.value.line_no == line
    assert type(err.value.line_no) is int


def test_whitespace_literal_is_str_isspace():
    assert set(reader._SPACE) == {c for c in range(sys.maxunicode + 1)
                                  if chr(c).isspace()}
    assert list(np.flatnonzero(np.frombuffer(reader._ASCII_SPACE, bool))) \
        == [c for c in range(128) if chr(c).isspace()]


def line_of(exc):
    return int(str(exc).split(":")[0].removeprefix("line "))


# One fault of each kind on lines 31-34; whichever comes first is reported.
FAULTS = {
    "columns": ("a b c d", ParseError),
    "weight": ("a b x", ParseError),
    "finite": ("a b inf", ParseError),
    "negative": ("a b -2", NegativeWeight),
}


@pytest.mark.parametrize("first", sorted(FAULTS))
@pytest.mark.parametrize("block", [1, 16, 1 << 20])
def test_earliest_fault_wins(tmp_path, first, block):
    rows = ["a b"] * 40
    rows[30] = FAULTS[first][0]
    for offset, kind in enumerate(k for k in sorted(FAULTS) if k != first):
        rows[31 + offset] = FAULTS[kind][0]
    data = ("\n".join(rows) + "\n").encode()
    path = tmp_path / "g.edges"
    path.write_bytes(data)
    with mock.patch.object(reader, "_BLOCK", block):
        for source in (path, io.StringIO(data.decode())):
            with pytest.raises(FAULTS[first][1]) as err:
                read_edge_list(source)
            assert line_of(err.value) == 31


@pytest.mark.parametrize("block", [64, 1 << 20])
def test_fault_before_bad_byte_wins(tmp_path, block):
    # A malformed line, then a bad byte in the same block.
    path = tmp_path / "g.edges"
    path.write_bytes(b"a b\n" * 5 + b"lonely\n" + b"a b\n" * 5 + b"a \xff\n")
    # A text wrapper decodes a chunk (8 KB) before it hands out the
    # chunk's lines, so there the malformed line is a chunk earlier.
    wrapper = io.TextIOWrapper(
        io.BytesIO(b"a b\n" * 5 + b"lonely\n" + b"a b\n" * 5000
                   + b"a \xff\n"), encoding="utf-8")
    with mock.patch.object(reader, "_BLOCK", block):
        for source in (path, wrapper):
            with pytest.raises(ParseError) as err:
                read_edge_list(source)
            assert err.value.line_no == 6
            assert "src dst" in str(err.value)


def test_bad_byte_line_in_text_wrapper():
    data = b"a b\n" * 20000 + b"a \xff\n" + b"a b\n" * 10
    with pytest.raises(ParseError) as err:
        read_edge_list(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    assert err.value.line_no == 20001


def test_bad_byte_line_after_lone_cr_in_text_wrapper(tmp_path):
    data = b"a b\rc d\ne f\r\xff g\n"
    path = tmp_path / "g.edges"
    path.write_bytes(data)
    for source in (path, io.TextIOWrapper(io.BytesIO(data),
                                          encoding="utf-8")):
        with pytest.raises(ParseError) as err:
            read_edge_list(source)
        assert err.value.line_no == 4


@pytest.mark.parametrize("data", [b"\r\xc3", b"a b\r\xc3", b"a b\n\r\xff"])
def test_bad_byte_after_lone_cr_in_path(tmp_path, data):
    # A text wrapper's decoder holds the lone \r back until the bad byte
    # fails; the reference must still count it for a path.
    path = tmp_path / "g.edges"
    path.write_bytes(data)
    for read in (read_edge_list, line_reader.read_edge_list):
        with pytest.raises(ParseError) as err:
            read(path)
        assert err.value.line_no == data.count(b"\n") + 2


def test_bad_byte_line_across_path_blocks(tmp_path):
    path = tmp_path / "g.edges"
    path.write_bytes(b"a b\r\n" * 3000 + b"a b\r" * 3000 + b"\xfe b\n")
    with mock.patch.object(reader, "_BLOCK", 1000):
        with pytest.raises(ParseError) as err:
            read_edge_list(path)
    assert err.value.line_no == 6001


def test_from_arrays_matches_reference_build():
    edges = [(0, 1, 2.0), (1, 0, 3.0), (2, 2, 1.5), (1, 2, 0.0), (2, 2, 1.0)]
    src, dst, w = map(np.array, zip(*edges))
    a = Graph.from_arrays(3, src, dst, w)
    b = line_reader.graph_from_edges(3, edges)
    for name in ("indptr", "nbr", "wgt", "loop", "size", "aux", "degrees"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
    assert a.loop.tolist() == [0.0, 0.0, 2.5]
    assert a.edge_count == 2


def test_from_arrays_names_first_negative_edge():
    with pytest.raises(NegativeWeight, match=r"edge \(2, 0\) has weight -1"):
        Graph.from_arrays(3, [0, 2, 1], [1, 0, 1], [1.0, -1.0, -2.0])
