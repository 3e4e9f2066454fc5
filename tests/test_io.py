"""Edge-list parsing, partition round trips, the run summary record."""

import io
import json
from unittest import mock

import numpy as np
import pytest

import anylouvain.io as reader
from anylouvain import (RunConfig, datasets, detect, read_edge_list,
                        read_partition, relational_total, write_partition)
from anylouvain import graph
from anylouvain.errors import (NegativeWeight, ParseError, TooLarge,
                               UnknownLabel)

from conftest import assert_same_graph, reference_csr, traced_peak


def parse(text):
    return read_edge_list(io.StringIO(text))


def test_simple_path():
    g, labels = parse("a b\nb c\n")
    assert g.n == 3
    assert g.edge_count == 2
    assert labels == ["a", "b", "c"]


def test_duplicate_edges_summed():
    g, _ = parse("a b 2\na b 3\n")
    assert g.edge_count == 1
    assert g.wgt.sum() / 2 + g.loop.sum() == pytest.approx(5.0)


def test_comments_blank_lines_weights():
    g, labels = parse("# header\n\na b 1.5\n  # indented comment\n  \nb b 2\n")
    assert g.n == 2
    assert g.loop[labels.index("b")] == pytest.approx(2.0)
    assert g.consts.two_m == pytest.approx(2 * 1.5 + 2)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse("a b\nonly-one-token\n")
    assert "line 2" in str(err.value)
    with pytest.raises(ParseError):
        parse("a b notanumber\n")
    with pytest.raises(ParseError):
        parse("a b 1 extra\n")
    with pytest.raises(NegativeWeight):
        parse("a b -2\n")


@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "NaN"])
def test_non_finite_weight_is_parse_error(token):
    with pytest.raises(ParseError) as err:
        parse(f"a b 1\nb c {token}\n")
    assert "line 2" in str(err.value)


def test_karate_file_shape():
    g, labels = datasets.karate_club()
    assert (g.n, g.edge_count) == (34, 78)
    assert len(labels) == 34


def test_label_order_independent():
    g1, l1 = parse("a b\nb c\nc a 2\n")
    g2, l2 = parse("c a 2\nb c\na b\n")
    # same multiset of weighted degrees regardless of line order
    assert sorted(g1.degrees) == sorted(g2.degrees)
    assert sorted(l1) == sorted(l2)


def test_partition_round_trip():
    labels = ["n1", "n2", "n3"]
    flat = np.array([1, 0, 1])
    buf = io.StringIO()
    write_partition(buf, flat, labels)
    buf.seek(0)
    back = read_partition(buf, labels)
    assert np.array_equal(back, flat)


def test_partition_round_trip_empty():
    buf = io.StringIO()
    write_partition(buf, np.zeros(0, dtype=int), [])
    assert buf.getvalue() == ""


def test_detected_partition_reevaluates_identically(tmp_path):
    g, labels = datasets.karate_club()
    h = detect(g, RunConfig(criterion="ng", seed=4))
    path = tmp_path / "karate.part"
    write_partition(path, h.flat, labels)
    back = read_partition(path, labels)
    assert relational_total("ng", g, back) == pytest.approx(h.quality)


def test_read_partition_errors():
    labels = ["a", "b"]
    with pytest.raises(UnknownLabel):
        read_partition(io.StringIO("a 0\nzz 1\n"), labels)
    with pytest.raises(UnknownLabel):
        read_partition(io.StringIO("a 0\n"), labels)          # b missing
    with pytest.raises(UnknownLabel):
        read_partition(io.StringIO("a 0\na 1\nb 0\n"), labels)  # a twice
    with pytest.raises(ParseError):
        read_partition(io.StringIO("a 0 9\nb 1\n"), labels)
    for comm in ("x", "1.5"):
        with pytest.raises(ParseError, match=f"bad community id '{comm}'"):
            read_partition(io.StringIO(f"a {comm}\nb 1\n"), labels)


def test_read_partition_hash_line_is_a_comment_unless_a_label():
    labels = ["a", "#b"]
    text = "# a comment\na\t0\n#b\t1\n#c 2\n"
    assert read_partition(io.StringIO(text), labels).tolist() == [0, 1]


def test_read_partition_rejects_negative_ids():
    labels = ["a", "b"]
    # -1 would collide with the reader's "unset" marker: the duplicate
    # "a" went unnoticed, and a lone -1 was reported as missing.
    for text in ("a\t-1\na\t0\nb\t0\n", "a\t-1\nb\t0\n", "a 0\nb -3\n"):
        with pytest.raises(ParseError) as err:
            read_partition(io.StringIO(text), labels)
        assert "negative" in str(err.value)


def test_read_partition_rejects_ids_beyond_int64():
    text = "a\t0\nb\t99999999999999999999\n"
    with pytest.raises(ParseError) as err:
        read_partition(io.StringIO(text), ["a", "b"])
    assert err.value.line_no == 2


def test_byte_order_mark_is_dropped(tmp_path):
    # A U+FEFF that starts the stream is a byte-order mark, from a path
    # (also with CRLF line ends) and from a text object; anywhere else
    # it is a label character.
    path = tmp_path / "bom.edges"
    path.write_bytes("\ufeffa b\r\nb c\r\nc a\r\n".encode("utf-8"))
    for source in (path, io.StringIO("\ufeffa b\nb c\nc a\n")):
        g, labels = read_edge_list(source)
        assert (g.n, labels) == (3, ["a", "b", "c"])
    g, labels = read_edge_list(io.StringIO("a b\n\ufeffc a\n"))
    assert labels == ["a", "b", "\ufeffc"]
    # Small blocks: the mark is dropped once, from the first text.
    with mock.patch.object(reader, "_BLOCK", 1):
        assert read_edge_list(path)[1] == ["a", "b", "c"]
    # A mark before numeric labels is dropped too.
    path.write_bytes(b"\xef\xbb\xbf10 2\n2 7\n")
    assert read_edge_list(path)[1] == ["10", "2", "7"]


def test_partition_file_byte_order_mark_is_dropped(tmp_path):
    part = tmp_path / "p.tsv"
    part.write_text("\ufeffa\t1\nb\t1\nc\t0\n", encoding="utf-8")
    assert read_partition(part, ["a", "b", "c"]).tolist() == [1, 1, 0]


def test_non_utf8_input_is_parse_error(tmp_path):
    edges = tmp_path / "bad.edges"
    edges.write_bytes(b"\xffa b\n")
    with pytest.raises(ParseError) as err:
        read_edge_list(edges)
    assert "line 1" in str(err.value)
    # Far past the decoder's first chunk, the line is still exact.
    edges.write_bytes(b"a b\n" * 2999 + b"a \xfe\n" + b"a b\n" * 100)
    with pytest.raises(ParseError) as err:
        read_edge_list(edges)
    assert "line 3000" in str(err.value)
    part = tmp_path / "bad.tsv"
    part.write_bytes(b"a\t0\nb\t\xff\n")
    with pytest.raises(ParseError) as err:
        read_partition(part, ["a", "b"])
    assert "line 2" in str(err.value)


def test_summary_fields_and_json():
    g, _ = datasets.karate_club()
    cfg = RunConfig(criterion="du", seed=7, precision=5e-3)
    h = detect(g, cfg)
    assert h.config is cfg
    s = json.loads(h.to_json())
    assert s["criterion"] == "du"
    assert s["kappa_final"] == h.kappa_final
    assert s["quality"] == h.quality
    assert [lv["kappa"] for lv in s["levels"]] == [lv.kappa for lv in h.levels]
    assert [lv["visits"] for lv in s["levels"]] == [lv.visits
                                                    for lv in h.levels]
    assert s["levels"][0]["n"] == 34
    assert s["levels"][0]["m"] == 78
    qs = [lv["quality"] for lv in s["levels"]]
    assert all(b >= a for a, b in zip(qs, qs[1:]))
    assert "communities" in h.to_text()


def test_read_peak_memory(tmp_path):
    # An unweighted read holds the int32 ids of the blocks read so far
    # in one buffer (one 8-byte word per edge) beside the parse of one
    # block, and no weight array or sort order: the keys are written
    # over the ids and sorted in place into the int32 neighbor ids,
    # which the graph keeps (one), its weights a broadcast.
    src, dst = np.triu_indices(710, k=1)  # 251,695 distinct pairs
    order = np.random.default_rng(0).permutation(src.size)
    path = tmp_path / "pairs.edges"
    path.write_text("".join(f"{a} {b}\n" for a, b in
                            zip(src[order].tolist(), dst[order].tolist())))
    g, peak, held = traced_peak(lambda: read_edge_list(path)[0])
    assert g.nbr.size == 2 * src.size
    assert peak <= 5.5 * 8 * src.size
    assert held <= 1.1 * 8 * src.size


def test_int64_keys_give_int32_neighbours(tmp_path):
    # 50,000 << 16 is past 2**31, so the keys are an int64 array of
    # their own, sorted and cut to int32 neighbour ids: the graph holds
    # one word per line besides its per-node arrays, as below 2**31.
    n = 50_000
    lines = [(str(i), str((i + k) % n), 1.0) for i in range(n) for k in (1, 2)]
    path = tmp_path / "ring.edges"
    path.write_text("".join(f"{a} {b}\n" for a, b, _ in lines))
    with mock.patch.object(graph, "_key_sums", wraps=graph._key_sums) as ks:
        read_edge_list(path)
    (keys, _, size), = [c.args for c in ks.call_args_list]
    assert (keys.dtype, size) == (np.int64, n << 16)
    del ks, keys
    g, _, held = traced_peak(lambda: read_edge_list(path)[0])
    assert g.nbr.dtype == np.int32
    # Labels are numbered by first appearance: "0", "1", "2", ...
    assert_same_graph(g, reference_read(lines, [str(i) for i in range(n)]))
    per_node = sum(getattr(g, name).nbytes for name in
                   ("indptr", "loop", "size", "aux", "degrees"))
    assert held - per_node <= 1.1 * 8 * len(lines)


@pytest.mark.parametrize("three,four", [
    ("1 2\n3 2\n", "1 2\n3 4\n"), ("a b\nc b\n", "a b\nc d\n"),
    ("a b 1\nc b 2\n", "a b 1\nc d 2\n")],
    ids=["numeric", "tokens", "weighted"])
def test_node_limit_is_the_first_label_count_refused(monkeypatch, three,
                                                       four):
    monkeypatch.setattr(reader, "NODE_LIMIT", 4)
    assert parse(three)[0].n == 3
    with pytest.raises(TooLarge, match="4 node labels or more"):
        parse(four)


def test_duplicate_pairs_keep_a_weight_array(tmp_path):
    path = tmp_path / "twice.edges"
    path.write_text("a b\nb c\nc a\n")
    g = read_edge_list(path)[0]
    assert g.unit_weights and not g.wgt.flags.writeable
    path.write_text("a b\nb c\nc a\nb a\n")
    g = read_edge_list(path)[0]
    assert not g.unit_weights and g.wgt.flags.writeable
    assert g.wgt.tolist() == [2.0, 1.0, 2.0, 1.0, 1.0, 1.0]


def test_parse_block_peak_memory():
    # One 1.3 MB block of numeric "src dst" lines: each scan array is
    # dropped once used, so the scan (three bytes per byte of text and
    # 1.5 words per token) and the parse (two words per token at once)
    # never overlap.
    rng = np.random.default_rng(0)
    text = "".join(f"{a} {b}\n" for a, b in
                   rng.integers(0, 10_000, (135_000, 2)).tolist())
    (pairs, edges, lines), peak, _ = traced_peak(
        lambda: reader._parse_block(text, 1, reader._Ids()))
    assert peak <= 6.5 * len(text)
    assert (pairs.size, edges, lines) == (270_000, 135_000, 135_000)
    assert pairs.dtype == np.int32


def test_weighted_block_peak_memory():
    # One 1 MB block of "src dst 0.5" lines goes through text.split():
    # its token strings (~15 bytes per byte of text) and one object
    # array of them are alive at once, but no Python int per index and
    # no list of Python floats (the parent peaked at 29.5 bytes per byte).
    rng = np.random.default_rng(0)
    text = "".join(f"{a} {b} 0.5\n" for a, b in
                   rng.integers(0, 1000, (89_703, 2)).tolist())
    (pairs, w, lines), peak, _ = traced_peak(
        lambda: reader._parse_block(text, 1, reader._Ids()))
    assert peak <= 21.5 * len(text)
    assert pairs.size == 2 * w.size == 2 * lines == 2 * 89_703
    assert pairs.dtype == np.int32
    assert np.all(w == 0.5)


def labelled_edges(rng, m):
    """``m`` edge lines over numeric and word labels, with duplicates
    given both ways round and loops, as ``(a, b)`` label pairs."""
    names = [str(k) for k in range(40)] + [f"v{k}" for k in range(40)]
    pairs = [(names[a], names[b if rng.random() > 0.05 else a])
             for a, b in rng.integers(0, len(names), (m, 2)).tolist()]
    return pairs + [(b, a) for a, b in pairs[::3]]


def reference_read(lines, labels):
    """The reference graph of ``(a, b, w)`` lines under the reader's
    ``labels``."""
    ids = {name: i for i, name in enumerate(labels)}
    return reference_csr(len(labels),
                         [(ids[a], ids[b], w) for a, b, w in lines])


@pytest.mark.parametrize("block", [64, 1 << 20])
def test_unit_weights_written_or_not_give_one_graph(block):
    pairs = labelled_edges(np.random.default_rng(1), 400)
    plain = "".join(f"{a} {b}\n" for a, b in pairs)
    ones = "".join(f"{a} {b} 1\n" for a, b in pairs)
    with mock.patch.object(reader, "_BLOCK", block):
        (g, labels), (h, labels_h) = parse(plain), parse(ones)
    assert labels == labels_h
    assert_same_graph(g, h)
    assert_same_graph(g, reference_read([(a, b, 1.0) for a, b in pairs],
                                        labels))


@pytest.mark.parametrize("block", [64, 1 << 20])
@pytest.mark.parametrize("mix", ["weighted", "mixed-blocks"])
def test_weighted_reads_match_reference(block, mix):
    rng = np.random.default_rng(2)
    lines = [(a, b, float(rng.choice([0.1, 0.2, 0.3, 1.0, 2.5])))
             for a, b in labelled_edges(rng, 400)]
    if mix == "mixed-blocks":  # runs of unweighted lines between weights
        lines = [(a, b, 1.0 if k // 40 % 2 else w)
                 for k, (a, b, w) in enumerate(lines)]
    text = "".join(f"{a} {b}\n" if mix == "mixed-blocks" and k // 40 % 2
                   else f"{a} {b} {w!r}\n"
                   for k, (a, b, w) in enumerate(lines))
    with mock.patch.object(reader, "_BLOCK", block):
        g, labels = parse(text)
    assert_same_graph(g, reference_read(lines, labels))
