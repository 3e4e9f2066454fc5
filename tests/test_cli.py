"""End-to-end command-line behavior."""

import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import anylouvain
from anylouvain import (RunConfig, as_criterion, compact_labels, datasets,
                        detect, read_edge_list, read_partition)
from anylouvain.cli import main
from anylouvain.criteria import tolerance

from conftest import ALL_CRITERIA

# The directory the tests import anylouvain from: a subprocess imports
# the same package from it.
PACKAGE_ROOT = str(Path(anylouvain.__file__).resolve().parents[1])


def run_module(*args, stdin=b"", hash_seed="0"):
    """``python -m anylouvain ARGS`` in a fresh interpreter, fed the bytes
    ``stdin``, under the hash seed ``hash_seed``."""
    env = {**os.environ, "PYTHONPATH": PACKAGE_ROOT,
           "PYTHONHASHSEED": hash_seed}
    return subprocess.run([sys.executable, "-m", "anylouvain", *args],
                          input=stdin, env=env, capture_output=True,
                          timeout=120)


@pytest.fixture()
def karate_file(tmp_path):
    import importlib.resources as resources
    src = resources.files("anylouvain").joinpath("data/karate.edges")
    dst = tmp_path / "karate.edges"
    dst.write_text(src.read_text())
    return str(dst)


def test_detect_writes_partition_and_summary(karate_file, tmp_path, capsys):
    out = tmp_path / "part.tsv"
    summ = tmp_path / "summary.json"
    rc = main(["detect", karate_file, "--criterion", "ng", "--seed", "1",
               "--precision", "5e-3", "--output", str(out),
               "--summary-out", str(summ)])
    assert rc == 0
    _, labels = datasets.karate_club()
    flat = read_partition(out, labels)
    blob = json.loads(summ.read_text())
    assert blob["kappa_final"] == len(np.unique(flat))
    assert 3 <= blob["kappa_final"] <= 5
    assert "criterion: ng" in capsys.readouterr().err


def test_detect_levels_out(karate_file, tmp_path):
    lev = tmp_path / "levels.json"
    rc = main(["detect", karate_file, "--levels-out", str(lev),
               "--output", str(tmp_path / "p.tsv")])
    assert rc == 0
    blob = json.loads(lev.read_text())
    assert blob["levels"][0]["n"] == 34
    assert len(blob["levels"][-1]["membership"]) == 34


def test_levels_out_and_summary_out_match_partition(karate_file, tmp_path):
    out, lev, summ = (tmp_path / name for name in ("p.tsv", "l.json",
                                                    "s.json"))
    assert main(["detect", karate_file, "--seed", "1", "--output", str(out),
                 "--levels-out", str(lev), "--summary-out", str(summ)]) == 0
    _, labels = datasets.karate_club()
    levels = json.loads(lev.read_text())["levels"]
    last = compact_labels(levels[-1]["membership"])[0]
    assert np.array_equal(last, read_partition(out, labels))
    # The key list the README documents under "Summary JSON".
    blob = json.loads(summ.read_text())
    assert list(blob) == ["criterion", "alpha", "seed", "precision",
                          "levels", "stop_reason", "kappa_final", "quality",
                          "elapsed"]
    assert blob["stop_reason"] == "no_moves"
    assert blob["kappa_final"] == blob["levels"][-1]["kappa"]
    assert [list(lv) for lv in blob["levels"]] == (
        [["n", "m", "quality", "kappa", "sweeps", "visits", "sweep_moves",
          "sweep_visits"]] * len(levels))
    assert [list(lv) for lv in levels] == (
        [["level", "n", "m", "quality", "kappa", "sweeps", "visits",
          "sweep_moves", "sweep_visits", "membership"]] * len(levels))
    # karate's levels are too sparse for the check: every visit is made.
    assert all(lv["visits"] == lv["n"] * lv["sweeps"] for lv in levels)
    assert all(lv["sweep_visits"] == [lv["n"]] * lv["sweeps"]
               for lv in levels)
    assert [lv["sweep_moves"] for lv in levels] == [
        lv["sweep_moves"] for lv in blob["levels"]]


def test_detect_eval_fixed_point(karate_file, tmp_path, capsys):
    # eval scores the partition detect wrote by the pairwise sum, in row
    # blocks, and by the aggregated state; both give detect's quality.
    out = tmp_path / "part.tsv"
    summ = tmp_path / "summary.json"
    for cid in ("ng", "pd", "du"):
        assert main(["detect", karate_file, "--criterion", cid, "--seed",
                     "3", "--output", str(out),
                     "--summary-out", str(summ)]) == 0
        capsys.readouterr()
        assert main(["eval", karate_file, str(out), "--criterion", cid]) == 0
        lines = capsys.readouterr().out.splitlines()
        vals = [float(line.split("=")[1]) for line in lines]
        # eval prints 12 significant digits, so the printed values agree
        # to that rounding, not to the graph's tolerance.
        assert vals[0] == pytest.approx(vals[1], rel=1e-9), cid
        assert vals[0] == pytest.approx(
            json.loads(summ.read_text())["quality"], rel=1e-9), cid


def test_eval_one_community_ng_zero(tmp_path, capsys):
    graph = tmp_path / "g.edges"
    graph.write_text("a b\nb c\nc a\n")
    part = tmp_path / "p.tsv"
    part.write_text("a\t0\nb\t0\nc\t0\n")
    assert main(["eval", str(graph), str(part), "--criterion", "ng"]) == 0
    out = capsys.readouterr().out
    assert float(out.splitlines()[0].split("=")[1]) == pytest.approx(0.0)


def test_eval_disagreeing_paths_fail(tmp_path, capsys, monkeypatch):
    graph = tmp_path / "g.edges"
    graph.write_text("a b\nb c\nc a\n")
    part = tmp_path / "p.tsv"
    part.write_text("a\t0\nb\t0\nc\t1\n")
    total = anylouvain.criteria.CriterionState.total
    monkeypatch.setattr(anylouvain.criteria.CriterionState, "total",
                        lambda st: total(st) + 1e-6)
    assert main(["eval", str(graph), str(part)]) == 1
    assert "evaluation paths disagree" in capsys.readouterr().err


@pytest.mark.parametrize("cid,alpha", ALL_CRITERIA)
def test_eval_rejects_a_state_off_by_2_20_ulp(karate_file, tmp_path, capsys,
                                              monkeypatch, cid, alpha):
    # A bound relative to the quality accepted this under every criterion.
    part = tmp_path / "part.tsv"
    opts = ["--criterion", cid] + ([] if alpha is None
                                   else ["--alpha", str(alpha)])
    assert main(["detect", karate_file, "--output", str(part), *opts]) == 0
    total = anylouvain.criteria.CriterionState.total

    def corrupted(st):
        k = np.argmax(st.in_w)
        st.in_w[k] += 2 ** 20 * np.spacing(st.in_w[k])
        return total(st)
    monkeypatch.setattr(anylouvain.criteria.CriterionState, "total",
                        corrupted)
    assert main(["eval", karate_file, str(part), *opts]) == 1
    assert "evaluation paths disagree" in capsys.readouterr().err


LARGE_WEIGHTS = {
    # The pairwise path reads 1.8e134 here and the aggregated one 0:
    # rounding at the weights' scale, which a bound relative to the
    # quality rejected.
    "1e150": "0 1 1e150\n1 2 1e150\n",
    # w_max * n0**2 overflows float64, but the qualities and, taken
    # product by product, the tolerance stay finite.
    "path-1e302": "".join(f"{i} {i + 1} 1e302\n" for i in range(2999)),
}


@pytest.mark.parametrize("weights,cid", [
    ("1e150", "di"), ("1e150", "du"),
    ("path-1e302", "du"), ("path-1e302", "di"), ("path-1e302", "g")])
def test_eval_accepts_detects_partition_at_large_weights(tmp_path, weights,
                                                         cid):
    graph = tmp_path / "g.edges"
    graph.write_text(LARGE_WEIGHTS[weights])
    assert np.isfinite(tolerance(read_edge_list(str(graph))[0]))
    part = tmp_path / "p.tsv"
    assert main(["detect", str(graph), "--criterion", cid,
                 "--output", str(part)]) == 0
    assert main(["eval", str(graph), str(part), "--criterion", cid]) == 0


@pytest.mark.parametrize("command", ["detect", "bench", "optimum", "eval"])
def test_empty_input_fails(tmp_path, capsys, command):
    empty = tmp_path / "empty.edges"
    empty.write_text("")
    out = tmp_path / "p.tsv"
    extra = {"detect": ["--output", str(out)], "bench": [],
             "optimum": ["--output", str(out)], "eval": [str(empty)]}
    assert main([command, str(empty)] + extra[command]) == 1
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "no nodes" in captured.err
    assert captured.err.count("\n") == 1


def test_invalid_criterion_rejected_before_io(tmp_path, capsys):
    rc = main(["detect", str(tmp_path / "does-not-exist.edges"),
               "--criterion", "nope"])
    assert rc == 1
    assert "unknown criterion" in capsys.readouterr().err


def test_criterion_is_named_by_its_id(karate_file, tmp_path, capsys):
    # as_criterion lowercases what it is given; the summary, the stderr
    # block and bench's rows name the criterion by its id.
    summ = tmp_path / "s.json"
    assert main(["detect", karate_file, "--criterion", "NG", "--output",
                 str(tmp_path / "p.tsv"), "--summary-out", str(summ)]) == 0
    assert json.loads(summ.read_text())["criterion"] == "ng"
    assert "criterion: ng\n" in capsys.readouterr().err
    assert main(["bench", karate_file, "--criteria", "NG,Du"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split()[0] for row in rows] == ["ng", "du"]
    # The config's alpha is the one the criterion runs at: a criterion
    # object's own, else the one given, also where an id ignores it.
    g, _ = datasets.karate_club()
    for crit, alpha in ((as_criterion("oz", 0.5), 0.5), ("oz", 0.3),
                        ("ng", 0.3)):
        h = detect(g, RunConfig(criterion=crit, alpha=0.3))
        cid = as_criterion(crit, 0.3).id
        assert h.config.alpha == alpha
        assert json.loads(h.to_json())["alpha"] == alpha
        assert h.to_text().startswith(f"criterion: {cid} (alpha={alpha})\n")


def test_oz_alpha_rejected_before_io(tmp_path, capsys):
    missing = str(tmp_path / "does-not-exist.edges")
    assert main(["detect", missing, "--criterion", "oz"]) == 1
    assert "alpha" in capsys.readouterr().err
    assert main(["detect", missing, "--criterion", "oz",
                 "--alpha", "1.5"]) == 1
    assert "alpha" in capsys.readouterr().err


def test_bench_oz_alpha_rejected_before_io(tmp_path, capsys):
    missing = str(tmp_path / "does-not-exist.edges")
    assert main(["bench", missing, "--criteria", "ng,oz"]) == 1
    captured = capsys.readouterr()
    assert "oz requires alpha" in captured.err and captured.out == ""


@pytest.mark.parametrize("flag,value", [("--seed", "-1"),
                                        ("--precision", "nan"),
                                        ("--precision", "0")])
def test_bench_bad_config_rejected_before_io(karate_file, tmp_path, capsys,
                                            flag, value):
    missing = str(tmp_path / "does-not-exist.edges")
    for graph in (karate_file, missing):
        assert main(["bench", graph, flag, value]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {flag[2:]} must be")
        assert captured.err.count("\n") == 1 and captured.out == ""


def test_detect_non_finite_alpha_fails(karate_file, tmp_path, capsys):
    summary = tmp_path / "s.json"
    for value in ("nan", "inf"):
        assert main(["detect", karate_file, "--alpha", value,
                     "--summary-out", str(summary)]) == 1
        captured = capsys.readouterr()
        assert "alpha must be finite" in captured.err
        assert captured.out == "" and not summary.exists()


def test_not_pluggable_criteria_rejected(karate_file, capsys):
    for cid, why in (("mg", "not pluggable"), ("sm", "not pluggable"),
                     ("md", "not pluggable")):
        rc = main(["detect", karate_file, "--criterion", cid])
        assert rc == 1
        assert why in capsys.readouterr().err


def test_wc_weighted_input_rejected(tmp_path, capsys):
    graph = tmp_path / "w.edges"
    graph.write_text("a b 2.5\nb c 1\n")
    rc = main(["detect", str(graph), "--criterion", "wc"])
    assert rc == 1
    assert "unweighted" in capsys.readouterr().err


def test_optimum_small_graph(tmp_path, capsys):
    graph = tmp_path / "tri2.edges"
    graph.write_text("a b\nb c\nc a\nd e\ne f\nf d\n")
    out = tmp_path / "opt.tsv"
    rc = main(["optimum", str(graph), "--criterion", "ng",
               "--output", str(out)])
    assert rc == 0
    assert "communities = 2" in capsys.readouterr().out
    flat = read_partition(out, ["a", "b", "c", "d", "e", "f"])
    assert flat[0] == flat[1] == flat[2]
    assert flat[3] == flat[4] == flat[5]
    assert flat[0] != flat[3]


def test_optimum_refuses_large_graphs(karate_file, capsys):
    rc = main(["optimum", karate_file, "--criterion", "ng"])
    assert rc == 1
    assert "capped" in capsys.readouterr().err


def test_labels_starting_with_hash_round_trip(tmp_path, capsys):
    # "#b" is a label where it is not a line's first token.
    graph = tmp_path / "hash.edges"
    graph.write_text("a #b\n#b c\nc a\nd e\n")
    part = tmp_path / "p.tsv"
    assert main(["detect", str(graph), "--output", str(part)]) == 0
    assert "#b\t" in part.read_text()
    assert main(["eval", str(graph), str(part)]) == 0


def test_detect_non_finite_weight_fails(tmp_path, capsys):
    graph = tmp_path / "nan.edges"
    graph.write_text("a b nan\n")
    assert main(["detect", str(graph)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "line 1" in err


@pytest.mark.parametrize("flag,value", [("--precision", "0"),
                                        ("--precision", "nan"),
                                        ("--max-levels", "0"),
                                        ("--seed", "-1")])
def test_detect_bad_config_fails_cleanly(karate_file, capsys, flag, value):
    assert main(["detect", karate_file, flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert "Traceback" not in captured.err
    assert captured.out == ""


# Finite weights whose sums overflow float64 (2m is infinite, or the
# squared degrees are); the runs used to print a nan or -inf quality and
# exit 0, and then numpy's overflow warnings before the error line.  A
# loop sum that overflows (loops) follows the same rule as an edge sum.
OVERFLOW_INPUTS = {
    "1e308": ("a b 1e308\nb c 1e308\nc a 1e308\n", "a\t0\nb\t0\nc\t0\n"),
    "1e160": ("a b 1e160\nb c 1e160\nc a 1e160\nc d 1\n",
              "a\t0\nb\t0\nc\t0\nd\t1\n"),
    "edge+loop": ("a b 1e308\na a 1e308\nb c 1\n", "a\t0\nb\t0\nc\t1\n"),
    "loops": ("a a 1e308\na a 1e308\nb c 1\n", "a\t0\nb\t1\nc\t1\n"),
}
# pd divides each weight by its end degrees, so only degrees that
# overflow (1e308) overflow its quality.
OVERFLOW_CASES = [(cid, command, weights)
                  for cid in ("ng", "bm")
                  for command in ("detect", "eval")
                  for weights in sorted(OVERFLOW_INPUTS)]
OVERFLOW_CASES += [("pd", command, "1e308") for command in ("detect", "eval")]
OVERFLOW_CASES += [(cid, "optimum", "1e308") for cid in ("ng", "zc", "pd")]
OVERFLOW_CASES += [("ng", "optimum", weights)
                   for weights in ("edge+loop", "loops")]


@pytest.mark.parametrize("cid,command,weights", OVERFLOW_CASES)
def test_overflowing_quality_fails(tmp_path, capsys, cid, command, weights):
    edges, partition = OVERFLOW_INPUTS[weights]
    graph = tmp_path / "big.edges"
    graph.write_text(edges)
    part = tmp_path / "big.tsv"
    part.write_text(partition)
    args = [command, str(graph)] + ([str(part)] if command == "eval" else [])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(args + ["--criterion", cid]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "overflow" in err
    assert err.count("\n") == 1


def test_non_utf8_edge_list_fails(tmp_path, capsys, monkeypatch):
    # "-" reads the bytes under stdin's text wrapper, which turns a bad
    # byte into a lone surrogate and ends lines at \n only, so a path and
    # stdin fail on the same line.
    graph = tmp_path / "bad.edges"
    for data, line in [(b"\xffa b\n", 1), (b"a b\nb \xff\n\xff a\n", 2),
                       (b"a b\n" * 2047 + b"a b\r" + b"\xff c\n", 2049)]:
        graph.write_bytes(data)
        for src in (str(graph), "-"):
            monkeypatch.setattr("sys.stdin", io.TextIOWrapper(
                io.BytesIO(data), encoding="utf-8", errors="surrogateescape",
                newline="\n"))
            assert main(["detect", src]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: line {line}: not UTF-8 text"), err


def test_eval_negative_community_id_fails(tmp_path, capsys):
    graph = tmp_path / "g.edges"
    graph.write_text("a b\nb c\n")
    part = tmp_path / "p.tsv"
    part.write_text("a\t-1\na\t0\nb\t0\nc\t0\n")
    assert main(["eval", str(graph), str(part)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "negative" in err


def test_eval_community_id_beyond_int64_fails(tmp_path, capsys):
    graph = tmp_path / "g.edges"
    graph.write_text("a b\nb c\n")
    part = tmp_path / "p.tsv"
    part.write_text("a\t0\nb\t99999999999999999999\nc\t0\n")
    assert main(["eval", str(graph), str(part)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "line 2" in err


def test_bench_zero_runs_rejected(karate_file, capsys):
    assert main(["bench", karate_file, "--runs", "0"]) == 1
    assert "--runs" in capsys.readouterr().err


def test_bench_deterministic_table(karate_file, capsys):
    args = ["bench", karate_file, "--criteria", "ng,du", "--runs", "2",
            "--seed", "5"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    # identical seeds => identical kappa/quality columns (times may differ)
    strip = lambda text: [line.split()[3:] for line in text.splitlines()[1:]]
    assert strip(first) == strip(second)
    assert len(first.splitlines()) == 3


def test_bench_single_run_zero_stddev(karate_file, capsys):
    assert main(["bench", karate_file, "--criteria", "ng",
                 "--runs", "1"]) == 0
    row = capsys.readouterr().out.splitlines()[1].split()
    assert float(row[2]) == 0.0  # time stddev
    assert float(row[4]) == 0.0  # kappa stddev


def test_bench_times_are_the_runs_elapsed(karate_file, capsys, monkeypatch):
    def timed(g, cfg):
        h = detect(g, cfg)
        h.elapsed = 0.25 * (1 + cfg.seed)
        return h
    monkeypatch.setattr(anylouvain.cli, "detect", timed)
    assert main(["bench", karate_file, "--criteria", "ng",
                 "--runs", "2"]) == 0
    row = capsys.readouterr().out.splitlines()[1].split()
    assert row[1:3] == ["0.375", "0.125"]  # mean and stddev of 0.25, 0.5


def test_bench_all_expands_to_experiment_set(karate_file, capsys):
    assert main(["bench", karate_file, "--criteria", "all",
                 "--runs", "1"]) == 0
    out = capsys.readouterr().out
    for cid in ("ng", "zc", "di", "du", "bm", "g", "pd"):
        assert any(line.startswith(cid) for line in out.splitlines())


def test_bench_reports_per_row_errors(tmp_path, capsys):
    graph = tmp_path / "w.edges"
    graph.write_text("a b 2\nb c 1\n")
    assert main(["bench", str(graph), "--criteria", "ng,wc,du",
                 "--runs", "1"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert any(line.startswith("wc") and "error" in line for line in lines)
    assert any(line.startswith("ng") and "error" not in line
               for line in lines)
    assert any(line.startswith("du") and "error" not in line
               for line in lines)


def test_stdin_input(karate_file, capsys, monkeypatch):
    # "-" reads stdin's bytes: under either hash seed they give the
    # partition of the path run, and a bad byte after a lone \r that ends
    # a text wrapper's first 8 KB chunk fails on its own line.  A stdin
    # with no byte buffer under it is read as text.
    path_run = run_module("detect", karate_file)
    assert path_run.returncode == 0 and path_run.stdout.count(b"\n") == 34
    monkeypatch.setattr("sys.stdin",
                        io.StringIO(Path(karate_file).read_text()))
    assert main(["detect", "-"]) == 0
    assert capsys.readouterr().out.encode() == path_run.stdout
    data = Path(karate_file).read_bytes()
    for hash_seed in ("0", "1"):
        stdin_run = run_module("detect", "-", stdin=data, hash_seed=hash_seed)
        assert (stdin_run.returncode, stdin_run.stdout) == (0, path_run.stdout)
    bad = run_module("detect", "-",
                     stdin=b"a b\n" * 2047 + b"a b\r" + b"\xff c\n")
    assert (bad.returncode, bad.stdout) == (1, b"")
    assert bad.stderr == (
        b"error: line 2049: not UTF-8 text (invalid start byte)\n")


def test_import_does_not_load_scipy():
    # scipy is a test-only reference; the package needs numpy alone.
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, anylouvain; print('scipy' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": PACKAGE_ROOT}, capture_output=True,
        text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"


def test_optimum_is_its_partitions_pairwise_quality(tmp_path, capsys):
    # A 10-node weighted graph: ng's optimum is scored from pair
    # coefficients, g's over every partition.  Either way the printed
    # quality is eval's pairwise value of the printed partition.
    rng = np.random.default_rng(10)
    graph = tmp_path / "ten.edges"
    graph.write_text("".join(
        f"{i} {j} {rng.uniform(0.5, 4.0):.3f}\n" for i in range(10)
        for j in range(i + 1, 10) if j == i + 1 or rng.random() < 0.3))
    part = tmp_path / "opt.tsv"
    for cid in ("ng", "g"):
        assert main(["optimum", str(graph), "--criterion", cid,
                     "--output", str(part)]) == 0
        line, = capsys.readouterr().out.splitlines()
        want = line.split()[3]
        assert part.read_text().count("\n") == 10
        assert main(["eval", str(graph), str(part), "--criterion", cid]) == 0
        got = capsys.readouterr().out.splitlines()[0].split()[-1]
        assert line.startswith("optimum quality = ") and got == want
