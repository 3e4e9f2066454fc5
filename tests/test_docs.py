"""The documentation's code runs as written."""

import doctest
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import anylouvain

from test_cli import PACKAGE_ROOT

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# The benchmark's output checks, run from the checkout root.  run.py
# exits non-zero when any repetition crashes or fails one of them: the
# pairwise quality, the partition read back, no run beating the exact
# optimum, and the traced run matching the untraced one.
BENCH_CHECKS = [
    "python bench/run.py --workload sparse-ng --seed 1 --seconds 2 --trace 1",
    "python bench/run.py --workload sparse-ng --seed 1 --seconds 2 --trace 0",
    "python bench/run.py --workload sparse-pd --seed 1 --seconds 2 --trace 1",
    "python bench/run.py --workload exact-n9 --seed 1 --seconds 3 --trace 1",
    "python bench/run.py --workload dense-ng --seed 1 --seconds 6 --trace 1",
    "python bench/run.py --workload dense-ng --seed 1 --seconds 6 --trace 0",
]
# The arguments after the interpreter, by test id.
SCRIPTS = ({demo.name: [str(demo)] for demo in DEMOS}
           | {cmd.removeprefix("python "): cmd.split()[1:]
              for cmd in BENCH_CHECKS})


def test_readme_blocks_and_doctests_run():
    # The README's Python blocks run in order in one namespace: the
    # contract walk-through reuses the quickstart's graph.
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    result = doctest.testmod(anylouvain)
    assert result.attempted and not result.failed


@pytest.mark.parametrize("args", SCRIPTS.values(), ids=list(SCRIPTS))
def test_demo_runs(args):
    # Each demo and benchmark check in a fresh interpreter, as a user
    # runs it, with numpy's overflow and deprecation warnings as errors.
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning",
         "-W", "error::DeprecationWarning", *args],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": PACKAGE_ROOT},
        capture_output=True, timeout=300)
    assert done.returncode == 0, done.stderr.decode()
