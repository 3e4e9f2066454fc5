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


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    # In a fresh interpreter, as a user runs it, with numpy's overflow
    # and deprecation warnings as errors.
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning",
         "-W", "error::DeprecationWarning", str(demo)],
        env={**os.environ, "PYTHONPATH": PACKAGE_ROOT}, capture_output=True,
        timeout=300)
    assert done.returncode == 0, done.stderr.decode()
