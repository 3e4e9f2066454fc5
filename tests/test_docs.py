"""The documentation's code runs as written."""

import doctest
import re
from pathlib import Path

import anylouvain

README = Path(__file__).resolve().parents[1] / "README.md"


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
