"""Small bundled graphs used by the demos and tests."""

from __future__ import annotations

from importlib import resources

from .io import read_edge_list


def karate_club():
    """Zachary's karate club: 34 nodes, 78 unweighted edges.

    Returns ``(Graph, labels)``.
    """
    ref = resources.files("anylouvain").joinpath("data/karate.edges")
    with ref.open("rb") as fh:
        return read_edge_list(fh)
