"""Weighted undirected graphs, node partitions, and community coarsening.

A :class:`Graph` is immutable once built.  Besides the adjacency it carries,
per node, a self-loop weight, a size (how many original nodes were folded
into it by coarsening) and an optional auxiliary constant used by some
criteria.  A frozen :class:`Level0Constants` record travels unchanged
through every coarsening level, so that criterion formulas always refer to
the original graph's node count, edge mass and maximum weight.

Partitions are plain ``int64`` numpy arrays mapping node id to community
id; :data:`SENTINEL` marks a node temporarily removed during a sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import LouvainError, NegativeWeight

#: Community id of a node that is currently removed from the partition.
SENTINEL = -1


@dataclass(frozen=True)
class Level0Constants:
    """Quantities of the original (level-0) graph, frozen across levels.

    Attributes
    ----------
    n0 : int
        Node count of the original graph.
    two_m : float
        Total edge mass ``sum_{i,j} w_ij`` over ordered node pairs,
        self-loops counted once.  Equals the sum of weighted degrees.
    w_max : float
        Maximum edge weight of the original graph (1 for unweighted and
        for edgeless input).  Defines the absent-link mass ``w_max - w``.
    extra : dict
        Criterion-specific constants computed during pretreatment
        (e.g. the squared-mass sum of the profile-difference transform).
    """

    n0: int
    two_m: float
    w_max: float
    extra: dict = field(default_factory=dict)


class Graph:
    """Immutable weighted undirected graph in CSR form.

    Parameters
    ----------
    n : int
        Number of nodes.
    indptr, nbr, wgt : ndarray
        CSR adjacency over off-diagonal neighbors only; symmetric to the
        bit at every level, so every edge {i, j} appears in both rows with
        the same weight (one sum, added in the order that
        :meth:`from_arrays` and :func:`aggregate` state).
    loop : ndarray of float
        Self-loop weight per node (0 when absent).  A loop contributes once
        to the node's weighted degree and once to the total mass ``two_m``.
    size : ndarray of int
        Folded node count per node (all ones at level 0).
    aux : ndarray of float
        Additive per-node constant for criteria that need one (sum of
        folded level-0 values); zeros when unused.
    consts : Level0Constants, optional
        Frozen level-0 record.  Computed from this graph when omitted,
        which declares the graph to be level 0.
    rows : ndarray of int, optional
        Row id of each CSR entry, when the caller has it; used to sum
        the degrees and not kept.
    """

    __slots__ = ("n", "indptr", "nbr", "wgt", "loop", "size", "aux",
                 "consts", "degrees")

    def __init__(self, n, indptr, nbr, wgt, loop, size, aux, consts=None, *,
                 rows=None):
        self.n = int(n)
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.nbr = np.asarray(nbr, dtype=np.int64)
        self.wgt = np.asarray(wgt, dtype=np.float64)
        self.loop = np.asarray(loop, dtype=np.float64)
        self.size = np.asarray(size, dtype=np.int64)
        self.aux = np.asarray(aux, dtype=np.float64)
        if rows is None:
            rows = np.repeat(np.arange(self.n), np.diff(self.indptr))
        deg = np.bincount(rows, weights=self.wgt, minlength=self.n)
        # Sums that overflow are left infinite: the criteria's quality
        # check reports them.
        with np.errstate(over="ignore"):
            self.degrees = deg + self.loop
            if consts is None:
                two_m = float(self.wgt.sum() + self.loop.sum())
                w_all = np.concatenate([self.wgt, self.loop[self.loop > 0]])
                w_max = float(w_all.max()) if w_all.size else 1.0
                consts = Level0Constants(n0=self.n, two_m=two_m,
                                         w_max=w_max)
        self.consts = consts

    # -- construction -------------------------------------------------

    @classmethod
    def from_edges(cls, n, edges):
        """Build a level-0 graph from an iterable of ``(i, j, weight)``
        triples; see :meth:`from_arrays`."""
        edges = list(edges)
        src, dst, w = zip(*edges) if edges else ((), (), ())
        return cls.from_arrays(n, src, dst, w)

    @classmethod
    def from_arrays(cls, n, src, dst, w):
        """Build a level-0 graph from parallel edge arrays ``src``,
        ``dst``, ``w`` over node ids ``0..n-1``.

        Duplicate pairs are summed in input order: entries ``(i, j)``
        and ``(j, i)`` both add the weights of the edges between ``i``
        and ``j`` in array order, whichever way round each edge is
        given, so the adjacency is symmetric to the bit.  ``src == dst``
        goes to the self-loop weight, and zero-weight entries are
        dropped.  Raises :class:`NegativeWeight` on a negative weight
        (the first one) and :class:`LouvainError` on a node id outside
        ``0..n-1`` or a NaN or infinite weight.
        """
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        w = np.asarray(w, dtype=np.float64)
        out = np.flatnonzero((np.minimum(src, dst) < 0)
                             | (np.maximum(src, dst) >= n))
        if out.size:
            k = out[0]
            raise LouvainError(f"edge ({src[k]}, {dst[k]}) names a node "
                               f"outside 0..{n - 1}")
        neg = np.flatnonzero(w < 0)
        if neg.size:
            k = neg[0]
            raise NegativeWeight(f"edge ({src[k]}, {dst[k]}) has weight "
                                 f"{w[k]}")
        if not np.isfinite(w).all():
            raise LouvainError("edge weights must be finite")
        indptr, nbr, wgt, loop, rows = _csr(n, src, dst, w)
        return cls(n, indptr, nbr, wgt, loop, np.ones(n, dtype=np.int64),
                   np.zeros(n, dtype=np.float64), rows=rows)

    def replace_weights(self, wgt, loop, *, aux=None, extra=None):
        """Same topology with new edge weights, for pretreatments: a
        level-0 graph whose constants are computed from the new weights,
        with ``extra`` as their criterion-specific part."""
        g = Graph(self.n, self.indptr, self.nbr, wgt, loop, self.size,
                  self.aux if aux is None else aux)
        g.consts = replace(g.consts, extra=extra or {})
        return g

    # -- basic accessors ----------------------------------------------

    @property
    def edge_count(self):
        """Number of distinct edges, self-loops included."""
        return int(self.nbr.size // 2 + np.count_nonzero(self.loop))

    def is_level0(self):
        return bool(np.all(self.size == 1))

    def dense(self, lo=0, hi=None):
        """Dense weight matrix rows ``lo:hi`` (all rows by default), the
        self-loops on the diagonal (small graphs; pairwise path)."""
        hi = self.n if hi is None else hi
        a, b = self.indptr[lo], self.indptr[hi]
        out = np.zeros((hi - lo, self.n))
        rows = np.repeat(np.arange(hi - lo), np.diff(self.indptr[lo:hi + 1]))
        out[rows, self.nbr[a:b]] = self.wgt[a:b]
        ids = np.arange(lo, hi)
        out[ids - lo, ids] = self.loop[lo:hi]
        return out

    def __repr__(self):
        return (f"Graph(n={self.n}, edges={self.edge_count}, "
                f"two_m={self.consts.two_m:g})")


# -- partitions --------------------------------------------------------


def singleton_labels(n):
    """Partition with every node in its own community."""
    return np.arange(n, dtype=np.int64)


def compact_labels(labels):
    """Renumber community ids densely to ``0..kappa-1``.

    Returns ``(new_labels, kappa)``.  Membership is preserved; ids are
    assigned in ascending order of the old ids.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if np.any(labels == SENTINEL):
        raise ValueError("partition contains removed nodes")
    uniq, inv = np.unique(labels, return_inverse=True)
    return inv.astype(np.int64), int(uniq.size)


# -- coarsening --------------------------------------------------------


def aggregate(g, labels, kappa=None):
    """Fold each community of ``labels`` into one meta-node.

    The meta-edge weight between communities C and D is the total level
    mass between them, ``sum_{i in C, j in D} w_ij``; the meta self-loop
    is the internal ordered-pair mass ``sum_{i,j in C} w_ij`` (twice the
    internal edge weight plus member loops).  Sizes and auxiliary
    constants are summed, and the level-0 constants are carried through
    unchanged, so every criterion evaluates identically on the coarse
    graph.

    For ``C <= D`` the entries ``(i, j)``, ``i`` in C and ``j`` in D, are
    added in CSR order (``i``, then ``j`` ascending) and the one sum goes
    to both rows, so the meta-graph is symmetric to the bit.  Member
    loops are added to the meta self-loop last, in node order.

    ``labels`` must be compact (ids ``0..kappa-1``, all non-empty).
    """
    labels = np.asarray(labels, dtype=np.int64)
    if kappa is None:
        kappa = int(labels.max()) + 1 if labels.size else 0
    keys = np.repeat(labels * kappa, np.diff(g.indptr))
    keys += labels[g.nbr]
    keys, w = _key_sums(keys, g.wgt, kappa * kappa)
    c, d = np.divmod(keys, kappa)
    half = c <= d
    indptr, nbr, wgt, loop, rows = _csr(kappa, c[half], d[half], w[half])
    loop = loop + np.bincount(labels, weights=g.loop, minlength=kappa)
    size = np.bincount(labels, weights=g.size, minlength=kappa)
    aux = np.bincount(labels, weights=g.aux, minlength=kappa)
    return Graph(kappa, indptr, nbr, wgt, loop, size.astype(np.int64), aux,
                 g.consts, rows=rows)


def _csr(n, src, dst, w):
    """``(indptr, nbr, wgt, loop, rows)`` of the edges ``src``-``dst``
    weighted ``w`` over nodes ``0..n-1``, summed as
    :meth:`Graph.from_arrays` states; ``rows`` is each entry's row."""
    off = src != dst
    loop = np.bincount(src[~off], weights=w[~off], minlength=n)
    if not off.all():
        src, dst, w = src[off], dst[off], w[off]
    # Each edge's two keys side by side: both rows see the edges of a
    # pair in array order.
    keys = np.stack([src * n + dst, dst * n + src], axis=1).ravel()
    del src, dst  # copies are freed before the sort
    keys, wgt = _key_sums(keys, np.repeat(w, 2), n * n)
    rows = keys // n
    nbr = np.remainder(keys, n, out=keys)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr, nbr, wgt, loop, rows


def _key_sums(keys, weights, size):
    """The distinct ``keys`` (each in ``0..size-1``) in ascending order,
    and for each the sum of its ``weights`` added in input order; keys
    whose sum is zero are dropped.

    One ``bincount`` over ``0..size-1`` when that range is no longer
    than ``keys``, otherwise a stable sort of ``keys``, which may be
    overwritten.
    """
    if size <= keys.size:
        sums = np.bincount(keys, weights, minlength=size)
        keys = np.flatnonzero(sums)
        return keys, sums[keys]
    keys, order = _stable_sort(keys, size)
    first = np.empty(keys.size, dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    if first.all():
        sums = weights[order]
    else:
        sums = np.bincount(np.cumsum(first) - 1, weights[order])
        keys = keys[first]
    keep = sums != 0
    if not keep.all():
        keys, sums = keys[keep], sums[keep]
    return keys, sums


def _stable_sort(keys, size):
    """``(keys[order], order)`` for the stable sort ``order`` of the
    non-negative ``keys``, each below ``size``.  ``keys`` may be
    overwritten."""
    bits = int(keys.size).bit_length()
    if (size - 1) >> (63 - bits) == 0:
        # Each key with its position in the low bits: the values are
        # distinct, so any sort of them is stable in the keys.
        keys <<= bits
        keys |= np.arange(keys.size)
        keys.sort()
        order = keys & ((1 << bits) - 1)
        keys >>= bits
        return keys, order
    order = np.argsort(keys, kind="stable")
    return keys[order], order
