"""Weighted undirected graphs, node partitions, and community coarsening.

A :class:`Graph` is immutable once built.  Besides the adjacency it carries,
per node, a self-loop weight, a size (how many original nodes were folded
into it by coarsening) and an optional auxiliary constant used by some
criteria.  A frozen :class:`Level0Constants` record travels unchanged
through every coarsening level, so that criterion formulas always refer to
the original graph's node count, edge mass and maximum weight.

Neighbour ids are ``int32`` at every level, so a graph has fewer than
:data:`NODE_LIMIT` nodes and its adjacency holds one 4-byte id and, unless
every weight is 1, one 8-byte weight per entry.  Partitions are plain
``int64`` numpy arrays mapping node id to community id; :data:`SENTINEL`
marks a node temporarily removed during a sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import LouvainError, NegativeWeight, TooLarge

#: Community id of a node that is currently removed from the partition.
SENTINEL = -1

#: Node counts from this one on are refused: neighbour ids are int32.
NODE_LIMIT = 1 << 31

#: Adjacency entries per chunk of the key build in :func:`aggregate`.
_CHUNK = 1 << 16


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
        CSR adjacency over off-diagonal neighbors only, ``nbr`` of
        ``int32`` ids (one 4-byte word per entry); symmetric to the
        bit at every level, so every edge {i, j} appears in both rows with
        the same weight (one sum, added in the order that
        :meth:`from_arrays` and :func:`aggregate` state).  When every
        entry of a CSR they build weighs 1, ``wgt`` is the read-only
        ``np.broadcast_to(1.0, nnz)``, which holds no memory per entry
        (see :attr:`unit_weights`); it reads like an array of ones.
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
        which declares the graph to be level 0: ``w_max`` is then the
        maximum over ``wgt`` and the positive loops (a NaN loop is not
        positive), taken from the two arrays' maxima without copying
        them, and 1 when both are empty.  Over unit weights no pass
        reads ``wgt``: its sum and maximum are its size and 1.

    The degrees add each row's weights in row order, one block of rows
    of about :data:`_CHUNK` entries at a time (:func:`_row_blocks`), so
    the build holds no array as long as the adjacency.
    """

    __slots__ = ("n", "indptr", "nbr", "wgt", "loop", "size", "aux",
                 "consts", "degrees")

    def __init__(self, n, indptr, nbr, wgt, loop, size, aux, consts=None):
        self.n = int(n)
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.nbr = np.asarray(nbr, dtype=np.int32)
        self.wgt = np.asarray(wgt, dtype=np.float64)
        self.loop = np.asarray(loop, dtype=np.float64)
        self.size = np.asarray(size, dtype=np.int64)
        self.aux = np.asarray(aux, dtype=np.float64)
        unit = self.unit_weights  # row sums are then the row lengths
        if unit:
            row_sums = np.diff(self.indptr)
        else:  # each row's weights added in row order, a block at a time
            row_sums = np.empty(self.n)
            for r0, r1 in _row_blocks(self.indptr, _CHUNK):
                lengths = np.diff(self.indptr[r0:r1 + 1])
                row_sums[r0:r1] = np.bincount(
                    np.repeat(np.arange(r1 - r0), lengths),
                    self.wgt[self.indptr[r0]:self.indptr[r1]],
                    minlength=r1 - r0)
        # Sums that overflow are left infinite: the criteria's quality
        # check reports them.
        with np.errstate(over="ignore"):
            self.degrees = row_sums + self.loop
            if consts is None:
                two_m = float((self.wgt.size if unit else self.wgt.sum())
                              + self.loop.sum())
                tops = [a.max() for a in (self.wgt[:1] if unit else self.wgt,
                                          self.loop[self.loop > 0]) if a.size]
                w_max = float(np.max(tops)) if tops else 1.0
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
        dropped.  Ids may be integers or whole floats.  Raises
        :class:`NegativeWeight` on a negative weight (the first one) and
        :class:`LouvainError` on arrays that are not 1-D of one length,
        an ``n`` that is not a non-negative integer, ids that are not
        numbers, a node id that is not an integer in ``0..n-1``, weights
        that are not numbers or a NaN or infinite weight, and
        :class:`TooLarge` on ``n >= NODE_LIMIT`` before it allocates
        anything of size ``n``.  The arrays are
        only read, so ``w`` may be a read-only view such as
        ``np.broadcast_to(1.0, m)``.
        """
        src, dst, w = np.asarray(src), np.asarray(dst), np.asarray(w)
        if not src.shape == dst.shape == w.shape == (w.size,):
            raise LouvainError(f"src, dst and w must be 1-D arrays of one "
                               f"length, got shapes {src.shape}, "
                               f"{dst.shape} and {w.shape}")
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
            raise LouvainError(f"node count must be an integer, got {n!r}")
        if n < 0:
            raise LouvainError(f"node count must be non-negative, got {n}")
        if n >= NODE_LIMIT:
            raise TooLarge(f"{n} nodes: a graph holds fewer than "
                           f"{NODE_LIMIT}")
        pairs = np.column_stack((src, dst))
        if pairs.dtype.kind not in "biuf":
            raise LouvainError(f"node ids must be numbers, got {src.dtype} "
                               f"and {dst.dtype} arrays")
        # Reductions first; the scans that name the first bad edge run
        # only when an id is out of range or, for float ids, not whole.
        if pairs.size and not (pairs.min() >= 0 and pairs.max() < n and (
                pairs.dtype.kind in "biu"
                or np.array_equal(np.floor(pairs), pairs))):
            bad = (pairs < 0) | (pairs >= n) | (np.floor(pairs) != pairs)
            k = np.flatnonzero(bad.any(axis=1))[0]
            raise LouvainError(f"edge ({src[k]}, {dst[k]}) names a node "
                               f"outside 0..{n - 1}")
        pairs = pairs.astype(np.int32)
        src, dst = pairs[:, 0], pairs[:, 1]
        if w.dtype.kind not in "biuf":
            raise LouvainError(f"edge weights must be numbers, got a "
                               f"{w.dtype} array")
        w = w.astype(np.float64, copy=False).view()
        w.flags.writeable = False  # the caller's: the build copies it
        if w.size and not (w.min() >= 0 and w.max() < np.inf):
            neg = np.flatnonzero(w < 0)
            if neg.size:
                k = neg[0]
                raise NegativeWeight(f"edge ({src[k]}, {dst[k]}) has "
                                     f"weight {w[k]}")
            raise LouvainError("edge weights must be finite")
        return _from_pairs(n, pairs, w)

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
    def unit_weights(self):
        """True when ``wgt`` is a broadcast of 1.0: sums over it are then
        counts, which code may take without reading ``wgt``."""
        return (self.wgt.strides == (0,) and self.wgt.size > 0
                and self.wgt[0] == 1.0)

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
    loops are added to the meta self-loop last, in node order.  Over
    unit weights (:attr:`Graph.unit_weights`) the sums are key counts,
    the same bit for bit.

    The keys ``labels[i] * kappa + labels[j]`` are made a block of rows
    of about :data:`_CHUNK` entries at a time.  Over unit weights and at
    most as many keys ``kappa ** 2`` as entries, each chunk is counted
    and dropped, so the fold holds no edge-sized array.  Otherwise the
    keys are the one edge-sized array, filled a chunk at a time, and the
    build peaks at about one 8-byte word per adjacency entry, plus what
    the fold keeps per distinct community pair.

    ``labels`` must be compact: ``g.n`` ids in ``0..kappa-1``, each one
    used; :class:`LouvainError` otherwise.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if kappa is None:
        kappa = int(labels.max()) + 1 if labels.size else 0
    counts = (np.bincount(labels, minlength=kappa)
              if labels.shape == (g.n,) and not (labels < 0).any() else None)
    if counts is None or counts.size != kappa or not counts.all():
        raise LouvainError(f"aggregate needs {g.n} labels in 0..{kappa - 1}, "
                           f"each one used")
    n_keys = kappa * kappa
    # Each entry's key is row community * kappa + neighbour community.
    # Counts add exactly in any grouping, so unit weights over a key
    # range no longer than the entries are counted a chunk of keys at a
    # time; otherwise the keys are built in one edge-sized array.
    count = g.unit_weights and n_keys <= g.nbr.size
    if count:
        sums = np.zeros(n_keys, dtype=np.int64)
    else:
        keys = np.empty(g.nbr.size, dtype=np.int64)
    base = labels * kappa
    for r0, r1 in _row_blocks(g.indptr, _CHUNK):
        a, b = g.indptr[r0], g.indptr[r1]
        # take() widens only the chunk's int32 ids to index with, and
        # with mode="clip" (the ids are valid) writes into keys directly.
        chunk = labels.take(g.nbr[a:b], out=None if count else keys[a:b],
                            mode="clip")
        chunk += np.repeat(base[r0:r1], np.diff(g.indptr[r0:r1 + 1]))
        if count:
            sums += np.bincount(chunk, minlength=n_keys)
        del chunk  # before the next chunk's take()
    if count:
        keys = np.flatnonzero(sums)
        w = sums[keys].astype(np.float64)
    else:
        keys, w = _key_sums(keys, None if g.unit_weights else g.wgt, n_keys)
    c, d = np.divmod(keys, kappa)
    half = c <= d
    indptr, nbr, wgt, loop = _csr(
        kappa, np.column_stack((c[half], d[half])).astype(np.int32), w[half])
    loop = loop + np.bincount(labels, weights=g.loop, minlength=kappa)
    size = np.bincount(labels, weights=g.size, minlength=kappa)
    aux = np.bincount(labels, weights=g.aux, minlength=kappa)
    return Graph(kappa, indptr, nbr, wgt, loop, size.astype(np.int64), aux,
                 g.consts)


def _row_blocks(indptr, size):
    """``(r0, r1)`` for consecutive blocks of rows of the CSR row
    pointers ``indptr``, each of at most ``size`` entries or of one
    longer row, which together cover every row in order."""
    ends, r0 = indptr[1:], 0
    while r0 < ends.size:
        r1 = max(r0 + 1, int(ends.searchsorted(indptr[r0] + size, "right")))
        yield r0, r1
        r0 = r1


def _from_pairs(n, pairs, w):
    """The level-0 graph of the edges ``pairs[e] = (src, dst)``, a
    C-contiguous ``(m, 2)`` int32 array that the CSR build overwrites
    with its keys, weighted ``w``, which it overwrites too when it is
    writeable (:func:`_csr`).  Ids and weights are taken as valid:
    :meth:`Graph.from_arrays` checks a caller's, and the edge-list reader
    makes its own."""
    indptr, nbr, wgt, loop = _csr(n, pairs, w)
    return Graph(n, indptr, nbr, wgt, loop, np.ones(n, dtype=np.int64),
                 np.zeros(n, dtype=np.float64))


def _csr(n, pairs, w):
    """``(indptr, nbr, wgt, loop)`` of the edges ``pairs[e] =
    (src, dst)`` weighted ``w`` over nodes ``0..n-1``, summed as
    :meth:`Graph.from_arrays` states.  ``pairs`` is a C-contiguous
    ``(m, 2)`` int32 array, one 8-byte word per edge.  The edges that are
    not loops are moved to its front, and to the front of ``w`` when it
    is writeable (a read-only ``w`` is copied, a broadcast cut short), a
    chunk at a time.

    Each edge gives two keys, row and neighbour, the row in the high
    bits, written a chunk at a time.  When their range ``n << bits`` is
    below 2**31 they are int32 written over the edge's two ids, and the
    sorted keys become ``nbr`` in place, so the build holds no second
    edge-sized array and the graph keeps one word per edge.  Otherwise
    they are a separate int64 array (two words per edge), cut to an
    int32 ``nbr`` at the end: over the ids when no key was folded.

    The edges are unit-weight when, loops dropped, every weight is 1
    (or there is none).  Then the sums are counts, exact in float64 in
    any order: :func:`_key_sums` counts the bare keys, and with no
    duplicate pair ``wgt`` is a broadcast of 1.0.  Otherwise each edge's
    two keys share its one weight in ``w``, which :func:`_key_sums`
    gathers per key through the stable sort order."""
    off = pairs[:, 0] != pairs[:, 1]
    loop = np.bincount(pairs[~off, 0], weights=w[~off], minlength=n)
    if not off.all():
        pairs = _compact(pairs, off)
        w = (w[:len(pairs)] if w.strides == (0,)
             else _compact(w, off) if w.flags.writeable else w[off])
    del off
    # A stride-0 w, such as the reader's broadcast, holds one value.
    unit = not w.size or (w[0] == 1.0 if w.strides == (0,)
                          else w.min() == 1.0 == w.max())
    # Each edge's two keys side by side: both rows see the edges of a
    # pair in array order.
    bits = int(max(n - 1, 0)).bit_length()
    size = n << bits
    keys = (pairs.reshape(-1) if size < 1 << 31
            else np.empty(pairs.size, dtype=np.int64))
    for a in range(0, len(pairs), _CHUNK):
        chunk = pairs[a:a + _CHUNK]
        src, dst = (chunk[:, k].astype(keys.dtype) for k in (0, 1))
        out = keys[2 * a:2 * a + chunk.size].reshape(-1, 2)
        np.left_shift(src, bits, out=out[:, 0])
        out[:, 0] |= dst
        np.left_shift(dst, bits, out=out[:, 1])
        out[:, 1] |= src
    keys, wgt = _key_sums(keys, None if unit else w, size)
    indptr = keys.searchsorted((np.arange(n + 1) << bits).astype(keys.dtype))
    nbr = np.bitwise_and(keys, (1 << bits) - 1, out=keys)
    if nbr.dtype == np.int64 and nbr.size == pairs.size:
        # No key was folded: the ids' buffer takes the int32 nbr.
        pairs.reshape(-1)[:] = nbr
        nbr = pairs.reshape(-1)
    return indptr, nbr.astype(np.int32, copy=False), wgt, loop


def _compact(a, keep):
    """``a[keep]``, written over the front of ``a`` a chunk of
    :data:`_CHUNK` rows at a time; returns that front."""
    end = 0
    for s in range(0, len(a), _CHUNK):
        kept = a[s:s + _CHUNK][keep[s:s + _CHUNK]]
        a[end:end + len(kept)] = kept
        end += len(kept)
    return a[:end]


def _key_sums(keys, weights, size):
    """The distinct ``keys`` (each in ``0..size-1``) in ascending order,
    and for each the sum of its ``weights`` added in input order; keys
    whose sum is zero are dropped.

    ``weights`` holds one weight per key or, when it is shorter than
    ``keys``, one per pair of adjacent keys: ``keys[2e]`` and
    ``keys[2e + 1]`` both weigh ``weights[e]``.  The sums are the same
    bit for bit as with ``np.repeat(weights, 2)``.  ``weights=None``
    weighs every key 1: the sums are the key counts, the same bit for
    bit as summed explicit ones, and when every key is distinct they are
    the read-only ``np.broadcast_to(1.0, k)``, holding no memory.

    One ``bincount`` over ``0..size-1`` when that range is no longer
    than ``keys``, otherwise a sort of ``keys``, which may be
    overwritten: stable, with one gather of ``weights`` in sorted order,
    or, without weights, in place and with no order.
    """
    if size <= keys.size:
        if weights is not None and weights.size < keys.size:
            weights = np.repeat(weights, 2)
        sums = np.bincount(keys, weights, minlength=size)
        keys = np.flatnonzero(sums)
        sums = sums[keys]
    elif weights is None:
        keys.sort()
        first = np.ones(keys.size, dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        sums = None  # every key distinct
        if not first.all():
            starts = np.flatnonzero(first)
            del first
            sums = np.diff(starts, append=keys.size)
            keys = keys[starts]
    else:
        keys, order = _stable_sort(keys, size)
        paired = int(weights.size < keys.size)
        sums = weights[np.right_shift(order, paired, out=order)]
        del order  # freed before the duplicate fold allocates
        first = np.ones(keys.size, dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        if not first.all():
            sums = np.bincount(np.cumsum(first) - 1, sums)
            keys = keys[first]
        keep = sums != 0
        if not keep.all():
            keys, sums = keys[keep], sums[keep]
    if weights is None:  # counts, each at least 1
        sums = (np.broadcast_to(1.0, keys.size)
                if sums is None or not sums.size or sums.max() == 1
                else sums.astype(np.float64))
    return keys, sums


def _stable_sort(keys, size):
    """``(keys[order], order)`` for the stable sort ``order`` of the
    non-negative ``keys``, each below ``size``.  ``keys`` may be
    overwritten."""
    bits = int(keys.size).bit_length()
    if (size - 1) >> (63 - bits) == 0:
        # Each key with its position in the low bits: the values are
        # distinct, so any sort of them is stable in the keys.  Int32
        # keys are packed in an int64 copy and sorted back in place.
        packed = keys.astype(np.int64, copy=False)
        packed <<= bits
        packed |= np.arange(keys.size)
        packed.sort()
        order = packed & ((1 << bits) - 1)
        keys[:] = np.right_shift(packed, bits, out=packed)
        return keys, order
    order = np.argsort(keys, kind="stable")
    return keys[order], order
