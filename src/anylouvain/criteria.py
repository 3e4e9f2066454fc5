"""Pluggable partition-quality criteria for the greedy engine.

The optimizer is written against a five-operation contract, carried out
by :class:`CriterionState` on one state layout for every criterion:

``init``
    Build per-community accumulators for the all-singleton partition.
``remove`` / ``insert``
    Update the accumulators when one node leaves / joins a community.
``gain``
    Score inserting a node into a candidate community.  Gains are
    *scaled*: moving a node changes the quality by exactly
    ``gain_scale * (gain(i, C_new) - gain(i, C_old))`` for a fixed
    positive per-criterion ``gain_scale``, so the argmax over candidates
    is the argmax of the true quality change while the hot loop skips
    candidate-independent terms and global factors.
``total``
    The exact (unscaled) quality of the current partition.

Accumulators per community C: ``in_w[C]``, the internal mass
``sum_{i,j in C} w_ij`` over ordered pairs, self-loops included once;
``tot[C]``, the summed weighted degrees; ``sz[C]``, the summed node sizes
(level-0 node count); ``aux[C]``, the summed per-node auxiliary
constants.  ``kappa``, the number of non-empty communities, is derived
from ``sz``.

A criterion is a subclass of :class:`Criterion` that states its formulas
and nothing else: ``id`` and ``label``; ``gain_scale`` when it is not 2;
:meth:`~Criterion.gain_fn`, its one gain formula; :meth:`~Criterion._total`,
its quality over the accumulators of the non-empty communities; and
:meth:`~Criterion._relational`, the same quality as a literal sum over
ordered node pairs of the level-0 graph, using the pair indicator
``x_ij`` (1 when i and j share a community).  The test suite leans on the
agreement of the two quality paths, so they are kept deliberately
separate.  It declares on the class which shared rules apply to it:
``needs_edge_mass`` when it divides by the edge mass ``2m``,
``weighted_ok = False`` when it is defined on unweighted graphs only,
and a ``reweight`` method when it rewrites the level-0 weights once
before the optimizer runs (``wc``, ``pd``).  The base class states
every rule once: the empty-community mask, :meth:`~Criterion.check`,
the idempotent :meth:`~Criterion.pretreat`, the labels check, and the
check that both quality paths are finite (finite weights whose sums
overflow float64 raise :class:`LouvainError` there, so callers do not
check again).
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from .errors import (
    LouvainError,
    NodeAlreadyPlaced,
    NodeNotInCommunity,
    NotPluggable,
    UnknownCommunity,
    WeightedInputNotSupported,
    ZeroDegreeNode,
    ZeroEdgeMass,
)
from .graph import SENTINEL, singleton_labels

#: Dense cells (8-byte weights) per row block of the pairwise evaluation
#: path, at most 256 rows: a block holds 1 MB whatever the node count.
_CELLS = 1 << 17


class CriterionState:
    """Per-community accumulators plus the node-to-community map.

    Single-writer: one optimization run mutates one state.  ``remove``
    and ``insert`` are exact inverses with the same arguments.  The
    accumulators are numpy arrays, or Python lists in the copy that
    :meth:`as_lists` makes for one optimizer pass; ``remove``, ``insert``
    and ``gain`` only index them, so they work on either.  ``kappa`` is
    derived from the sizes, not kept.
    """

    __slots__ = ("crit", "g", "part", "in_w", "tot", "sz", "aux")

    def __init__(self, crit, g, part, in_w, tot, sz, aux):
        self.crit = crit
        self.g = g
        self.part = part
        self.in_w = in_w
        self.tot = tot
        self.sz = sz
        self.aux = aux

    @property
    def kappa(self):
        """Number of non-empty communities."""
        return int(np.count_nonzero(self.sz))

    def remove(self, i, c, dw):
        """Take node ``i`` out of community ``c``; ``dw = d_w(i, c)``."""
        if self.part[i] != c:
            raise NodeNotInCommunity(f"node {i} is not in community {c}")
        g = self.g
        self.in_w[c] -= 2.0 * dw + g.loop[i]
        self.tot[c] -= g.degrees[i]
        self.sz[c] -= g.size[i]
        self.aux[c] -= g.aux[i]
        self.part[i] = SENTINEL

    def insert(self, i, c, dw):
        """Put the (removed) node ``i`` into community ``c``."""
        if self.part[i] != SENTINEL:
            raise NodeAlreadyPlaced(f"node {i} is already in a community")
        g = self.g
        self.in_w[c] += 2.0 * dw + g.loop[i]
        self.tot[c] += g.degrees[i]
        self.sz[c] += g.size[i]
        self.aux[c] += g.aux[i]
        self.part[i] = c

    def gain(self, i, c, dw):
        """Scaled gain of inserting node ``i`` into community ``c``."""
        if not 0 <= c < len(self.sz):
            raise UnknownCommunity(f"community {c} out of range")
        return float(self.crit.gain_fn(self)(i, c, dw))

    def as_lists(self):
        """Copy of this state on Python lists, node constants included.

        The optimizer runs a pass on this copy: indexing and updating a
        list element costs far less than a numpy scalar access.  The
        copy's ``g`` holds ``consts`` and the node arrays ``degrees``,
        ``loop``, ``size`` and ``aux`` as lists, so ``remove``,
        ``insert`` and ``gain`` work on it unchanged.  :meth:`assign`
        writes it back.
        """
        g = self.g
        nodes = SimpleNamespace(consts=g.consts, degrees=g.degrees.tolist(),
                                loop=g.loop.tolist(), size=g.size.tolist(),
                                aux=g.aux.tolist())
        return CriterionState(self.crit, nodes, self.part.tolist(),
                              self.in_w.tolist(), self.tot.tolist(),
                              self.sz.tolist(), self.aux.tolist())

    def assign(self, other):
        """Overwrite the partition and accumulators with ``other``'s
        (e.g. the list copy of :meth:`as_lists`), in place."""
        self.part[:] = other.part
        self.in_w[:] = other.in_w
        self.tot[:] = other.tot
        self.sz[:] = other.sz
        self.aux[:] = other.aux

    def total(self):
        """Exact quality of the partition held by this state: the
        criterion's :meth:`~Criterion._total` over the non-empty
        communities.  Raises :class:`LouvainError` if it is NaN or
        infinite."""
        live = self.sz > 0
        with np.errstate(over="ignore", invalid="ignore"):
            return _finite(float(self.crit._total(
                self.g.consts, self.in_w[live], self.tot[live],
                self.sz[live], self.aux[live])))


class Criterion:
    """Base class: one stateless descriptor per quality function, which
    applies the shared rules a subclass declares (module docstring)."""

    id = "?"
    label = "?"
    #: Ratio of the true quality change to the scaled gain difference:
    #: ``F(after) - F(before) = gain_scale * (gain(i, C_new) - gain(i, C_old))``.
    gain_scale = 2.0
    #: The quality divides by the edge mass ``2m``: :meth:`check` refuses
    #: a graph with none.
    needs_edge_mass = False
    #: False for a criterion defined on unweighted graphs only:
    #: :meth:`pretreat` refuses any other.
    weighted_ok = True
    #: ``reweight(g)``: the rewritten ``(wgt, loop, aux, extra)`` of a
    #: level-0 ``g`` (an ``aux`` of None keeps the old one, ``extra``
    #: joins the constants), which :meth:`pretreat` applies.
    reweight = None

    def check(self, g):
        """Validate that this criterion is defined on ``g`` (raises)."""
        if (self.reweight is not None
                and g.consts.extra.get("pretreated") != self.id):
            raise LouvainError(
                f"{self.id}: graph must be transformed with pretreat() first")
        if self.needs_edge_mass and g.consts.two_m <= 0:
            raise ZeroEdgeMass(f"{self.id}: graph has no edge mass")

    def pretreat(self, g):
        """The level-0 graph the criterion is optimized on: ``g`` with
        :attr:`reweight` applied, or ``g`` itself when the criterion has
        none or ``g`` was already pretreated for it."""
        if g.consts.extra.get("pretreated") == self.id:
            return g
        if not self.weighted_ok and (np.any(g.wgt != 1.0) or np.any(
                (g.loop != 0.0) & (g.loop != 1.0))):
            raise WeightedInputNotSupported(
                f"{self.id} is limited to unweighted graphs")
        if self.reweight is None:
            return g
        wgt, loop, aux, extra = self.reweight(g)
        return g.replace_weights(wgt, loop, aux=aux,
                                 extra={"pretreated": self.id, **extra})

    def init(self, g):
        """State for the all-singleton partition of ``g``: the same bit
        for bit as :meth:`state_from_labels` of it, in O(n) work.  Each
        node's values are added onto zeros, as the bincounts there do."""
        self.check(g)
        slots = max(g.n, 1) + 1  # the spare slots of state_from_labels
        in_w, tot, aux = (np.zeros(slots) for _ in range(3))
        in_w[:g.n] += g.loop
        tot[:g.n] += g.degrees
        aux[:g.n] += g.aux
        sz = np.zeros(slots, dtype=np.int64)
        sz[:g.n] = g.size
        return CriterionState(self, g, singleton_labels(g.n), in_w, tot, sz,
                              aux)

    def state_from_labels(self, g, labels):
        """State rebuilt from scratch for an arbitrary partition.

        Equivalent to ``init`` followed by moving every node into its
        community; used to cross-check incremental bookkeeping.
        """
        self.check(g)
        labels = _labels(np.asarray(labels, dtype=np.int64), g.n, (1,))
        # At least one spare slot, so an empty community always exists.
        slots = max(g.n + 1, int(labels.max(initial=0)) + 2)
        # Community of each adjacency entry's row, without a row-id array.
        own = np.repeat(labels, np.diff(g.indptr))
        same = own == labels[g.nbr]
        in_w = np.bincount(own[same],
                           None if g.unit_weights else g.wgt[same],
                           minlength=slots).astype(np.float64)
        in_w += np.bincount(labels, weights=g.loop, minlength=slots)
        tot = np.bincount(labels, weights=g.degrees,
                          minlength=slots).astype(np.float64)
        sz = np.bincount(labels, weights=g.size, minlength=slots)
        aux = np.bincount(labels, weights=g.aux,
                          minlength=slots).astype(np.float64)
        return CriterionState(self, g, labels.copy(), in_w, tot,
                              sz.astype(np.int64), aux)

    def gain_fn(self, st):
        """The criterion's gain over the accumulators of ``st``.

        Returns ``gain(i, c, dw)``: the scaled gain of inserting the
        removed node ``i`` into community ``c``, with ``dw = d_w(i, c)``.
        It holds the state's sequences, not their values, so it is
        built once per pass and sees every later ``remove`` / ``insert``;
        it only indexes them, so numpy arrays and the list copy of
        :meth:`CriterionState.as_lists` give bit-identical results.  Over
        numpy accumulators ``i``, ``c`` and ``dw`` may also be arrays
        that broadcast together, ``c`` then of non-empty communities
        (a scalar ``c`` may be empty), each gain bit-identical to the
        scalar call.  It reads a community's accumulators at ``c``
        only.  No range check.
        """
        raise NotImplementedError

    def _total(self, c, in_w, tot, sz, aux):
        """The quality from the graph constants ``c`` and the
        accumulators of the non-empty communities, one entry each."""
        raise NotImplementedError

    def relational(self, g0, labels):
        """Literal pairwise evaluation on the level-0 graph by
        :meth:`_relational`, independent of the accumulator path (the
        shipped criteria sum row blocks of at most 1 MB per partition).

        ``labels`` is one partition, shape ``(n,)``, which gives a float,
        or a stack of ``P`` partitions, shape ``(P, n)``, which gives a
        length-``P`` array scored in one batched pass.  Raises
        :class:`LouvainError` if any quality is NaN or infinite.
        """
        if not g0.is_level0():
            raise ValueError("pairwise evaluation needs a level-0 graph")
        labels = _labels(labels, g0.n, (1, 2))
        self.check(g0)
        with np.errstate(over="ignore", invalid="ignore"):
            f = self._relational(g0, labels)
        # With no nodes there is no row block and f is the scalar 0.
        return _finite(float(f) if labels.ndim == 1
                       else np.full(len(labels), f))

    def _relational(self, g0, labels):
        """The quality of ``labels`` (one partition or a stack, checked)
        as a literal sum over ordered node pairs of ``g0``."""
        raise NotImplementedError

    def __repr__(self):
        return f"<criterion {self.id}>"


def _labels(labels, n, ndims):
    """``labels`` as a C-ordered signed integer array of ``ndims``
    dimensions whose last is ``n``, with no negative id; else raises
    ValueError.  Signed integers keep their dtype (the oracle's int8
    table); anything else is converted as int64.  The order fixes the
    bits: numpy sums a Fortran-ordered stack in another order."""
    if not (isinstance(labels, np.ndarray) and labels.dtype.kind == "i"):
        labels = np.asarray(labels, dtype=np.int64)
    if (labels.ndim not in ndims or labels.shape[-1] != n
            or (labels.size and labels.min() < 0)):
        raise ValueError("labels must assign every node a community")
    return np.ascontiguousarray(labels)


def _finite(q):
    """``q``, a quality or an array of them, if every value is finite;
    else raises :class:`LouvainError` naming the first bad one."""
    ok = np.isfinite(q)
    if not ok.all():
        raise LouvainError(f"quality is {np.ravel(q)[np.argmin(ok)]}: the "
                           "edge weights overflow float64 arithmetic")
    return q


def _blocks(g, labels):
    """Row blocks ``lo, hi, w, x``: the dense weights ``w[lo:hi]`` and
    the pair indicator ``x`` of those rows, with ``labels``'s leading
    batch axis if it has one.

    A block has ``min(256, _CELLS // n)`` rows (at least one), so each
    temporary of a criterion's block sum holds at most :data:`_CELLS`
    cells per partition, and the working memory does not grow with the
    node count.  The rows depend on ``n`` alone, so a batched call sums
    the same blocks as each of its single calls."""
    step = max(1, min(256, _CELLS // max(g.n, 1)))
    for lo in range(0, g.n, step):
        hi = min(lo + step, g.n)
        x = labels[..., lo:hi, None] == labels[..., None, :]
        yield lo, hi, g.dense(lo, hi), x


def _rescaled(g, d, loop):
    """Weights ``h_ij = 2 w_ij / (d_i + d_j)`` of the edges of ``g`` and
    ``h_ii = loop_i / d_i`` of its loops, for the degrees ``d``.

    Degrees that overflow give non-finite weights, which the quality
    check of ``total`` and ``relational`` reports."""
    d_row = np.repeat(d, np.diff(g.indptr))  # d_i of each entry's row i
    with np.errstate(over="ignore", invalid="ignore"):
        return 2.0 * g.wgt / (d_row + d[g.nbr]), loop / d


def _pair_sum(a):
    """Sum over the two node axes, keeping any leading batch axis."""
    return np.sum(a, axis=(-2, -1))


def _inv_size(x):
    """``1 / |C_i|`` for each row node ``i`` of the pair indicator block
    ``x``, shaped to broadcast over its columns."""
    return 1.0 / x.sum(axis=-1, keepdims=True)


class NewmanGirvan(Criterion):
    """Newman-Girvan modularity (unnormalized).

    Quality of a partition X:  ``sum_{i,j} (w_ij - d_i d_j / 2m) x_ij``.
    The classical modularity is this divided by 2m; the constant factor
    changes no argmax, and the gain drops it as well, so the per-move
    score is ``d_w(i,C) - d_i tot[C] / 2m``.
    """

    id = "ng"
    label = "Newman-Girvan"
    needs_edge_mass = True

    def gain_fn(self, st):
        deg, tot, m2 = st.g.degrees, st.tot, st.g.consts.two_m

        def gain(i, c, dw):
            return dw - deg[i] * tot[c] / m2
        return gain

    def _total(self, c, in_w, tot, sz, aux):
        return np.sum(in_w - tot ** 2 / c.two_m)

    def _relational(self, g0, labels):
        d = g0.degrees
        m2 = g0.consts.two_m
        return sum(_pair_sum((w - np.outer(d[lo:hi], d) / m2) * x)
                   for lo, hi, w, x in _blocks(g0, labels))


class ZahnCondorcet(Criterion):
    """Zahn-Condorcet: reward present links inside communities and absent
    links across them.

    Quality: ``sum w_ij x_ij + sum (W - w_ij)(1 - x_ij)`` with ``W`` the
    maximum level-0 weight.  Community-by-community this is
    ``sum_C (2 in[C] - W s[C]^2) + W n^2 - 2m``, hence the gain
    ``2 d_w(i,C) - W s_i s[C]``.
    """

    id = "zc"
    label = "Zahn-Condorcet"

    def gain_fn(self, st):
        size, sz, w_max = st.g.size, st.sz, st.g.consts.w_max

        def gain(i, c, dw):
            return 2.0 * dw - w_max * size[i] * sz[c]
        return gain

    def _total(self, c, in_w, tot, sz, aux):
        per = np.sum(2.0 * in_w - c.w_max * sz ** 2.0)
        return per + c.w_max * c.n0 ** 2 - c.two_m

    def _relational(self, g0, labels):
        wmax = g0.consts.w_max
        return sum(_pair_sum(w * x) + _pair_sum((wmax - w) * ~x)
                   for _, _, w, x in _blocks(g0, labels))


class OwsinskiZadrozny(Criterion):
    """Zahn-Condorcet with a tunable split ``alpha`` between the two
    terms: ``(1-a) sum w x + a sum (W - w)(1 - x)``, 0 < a < 1.

    Larger ``alpha`` demands denser communities (``alpha = 1/2`` recovers
    Zahn-Condorcet up to scale).
    """

    id = "oz"
    label = "Owsinski-Zadrozny"

    def __init__(self, alpha):
        if not 0.0 < alpha < 1.0:
            raise LouvainError(f"oz: alpha must be in (0, 1), got {alpha}")
        self.alpha = float(alpha)

    def gain_fn(self, st):
        size, sz = st.g.size, st.sz
        a_w = self.alpha * st.g.consts.w_max

        def gain(i, c, dw):
            return dw - a_w * size[i] * sz[c]
        return gain

    def _total(self, c, in_w, tot, sz, aux):
        a = self.alpha
        per = np.sum(in_w - a * c.w_max * sz ** 2.0)
        return per + a * (c.w_max * c.n0 ** 2 - c.two_m)

    def _relational(self, g0, labels):
        wmax = g0.consts.w_max
        a = self.alpha
        return sum((1.0 - a) * _pair_sum(w * x)
                   + a * _pair_sum((wmax - w) * ~x)
                   for _, _, w, x in _blocks(g0, labels))


class Marcotorchino(Criterion):
    """Degree-weighted Condorcet criterion on unweighted graphs.

    The adjacency is rescaled once to ``h_ij = 2 a_ij / (d_i + d_j)``
    (after giving every node a unit self-loop, without which the optimum
    is a single community), and the Zahn-Condorcet scheme is applied to
    ``h`` and its complement ``(h_ii + h_jj)/2 - h_ij``.  The per-node
    diagonal ``h_ii`` rides along as the auxiliary constant so the gain
    stays local on coarsened graphs:
    ``2 d_h(i,C) - (c_i s[C] + aux[C] s_i) / 2``.
    """

    id = "wc"
    label = "Marcotorchino"
    weighted_ok = False

    def reweight(self, g):
        # Mandatory unit self-loops, which also raise every degree by 1.
        wgt, loop = _rescaled(g, g.degrees + 1.0, g.loop + 1.0)
        return wgt, loop, loop.copy(), {}

    def gain_fn(self, st):
        naux, size, sz, aux = st.g.aux, st.g.size, st.sz, st.aux

        def gain(i, c, dw):
            return 2.0 * dw - 0.5 * (naux[i] * sz[c] + aux[c] * size[i])
        return gain

    def _total(self, c, in_w, tot, sz, aux):
        per = np.sum(2.0 * in_w - aux * sz)
        return per + c.n0 * aux.sum() - c.two_m

    def _relational(self, g0, labels):
        diag = g0.loop
        return sum(_pair_sum(w * x) + _pair_sum(
            (0.5 * (diag[lo:hi, None] + diag[None, :]) - w) * ~x)
            for lo, hi, w, x in _blocks(g0, labels))


class BalancedModularity(Criterion):
    """Newman-Girvan balanced by the same comparison on missing links.

    Quality: ``sum (w_ij - d_i d_j / 2m) x_ij
    + sum (wbar_ij - D_i D_j / Mbar)(1 - x_ij)`` where
    ``wbar_ij = W s_i s_j - w_ij`` is the absent-link mass, ``D_i = W n
    s_i - d_i`` the complement degree and ``Mbar = W n^2 - 2m`` the total
    complement mass.  The second term's constant part vanishes, leaving a
    purely local gain.  (For unweighted graphs ``W = 1`` and this is the
    textbook form; the ``W``-scaled complement is the natural weighted
    extension.)
    """

    id = "bm"
    label = "Balanced Modularity"
    needs_edge_mass = True

    def check(self, g):
        super().check(g)
        c = g.consts
        if c.w_max * c.n0 ** 2 - c.two_m <= 0:
            raise ZeroEdgeMass(f"{self.id}: graph has no absent-link mass")

    def gain_fn(self, st):
        deg, size, sz, tot = st.g.degrees, st.g.size, st.sz, st.tot
        c = st.g.consts
        m2, w_max = c.two_m, c.w_max
        w_n = c.w_max * c.n0
        mbar = c.w_max * c.n0 ** 2 - c.two_m

        def gain(i, k, dw):
            di, si, sk, tk = deg[i], size[i], sz[k], tot[k]
            return (2.0 * dw - di * tk / m2 - w_max * si * sk
                    + (w_n * si - di) * (w_n * sk - tk) / mbar)
        return gain

    def _total(self, c, in_w, tot, sz, aux):
        mbar = c.w_max * c.n0 ** 2 - c.two_m
        return np.sum(2.0 * in_w - tot ** 2 / c.two_m - c.w_max * sz ** 2.0
                      + (c.w_max * c.n0 * sz - tot) ** 2 / mbar)

    def _relational(self, g0, labels):
        c = g0.consts
        d = g0.degrees
        dbar = c.w_max * c.n0 - d
        mbar = c.w_max * c.n0 ** 2 - c.two_m
        f = 0.0
        for lo, hi, w, x in _blocks(g0, labels):
            f += _pair_sum((w - np.outer(d[lo:hi], d) / c.two_m) * x)
            f += _pair_sum(((c.w_max - w)
                            - np.outer(dbar[lo:hi], dbar) / mbar) * ~x)
        return f


class DeviationToIndetermination(Criterion):
    """Deviation from the indetermination structure:
    ``sum (w_ij - d_i/n - d_j/n + 2m/n^2) x_ij``.
    """

    id = "di"
    label = "Deviation to Indetermination"
    needs_edge_mass = True

    def gain_fn(self, st):
        deg, size, sz, tot = st.g.degrees, st.g.size, st.sz, st.tot
        n0 = st.g.consts.n0
        rho = st.g.consts.two_m / n0 ** 2

        def gain(i, c, dw):
            si, sc = size[i], sz[c]
            return dw - (deg[i] * sc + tot[c] * si) / n0 + rho * si * sc
        return gain

    def _total(self, c, in_w, tot, sz, aux):
        return np.sum(in_w - 2.0 * tot * sz / c.n0
                      + (c.two_m / c.n0 ** 2) * sz ** 2.0)

    def _relational(self, g0, labels):
        c = g0.consts
        d = g0.degrees
        return sum(_pair_sum((w - d[lo:hi, None] / c.n0 - d[None, :] / c.n0
                              + c.two_m / c.n0 ** 2) * x)
                   for lo, hi, w, x in _blocks(g0, labels))


class DeviationToUniformity(Criterion):
    """Deviation from uniform edge density:
    ``sum (w_ij - 2m/n^2) x_ij``."""

    id = "du"
    label = "Deviation to Uniformity"
    needs_edge_mass = True

    def gain_fn(self, st):
        size, sz = st.g.size, st.sz
        rho = st.g.consts.two_m / st.g.consts.n0 ** 2

        def gain(i, c, dw):
            return dw - rho * size[i] * sz[c]
        return gain

    def _total(self, c, in_w, tot, sz, aux):
        return np.sum(in_w - (c.two_m / c.n0 ** 2) * sz ** 2.0)

    def _relational(self, g0, labels):
        c = g0.consts
        return sum(_pair_sum((w - c.two_m / c.n0 ** 2) * x)
                   for _, _, w, x in _blocks(g0, labels))


class GoldbergDensity(Criterion):
    """Average internal density, ``sum_C in[C] / s[C]``.

    Non-linear in the pair indicator but still local: only the source and
    target communities change when a node moves, so the gain is the
    two-term difference ``(in[C] + 2 d_w(i,C) + w_ii) / (s[C] + s_i)
    - in[C] / s[C]`` (second term zero for an empty target).  The true
    quality change equals the gain difference exactly (scale 1).
    """

    id = "g"
    label = "Goldberg density"
    gain_scale = 1.0

    def gain_fn(self, st):
        return _density_gain(st, empty_base=0.0)

    def _total(self, c, in_w, tot, sz, aux):
        return np.sum(in_w / sz)

    def _relational(self, g0, labels):
        return sum(_pair_sum(w * x * _inv_size(x))
                   for _, _, w, x in _blocks(g0, labels))


class ProfileDifference(Criterion):
    """Least-squares fit between the degree-rescaled weights and the
    size-rescaled pair indicator.

    Minimizing ``sum (h_ij - x_ij / |C_i|)^2`` with
    ``h_ij = 2 w_ij / (d_i + d_j)`` is equivalent to maximizing
    ``2 sum_C in_h[C] / s[C] - kappa - S`` where ``S = sum h_ij^2`` is
    fixed by the pretreatment.  The community count ``kappa`` makes the
    empty-target gain carry an explicit ``-1/2`` penalty:
    ``(2 d_h(i,C) + h_ii) / s_i - 1/2``.
    """

    id = "pd"
    label = "Profile Difference"

    def reweight(self, g):
        d = g.degrees
        if np.any(d == 0.0):
            raise ZeroDegreeNode(
                "pd: degree-rescaled weights undefined for isolated nodes")
        wgt, loop = _rescaled(g, d, g.loop)
        return wgt, loop, None, {"sq_sum": float(np.sum(wgt ** 2)
                                                 + np.sum(loop ** 2))}

    def gain_fn(self, st):
        # The empty target's base of 1/2 is the -1/2 kappa penalty.
        return _density_gain(st, empty_base=0.5)

    def _total(self, c, in_w, tot, sz, aux):
        return 2.0 * np.sum(in_w / sz) - sz.size - c.extra["sq_sum"]

    def _relational(self, g0, labels):
        f = kappa = sq = 0.0
        for lo, _, w, x in _blocks(g0, labels):
            f += _pair_sum(w * x * _inv_size(x))
            # A node opens its community if no earlier node shares it.
            kappa += np.sum(~np.tril(x, lo - 1).any(axis=-1), axis=-1)
            sq += np.sum(w ** 2)
        return 2.0 * f - kappa - sq


def _density_gain(st, empty_base):
    """Gain shared by the density criteria ``g`` and ``pd``: the
    candidate's density after insertion minus its density before, the
    latter taken as ``empty_base`` for an empty candidate.  The insertion
    mass ``2 d_w(i,C) + w_ii`` carries the factor 2 and the loop term."""
    loop, size, in_w, sz = st.g.loop, st.g.size, st.in_w, st.sz

    def gain(i, c, dw):
        ins, sc = in_w[c], sz[c]
        try:
            base = ins / sc if sc > 0 else empty_base
        except ValueError:
            # An index array, whose communities are all non-empty.
            base = ins / sc
        return (ins + (2.0 * dw + loop[i])) / (sc + size[i]) - base
    return gain


CRITERIA = {
    cls.id: cls
    for cls in (NewmanGirvan, ZahnCondorcet, OwsinskiZadrozny,
                Marcotorchino, BalancedModularity,
                DeviationToIndetermination, DeviationToUniformity,
                GoldbergDensity, ProfileDifference)
}

#: Criteria whose quality is affine in the pair indicator; these are the
#: ones guaranteed to drop into the greedy engine, and the ones
#: ``oracle.exact_optimum`` scores from pair coefficients.  The tests
#: ``test_linear_criteria_are_affine_in_the_pair_indicator`` and
#: ``test_other_criteria_are_not_affine`` (``tests/test_oracle.py``)
#: check the label both ways.
LINEAR_CRITERIA = ("ng", "zc", "oz", "wc", "bm", "di", "du")

#: The seven criteria exercised by the benchmark table ("all" keyword).
EXPERIMENT_CRITERIA = ("ng", "zc", "di", "du", "bm", "g", "pd")

# Quality functions that exist in the literature but cannot be driven by
# single-node moves, with the reason each is rejected.
NOT_PLUGGABLE = {
    "mg": ("mancoridis-gansner is not pluggable: its cross-community term "
           "couples all communities, so one node move cannot be scored "
           "from the affected communities alone"),
    "sm": ("shi-malik is not pluggable: without fixing the number of "
           "communities up front, its optimum degenerates to one "
           "community holding every node"),
    "md": ("michalski-decaestecker is not pluggable: without fixing the "
           "number of communities up front, its optimum degenerates to "
           "all-singleton communities"),
}


def as_criterion(criterion, alpha=None):
    """Resolve ``criterion`` to a criterion object: a :class:`Criterion`
    is returned unchanged, an id (``ng``, ``zc``, ``oz``, ``wc``, ``bm``,
    ``di``, ``du``, ``g``, ``pd``, in any case) builds one.

    ``alpha`` is required for ``oz`` (0 < alpha < 1) and ignored
    otherwise.  Ids of known non-pluggable criteria raise
    :class:`NotPluggable` with the reason.
    """
    if isinstance(criterion, Criterion):
        return criterion
    if not isinstance(criterion, str):
        raise LouvainError("criterion must be an id or a Criterion, got "
                           f"{criterion!r}")
    crit_id = criterion.lower()
    if crit_id in NOT_PLUGGABLE:
        raise NotPluggable(NOT_PLUGGABLE[crit_id])
    cls = CRITERIA.get(crit_id)
    if cls is None:
        known = ", ".join(sorted(CRITERIA))
        raise LouvainError(f"unknown criterion {crit_id!r} (known: {known})")
    if crit_id == "oz":
        if alpha is None:
            raise LouvainError("oz requires alpha in (0, 1)")
        return cls(alpha)
    return cls()


def relational_total(criterion, g0, labels, *, alpha=None):
    """Pairwise-sum quality of ``labels`` on the level-0 graph ``g0``.

    This is the independent evaluation path; for ``wc`` and ``pd`` the
    graph must already be pretreated.
    """
    return as_criterion(criterion, alpha).relational(g0, labels)


#: A float sum is off by at most eps times the summed magnitudes of its
#: terms (Higham 2002, sec. 4.2); 2**10 covers the length of the sums.
_ROUNDING = 2.0 ** 10 * np.finfo(float).eps


def tolerance(g0):
    """How far two evaluations of one quality, or of one quality change,
    on ``g0``'s level-0 graph may differ by rounding alone.  ``two_m +
    w_max * n0**2 + n0`` bounds, within a small factor, the summed
    magnitudes of any built-in criterion's terms; each product is taken
    before the sum, so the bound is finite wherever the qualities are."""
    c = g0.consts
    return _ROUNDING * c.w_max * c.n0 ** 2 + _ROUNDING * (c.two_m + c.n0)
