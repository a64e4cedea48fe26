"""Minimum-degree separators and hyperarc-connectivity via max flow.

A directed hypergraph expands into a capacitated incidence digraph with one
extra node per hyperarc: hyperarc ``(X, v)`` on edge ``e`` becomes the
unit-capacity arc ``w_e -> v`` plus an unsaturable arc ``x -> w_e`` for every
tail ``x`` in ``X`` (capacity ``m + 1``, which no flow can fill because every
source-sink path crosses some unit arc).  A minimum cut in that digraph is a
minimum out-degree separator of the hypergraph, and the set of nodes
reachable from the sources in the final residual network is the unique
inclusion-minimal minimizer.  In-degree separators use the arc-reversed
digraph: the same residual network with each pair's capacities swapped.

Vertex ``i`` is node ``i``; the node for edge ``e`` is ``n + e``.  Every
residual search runs forward, in one routine (:func:`_search`): a
breadth-first search seeded with every source that ends at the first sink.
A question about the reversed digraph, or one better asked from the sink
side, is the same search on the capacities with each pair swapped.

The digraph's shape depends only on the hypergraph: edge ``e`` has one
residual pair per incidence ``(e, x)``, and its head only decides their
capacities.  So a hypergraph has one :class:`IncidenceDigraph`, built once
for a reference orientation and kept for the last hypergraph seen, and an
orientation is only a capacity array on it (:func:`network`).  Every query,
of either side and on any orientation, runs on that digraph with a
``residual=`` array; ``arc_cap`` belongs to the reference orientation.

The hyperarc-connectivity is a sink sequence (Hao and Orlin, J. Algorithms
1994, in augmenting-path form), run mirrored: per side, ``n - 1`` flows
from one new vertex each into the growing set of earlier ones, on one kept
residual array, so that after the first few each flow is a short search
from its new vertex.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from .core import (
    Hypergraph,
    InvariantViolation,
    Orientation,
    PreconditionError,
    VertexSet,
    _same_instance,
)


@dataclass(frozen=True)
class IncidenceDigraph:
    """Capacitated digraph as a plain arc list ``(from, to, capacity)``.

    The residual arrays are derived once: residual arc ``2j`` is input arc
    ``j`` and ``2j + 1`` its reverse, so arc ``i``'s partner is ``i ^ 1``
    and its tail is ``arc_head[i ^ 1]``; ``arc_head`` and ``arc_cap`` (the
    capacities before any flow) are indexed by residual arc, and ``adj[u]``
    lists the residual arcs leaving ``u`` in ascending ``(head, index)``
    order, so every flow explores in a reproducible order.  The digraph is
    only ever searched forward; its reverse is the same arrays with each
    residual pair's capacities swapped (:func:`_swapped`).
    """

    n_nodes: int
    arcs: tuple[tuple[int, int, int], ...]
    arc_head: tuple[int, ...] = field(init=False, repr=False, compare=False)
    arc_cap: tuple[int, ...] = field(init=False, repr=False, compare=False)
    adj: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        head: list[int] = []
        cap: list[int] = []
        adj: list[list[int]] = [[] for _ in range(self.n_nodes)]
        for u, v, c in self.arcs:
            if not (0 <= u < self.n_nodes and 0 <= v < self.n_nodes):
                raise PreconditionError("arc endpoint out of range")
            if u == v or c <= 0:
                raise PreconditionError("arcs need distinct endpoints and positive capacity")
            adj[u].append(len(head))
            head.append(v)
            cap.append(c)
            adj[v].append(len(head))
            head.append(u)
            cap.append(0)
        for lst in adj:
            lst.sort(key=head.__getitem__)  # stable: ties keep ascending index
        object.__setattr__(self, "arc_head", tuple(head))
        object.__setattr__(self, "arc_cap", tuple(cap))
        object.__setattr__(self, "adj", tuple(map(tuple, adj)))


def incidence_digraph(h: Hypergraph, o: Orientation) -> IncidenceDigraph:
    """Incidence digraph of a directed hypergraph."""
    _same_instance(h, o)
    n, m = h.n, h.m
    big = m + 1
    arcs = []
    for e in range(m):
        w = n + e
        head = o.heads[e]
        for x in h.edges[e]:
            if x != head:
                arcs.append((x, w, big))
        arcs.append((w, head, 1))
    return IncidenceDigraph(n + m, tuple(arcs))


# (h, g, blocks, ref_heads) of the last hypergraph :func:`_topology` saw
_memo: Optional[tuple[Hypergraph, IncidenceDigraph, list[list[tuple[int, int]]], tuple[int, ...]]] = None


def _topology(h: Hypergraph) -> tuple[IncidenceDigraph, list[list[tuple[int, int]]], tuple[int, ...]]:
    """``(g, blocks, ref_heads)``: ``g`` is ``incidence_digraph(h, o_ref)``
    for the orientation ``o_ref`` that points every edge at its smallest
    vertex, ``blocks`` its :func:`_blocks` and ``ref_heads`` the heads of
    ``o_ref``.  Kept for the last hypergraph seen, by identity, in one slot
    read once per call, so threads on other hypergraphs only cost rebuilds.
    The slot holds ``h`` itself, which is immutable, so its identity cannot
    pass to another hypergraph while the slot keeps it."""
    global _memo
    memo = _memo
    if memo is None or memo[0] is not h:
        ref = Orientation(h, tuple(min(e) for e in h.edges))
        g = incidence_digraph(h, ref)  # the module global, so a patched builder counts it
        _memo = memo = (h, g, _blocks(g, h.n), ref.heads)
    return memo[1:]


def network(h: Hypergraph, o: Orientation) -> tuple[IncidenceDigraph, list[int]]:
    """``(g, cap)``: the one incidence digraph of ``h`` from
    :func:`_topology`, and a fresh list of ``o``'s capacities on it (``g``'s
    ``arc_cap`` with each edge whose head differs from the reference
    rewritten by :func:`_write`).  Every query on ``o`` runs on ``g`` with
    ``residual=`` a copy of ``cap``, or of ``_swapped(cap)`` for the in
    side; each node's residual heads are distinct, so it runs as on a
    fresh ``incidence_digraph(h, o)``."""
    _same_instance(h, o)
    g, blocks, ref_heads = _topology(h)
    cap, big = list(g.arc_cap), h.m + 1
    for e, head in enumerate(o.heads):
        if head != ref_heads[e]:
            _write(cap, blocks[e], head, big)
    return g, cap


def _swapped(cap: list[int]) -> list[int]:
    """A copy of ``cap`` with each residual pair's capacities swapped: the
    capacities of the arc-reversed digraph, on which in-degree queries run
    as out-degree ones."""
    cap = list(cap)
    cap[0::2], cap[1::2] = cap[1::2], cap[0::2]
    return cap


def _terminals(nodes: Iterable[int]) -> list[int]:
    if isinstance(nodes, int):
        return [nodes]
    try:
        return list(nodes)
    except TypeError:
        raise PreconditionError("sources and sinks must be node collections or single nodes") from None


def _search(
    g: IncidenceDigraph, cap: list[int], roots: list[int], is_sink: list[bool]
) -> tuple[list[int], list[int], int]:
    """One breadth-first search from every root over the residual arcs of
    ``g`` with capacity left in ``cap``, stopping at the first sink.

    Returns ``(parent, labelled, hit)``: ``parent[v]`` is the residual arc
    that labelled ``v`` (``-2`` for a root, ``-1`` if unlabelled), ``hit``
    the sink reached or ``-1``, and ``labelled`` the search's queue, roots
    first.  When no sink is reached, ``labelled`` is every node reachable
    from the roots.
    """
    parent = [-1] * g.n_nodes
    for s in roots:
        parent[s] = -2
    labelled = list(roots)
    adj, head = g.adj, g.arc_head
    for u in labelled:  # the list grows while it is scanned
        for i in adj[u]:
            if cap[i] > 0:
                v = head[i]
                if parent[v] == -1:
                    parent[v] = i
                    if is_sink[v]:
                        return parent, labelled, v
                    labelled.append(v)
    return parent, labelled, -1


def max_flow_min_cut(
    g: IncidenceDigraph,
    sources: Iterable[int],
    sinks: Iterable[int],
    limit: Optional[int] = None,
    residual: Optional[list[int]] = None,
) -> tuple[int, Optional[frozenset[int]]]:
    """Shortest-augmenting-path max flow from a node set to a disjoint node
    set, with the minimal min-cut side.  A single node may stand for a
    one-node set.

    Returns ``(value, nodes)`` where ``nodes`` is everything reachable from
    the sources in the final residual network: the source side of the unique
    inclusion-minimal minimum cut.  With ``limit`` set, augmentation stops
    once ``limit`` units flow; the result is then ``(limit, None)`` and means
    "the max flow is at least ``limit``".

    ``residual`` (one capacity per residual arc) starts the search from a
    flow already in place instead of from ``g.arc_cap``, and is updated in
    place; ``value`` then counts only the units this call adds.

    Each round is one :func:`_search` from all the sources that stops at the
    first sink; its path is walked back along arc tails and augmented.  The
    round that reaches no sink has labelled exactly the residual-reachable
    side.  A query with many sources and one sink is cheaper mirrored: from
    the sink to the sources on the capacities ``_swapped``, where the
    labelled side is the complement of the maximal minimum-cut side.
    """
    n_nodes = g.n_nodes
    roots, targets = _terminals(sources), _terminals(sinks)
    if not roots or not targets:
        raise PreconditionError("sources and sinks must be nonempty")
    if min(roots + targets) < 0 or max(roots + targets) >= n_nodes:
        raise PreconditionError("source or sink out of range")
    is_sink = [False] * n_nodes
    for t in targets:
        is_sink[t] = True
    if any(is_sink[s] for s in roots):
        raise PreconditionError("sources and sinks must be disjoint")
    if residual is None:
        cap = list(g.arc_cap)
    elif len(residual) == len(g.arc_cap):
        cap = residual
    else:
        raise PreconditionError("residual needs one capacity per residual arc")

    head = g.arc_head
    flow = 0
    while limit is None or flow < limit:
        parent, labelled, hit = _search(g, cap, roots, is_sink)
        if hit < 0:
            return flow, frozenset(labelled)
        bottleneck = None if limit is None else limit - flow
        v = hit
        while (i := parent[v]) >= 0:
            if bottleneck is None or cap[i] < bottleneck:
                bottleneck = cap[i]
            v = head[i ^ 1]
        v = hit
        while (i := parent[v]) >= 0:
            cap[i] -= bottleneck
            cap[i ^ 1] += bottleneck
            v = head[i ^ 1]
        flow += bottleneck
    return flow, None


@dataclass(frozen=True)
class SeparatorResult:
    """Minimum degree over the constrained separators plus the unique
    inclusion-minimal minimizer."""

    value: int
    separator: VertexSet


def _solve(
    h: Hypergraph,
    o: Orientation,
    side: str,
    source_set: VertexSet,
    avoid_set: VertexSet,
    limit: Optional[int] = None,
    net: Optional[tuple[IncidenceDigraph, list[int]]] = None,
) -> tuple[int, Optional[VertexSet]]:
    """Minimize out-degree (``side='out'``) or in-degree (``side='in'``) over
    vertex sets that contain all of ``source_set`` and avoid ``avoid_set``.

    Returns ``(value, minimal minimizer)``; ``(limit, None)`` when the
    minimum is at least ``limit``.  ``net`` is ``network(h, o)`` when the
    caller already holds it; an in-side query runs on its capacities
    ``_swapped``, and neither query changes them.
    """
    g, cap = network(h, o) if net is None else net
    residual = _swapped(cap) if side == "in" else list(cap)
    value, reach = max_flow_min_cut(g, source_set, avoid_set, limit=limit, residual=residual)
    if reach is None:
        return value, None
    return value, _separator(h.n, reach, source_set, avoid_set)


def _separator(n: int, reach: Iterable[int], source_set: VertexSet, avoid_set: VertexSet) -> VertexSet:
    """The vertices of a residual-reachable node set, checked against the
    query's constraints."""
    mask = 0
    for node in reach:
        if node < n:
            mask |= 1 << node
    separator = VertexSet.from_mask(n, mask)
    if not source_set <= separator or separator.mask & avoid_set.mask:
        raise InvariantViolation("separator missed its constraints")
    return separator


def min_out_separator(h: Hypergraph, o: Orientation, s: int, sinks: VertexSet) -> SeparatorResult:
    """Minimum out-degree over sets containing ``s`` and avoiding ``sinks``,
    together with the inclusion-minimal minimizer."""
    if not 0 <= s < h.n:
        raise PreconditionError(f"vertex {s} out of range")
    if sinks.is_empty:
        raise PreconditionError("sink set must be nonempty")
    if s in sinks:
        raise PreconditionError("source lies in the sink set")
    value, separator = _solve(h, o, "out", VertexSet.singleton(h.n, s), sinks)
    assert separator is not None
    return SeparatorResult(value, separator)


def min_in_separator(h: Hypergraph, o: Orientation, t: int, sources: VertexSet) -> SeparatorResult:
    """Minimum in-degree over sets containing ``t`` and avoiding ``sources``,
    together with the inclusion-minimal minimizer."""
    if not 0 <= t < h.n:
        raise PreconditionError(f"vertex {t} out of range")
    if sources.is_empty:
        raise PreconditionError("source set must be nonempty")
    if t in sources:
        raise PreconditionError("sink lies in the source set")
    value, separator = _solve(h, o, "in", VertexSet.singleton(h.n, t), sources)
    assert separator is not None
    return SeparatorResult(value, separator)


def _root_pairs(n: int) -> list[tuple[int, int]]:
    """The (source, sink) queries against vertex 0 that
    :class:`IncrementalConnectivity` keeps, in its order."""
    return [(s, t) for v in range(1, n) for s, t in ((0, v), (v, 0))]


def connectivity(
    h: Hypergraph, o: Orientation, cap: Optional[int] = None
) -> tuple[int, Optional[VertexSet]]:
    """Hyperarc-connectivity with a set attaining it, as ``(value, x)``.

    ``value`` is exact whenever it is below ``cap`` (a value equal to
    ``cap`` means "at least ``cap``").  ``x`` is a vertex set of out-degree
    ``value``, or ``None`` when no set has out-degree below ``cap``.

    A sink sequence in the manner of Hao and Orlin, run mirrored on
    ``network(h, o)``: each query flows from one new vertex ``t`` into all
    the earlier ones, ``[0 .. t - 1]``, capped at the best value so far, for
    ``t = 1 .. n - 1``.  One pass covers the sets that contain vertex 0, as
    the in-degree of their complements, on ``o``'s capacities ``_swapped``;
    the other the sets that miss it, on those capacities as they are.  It is
    exact: if ``Y`` (a complement in the first pass) attains the minimum and
    ``t`` is its smallest vertex, every sink of that query lies outside
    ``Y``.  A pass keeps one residual array throughout.  Every unit of the
    flow in it runs between nodes that are sinks of the next query, so the
    flow is net zero across each of that query's cuts, every cut keeps its
    capacity, and the next query resumes from it without a reset.

    ``x`` comes from the query that last lowered the value: on the first
    pass, the complement of its minimal side, which is the maximal set of
    that out-degree holding ``[0 .. t - 1]`` and missing ``t``; on the
    second, its minimal side.  Either has out-degree ``value``, but another
    sink order may find another such set.
    """
    n = h.n
    g, arc_cap = network(h, o)
    best = h.m + 1 if cap is None else cap
    found = None
    for holds_0 in (True, False):
        if best == 0:
            break
        residual = _swapped(arc_cap) if holds_0 else list(arc_cap)
        sinks = [0]
        for t in range(1, n):
            value, reach = max_flow_min_cut(g, t, sinks, limit=best, residual=residual)
            if reach is not None:  # below the best value so far
                side = _separator(n, reach, VertexSet.singleton(n, t), VertexSet(n, sinks))
                best, found = value, side.complement() if holds_0 else side
                if best == 0:
                    break
            sinks.append(t)
    return best, found


def hyperarc_connectivity(h: Hypergraph, o: Orientation) -> int:
    """Largest ``k`` such that every nonempty proper vertex set has
    out-degree at least ``k``."""
    return connectivity(h, o)[0]


def _blocks(g: IncidenceDigraph, n: int) -> list[list[tuple[int, int]]]:
    """Per edge ``e`` of an incidence digraph ``g`` on ``n`` vertices, its block:
    one ``(i, x)`` per incidence ``(e, x)``, where ``i`` indexes the residual
    ``x -> w_e`` arc (``2j`` for a tail's input arc ``j``, ``2j + 1`` for the
    head's)."""
    blocks: list[list[tuple[int, int]]] = [[] for _ in range(g.n_nodes - n)]
    for j, (u, v, _) in enumerate(g.arcs):  # a tail's u -> w_e or the head's w_e -> v
        x, w, i = (u, v, 2 * j) if v >= n else (v, u, 2 * j + 1)
        blocks[w - n].append((i, x))
    return blocks


def _write(res: list[int], block: list[tuple[int, int]], head: int, big: int) -> None:
    """Set one edge's block of ``res`` to its capacities with head ``head``
    (a tail's pair ``(big, 0)``, the head's ``(0, 1)``, ``big = m + 1``), with
    no flow through ``w_e``.  Every residual pair holds the capacities a
    fresh build under that head would give it, and each node's residual
    heads are distinct, so searches run as on the fresh build."""
    for i, x in block:
        res[i], res[i ^ 1] = (0, 1) if x == head else (big, 0)


class IncrementalConnectivity:
    """The value of ``connectivity(h, o, cap)`` kept current across
    single-hyperarc reorientations, by repairing flows instead of
    recomputing them.

    It runs on ``network(h, o)``: the hypergraph's one digraph, which has
    one residual pair per incidence ``(e, x)``, and ``o``'s capacities on
    it; ``i`` indexes the ``x -> w_e`` arc (``2j`` for a tail's input arc
    ``j``, ``2j + 1`` for the head's).  The orientation lives only in the
    capacities: a tail's ``(i, i ^ 1)`` holds ``(m + 1, 0)``, the head's
    ``(0, 1)``, so a reorientation rewrites only ``e``'s block.  The blocks
    (from :func:`_topology`) and that rewrite (:func:`_write`) are shared
    with :func:`network` and :func:`~hyperorient.augment.verify_trace`,
    which rewrites one capacity array per trace with them: one capacity
    encoding, and no shared flow.  It keeps one query per root pair, vertex
    0 to each other vertex and back (not :func:`connectivity`'s sink
    sequence, whose queries build on each other).  Each keeps a residual
    array holding a flow capped at ``cap`` and, below the cap, a minimum
    cut (a node set whose capacity equals the flow).

    One reorientation moves every out-degree by at most one, so it moves
    every query's value by at most one, and at most one flow unit crosses
    ``w_e``.  When ``e`` turns from head ``a`` to head ``b``, every query
    writes ``e``'s new capacities with no flow through ``w_e``.  A query
    whose flow sent a unit ``x -> w_e -> a`` then reroutes it from ``x`` to
    ``a``; if no path exists it hands the unit back, along ``x`` to the
    source and the sink to ``a``, and loses it.  A query still at the cap is
    done.  Below the cap, the kept cut still proves the flow maximum when
    its new capacity equals the flow, and the minimal cut (the
    residual-reachable side) is a subset of it; otherwise the query
    augments toward the cap, which also yields its reachable side.  Every
    push is a :func:`max_flow_min_cut` call.

    :meth:`raise_cap` lifts the cap from one level to the next: a query
    below the old cap is already maximum, and one at it resumes its flow
    toward the new cap, so the flows outlive a level.  Below the cap each
    kept flow is a maximum flow, so its residual holds the minimal sides of
    the query's minimum cut.  :func:`~hyperorient.families.compute_families`
    reads its minimal tight sets from them through :meth:`minimal_tight`,
    after checking :attr:`heads` and :attr:`cap`: one residual search each,
    with no flow.
    """

    def __init__(self, h: Hypergraph, o: Orientation, cap: int) -> None:
        if cap < 0:
            raise PreconditionError("cap must be non-negative")
        n = h.n
        self.hypergraph = h
        self.cap = cap
        self.heads = list(o.heads)
        self._g, arc_cap = network(h, o)
        self._blocks = _topology(h)[1]
        self._pairs = _root_pairs(n)
        self._res = [list(arc_cap) for _ in self._pairs]
        self._value = [0] * len(self._pairs)
        self._cut: list[Optional[frozenset[int]]] = [None] * len(self._pairs)
        for p in range(len(self._pairs)):
            self._augment(p)
        self.value = min(self._value, default=cap)

    def minimal_tight(self, x: VertexSet, side: str, k: int) -> Optional[VertexSet]:
        """The inclusion-minimal set of ``side``-degree ``k`` that contains
        ``x`` and avoids vertex 0, or ``None``, from the kept query of the
        root pair of ``x``'s smallest vertex ``s`` (``s -> 0`` for
        ``side='out'``, ``0 -> s`` for ``'in'``), which must not be below
        ``k``.  At value ``k`` the query's flow is maximum, and it is also a
        flow from all of ``x``: so the set is what one :func:`_search` from
        ``x`` labels in its residual (on the in side, with each residual
        pair swapped), and ``None`` when that search reaches vertex 0.  An
        empty ``x`` or a ``side`` other than ``'out'`` and ``'in'`` raises
        :class:`PreconditionError`."""
        if side not in ("out", "in"):
            raise PreconditionError(f"side must be 'out' or 'in', not {side!r}")
        if not x:
            raise PreconditionError("minimal_tight needs a nonempty set")
        n, g = self.hypergraph.n, self._g
        s = next(iter(x))
        p = 2 * s - 1 if side == "out" else 2 * s - 2
        if s == 0 or self._value[p] != k:
            return None
        res = self._res[p] if side == "out" else _swapped(self._res[p])
        is_sink = [False] * g.n_nodes
        is_sink[0] = True
        _, labelled, hit = _search(g, res, list(x), is_sink)
        return None if hit >= 0 else _separator(n, labelled, x, VertexSet.singleton(n, 0))

    def raise_cap(self, cap: int) -> int:
        """Raise :attr:`cap` to ``cap``; each query at the old cap augments
        from its kept flow.  Returns the new :attr:`value`."""
        if cap < self.cap:
            raise PreconditionError(f"cap {cap} is below the current cap {self.cap}")
        old, self.cap = self.cap, cap
        for p, value in enumerate(self._value):
            if value == old < cap:
                self._augment(p)
        self.value = min(self._value, default=cap)
        return self.value

    def _augment(self, p: int) -> None:
        """Push query ``p`` up to the cap, recording its reachable side."""
        s, t = self._pairs[p]
        value, reach = max_flow_min_cut(
            self._g, s, t, limit=self.cap - self._value[p], residual=self._res[p]
        )
        self._value[p] += value
        self._cut[p] = reach

    def _push_unit(self, res: list[int], src: int, dst: int) -> bool:
        return max_flow_min_cut(self._g, src, dst, limit=1, residual=res)[0] == 1

    def reorient(self, e: int, new_head: int) -> int:
        """Turn edge ``e`` toward ``new_head``; returns the new :attr:`value`,
        the connectivity capped at :attr:`cap`."""
        h = self.hypergraph
        if not 0 <= e < h.m:
            raise PreconditionError(f"edge {e} out of range")
        a, b, w = self.heads[e], new_head, h.n + e
        if b not in h.edges[e] or b == a:
            raise PreconditionError(f"illegal new head {b} for edge {e}")
        block = self._blocks[e]
        into_a = next(i for i, x in block if x == a)  # residual w_e -> a is into_a ^ 1
        self.heads[e] = b
        for p, (s, t) in enumerate(self._pairs):
            res, before, cut = self._res[p], self._value[p], self._cut[p]
            carrier = next((x for i, x in block if res[i ^ 1]), None) if res[into_a] else None
            _write(res, block, b, h.m + 1)
            if carrier is not None and not self._push_unit(res, carrier, a):
                for src, dst in ((carrier, s), (t, a)):  # hand the unit back
                    if src != dst and not self._push_unit(res, src, dst):
                        raise InvariantViolation("a flow unit through a reoriented edge has no way back")
                self._value[p] -= 1
            if self._value[p] == self.cap:
                continue
            if cut is not None:
                # the kept cut's capacity after the step: only e's share moves
                if w in cut:
                    capacity = before - (a not in cut) + (b not in cut)
                elif a in cut:
                    capacity = None  # the new tail a inside, w_e outside: unbounded
                else:
                    capacity = before
                if capacity == self._value[p]:
                    continue
            self._augment(p)
        self.value = min(self._value, default=self.cap)
        return self.value

    def witness(self) -> Optional[VertexSet]:
        """A set of out-degree :attr:`value`: the minimal minimizer of the
        first root pair attaining it, or ``None`` at the cap.  That query's
        flow is maximum, so resuming it adds nothing and its one failing
        search labels the minimal side.  It may differ from the set
        :func:`connectivity` returns."""
        if self.value >= self.cap:
            return None
        p = self._value.index(self.value)
        self._augment(p)
        if self._value[p] != self.value:
            raise InvariantViolation("a kept cut was not a minimum cut")
        s, t = self._pairs[p]
        n = self.hypergraph.n
        return _separator(n, self._cut[p], VertexSet.singleton(n, s), VertexSet.singleton(n, t))
