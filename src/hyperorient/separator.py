"""Minimum-degree separators and hyperarc-connectivity via max flow.

A directed hypergraph is a flow network in which every hyperarc carries at
most one unit, entering through one of its tails and leaving through its
head (as an incidence digraph: a node ``w_e`` per hyperarc, a unit arc
``w_e -> head`` and an unsaturable arc ``x -> w_e`` per tail ``x``).  A
minimum cut is a minimum out-degree separator of the hypergraph, and the
vertices reachable from the sources in the final residual network are the
unique inclusion-minimal minimizer.  :func:`min_separator` asks this for the
sets that contain one vertex set and avoid another, on either side: the
minimum out-degree, or the minimum in-degree as the same flow run backward.

The residual of such a flow is again an orientation: each hyperarc that
carries a unit is turned toward the tail the unit entered by, and every
other hyperarc keeps its head.  So a flow here is only a list of heads, one
per edge.  An augmenting path is a directed hyperpath in the orientation it
holds, and augmenting reverses that path in place, one hyperarc at a time,
as the single-hyperarc reorientations of the source paper and of Ito et al.
2022 do.  Every residual search is one breadth-first search over the
hypergraph's incidences (:func:`_search`), seeded with every source and
ending at the first sink.  It runs forward, from tails to heads, or
backward, from heads to tails: the in-degree queries, and the ones better
asked from the sink side, are the same search run backward.

The incidences depend only on the hypergraph, so it has one
:class:`IncidenceDigraph`, kept for the last hypergraph seen
(:func:`network`), and every query on any orientation runs on it with
``residual=`` a copy of that orientation's heads.

The hyperarc-connectivity is a sink sequence (Hao and Orlin, J. Algorithms
1994, in augmenting-path form), run mirrored: per side, ``n - 1`` flows
from one new vertex each into the growing set of earlier ones, on one kept
heads list, so that after the first few each flow is a short search from
its new vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    """The incidences of a hypergraph on ``n`` vertices: ``members[e]`` holds
    edge ``e``'s vertices and ``inc[v]`` the edges at vertex ``v``, both
    ascending, so every search explores in a reproducible order.  ``arcs``
    lists the incidences ``(x, e)``, one per arc of the incidence digraph
    (``x -> w_e`` for a tail, ``w_e -> x`` for the head).  The orientation
    is not part of it: each search takes one as a list of heads."""

    n: int
    members: tuple[tuple[int, ...], ...]
    inc: tuple[tuple[int, ...], ...]
    arcs: tuple[tuple[int, int], ...]


def incidence_digraph(h: Hypergraph) -> IncidenceDigraph:
    """The incidences of ``h``."""
    members = tuple(tuple(edge) for edge in h.edges)
    inc: list[list[int]] = [[] for _ in range(h.n)]
    for e, edge in enumerate(members):
        for x in edge:
            inc[x].append(e)
    arcs = tuple((x, e) for e, edge in enumerate(members) for x in edge)
    return IncidenceDigraph(h.n, members, tuple(map(tuple, inc)), arcs)


# (h, g) for the last hypergraph :func:`network` saw
_memo: Optional[tuple[Hypergraph, IncidenceDigraph]] = None


def network(h: Hypergraph) -> IncidenceDigraph:
    """The one :class:`IncidenceDigraph` of ``h``.  Kept for the last
    hypergraph seen, by identity, in one slot read once per call, so threads
    on other hypergraphs only cost rebuilds.  The slot holds ``h`` itself,
    which is immutable, so its identity cannot pass to another hypergraph
    while the slot keeps it."""
    global _memo
    memo = _memo
    if memo is None or memo[0] is not h:
        _memo = memo = (h, incidence_digraph(h))  # the module global, so a patched builder counts it
    return memo[1]


def _terminals(nodes: Iterable[int]) -> list[int]:
    if isinstance(nodes, int):
        return [nodes]
    try:
        return list(nodes)
    except TypeError:
        raise PreconditionError("sources and sinks must be vertex collections or single vertices") from None


def _search(
    g: IncidenceDigraph, heads: list[int], roots: list[int], is_sink: list[bool], forward: bool
) -> tuple[list, list[int], int]:
    """One breadth-first search from every root over the orientation
    ``heads``, stopping at the first sink.  Forward, a labelled vertex ``u``
    fires each edge at ``u`` whose head is not ``u`` and labels that head;
    backward, it fires each edge whose head is ``u`` and labels the edge's
    other vertices in ascending order.

    Returns ``(parent, labelled, hit)``: ``parent[v]`` is ``(e, u)`` when
    vertex ``u`` labelled ``v`` through edge ``e``, ``()`` for a root and
    ``None`` if unlabelled; ``hit`` the sink reached or ``-1``, and
    ``labelled`` the search's queue, roots first.  When no sink is reached,
    ``labelled`` is every vertex reachable from the roots.
    """
    parent: list = [None] * g.n
    for s in roots:
        parent[s] = ()
    labelled = list(roots)
    inc, members = g.inc, g.members
    for u in labelled:  # the list grows while it is scanned
        for e in inc[u]:
            head = heads[e]
            if forward:
                if head == u:
                    continue
                reached = (head,)
            elif head == u:
                reached = members[e]
            else:
                continue
            for v in reached:
                if parent[v] is None:
                    parent[v] = (e, u)
                    if is_sink[v]:
                        return parent, labelled, v
                    labelled.append(v)
    return parent, labelled, -1


def max_flow_min_cut(
    g: IncidenceDigraph,
    sources: Iterable[int],
    sinks: Iterable[int],
    limit: Optional[int] = None,
    *,
    residual: list[int],
    forward: bool = True,
) -> tuple[int, Optional[frozenset[int]]]:
    """Shortest-augmenting-path max flow from a vertex set to a disjoint
    vertex set, with the minimal min-cut side.  A single vertex may stand
    for a one-vertex set.

    ``residual`` is the orientation the flow starts from, one head per edge,
    and is updated in place: each augmenting hyperpath is reversed in it, so
    afterwards it is the residual of the flow this call adds.  ``forward``
    runs the query on the hyperarcs as they are (an out-degree query);
    without it, on the hyperarcs reversed (an in-degree query), where a
    reversed hyperarc is turned to the vertex it was left by.

    Returns ``(value, vertices)`` where ``vertices`` is everything reachable
    from the sources in the final residual: the source side of the unique
    inclusion-minimal minimum cut.  With ``limit`` set, augmentation stops
    once ``limit`` units flow; the result is then ``(limit, None)`` and means
    "the max flow is at least ``limit``".  ``value`` counts only the units
    this call adds.

    Each round is one :func:`_search` from all the sources that stops at the
    first sink; its path is walked back along the parents and reversed, one
    unit per path.  The round that reaches no sink has labelled exactly the
    residual-reachable side.
    """
    n = g.n
    roots, targets = _terminals(sources), _terminals(sinks)
    if not roots or not targets:
        raise PreconditionError("sources and sinks must be nonempty")
    if min(roots + targets) < 0 or max(roots + targets) >= n:
        raise PreconditionError("source or sink out of range")
    is_sink = [False] * n
    for t in targets:
        is_sink[t] = True
    if any(is_sink[s] for s in roots):
        raise PreconditionError("sources and sinks must be disjoint")
    if limit is not None and limit < 0:
        raise PreconditionError(f"limit {limit} is negative")
    if len(residual) != len(g.members):
        raise PreconditionError("residual needs one head per edge")

    flow = 0
    while limit is None or flow < limit:
        parent, labelled, hit = _search(g, residual, roots, is_sink, forward)
        if hit < 0:
            return flow, frozenset(labelled)
        v = hit
        while parent[v]:
            e, u = parent[v]
            residual[e] = u if forward else v
            v = u
        flow += 1
    return flow, None


def min_separator(
    h: Hypergraph,
    o: Orientation,
    x: VertexSet,
    avoid: VertexSet,
    side: str = "out",
    limit: Optional[int] = None,
) -> tuple[int, Optional[VertexSet]]:
    """Minimum out-degree (``side='out'``) or in-degree (``side='in'``) over
    the vertex sets that contain ``x`` and avoid ``avoid``, with the unique
    inclusion-minimal minimizer (the residual-reachable side).

    Returns ``(value, minimal minimizer)``; ``(limit, None)`` when the
    minimum is at least ``limit``.  An in-side query is the same flow run
    backward.  Empty or overlapping sets, sets over another ground set, or
    another ``side`` raise :class:`PreconditionError`.
    """
    _same_instance(h, o)
    if side not in ("out", "in"):
        raise PreconditionError(f"side must be 'out' or 'in', not {side!r}")
    if x.n != h.n or avoid.n != h.n:
        raise PreconditionError("vertex set over a different ground set")
    value, reach = max_flow_min_cut(
        network(h), x, avoid, limit=limit, residual=list(o.heads), forward=side == "out"
    )
    if reach is None:
        return value, None
    return value, _separator(h.n, reach, x, avoid)


def _separator(n: int, reach: Iterable[int], source_set: VertexSet, avoid_set: VertexSet) -> VertexSet:
    """A residual-reachable vertex set, checked against the query's
    constraints."""
    separator = VertexSet(n, reach)
    if not source_set <= separator or separator.mask & avoid_set.mask:
        raise InvariantViolation("separator missed its constraints")
    return separator


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
    ``value``, or ``None`` when no set has out-degree below ``cap``.  A
    negative ``cap`` raises :class:`PreconditionError`.

    A sink sequence in the manner of Hao and Orlin, run mirrored: each query
    flows from one new vertex ``t`` into all the earlier ones,
    ``[0 .. t - 1]``, capped at the best value so far, for
    ``t = 1 .. n - 1``.  One pass covers the sets that contain vertex 0, as
    the in-degree of their complements, with the flows run backward; the
    other the sets that miss it, with them run forward.  It is exact: if
    ``Y`` (a complement in the first pass) attains the minimum and ``t`` is
    its smallest vertex, every sink of that query lies outside ``Y``.  A
    pass keeps one heads list throughout.  Every unit of the flow in it runs
    between vertices that are sinks of the next query, so the flow is net
    zero across each of that query's cuts, every cut keeps its degree, and
    the next query resumes from it without a reset.

    ``x`` comes from the query that last lowered the value: on the first
    pass, the complement of its minimal side, which is the maximal set of
    that out-degree holding ``[0 .. t - 1]`` and missing ``t``; on the
    second, its minimal side.  Either has out-degree ``value``, but another
    sink order may find another such set.
    """
    _same_instance(h, o)
    if cap is not None and cap < 0:
        raise PreconditionError(f"cap {cap} is negative")
    n, g = h.n, network(h)
    best = h.m + 1 if cap is None else cap
    found = None
    for holds_0 in (True, False):
        if best == 0:
            break
        residual = list(o.heads)
        sinks = [0]
        for t in range(1, n):
            value, reach = max_flow_min_cut(g, t, sinks, limit=best, residual=residual, forward=not holds_0)
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


class IncrementalConnectivity:
    """The value of ``connectivity(h, o, cap)`` kept current across
    single-hyperarc reorientations, by repairing flows instead of
    recomputing them.

    It keeps one query per root pair, vertex 0 to each other vertex and back
    (not :func:`connectivity`'s sink sequence, whose queries build on each
    other), on the hypergraph's :func:`network`.  Each holds a heads list
    with a flow capped at ``cap`` in it and, below the cap, a minimum cut
    (the vertex set reachable in its residual).  A hyperarc carries the
    query's flow exactly where its head there differs from :attr:`heads`,
    and then that head is the tail the unit entered by.

    One reorientation moves every out-degree by at most one, so it moves
    every query's value by at most one, and at most one flow unit crosses
    edge ``e``.  When ``e`` turns from head ``a`` to head ``b``, every query
    sets its head of ``e`` to ``b``, with no flow through ``e``.  A query
    whose flow sent a unit through ``e`` from a carrier ``x`` to ``a`` then
    reroutes it from ``x`` to ``a``; if no path exists it hands the unit
    back, along ``x`` to the source and the sink to ``a``, and loses it.  A
    query still at the cap is done.  Below the cap, the kept cut ``X`` still
    proves the flow maximum when its new out-degree equals the flow.  By the
    single-reorientation lemma that degree is the old one, less one when
    ``b`` is in ``X`` and ``a`` is not, plus one when ``a`` is in ``X`` and
    ``b`` is not.  The minimal cut (the residual-reachable side) is then a
    subset of ``X``.  Otherwise the query augments toward the cap, which
    also yields its reachable side.  Every push is a
    :func:`max_flow_min_cut` call.

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
        _same_instance(h, o)
        self.hypergraph = h
        self.cap = cap
        self.heads = list(o.heads)
        self._g = network(h)
        self._pairs = _root_pairs(h.n)
        self._res = [list(o.heads) for _ in self._pairs]
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
        ``x`` labels in its residual (on the in side, run backward), and
        ``None`` when that search reaches vertex 0.  An empty ``x``, one
        over another ground set, or a ``side`` other than ``'out'`` and
        ``'in'`` raises :class:`PreconditionError`."""
        if side not in ("out", "in"):
            raise PreconditionError(f"side must be 'out' or 'in', not {side!r}")
        if not x:
            raise PreconditionError("minimal_tight needs a nonempty set")
        n = self.hypergraph.n
        if x.n != n:
            raise PreconditionError("vertex set over a different ground set")
        s = next(iter(x))
        p = 2 * s - 1 if side == "out" else 2 * s - 2
        if s == 0 or self._value[p] != k:
            return None
        is_sink = [False] * n
        is_sink[0] = True
        _, labelled, hit = _search(self._g, self._res[p], list(x), is_sink, side == "out")
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
        a, b = self.heads[e], new_head
        if b not in h.edges[e] or b == a:
            raise PreconditionError(f"illegal new head {b} for edge {e}")
        self.heads[e] = b
        for p, (s, t) in enumerate(self._pairs):
            res, before, cut = self._res[p], self._value[p], self._cut[p]
            carrier = res[e] if res[e] != a else None
            res[e] = b
            if carrier is not None and not self._push_unit(res, carrier, a):
                for src, dst in ((carrier, s), (t, a)):  # hand the unit back
                    if src != dst and not self._push_unit(res, src, dst):
                        raise InvariantViolation("a flow unit through a reoriented edge has no way back")
                self._value[p] -= 1
            if self._value[p] == self.cap:
                continue
            if cut is not None:
                # the kept cut's out-degree after the step, by the single-reorientation lemma
                if self._value[p] == before - (b in cut and a not in cut) + (a in cut and b not in cut):
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
