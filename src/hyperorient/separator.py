"""Minimum-degree separators and hyperarc-connectivity via max flow.

A directed hypergraph expands into a capacitated incidence digraph with one
extra node per hyperarc: hyperarc ``(X, v)`` on edge ``e`` becomes the
unit-capacity arc ``w_e -> v`` plus an unsaturable arc ``x -> w_e`` for every
tail ``x`` in ``X`` (capacity ``m + 1``, which no flow can fill because every
source-sink path crosses some unit arc).  A minimum cut in that digraph is a
minimum out-degree separator of the hypergraph, and the set of nodes
reachable from the sources in the final residual network is the unique
inclusion-minimal minimizer.  In-degree separators use the arc-reversed
digraph.

Vertex ``i`` is node ``i``; the node for edge ``e`` is ``n + e``.  A query
with several sources or sinks runs one multi-terminal flow: every source
seeds the residual search and reaching any sink ends it.  The digraph builds
its residual arrays once, so every query on one orientation and side can
share one :class:`IncidenceDigraph`.
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
    ``j`` and ``2j + 1`` its reverse; ``arc_head`` and ``arc_cap`` (the
    capacities before any flow) are indexed by residual arc, and ``adj[u]``
    lists the residual arcs leaving ``u`` in ascending ``(head, index)``
    order, so every flow explores in a reproducible order.
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


def incidence_digraph(h: Hypergraph, o: Orientation, reverse: bool = False) -> IncidenceDigraph:
    """Incidence digraph of a directed hypergraph (arc-reversed on request)."""
    _same_instance(h, o)
    n, m = h.n, h.m
    big = m + 1
    arcs = []
    for e in range(m):
        w = n + e
        head = o.heads[e]
        for x in h.edges[e]:
            if x != head:
                arcs.append((w, x, big) if reverse else (x, w, big))
        arcs.append((head, w, 1) if reverse else (w, head, 1))
    return IncidenceDigraph(n + m, tuple(arcs))


def network(h: Hypergraph, o: Orientation, side: str) -> IncidenceDigraph:
    """The digraph that ``side`` queries (``'out'`` or ``'in'``) run on."""
    return incidence_digraph(h, o, reverse=(side == "in"))


def _terminals(nodes: Iterable[int]) -> list[int]:
    if isinstance(nodes, int):
        return [nodes]
    try:
        return list(nodes)
    except TypeError:
        raise PreconditionError("sources and sinks must be node collections or single nodes") from None


def max_flow_min_cut(
    g: IncidenceDigraph,
    sources: Iterable[int],
    sinks: Iterable[int],
    limit: Optional[int] = None,
) -> tuple[int, Optional[frozenset[int]]]:
    """Shortest-augmenting-path max flow from a node set to a disjoint node
    set, with the minimal min-cut side.  A single node may stand for a
    one-node set.

    Returns ``(value, nodes)`` where ``nodes`` is everything reachable from
    the sources in the final residual network: the source side of the unique
    inclusion-minimal minimum cut.  With ``limit`` set, augmentation stops
    once ``limit`` units flow; the result is then ``(limit, None)`` and means
    "the max flow is at least ``limit``".

    Each round is a breadth-first search seeded with every source that stops
    at the first sink it labels; the round that labels none has labelled
    exactly the residual-reachable side.
    """
    n_nodes = g.n_nodes
    roots, targets = _terminals(sources), _terminals(sinks)
    if not roots or not targets:
        raise PreconditionError("sources and sinks must be nonempty")
    if not all(0 <= x < n_nodes for x in roots + targets):
        raise PreconditionError("source or sink out of range")
    is_sink = [False] * n_nodes
    for t in targets:
        is_sink[t] = True
    if any(is_sink[s] for s in roots):
        raise PreconditionError("sources and sinks must be disjoint")
    head, adj = g.arc_head, g.adj
    cap = list(g.arc_cap)

    flow = 0
    while limit is None or flow < limit:
        parent = [-1] * n_nodes
        for s in roots:
            parent[s] = -2
        queue = list(roots)
        hit = -1
        for u in queue:  # the list grows while it is scanned
            for i in adj[u]:
                if cap[i] > 0:
                    v = head[i]
                    if parent[v] == -1:
                        parent[v] = i
                        if is_sink[v]:
                            hit = v
                            break
                        queue.append(v)
            if hit >= 0:
                break
        if hit < 0:
            return flow, frozenset(v for v in range(n_nodes) if parent[v] != -1)
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
    g: Optional[IncidenceDigraph] = None,
) -> tuple[int, Optional[VertexSet]]:
    """Minimize out-degree (``side='out'``) or in-degree (``side='in'``) over
    vertex sets that contain all of ``source_set`` and avoid ``avoid_set``.

    Returns ``(value, minimal minimizer)``; ``(limit, None)`` when the
    minimum is at least ``limit``.  ``g`` is ``network(h, o, side)`` when the
    caller already holds it.
    """
    if g is None:
        g = network(h, o, side)
    value, reach = max_flow_min_cut(g, source_set, avoid_set, limit=limit)
    if reach is None:
        return value, None
    mask = 0
    for node in reach:
        if node < h.n:
            mask |= 1 << node
    separator = VertexSet.from_mask(h.n, mask)
    if not source_set <= separator or separator.mask & avoid_set.mask:
        raise InvariantViolation("separator missed its constraints")
    return value, separator


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


def connectivity(
    h: Hypergraph, o: Orientation, cap: Optional[int] = None
) -> tuple[int, Optional[VertexSet]]:
    """Hyperarc-connectivity with a set attaining it, as ``(value, x)``.

    ``value`` is exact whenever it is below ``cap`` (a value equal to
    ``cap`` means "at least ``cap``").  ``x`` is a vertex set of out-degree
    ``value``, or ``None`` when no set has out-degree below ``cap``.

    Every candidate set either contains vertex 0 or misses it, so the
    minimum over all sets equals the minimum over separator queries between
    vertex 0 and each other vertex, in both directions.  All of them run on
    one network, each flow capped at the best value so far.
    """
    g = network(h, o, "out")
    best = h.m + 1 if cap is None else cap
    found = None
    for src, snk in ((s, t) for v in range(1, h.n) for s, t in ((0, v), (v, 0))):
        if best == 0:
            break
        value, sep = _solve(
            h,
            o,
            "out",
            VertexSet.singleton(h.n, src),
            VertexSet.singleton(h.n, snk),
            limit=best,
            g=g,
        )
        if value < best:
            best, found = value, sep
    return best, found


def hyperarc_connectivity(h: Hypergraph, o: Orientation) -> int:
    """Largest ``k`` such that every nonempty proper vertex set has
    out-degree at least ``k``."""
    return connectivity(h, o)[0]
