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
asked from the sink side, are the same search run backward.  These searches
are the package's hot loop, so the direction is picked once per search and
each has its own loop: forward an edge labels only its head, backward all
of its vertices.  Many paths are a single hyperarc from a source to a sink,
so before its first search a flow takes those in one pass over the
sources' incidences: they are the paths its searches would find first, in
the same order, so only those searches go (see :func:`max_flow_min_cut`).
Every flow still goes through the module global
:func:`max_flow_min_cut`, so a patch of it (a tracer, a counting test) sees
them all.  That kernel is internal and checks nothing: its callers are
in-package and pass valid heads.  :func:`min_separator`,
:func:`connectivity`, :func:`tight_reaches` and
:class:`IncrementalConnectivity` are the entries that check what they are
given.

The incidences depend only on the hypergraph, so it has one
:class:`IncidenceDigraph`, kept for the last hypergraph seen
(:func:`network`), and every query on any orientation runs on it with
``residual=`` a copy of that orientation's heads.

The hyperarc-connectivity is a sink sequence (Hao and Orlin, J. Algorithms
1994, in augmenting-path form), run mirrored: per side, ``n - 1`` flows
from one new vertex each into the growing set of earlier ones, on one kept
heads list, so that after the first few each flow is a short search from
its new vertex.  The package has one such loop, :func:`_sink_sequences`:
:func:`connectivity` runs it capped at the best value so far, and
:func:`tight_reaches` capped one above, so that the same run also finds
the tight vertices.  Every run starts from :func:`_degree_bound`, the
least out-degree of a set ``{v}`` or ``V - {v}``, read from the heads in
O(m + n).  The connectivity is never above it, so the start is exact.
Where the two are equal, as on every orientation the benchmark passes to
:func:`hyperarc_connectivity` on seeds 0 and 7, its queries each stop at
the bound, and none ends in a search that finds no path.

:class:`IncrementalConnectivity` keeps one flow per root pair, vertex 0 to
each other vertex and back, across single-hyperarc reorientations.  A
:class:`KeptReaches` is a snapshot of one side's root-pair residuals at
the connectivity; every minimal tight set the families need is one
:meth:`KeptReaches.reach` search in it, with no flow.  Two places make
one: :meth:`IncrementalConnectivity.kept_reaches` copies a step check's
flows, and :func:`tight_reaches`, for an orientation with no step check,
finds the connectivity and the tight vertices in one run of the sink
sequences, then runs a root-pair flow for each tight vertex alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

from .core import (
    Hypergraph,
    InvariantViolation,
    Orientation,
    PreconditionError,
    VertexSet,
    _as_count,
    _as_edge,
    _as_new_head,
    _as_vertex_set,
    _is_out,
    _same_instance,
)


@dataclass(frozen=True)
class IncidenceDigraph:
    """The incidences of a hypergraph on ``n`` vertices: ``members[e]`` holds
    edge ``e``'s vertices and ``inc[v]`` the edges at vertex ``v``, both
    ascending, so every search explores in a reproducible order.  The
    orientation is not part of it: each search takes one as a list of
    heads."""

    n: int
    members: tuple[tuple[int, ...], ...]
    inc: tuple[tuple[int, ...], ...]

    @cached_property
    def arcs(self) -> tuple[tuple[int, int], ...]:
        """The incidences ``(x, e)``, one per arc of the incidence digraph
        (``x -> w_e`` for a tail, ``w_e -> x`` for the head).  No flow reads
        them, so they are built on the first read and kept after it."""
        return tuple((x, e) for e, edge in enumerate(self.members) for x in edge)


def incidence_digraph(h: Hypergraph) -> IncidenceDigraph:
    """The incidences of ``h``."""
    members = tuple(tuple(edge) for edge in h.edges)
    inc: list[list[int]] = [[] for _ in range(h.n)]
    for e, edge in enumerate(members):
        for x in edge:
            inc[x].append(e)
    return IncidenceDigraph(h.n, members, tuple(map(tuple, inc)))


# (h, g) for the last hypergraph :func:`network` saw
_memo: Optional[tuple[Hypergraph, IncidenceDigraph]] = None


def network(h: Hypergraph) -> IncidenceDigraph:
    """The one :class:`IncidenceDigraph` of ``h``.  Kept for the last
    hypergraph seen, in one slot read once per call, so threads on other
    hypergraphs only cost rebuilds.  The slot holds ``h`` itself, which is
    immutable, so its identity cannot pass to another hypergraph while the
    slot keeps it.  An equal hypergraph has the same incidences, so it
    reuses the slot too: flows run on a query's ``h``, the path search on
    its orientation's, and the two may be equal copies."""
    global _memo
    memo = _memo
    if memo is None or memo[0] is not h and memo[0] != h:
        _memo = memo = (h, incidence_digraph(h))  # the module global, so a patched builder counts it
    return memo[1]


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

    Every flow is a run of these searches, so this is the package's hot
    loop.  The direction is chosen once, and each has its own loop: forward
    an edge labels at most its one head, backward a whole edge, so the
    forward loop tests that head directly and builds no tuple for it.  It
    need not test the head against ``u``: ``u`` is labelled already.
    """
    parent: list = [None] * g.n
    for s in roots:
        parent[s] = ()
    labelled = list(roots)
    label = labelled.append
    inc = g.inc
    if forward:
        for u in labelled:  # the list grows while it is scanned
            for e in inc[u]:
                v = heads[e]
                if parent[v] is None:
                    parent[v] = (e, u)
                    if is_sink[v]:
                        return parent, labelled, v
                    label(v)
    else:
        members = g.members
        for u in labelled:
            for e in inc[u]:
                if heads[e] == u:
                    for v in members[e]:
                        if parent[v] is None:
                            parent[v] = (e, u)
                            if is_sink[v]:
                                return parent, labelled, v
                            label(v)
    return parent, labelled, -1


def max_flow_min_cut(
    g: IncidenceDigraph,
    sources: list[int],
    sinks: Iterable[int],
    limit: Optional[int] = None,
    *,
    residual: list[int],
    forward: bool = True,
) -> tuple[int, Optional[frozenset[int]]]:
    """Shortest-augmenting-path max flow from a list of vertices to a
    disjoint collection of vertices, with the minimal min-cut side.

    ``residual`` is the orientation the flow starts from, one head per edge,
    and is updated in place: each augmenting hyperpath is reversed in it, so
    afterwards it is the residual of the flow this call adds.  ``forward``
    runs the query on the hyperarcs as they are (an out-degree query);
    without it, on the hyperarcs reversed (an in-degree query), where a
    reversed hyperarc is turned to the vertex it was left by.

    This kernel is internal and checks nothing: its callers are in-package
    and pass valid heads, nonempty disjoint terminals and a non-negative
    ``int`` limit.  :func:`min_separator` is the public entry, and checks
    what it is given.

    Returns ``(value, vertices)`` where ``vertices`` is everything reachable
    from the sources in the final residual: the source side of the unique
    inclusion-minimal minimum cut.  With ``limit`` set, augmentation stops
    once ``limit`` units flow; the result is then ``(limit, None)`` and means
    "the max flow is at least ``limit``".  ``value`` counts only the units
    this call adds.

    Many paths are one hyperarc from a source straight to a sink, so one
    pass over the sources' incidences takes those first, with no search:
    sources in order, each one's edges in ``inc`` order, until ``limit``.
    Forward, an edge whose head is a sink is turned to the source; backward,
    an edge headed at the source is turned to its smallest sink member.
    These are the paths the search loop would find first, in its order.  A
    search labels all its roots before any other vertex, so it returns a
    one-arc path whenever one exists, and the first one in that order.
    Taking one turns its edge to a source (forward) or a sink (backward), so
    it creates no other; nor does reversing a longer path, which turns its
    edges toward the roots or toward labelled vertices that are not sinks,
    and its last edge backward toward the sink.  So the flow, the residual
    and every later search are those of the search loop alone.

    Then each round is one :func:`_search` from all the sources that stops
    at the first sink; its path is walked back along the parents and
    reversed, one unit per path.  The round that reaches no sink has
    labelled exactly the residual-reachable side.
    """
    if limit == 0:
        return 0, None
    is_sink = [False] * g.n
    for t in sinks:
        is_sink[t] = True
    flow = 0
    inc = g.inc
    if forward:
        for s in sources:
            for e in inc[s]:
                if is_sink[residual[e]]:
                    residual[e] = s
                    flow += 1
                    if flow == limit:
                        return flow, None
    else:
        members = g.members
        for s in sources:
            for e in inc[s]:
                if residual[e] == s:
                    for t in members[e]:
                        if is_sink[t]:
                            residual[e] = t
                            flow += 1
                            break
                    if flow == limit:
                        return flow, None
    while limit is None or flow < limit:
        parent, labelled, hit = _search(g, residual, sources, is_sink, forward)
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
    backward.  This is the package's public flow entry, so it checks what
    the kernel trusts: ``x`` or ``avoid`` that is not a
    :class:`~hyperorient.core.VertexSet`, is empty, lies over another ground
    set or overlaps the other, another ``side``, or a ``limit`` that is not a
    count (``core``'s count rule: a non-negative ``int``; an ``IntEnum`` is
    one, a ``bool`` is not) raises :class:`PreconditionError`.
    """
    _same_instance(h, o)
    forward = _is_out(side)
    _as_vertex_set("x", x, h.n)
    _as_vertex_set("avoid", avoid, h.n)
    if not x or not avoid:
        raise PreconditionError("x and avoid must be nonempty")
    if x.mask & avoid.mask:
        raise PreconditionError("x and avoid must be disjoint")
    if limit is not None:
        limit = _as_count("limit", limit)
    value, reach = max_flow_min_cut(
        network(h), list(x), avoid, limit=limit, residual=list(o.heads), forward=forward
    )
    if reach is None:
        return value, None
    return value, _separator(h.n, reach, x, avoid)


def _mask(vertices: Iterable[int]) -> int:
    """The bitmask of vertices a search labelled: they are in range by
    construction, so this skips :class:`VertexSet`'s per-member checks."""
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def _separator(n: int, reach: Iterable[int], source_set: VertexSet, avoid_set: VertexSet) -> VertexSet:
    """A residual-reachable vertex set, checked against the query's
    constraints."""
    separator = VertexSet.from_mask(n, _mask(reach))
    if not source_set <= separator or separator.mask & avoid_set.mask:
        raise InvariantViolation("separator missed its constraints")
    return separator


def _degree_bound(h: Hypergraph, o: Orientation) -> int:
    """The least out-degree of a set ``{v}`` or ``V - {v}``, an upper bound
    on the connectivity.  Every edge headed at ``v`` enters ``{v}``, and
    every other edge at ``v`` leaves it, so with ``d`` the number headed at
    ``v`` the two degrees are ``len(inc[v]) - d`` and ``d``."""
    into = [0] * h.n
    for v in o.heads:
        into[v] += 1
    inc = network(h).inc
    return min(min(d, len(inc[v]) - d) for v, d in enumerate(into))


def _sink_sequences(
    h: Hypergraph, o: Orientation, cap: int, mark: bool
) -> tuple[int, Optional[VertexSet], list[list[bool]]]:
    """The package's one sink sequence (see :func:`connectivity`), run on
    each side: ``(value, x, tight)``.  ``value`` and ``x`` are
    :func:`connectivity`'s.  Without ``mark`` each query is capped at the
    best value so far, ``tight`` is all ``False``, and a value of 0 ends
    the run.  With ``mark`` each query is capped one above it, and
    ``tight`` is ``[in, out]``, the vertices some set of degree ``value``
    on that side that avoids vertex 0 holds (see :func:`tight_reaches`):
    a query below the best clears every flag, and a query at it marks its
    maximal minimizer."""
    n, g = h.n, network(h)
    best, found = cap, None
    tight = [[False] * n, [False] * n]
    for forward in (False, True):
        if best == 0 and not mark:
            break
        marks = tight[forward]
        residual = list(o.heads)
        sinks = [0]
        for t in range(1, n):
            value, reach = max_flow_min_cut(g, [t], sinks, limit=best + mark, residual=residual, forward=forward)
            if value < best:
                side = _separator(n, reach, VertexSet.singleton(n, t), VertexSet.from_mask(n, (1 << t) - 1))
                best, found = value, side if forward else side.complement()
                if mark:
                    for flags in tight:
                        flags[:] = [False] * n
                elif best == 0:
                    break
            if mark and value == best and not marks[t]:
                extra, outside = max_flow_min_cut(g, sinks, [t], limit=1, residual=residual, forward=not forward)
                if extra:
                    raise InvariantViolation(f"level {best}: the flow into 0..{t - 1} from {t} was not maximum")
                for v in range(t, n):
                    if v not in outside:
                        marks[v] = True
            sinks.append(t)
    return best, found, tight


def connectivity(
    h: Hypergraph, o: Orientation, cap: Optional[int] = None
) -> tuple[int, Optional[VertexSet]]:
    """Hyperarc-connectivity with a set attaining it, as ``(value, x)``.

    ``value`` is exact whenever it is below ``cap`` (a value equal to
    ``cap`` means "at least ``cap``").  ``x`` is a vertex set of out-degree
    ``value``, or ``None`` when no set has out-degree below ``cap``.  A
    ``cap`` that is not a count (``core``'s count rule) raises
    :class:`PreconditionError`.

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
    the next query resumes from it without a reset.  A value of 0 ends the
    run.  The loop is the package's one sink sequence, which
    :func:`tight_reaches` runs too, capped one higher.

    The run starts at one above :func:`_degree_bound`, or at ``cap`` when
    that is lower.  The connectivity is at most the bound, so the start
    changes no value: a query's value is its maximum flow, or the best
    value so far when that is lower, and the first query whose flow is the
    connectivity lowers the value to it from any start above it.

    ``x`` comes from the query that last lowered the value: on the first
    pass, the complement of its minimal side, which is the maximal set of
    that out-degree holding ``[0 .. t - 1]`` and missing ``t``; on the
    second, its minimal side.  Either has out-degree ``value``, but another
    sink order may find another such set.  The start does not move ``x``
    either: it is the first query whose flow is the connectivity, and the
    minimal side of a maximum flow is its unique minimal minimum cut,
    whatever flow the kept heads held before the query.
    """
    _same_instance(h, o)
    start = _degree_bound(h, o) + 1
    if cap is not None:
        start = min(start, _as_count("cap", cap))
    return _sink_sequences(h, o, start, False)[:2]


def hyperarc_connectivity(h: Hypergraph, o: Orientation) -> int:
    """Largest ``k`` such that every nonempty proper vertex set has
    out-degree at least ``k``.

    It is :func:`connectivity` capped at :func:`_degree_bound`, which the
    connectivity never exceeds, so the capped value is exact: when the two
    are equal, as they mostly are, every query stops at the cap and none
    ends in a search that finds no path."""
    _same_instance(h, o)
    return _sink_sequences(h, o, _degree_bound(h, o), False)[0]


class KeptReaches:
    """The residuals of one side's root-pair flows at level ``k``, the
    connectivity: copies of those an :class:`IncrementalConnectivity`
    keeps (:meth:`IncrementalConnectivity.kept_reaches`), or the flows of
    the tight vertices alone (:func:`tight_reaches`).

    ``tight[v]`` tells whether some set of degree ``k`` on the side (out-
    or in-degree) that avoids vertex 0 holds ``v``: ``v`` is not 0 and the
    value of its kept query (``v -> 0`` on the out side, ``0 -> v`` on the
    in side) is ``k``.  That flow is then maximum, and it is also a flow
    of value ``k`` from any set ``X`` that holds ``v`` and avoids 0.  Every
    set that holds ``X`` and avoids 0 has degree ``k`` or more, so
    :meth:`reach` from ``X``, with ``v`` its smallest vertex, labels the
    inclusion-minimal one of degree ``k``, and reaches vertex 0 when none
    has.  Its residuals are its own, so its answers do not change when a
    step check moves on."""

    def __init__(self, g: IncidenceDigraph, residuals: list[Optional[list[int]]], forward: bool) -> None:
        self.n = g.n
        self.tight = tuple(r is not None for r in residuals)
        self._g = g
        self._res = residuals
        self._forward = forward
        self._root = [False] * g.n
        self._root[0] = True

    def reach(self, roots: list[int], stop: Optional[list[bool]] = None) -> Optional[VertexSet]:
        """What one :func:`_search` from ``roots`` labels in the kept
        residual of ``roots[0]``, a vertex with ``tight[roots[0]]`` (run
        backward on the in side), or ``None`` once it labels a vertex
        marked in ``stop``, by default vertex 0."""
        stop = self._root if stop is None else stop
        _, labelled, hit = _search(self._g, self._res[roots[0]], roots, stop, self._forward)
        return None if hit >= 0 else VertexSet.from_mask(self.n, _mask(labelled))


def tight_reaches(h: Hypergraph, o: Orientation) -> tuple[int, KeptReaches, KeptReaches]:
    """``(k, in, out)``: the connectivity ``k`` of ``o`` and its ``(in,
    out)`` :class:`KeptReaches`, built with no
    :class:`IncrementalConnectivity`: one root-pair flow per tight vertex,
    and none for the others.

    One run of :func:`connectivity`'s sink sequences gives both ``k`` and
    the tight vertices: per side, one kept heads list, the in side run
    backward, the out side forward, each query ``t -> [0 .. t - 1]``
    capped one above the best value so far.  A query below the best lowers
    it and clears every tight flag, so the flags left at the end are those
    of the final value, ``k``, and a side that ended above ``k`` has none.
    A query at the best has a maximal minimizer ``M_t``, the complement of
    what reaches its sinks in its residual: one more flow, from the sinks
    to ``t`` run the other way, which must add nothing, since the flow is
    maximum.  Every vertex of ``M_t`` is tight.

    The run starts with the best value at :func:`_degree_bound`, not
    above it.  The connectivity is at most the bound, so the run still ends
    at ``k``, and the flags left are those of the queries at ``k``, whose
    maximal minimizers do not depend on the flow kept before them.  A side
    whose minimum is above the bound marks nothing; one whose minimum is at
    most the bound but above ``k`` marks and is cleared, as before.

    That finds every tight vertex.  At level ``k`` two tight sets that
    share a vertex have a tight union and intersection: both are proper
    and avoid vertex 0, so each degree is at least ``k``, and by
    submodularity they sum to at most ``2k`` (the argument of
    :func:`~hyperorient.families._safe_endpoint`).  So a tight ``v`` has a
    maximal tight set ``X``; with ``t`` its smallest vertex, ``X`` is a
    minimizer of query ``t``, whose value is ``k``, so ``v`` is in
    ``M_t``.  No earlier ``M_s`` holds that ``t``, or its union with ``X``
    would be a larger tight set, so a query whose ``t`` is tight already
    needs no ``M_t``.

    Each tight ``v`` then gets the root-pair flow that
    :class:`IncrementalConnectivity` keeps, from ``o``'s heads, capped at
    ``k + 1``: ``v -> 0`` on the out side, ``0 -> v`` on the in side.  Its
    value must be ``k``; that and the ``M_t`` flows cross-check the
    sequences, and a failure raises :class:`InvariantViolation` naming the
    level.  The snapshots own these residuals.
    """
    _same_instance(h, o)
    k, _, tight = _sink_sequences(h, o, _degree_bound(h, o), True)
    g = network(h)
    reaches = []
    for forward, marks in zip((False, True), tight):
        residuals: list[Optional[list[int]]] = [None] * h.n
        for v in range(1, h.n):
            if marks[v]:
                residual = list(o.heads)
                s, t = (v, 0) if forward else (0, v)
                if max_flow_min_cut(g, [s], [t], limit=k + 1, residual=residual)[0] != k:
                    raise InvariantViolation(f"level {k}: the root-pair flow {s} -> {t} of a tight vertex is not {k}")
                residuals[v] = residual
        reaches.append(KeptReaches(g, residuals, forward))
    return k, reaches[0], reaches[1]


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
    toward the new cap, so the flows outlive a level, and
    :func:`~hyperorient.augment.augment_to` builds one check per run.
    Below the cap each kept flow is a maximum flow, so its residual holds
    the minimal sides of the query's minimum cut.
    :func:`~hyperorient.families.compute_families`, given this check,
    reads its minimal tight sets from them, after checking :attr:`heads`
    and :attr:`cap`, through one :meth:`kept_reaches` snapshot per side:
    the per-vertex ones and those around a whole set alike are one residual
    search each, with no flow.  :meth:`kept_reaches` is the one place that
    maps a side and a vertex to its kept query.  Without a check,
    ``compute_families`` builds none of these: most of its 2(n - 1) flows
    belong to vertices that are not tight, and are never read, so
    :func:`tight_reaches` runs flows only for the tight ones, and takes
    the connectivity from the same sink sequences that find them.
    """

    def __init__(self, h: Hypergraph, o: Orientation, cap: int) -> None:
        cap = _as_count("cap", cap)
        _same_instance(h, o)
        self.hypergraph = h
        self.cap = cap
        self.heads = list(o.heads)
        self._g = network(h)
        self._pairs = [(s, t) for v in range(1, h.n) for s, t in ((0, v), (v, 0))]
        self._res = [list(o.heads) for _ in self._pairs]
        self._value = [0] * len(self._pairs)
        self._cut: list[Optional[frozenset[int]]] = [None] * len(self._pairs)
        for p in range(len(self._pairs)):
            self._augment(p)
        self.value = min(self._value, default=cap)

    def kept_reaches(self, side: str) -> KeptReaches:
        """A :class:`KeptReaches` of ``side`` at :attr:`value`, the
        connectivity.  It holds copies of the residuals it needs, so it
        outlives the next :meth:`reorient`.  A ``side`` other than
        ``'out'`` and ``'in'``, or a value at the cap, where it is not
        exact, raises :class:`PreconditionError`."""
        forward = _is_out(side)
        if self.value >= self.cap:
            raise PreconditionError(f"value {self.value} is at the cap {self.cap}, so not exact")
        shift = 1 if forward else 2
        residuals: list[Optional[list[int]]] = [None] * self.hypergraph.n
        for v in range(1, self.hypergraph.n):
            p = 2 * v - shift
            if self._value[p] == self.value:
                residuals[v] = list(self._res[p])
        return KeptReaches(self._g, residuals, forward)

    def raise_cap(self, cap: int) -> int:
        """Raise :attr:`cap` to ``cap``; each query at the old cap augments
        from its kept flow.  Returns the new :attr:`value`."""
        cap = _as_count("cap", cap)
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
            self._g, [s], [t], limit=self.cap - self._value[p], residual=self._res[p]
        )
        self._value[p] += value
        self._cut[p] = reach

    def _push_unit(self, res: list[int], src: int, dst: int) -> bool:
        return max_flow_min_cut(self._g, [src], [dst], limit=1, residual=res)[0] == 1

    def reorient(self, e: int, new_head: int) -> int:
        """Turn edge ``e`` toward ``new_head``; returns the new :attr:`value`,
        the connectivity capped at :attr:`cap`.  An ``e`` that is not an edge
        id (``core``'s edge rule) raises :class:`PreconditionError`, and a
        ``new_head`` that is not another vertex of the edge (``core``'s new
        head rule) :class:`~hyperorient.core.InvalidReorientation`."""
        e = _as_edge(e, self.hypergraph.m)
        a, b = self.heads[e], _as_new_head(self.hypergraph, self.heads, e, new_head)
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
