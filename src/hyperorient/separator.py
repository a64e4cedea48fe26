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
them all.  It takes its sinks as a mask, one flag per vertex, which is the
form the searches read: a sink sequence keeps one mask per pass and sets
one flag per query, and every other caller builds its mask with
:func:`_sink_mask`.  That kernel is internal and checks nothing: its
callers are in-package and pass valid heads.  :func:`min_separator`,
:func:`connectivity`, :func:`tight_reaches` and
:class:`IncrementalConnectivity` are the entries that check what they are
given.

The incidences depend only on the hypergraph, so it has one
:class:`IncidenceDigraph`, kept for the last hypergraph seen
(:func:`network`), and every query on any orientation runs on it with
``residual=`` a copy of that orientation's heads.  In the same way the
set-up of an orientation's sink sequences (below), its two pass orders
and its degree bound, is kept for the last orientation seen
(:func:`_passes`), so asking one orientation for its connectivity and
then for its families runs that set-up once.  Each slot is read once per
call and holds the object it is keyed by, so threads on other inputs only
cost rebuilds.

The hyperarc-connectivity is a sink sequence (Hao and Orlin, J. Algorithms
1994, in augmenting-path form), run mirrored: per side, ``n - 1`` flows
from one new vertex each into the growing set of earlier ones, on one kept
heads list, so that after the first few each flow is a short search from
its new vertex.  A pass takes its vertices in breadth-first order from
vertex 0, so most of them reach an earlier one along a single hyperarc,
which the flow takes with no search.  Those two searches also settle 0
and 1: one that misses a vertex shows a connectivity of 0, and two that
label every vertex show at least 1, so a run capped at 1 runs no flow.
The package has one such loop,
:func:`_sink_sequences`: :func:`connectivity` runs it capped at the best
value so far, and
:func:`tight_reaches` capped one above, so that the same run also finds
the tight vertices.  :func:`connectivity` starts from the cap its caller
passes.  The two entries that take no cap, :func:`hyperarc_connectivity`
and :func:`tight_reaches`, start from :func:`_degree_bound`, the least
out-degree of a set ``{v}`` or ``V - {v}``, read from the heads in
O(m + n).  The connectivity is never above it, so the start is exact.
Where the two are equal, as on every orientation the benchmark passes to
:func:`hyperarc_connectivity` on seeds 0 and 7, its queries each stop at
the bound, and none ends in a search that finds no path.

:class:`IncrementalConnectivity` keeps one flow per root pair, vertex 0 to
each other vertex and back, across single-hyperarc reorientations.  A
:class:`KeptReaches` is a snapshot of one residual per tight vertex of one
side at the connectivity; every minimal tight set the families need is one
:meth:`KeptReaches.reach` search in it, with no flow.  Two places make
one: :meth:`IncrementalConnectivity.kept_reaches` copies a step check's
root-pair flows, and :func:`tight_reaches`, for an orientation with no
step check, finds the connectivity and the tight vertices in one run of
the sink sequences.  That run also copies the heads list after each query
that ends at the connectivity, and the copy serves the query's own vertex
as well as its root-pair flow would.  So only a tight vertex whose own
query ended above the connectivity gets a root-pair flow.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

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
    """The incidences of ``h``, in one walk over each edge's mask bits,
    lowest first, that fills ``members`` and ``inc`` together."""
    members = []
    inc: list[list[int]] = [[] for _ in range(h.n)]
    for e, edge in enumerate(h.edges):
        mask, vertices = edge.mask, []
        while mask:
            low = mask & -mask
            x = low.bit_length() - 1
            vertices.append(x)
            inc[x].append(e)
            mask ^= low
        members.append(tuple(vertices))
    return IncidenceDigraph(h.n, tuple(members), tuple(map(tuple, inc)))


# (h, g) for the last hypergraph :func:`network` saw
_memo: Optional[tuple[Hypergraph, IncidenceDigraph]] = None


def network(h: Hypergraph) -> IncidenceDigraph:
    """The one :class:`IncidenceDigraph` of ``h``.  Kept for the last
    hypergraph seen, in one slot read once per call, so threads on other
    hypergraphs only cost rebuilds.  The slot holds ``h`` itself, which is
    immutable, so its identity cannot pass to another hypergraph while the
    slot keeps it.  An equal hypergraph has the same incidences, so it
    reuses the slot too: flows run on a query's ``h``, the path search on
    its orientation's, and the two may be equal copies.  The slot is then
    keyed to that ``h``, so the next call with it compares nothing."""
    global _memo
    memo = _memo
    if memo is None or memo[0] is not h:
        g = memo[1] if memo is not None and memo[0] == h else incidence_digraph(h)  # the global, so a patch counts it
        _memo = memo = (h, g)
    return memo[1]


def _search(
    g: IncidenceDigraph, heads: list[int], roots: Sequence[int], is_sink: list[bool], forward: bool
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


def _sink_mask(n: int, sinks: Iterable[int]) -> list[bool]:
    """The sink mask of a flow into ``sinks``: ``n`` flags, ``True`` at
    each sink."""
    mask = [False] * n
    for t in sinks:
        mask[t] = True
    return mask


def max_flow_min_cut(
    g: IncidenceDigraph,
    sources: Sequence[int],
    sinks: list[bool],
    limit: Optional[int] = None,
    *,
    residual: list[int],
    forward: bool = True,
) -> tuple[int, Optional[frozenset[int]]]:
    """Shortest-augmenting-path max flow from a sequence of vertices to a
    disjoint set of vertices, with the minimal min-cut side.  ``sinks`` is
    a mask, one flag per vertex (:func:`_sink_mask`), the form every search
    reads; the kernel only reads it, so a caller whose sink set grows, as
    a sink sequence's does, keeps one mask and sets a flag per query.

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
    flow = 0
    inc = g.inc
    if forward:
        for s in sources:
            for e in inc[s]:
                if sinks[residual[e]]:
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
                        if sinks[t]:
                            residual[e] = t
                            flow += 1
                            break
                    if flow == limit:
                        return flow, None
    while limit is None or flow < limit:
        parent, labelled, hit = _search(g, residual, sources, sinks, forward)
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
    backward.  The minimizer is checked to hold ``x`` and miss ``avoid``,
    and a flow whose reach does not raises :class:`InvariantViolation`.
    This is the package's public flow entry, so it checks what the kernel
    trusts: ``x`` or ``avoid`` that is not a
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
        network(h), list(x), _sink_mask(h.n, avoid), limit=limit, residual=list(o.heads), forward=forward
    )
    if reach is None:
        return value, None
    separator = VertexSet.from_mask(h.n, _mask(reach))
    if not x <= separator or separator.mask & avoid.mask:
        raise InvariantViolation("separator missed its constraints")
    return value, separator


def _mask(vertices: Iterable[int]) -> int:
    """The bitmask of vertices a search labelled: they are in range by
    construction, so this skips :class:`VertexSet`'s per-member checks."""
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def _degree_bound(h: Hypergraph, o: Orientation) -> int:
    """The least out-degree of a set ``{v}`` or ``V - {v}``, an upper bound
    on the connectivity.  Every edge headed at ``v`` enters ``{v}``, and
    every other edge at ``v`` leaves it, so with ``d`` the number headed at
    ``v`` the two degrees are ``len(inc[v]) - d`` and ``d``.  No degree
    is above ``m``, so one loop over the vertices lowers ``m`` to it."""
    into = [0] * h.n
    for v in o.heads:
        into[v] += 1
    least = h.m
    for d, edges in zip(into, network(h).inc):
        if d < least:
            least = d
        if len(edges) - d < least:
            least = len(edges) - d
    return least


# (o, bound, orders, complete) for the last orientation :func:`_passes` saw
_passes_memo: Optional[tuple[Orientation, Optional[int], Optional[tuple[tuple[int, ...], ...]], bool]] = None


def _passes(
    h: Hypergraph, o: Orientation, cap: Optional[int], mark: bool
) -> tuple[int, Optional[tuple[tuple[int, ...], ...]], bool]:
    """The set-up of ``o``'s sink sequences: ``(start, orders,
    complete)``.  ``start`` is ``cap``, or :func:`_degree_bound` when
    ``cap`` is ``None``, so a capped :func:`connectivity` never reads the
    bound.  ``orders[forward]`` is the order of the pass whose flows run
    ``forward``: what one :func:`_search` from vertex 0 over ``o``'s heads
    labels, run the other way and stopping at no sink, then the vertices
    it misses in index order.  ``complete`` tells whether both searches
    labelled every vertex.  A run that starts at 0 without ``mark`` needs
    no order, so then the searches do not run, ``orders`` is ``None`` and
    ``complete`` is ``False``.

    The bound and the orders are kept for the last orientation seen, as
    :func:`network` keeps the incidences of the last hypergraph, in one
    slot read once per call, so threads on other orientations only cost
    rebuilds.  The slot holds ``o`` itself, which is immutable, so its
    identity cannot pass to another orientation while the slot keeps it.
    So :func:`hyperarc_connectivity` then :func:`tight_reaches` on one
    orientation run the two order searches and read the bound once."""
    global _passes_memo
    memo = _passes_memo
    _, bound, orders, complete = memo if memo is not None and memo[0] is o else (o, None, None, False)
    if cap is None:
        cap = bound = _degree_bound(h, o) if bound is None else bound
    if orders is None and (cap or mark):
        g, n, orders, complete = network(h), h.n, [], True
        for forward in (False, True):
            parent, order, _ = _search(g, o.heads, [0], _sink_mask(n, ()), not forward)
            complete = complete and len(order) == n
            orders.append(tuple(order + [v for v, label in enumerate(parent) if label is None]))
        orders = tuple(orders)
    _passes_memo = (o, bound, orders, complete)
    return cap, orders, complete


def _sink_sequences(
    h: Hypergraph, o: Orientation, cap: Optional[int], mark: bool
) -> tuple[int, list[list[bool]], list[list[Optional[list[int]]]]]:
    """The package's one sink sequence (see :func:`connectivity`), run on
    each side: ``(value, tight, kept)``.  ``value`` is
    :func:`connectivity`'s, and no query builds a set.  ``cap`` is
    ``None`` for the entries that take no cap, which start at
    :func:`_degree_bound`.  Without ``mark`` each query is capped at the
    best value so far, ``tight`` is all ``False``, ``kept`` all ``None``,
    and the run ends before any search when the start is 0, and before any
    query when it is 1 or an order search (below) misses a vertex.  With
    ``mark`` each query is capped one above it, and ``tight`` and ``kept``
    are ``[in, out]``: the vertices some set of degree ``value`` on that
    side that avoids vertex 0 holds, and at each vertex whose own query
    ended at ``value`` a copy of the heads list right after that query
    (see :func:`tight_reaches`).  A query below the best clears every flag
    and copy, and a query at it marks its maximal minimizer and keeps its
    copy.

    A pass visits the vertices in the order that one :func:`_search` from
    vertex 0 over ``o``'s heads labels them, run in the direction opposite
    to the pass's flows and stopping at no sink; the vertices it misses
    follow in index order.  Both orders come from :func:`_passes`, which
    keeps them for the last orientation seen.  Query ``i`` flows from
    ``order[i]`` into ``order[:i]``.  Each vertex the search labelled has
    a hyperarc whose one-arc path reaches an earlier vertex (forward, an
    edge headed at it with an earlier tail; backward, an edge it is a
    tail of with an earlier head), so the one-arc pass of
    :func:`max_flow_min_cut` takes most queries' first unit with no
    search.  Each pass keeps one sink mask, and query ``i`` adds
    ``order[i]`` to it.

    Without ``mark``, past a start of 0, the order searches are the only
    test of 0 and 1.  A search that misses a vertex shows a connectivity
    of 0: no hyperarc leaves (forward) or enters (backward) what it
    labelled.  When both label every vertex, every nonempty proper set
    ``X`` has out-degree at least 1.  If ``X`` holds vertex 0, take a
    ``t`` outside it: the forward search (the in pass's) reached ``t``
    from 0 along hyperarcs, tail to head, and the first of them whose head
    is outside ``X`` leaves ``X``.  If not, take a ``t`` in it: the
    backward search (the out pass's) found hyperarcs from ``t`` to 0, and
    again the first whose head is outside ``X`` leaves it.  So a run
    capped at 1 is 1 with no query, and no query capped at 1 or
    more reads 0: each vertex ``t`` after 0 was labelled through a
    hyperarc from an earlier vertex ``u``, which enters (in pass) or
    leaves (out pass) every set that holds ``t`` and misses ``u``, and the
    flow kept before the query changes no such degree (see
    :func:`connectivity`).

    A query at the best that ``mark`` has not reached yet marks its
    maximal minimizer ``M_t``: every vertex that reaches none of its sinks
    in the residual it left.  One :func:`_search` from the sinks
    ``order[:i]``, run against the pass's direction and stopping at ``t``,
    labels what reaches them, so it leaves exactly ``M_t`` unlabelled.  It
    must not reach ``t``, since the query's flow is maximum; if it does,
    that flow was not, which raises :class:`InvariantViolation`."""
    n, g = h.n, network(h)
    tight = [[False] * n, [False] * n]
    kept: list[list[Optional[list[int]]]] = [[None] * n, [None] * n]
    best, orders, complete = _passes(h, o, cap, mark)
    if not mark and (best <= 1 or not complete):
        return best if complete else 0, tight, kept
    for forward, order in zip((False, True), orders):
        marks, copies = tight[forward], kept[forward]
        residual = list(o.heads)
        sinks = _sink_mask(n, [0])
        for i in range(1, n):
            t = order[i]
            value = max_flow_min_cut(g, [t], sinks, limit=best + mark, residual=residual, forward=forward)[0]
            if value < best:
                best = value
                if mark:
                    for flags, held in zip(tight, kept):
                        flags[:] = [False] * n
                        held[:] = [None] * n
            if mark and value == best:
                copies[t] = list(residual)
                if not marks[t]:
                    parent, _, hit = _search(g, residual, order[:i], _sink_mask(n, [t]), not forward)
                    if hit >= 0:
                        raise InvariantViolation(
                            f"level {best}: the flow from {t} into the {i} vertices before it was not maximum"
                        )
                    for v in order[i:]:
                        if parent[v] is None:
                            marks[v] = True
            sinks[t] = True
    return best, tight, kept


def connectivity(h: Hypergraph, o: Orientation, cap: int) -> int:
    """Hyperarc-connectivity capped at ``cap``: exact whenever it is below
    ``cap``, and a value equal to ``cap`` means "at least ``cap``".  A
    ``cap`` that is not a count (``core``'s count rule) raises
    :class:`PreconditionError`.

    A sink sequence in the manner of Hao and Orlin, run mirrored: each query
    flows from one new vertex ``t`` into all the earlier ones, capped at
    the best value so far, in the pass's order: vertex 0 first, then the
    order in which one breadth-first search from it labels the vertices
    (see :func:`_sink_sequences`).  One pass covers the sets that contain
    vertex 0, as the in-degree of their complements, with the flows run
    backward; the other the sets that miss it, with them run forward.  It
    is exact for any order that starts at vertex 0: if ``Y`` (a complement
    in the first pass) attains the minimum and ``t`` is its first vertex in
    the pass's order, every sink of that query lies outside ``Y``.  A
    pass keeps one heads list and one sink mask throughout.  Every unit of
    the flow in it runs between vertices that are sinks of the next query,
    so the flow is net zero across each of that query's cuts, every cut
    keeps its degree, and the next query resumes from it without a reset.
    A cap of 0 ends the run before any search.  Otherwise the two order
    searches run first, or are read from :func:`_passes`' slot when they
    ran for this orientation object last.  One that misses a vertex ends
    the run at 0.  When both label every vertex, every set has out-degree
    at least 1, so a cap of 1 ends the run at 1 with no query, and no
    query reads 0 (the proofs are in :func:`_sink_sequences`).  The loop
    is the package's one sink sequence, which :func:`tight_reaches` runs
    too, capped one higher.

    The cap is required, and each caller passes a bound it holds;
    ``h.m + 1`` caps nothing, since no out-degree is above ``m``.  It
    returns no set: a caller that needs a set of some out-degree asks
    :func:`min_separator` for it, as
    :func:`~hyperorient.augment.augment_one` does for the cut that a step
    lowered.
    """
    _same_instance(h, o)
    return _sink_sequences(h, o, _as_count("cap", cap), False)[0]


def hyperarc_connectivity(h: Hypergraph, o: Orientation) -> int:
    """Largest ``k`` such that every nonempty proper vertex set has
    out-degree at least ``k``.

    It is :func:`connectivity` capped at :func:`_degree_bound`, which the
    connectivity never exceeds, so the capped value is exact: when the two
    are equal, as they mostly are, every query stops at the cap and none
    ends in a search that finds no path.  At a bound of 1 the run is its
    two order searches, with no query.  The orders and the bound stay in
    :func:`_passes`' slot, so a :func:`tight_reaches` (or
    :func:`~hyperorient.families.compute_families`) on the same
    orientation object next runs neither again."""
    _same_instance(h, o)
    return _sink_sequences(h, o, None, False)[0]


class KeptReaches:
    """One residual per tight vertex of one side at level ``k``, the
    connectivity: copies of the root-pair flows an
    :class:`IncrementalConnectivity` keeps
    (:meth:`IncrementalConnectivity.kept_reaches`), or, from
    :func:`tight_reaches`, the heads list a vertex's own sink-sequence
    query left when it ended at ``k``, and a fresh root-pair flow for
    each other tight vertex.

    ``tight[v]`` tells whether some set of degree ``k`` on the side (out-
    or in-degree) that avoids vertex 0 holds ``v``: ``v`` is not 0 and the
    value of its root-pair query (``v -> 0`` on the out side, ``0 -> v``
    on the in side) is ``k``.  That flow is then maximum, since every set
    that holds ``v`` and avoids 0 has degree ``k`` or more, so
    :meth:`reach` from ``v`` labels the inclusion-minimal one of degree
    ``k``, and reaches vertex 0 when none has.  A query's copy labels the
    same set, by the lemma in :func:`tight_reaches`.  The package reads
    it through :class:`~hyperorient.families.QSets`.  Its residuals are
    its own, so its answers do not change when a step check moves on."""

    def __init__(self, g: IncidenceDigraph, residuals: list[Optional[list[int]]], forward: bool) -> None:
        self.n = g.n
        self.tight = tuple(r is not None for r in residuals)
        self._g = g
        self._res = residuals
        self._forward = forward
        self._root = _sink_mask(g.n, [0])

    def reach(self, v: int, stop: Optional[list[bool]] = None) -> Optional[VertexSet]:
        """What one :func:`_search` from ``v``, a vertex with ``tight[v]``,
        labels in its kept residual (run backward on the in side), or
        ``None`` once it labels a vertex marked in ``stop``, by default
        vertex 0."""
        stop = self._root if stop is None else stop
        _, labelled, hit = _search(self._g, self._res[v], [v], stop, self._forward)
        return None if hit >= 0 else VertexSet.from_mask(self.n, _mask(labelled))


def tight_reaches(h: Hypergraph, o: Orientation) -> tuple[int, KeptReaches, KeptReaches]:
    """``(k, in, out)``: the connectivity ``k`` of ``o`` and its ``(in,
    out)`` :class:`KeptReaches`, built with no
    :class:`IncrementalConnectivity`.  A tight vertex whose own
    sink-sequence query ended at ``k`` keeps a copy of the heads list
    that query left; each other tight vertex gets one root-pair flow, and
    a vertex that is not tight gets nothing.

    One run of :func:`connectivity`'s sink sequences gives both ``k`` and
    the tight vertices: per side, one kept heads list, the in side run
    backward, the out side forward, each query from its vertex ``t`` into
    the vertices before ``t`` in the pass's order, capped one above the
    best value so far.  A query below the best lowers it and clears every
    tight flag, so the flags left at the end are those of the final value,
    ``k``, and a side that ended above ``k`` has none.
    A query at the best has a maximal minimizer ``M_t``, the complement of
    what reaches its sinks in its residual: one search from the sinks, run
    the other way, which must not reach ``t``, since the flow is maximum.
    Every vertex of ``M_t`` is tight.

    The pass orders and the bound come from :func:`_passes`' slot, so
    after :func:`hyperarc_connectivity` on the same orientation object
    this runs no order search.  The run starts with the best value at
    :func:`_degree_bound`, not above it.  The connectivity is at most the bound, so the run still ends
    at ``k``, and the flags left are those of the queries at ``k``, whose
    maximal minimizers do not depend on the flow kept before them.  A side
    whose minimum is above the bound marks nothing; one whose minimum is at
    most the bound but above ``k`` marks and is cleared, as before.

    That finds every tight vertex.  At level ``k`` two tight sets that
    share a vertex have a tight union and intersection: both are proper
    and avoid vertex 0, so each degree is at least ``k``, and by
    submodularity they sum to at most ``2k`` (the argument of
    :func:`~hyperorient.families._safe_endpoint`).  So a tight ``v`` has a
    maximal tight set ``X``; with ``t`` its first vertex in the pass's
    order, ``X`` is a minimizer of query ``t``, whose value is ``k``, so
    ``v`` is in ``M_t``.  No earlier ``M_s`` holds that ``t``, or its
    union with ``X`` would be a larger tight set, so a query whose ``t``
    is tight already needs no ``M_t``.

    **Lemma.**  Take query ``t`` of one side, with source ``t`` and as
    sinks the vertices before ``t`` in the pass's order, and say it ends
    at value ``k``.  Then ``q[t]``, the minimal tight set of that side
    holding ``t``, is what a search from ``t`` labels in the heads list the
    query left.

    - The query's minimal minimizer ``R_t`` is what its final failing
      search from ``t`` labels in that heads list.  ``R_t`` holds ``t``,
      avoids ``0`` and has degree ``k``, so it is tight, and
      ``q[t] <= R_t``.
    - So ``q[t]`` avoids the query's sinks too.  It holds ``t`` and has
      degree ``k``, so it is a minimizer of query ``t``, and
      ``R_t <= q[t]``.
    - So ``q[t] = R_t``.  A search from ``t`` in a copy of that heads list
      (run backward on the in side, as the query's own searches ran)
      labels exactly ``q[t]``, as one in the root-pair residual does.  A
      search with a ``stop`` mask hits a stop vertex exactly when that set
      holds one, so it stops exactly where the root-pair residual's
      search would.

    So :func:`_sink_sequences` copies the heads list right after each
    query whose value equals the best so far, and clears the copies
    wherever it clears the tight flags; the copies left are those of the
    queries at ``k``, and each serves its query's vertex.

    Each other tight ``v``, one whose own query ended above ``k``, gets
    the root-pair flow that :class:`IncrementalConnectivity` keeps, from
    ``o``'s heads, capped at ``k + 1``: ``v -> 0`` on the out side,
    ``0 -> v`` on the in side.  Its value must be ``k``; that and the
    ``M_t`` searches cross-check the sequences, and a failure raises
    :class:`InvariantViolation` naming the level.  The snapshots own
    these residuals and copies.
    """
    _same_instance(h, o)
    k, tight, kept = _sink_sequences(h, o, None, True)
    g = network(h)
    reaches = []
    for forward, marks, residuals in zip((False, True), tight, kept):
        for v in range(1, h.n):
            if marks[v] and residuals[v] is None:
                residual = list(o.heads)
                s, t = (v, 0) if forward else (0, v)
                if max_flow_min_cut(g, [s], _sink_mask(h.n, [t]), limit=k + 1, residual=residual)[0] != k:
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

    At most one flow unit crosses edge ``e``.  When ``e`` turns from head
    ``a`` to head ``b``, every query sets its head of ``e`` to ``b``, with
    no flow through ``e``, and repairs its flow one of two ways.  A query
    whose flow sent a unit through ``e`` from a carrier ``x`` to ``a``
    reroutes it from ``x`` to ``a``, and keeps its value; if no path exists
    it starts again from :attr:`heads`, with value 0 and no kept cut, and
    augments to the cap.  A query at the cap is done.  Below the cap, a
    query that kept its value stops when ``a`` and ``b`` lie on one side of
    its kept cut ``X``, and augments toward the cap otherwise, which also
    yields its new reachable side.  Every push is a :func:`max_flow_min_cut`
    call.

    That test is exact.  ``X`` is the reachable side of the query's last
    augment, below the cap, so its out-degree equals the flow's value, and
    each step that passed the test since kept both.  So every hyperarc
    that leaves ``X`` carries a unit out of it, and none carries one in.
    By the single-reorientation lemma (Ito et al. 2022) the step lowers
    ``X``'s degree by one when ``b`` is in ``X`` and ``a`` is not, raises
    it by one when ``a`` is in ``X`` and ``b`` is not, and keeps it
    otherwise.  The fall cannot meet a kept value: ``e`` then left ``X``
    carrying a unit from a carrier in ``X``, every other hyperarc with a
    vertex in ``X`` is headed into ``X`` in the residual, and so is ``e``
    once headed at ``b``, so no path leads from the carrier to ``a``, and
    the query has restarted.  So a query that kept its value is still maximum exactly
    when ``a`` and ``b`` lie on one side of ``X``: then ``X`` keeps its
    degree and still proves it, and the minimal cut (the
    residual-reachable side) is a subset of ``X``.  When ``a`` alone is in
    ``X``, its degree is one above the value and proves nothing, so the
    query augments: by one unit, or to a new cut of the same value.

    :meth:`raise_cap` lifts the cap from one level to the next: a query
    below the old cap is already maximum, and one at it resumes its flow
    toward the new cap, so the flows outlive a level, and
    :func:`~hyperorient.augment.augment_to` builds one check per run.
    Below the cap each kept flow is a maximum flow, so its residual holds
    the minimal sides of the query's minimum cut.
    :func:`~hyperorient.families.compute_families`, given this check,
    reads its minimal tight sets from them, after checking :attr:`heads`
    and :attr:`cap`, through one :meth:`kept_reaches` snapshot per side:
    each per-vertex one is one residual search, with no flow, and the
    ``r_family`` candidates are per-vertex ones too.
    :meth:`kept_reaches` is the one place that maps a side and a vertex to
    its kept query.  Without a check,
    ``compute_families`` builds none of these: most of its 2(n - 1) flows
    belong to vertices that are not tight, and are never read, so
    :func:`tight_reaches` takes the connectivity, the tight vertices and
    most of their residuals from one run of the sink sequences, and runs
    root-pair flows only for the tight vertices whose own query there
    ended above the connectivity.
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
            self._g, [s], _sink_mask(self._g.n, [t]), limit=self.cap - self._value[p], residual=self._res[p]
        )
        self._value[p] += value
        self._cut[p] = reach

    def _push_unit(self, res: list[int], src: int, dst: int) -> bool:
        return max_flow_min_cut(self._g, [src], _sink_mask(self._g.n, [dst]), limit=1, residual=res)[0] == 1

    def reorient(self, e: int, new_head: int) -> int:
        """Turn edge ``e`` toward ``new_head``; returns the new :attr:`value`,
        the connectivity capped at :attr:`cap`.  An ``e`` that is not an edge
        id (``core``'s edge rule) raises :class:`PreconditionError`, and a
        ``new_head`` that is not another vertex of the edge (``core``'s new
        head rule) :class:`~hyperorient.core.InvalidReorientation`."""
        e = _as_edge(e, self.hypergraph.m)
        a, b = self.heads[e], _as_new_head(self.hypergraph, self.heads, e, new_head)
        self.heads[e] = b
        for p, res in enumerate(self._res):
            carrier, res[e] = res[e], b
            if carrier != a and not self._push_unit(res, carrier, a):
                res[:] = self.heads  # no reroute: start the flow again
                self._value[p] = 0
            elif self._value[p] == self.cap or (a in self._cut[p]) == (b in self._cut[p]):
                continue  # at the cap, or the kept cut still proves the flow maximum
            self._augment(p)
        self.value = min(self._value, default=self.cap)
        return self.value
