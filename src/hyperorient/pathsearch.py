"""Admissible hyperpath search inside a region of the ``r_family``.

Every search here is one exploration over vertex bitmasks.  It grows an
arborescence from one start vertex, always taking the hyperarc of smallest
edge id that yields a new vertex.  Its candidates are the hyperarcs at the
explored vertices, kept as one mask of edge ids that each new vertex adds
its own to, so the scan never starts again from edge 0.  It runs in one of
two directions:

* forward, a hyperarc whose tail meets the explored set yields its head;
* backward, a hyperarc whose head is explored yields its tails.

Only vertices inside the exploration window are taken, smallest first.
After each new vertex ``v`` the window may shrink onto ``v``'s minimal tight
set of the opposite sign when that set lies strictly inside it.

:func:`admissible_path_in_tminus` explores forward from a safe source of a
minimal in-tight set, shrinking onto ``q_plus``; the final window is a
minimal out-tight set and a safe sink inside it ends the path.
:func:`admissible_path_in_tplus` explores backward from a safe sink,
shrinking onto ``q_minus``, and ends at a safe source of a minimal in-tight
set.

Shrinking is what makes the resulting trimmed path *admissible*: once the
search enters a tight set of the opposite sign it never leaves it again, so
reorienting the path one hyperarc at a time never pushes a cut below the
current connectivity level.  Every tie is broken by edge id and then by
vertex, so identical inputs produce identical paths.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    Hypergraph,
    Hyperpath,
    InvariantViolation,
    Orientation,
    PathArc,
    PreconditionError,
    VertexSet,
    _as_instance,
)
from .families import CutFamilies, find_safe_endpoint, is_in_tight, is_out_tight
from .separator import network


@dataclass(frozen=True)
class AdmissiblePath:
    """Search result: endpoint sets, safe endpoints, and the hyperpath."""

    s_set: VertexSet
    t_set: VertexSet
    source: int
    sink: int
    path: Hyperpath


def _explore(
    o: Orientation, start: int, window: int, forward: bool, shrink: tuple[VertexSet, ...]
) -> tuple[int, int, dict[int, tuple[int, int]]]:
    """Explored mask, final window mask, and for each reached vertex its
    link ``(edge, via)``: ``via`` is the explored tail that reached the head
    (forward) or the explored head the tail leads to (backward).  The window
    shrinks onto ``shrink[u]`` after each new ``u`` when that set lies
    strictly inside it.

    ``candidates`` is a mask of edge ids: those the explored vertices can
    fire, from each one's incidences as it is explored (forward, the edges
    it is a tail of; backward, those headed at it).  The lowest is popped
    and tested; one that yields nothing never will, since ``explored`` only
    grows and the window only shrinks, and a hyperarc taken is spent.  So
    each pop is the smallest edge id a scan of every hyperarc would take."""
    heads = o.heads
    edges = o.hypergraph.edges
    inc = network(o.hypergraph).inc

    def fires(u: int) -> int:
        mask = 0
        for e in inc[u]:
            if (heads[e] != u) == forward:
                mask |= 1 << e
        return mask

    explored = 1 << start
    candidates = fires(start)
    links: dict[int, tuple[int, int]] = {}
    while candidates:
        low = candidates & -candidates
        candidates ^= low
        e = low.bit_length() - 1
        v = heads[e]
        tails = edges[e].mask & ~(1 << v)
        new = (1 << v if forward else tails) & window & ~explored
        if not new:
            continue
        reach = tails & explored
        via = (reach & -reach).bit_length() - 1 if forward else v
        while new:
            bit = new & -new
            u = bit.bit_length() - 1
            explored |= bit
            links[u] = (e, via)
            candidates |= fires(u)
            q = shrink[u].mask
            if q != window and q & ~window == 0:
                window = q
            new &= window & ~explored
    return explored, window, links


def _search(
    h: Hypergraph, o: Orientation, fam: CutFamilies, region: VertexSet, forward: bool
) -> AdmissiblePath:
    """The search behind both public functions; ``forward`` picks the
    direction, the families, the sides of the safe endpoints (``other`` for
    the start, ``sign`` for the end) and the messages."""
    _as_instance("fam", fam, CutFamilies)
    sign, other = ("in", "out") if forward else ("out", "in")
    if region not in fam.r_family:
        raise PreconditionError("region is not a member of r_family")
    tight = is_in_tight if forward else is_out_tight
    if not tight(h, o, fam.k, region, fam.r):
        raise PreconditionError(f"region is not {sign}-tight")
    starts, ends = (fam.m_minus, fam.m_plus) if forward else (fam.m_plus, fam.m_minus)
    start_set = next((x for x in starts if x <= region), None)
    if start_set is None:
        raise InvariantViolation(f"no minimal member inside region {region}")
    start = find_safe_endpoint(h, o, fam, start_set, other)

    shrink = fam.q_plus if forward else fam.q_minus
    _, window, links = _explore(o, start, region.mask, forward, shrink)
    end_set = VertexSet.from_mask(h.n, window)
    if end_set not in ends:
        raise InvariantViolation(
            f"search window did not settle on a minimal {other}-tight set: "
            "instance is not sufficiently partition-connected, or bug"
        )
    if not region.is_full and end_set == region:
        raise InvariantViolation("final window equals the region")
    end = find_safe_endpoint(h, o, fam, end_set, sign)
    if end == start:
        raise InvariantViolation("safe source and safe sink coincide")

    arcs = []
    cur = end
    while cur != start:
        if cur not in links:
            raise InvariantViolation(
                f"sink {end} was never explored from {start}"
                if forward
                else f"source {end} was never explored toward {start}"
            )
        e, via = links[cur]
        arcs.append(PathArc(e, via, cur) if forward else PathArc(e, cur, via))
        if len(arcs) == h.n:  # a cycle of links would walk forever
            raise InvariantViolation("path has as many arcs as vertices")
        cur = via
    if forward:
        arcs.reverse()
    path = Hyperpath(tuple(arcs))
    if any(arc.tail not in region or arc.head not in region for arc in arcs):
        raise InvariantViolation("trimming leaves the region")
    if forward:
        return AdmissiblePath(start_set, end_set, start, end, path)
    return AdmissiblePath(end_set, start_set, end, start, path)


def admissible_path_in_tminus(
    h: Hypergraph, o: Orientation, fam: CutFamilies, region: VertexSet
) -> AdmissiblePath:
    """Admissible path inside an in-tight region of the ``r_family``.

    Forward search from a safe source; the trimming never leaves the region
    and never leaves any out-tight window it enters, and the final window
    must be a member of ``m_plus`` holding a safe sink.
    """
    return _search(h, o, fam, region, forward=True)


def admissible_path_in_tplus(
    h: Hypergraph, o: Orientation, fam: CutFamilies, region: VertexSet
) -> AdmissiblePath:
    """Admissible path inside an out-tight region of the ``r_family``.

    Backward search from a safe sink over hyperarcs entering the explored
    set; every eligible tail of the picked hyperarc is consumed before the
    next hyperarc is picked, and the window shrinks onto minimal in-tight
    sets.  The final window must be a member of ``m_minus`` holding a safe
    source.
    """
    return _search(h, o, fam, region, forward=False)

