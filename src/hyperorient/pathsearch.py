"""Admissible hyperpath search inside a region of the ``r_family``.

Every search here is one exploration over vertex bitmasks.  It grows an
arborescence from one start vertex, scanning hyperarcs in ascending edge id
and restarting the scan after each hyperarc it takes.  It runs in one of two directions:

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
set.  :func:`reachability_check` is the same exploration with a fixed
window.

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
)
from .families import CutFamilies, find_safe_sink, find_safe_source, is_in_tight, is_out_tight


@dataclass(frozen=True)
class AdmissiblePath:
    """Search result: endpoint sets, safe endpoints, and the hyperpath."""

    s_set: VertexSet
    t_set: VertexSet
    source: int
    sink: int
    path: Hyperpath


def _explore(
    o: Orientation, start: int, window: int, forward: bool, shrink: tuple[VertexSet, ...] = ()
) -> tuple[int, int, dict[int, tuple[int, int]]]:
    """Explored mask, final window mask, and for each reached vertex its
    link ``(edge, via)``: ``via`` is the explored tail that reached the head
    (forward) or the explored head the tail leads to (backward).  The window
    shrinks onto ``shrink[u]`` after each new ``u``; empty ``shrink`` keeps
    it fixed."""
    edges = o.hypergraph.edges
    tails = [edges[e].mask & ~(1 << v) for e, v in enumerate(o.heads)]
    explored = 1 << start
    links: dict[int, tuple[int, int]] = {}
    while True:
        for e, v in enumerate(o.heads):
            if forward:
                new = 1 << v & window & ~explored if tails[e] & explored else 0
            else:
                new = tails[e] & window & ~explored if explored >> v & 1 else 0
            if new:
                break
        else:
            return explored, window, links
        reach = tails[e] & explored
        via = (reach & -reach).bit_length() - 1 if forward else v
        while new:
            bit = new & -new
            u = bit.bit_length() - 1
            explored |= bit
            links[u] = (e, via)
            if shrink:
                q = shrink[u].mask
                if q != window and q & ~window == 0:
                    window = q
            new &= window & ~explored


def _search(
    h: Hypergraph, o: Orientation, fam: CutFamilies, region: VertexSet, forward: bool
) -> AdmissiblePath:
    """The search behind both public functions; ``forward`` picks the
    direction, the families, the safe-endpoint finders and the messages."""
    sign, other = ("in", "out") if forward else ("out", "in")
    if region not in fam.r_family:
        raise PreconditionError("region is not a member of r_family")
    tight = is_in_tight if forward else is_out_tight
    if not tight(h, o, fam.k, region, fam.r):
        raise PreconditionError(f"region is not {sign}-tight")
    starts, ends = (fam.m_minus, fam.m_plus) if forward else (fam.m_plus, fam.m_minus)
    find_start, find_end = (
        (find_safe_source, find_safe_sink) if forward else (find_safe_sink, find_safe_source)
    )
    start_set = next((x for x in starts if x <= region), None)
    if start_set is None:
        raise InvariantViolation(f"no minimal member inside region {region}")
    start = find_start(h, o, fam, start_set)

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
    end = find_end(h, o, fam, end_set)
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
        cur = via
    if forward:
        arcs.reverse()
    path = Hyperpath(tuple(arcs))
    if len(arcs) >= h.n:
        raise InvariantViolation("path has as many arcs as vertices")
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
    scan restarts, and the window shrinks onto minimal in-tight sets.  The
    final window must be a member of ``m_minus`` holding a safe source.
    """
    return _search(h, o, fam, region, forward=False)


def reachability_check(
    h: Hypergraph,
    o: Orientation,
    fam: CutFamilies,
    v: int,
    target_region: VertexSet | None = None,
    side: str = "out",
) -> bool:
    """Diagnostic: every vertex of the region is search-reachable.

    For ``side='out'`` the region defaults to ``q_plus[v]`` and the check is
    that a forward search from ``v`` staying inside the region reaches all
    of it; ``side='in'`` mirrors this backward inside ``q_minus[v]``.
    """
    if side not in ("out", "in"):
        raise PreconditionError("side must be 'out' or 'in'")
    if not 0 <= v < h.n:
        raise PreconditionError(f"vertex {v} out of range")
    region = target_region if target_region is not None else (
        fam.q_plus[v] if side == "out" else fam.q_minus[v]
    )
    if v not in region:
        raise PreconditionError("vertex lies outside the region")
    explored, _, _ = _explore(o, v, region.mask, side == "out")
    return region <= VertexSet.from_mask(h.n, explored)
