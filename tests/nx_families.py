"""An independent reference for the q sets and minimal tight families above
the brute-force oracles' reach, built on networkx's ``edmonds_karp``.

The incidence digraph (``corpus.nx_incidence``) has a node ``w_e`` per
hyperarc, a unit arc ``w_e -> head`` and an uncapacitated arc
``x -> w_e`` per tail ``x``.  ``q_plus[v]`` is the vertex part of what
``v`` reaches in the residual of the ``v -> 0`` max flow, when that flow's
value is the connectivity ``k``, and the full set when it is above ``k``.
``q_minus`` is the same on the reversed digraph, where a cut's capacity is
an in-degree.  The minimal families are the inclusion-minimal proper q
sets, by set logic alone.  Each ``r_family`` candidate is one more flow:
from a proper minimal member, contracted into one source, to ``0`` on the
opposite side's digraph.  Where its value is ``k``, what the source
reaches in its residual is the least opposite-tight set that holds the
member; the family is the inclusion-minimal candidates.  This takes no q
set, so it does not rest on the crossing lemma that ``compute_families``
reads its candidates by.  Nothing here runs the package's flows.
"""

from __future__ import annotations

from hyperorient import VertexSet, in_degree, out_degree
from corpus import nx_incidence


def nx_q_sets(nx, h, o):
    """``(values, q_minus, q_plus)``: the flow values ``v -> 0`` per side,
    each at the smallest of them, and the q sets at that level."""
    from networkx.algorithms.flow import edmonds_karp

    n = h.n
    flows = {}
    for side, reverse in (("in", True), ("out", False)):
        g = nx_incidence(nx, h, o, reverse)
        for v in range(1, n):
            flows[side, v] = residual_reach(edmonds_karp(g, v, 0), v, n)
    k = min(value for value, _ in flows.values())
    full = VertexSet.full(n)
    q = {
        side: (full,) + tuple(reach if value == k else full for value, reach in (flows[side, v] for v in range(1, n)))
        for side in ("in", "out")
    }
    return k, q["in"], q["out"]


def residual_reach(r, source, n):
    """``(value, reach)`` of an ``edmonds_karp`` residual network ``r``: its
    flow value and the vertices its ``source`` reaches in it."""
    seen, stack = {source}, [source]
    while stack:
        u = stack.pop()
        for w, arc in r[u].items():
            if arc["flow"] < arc["capacity"] and w not in seen:
                seen.add(w)
                stack.append(w)
    return r.graph["flow_value"], VertexSet(n, [x for x in seen if isinstance(x, int) and x < n])


def nx_r_family(nx, h, o, k, m_minus, m_plus):
    """The proper ``r_family`` members at level ``k``, from the proper
    minimal members ``m_minus`` and ``m_plus``: one flow per member, out of
    it contracted, into ``0``, on the opposite side's digraph."""
    from networkx.algorithms.flow import edmonds_karp

    candidates = []
    for members, reverse in ((m_plus, True), (m_minus, False)):
        g = nx_incidence(nx, h, o, reverse)
        for x in members:
            g.add_edges_from(("x", v) for v in x)  # no capacity: the member is one source
            value, reach = residual_reach(edmonds_karp(g, "x", 0), "x", h.n)
            g.remove_node("x")
            if value == k:
                candidates.append(reach)
    return minimal_proper(candidates)


def minimal_proper(sets):
    """The inclusion-minimal sets among the proper ones, canonically sorted."""
    proper = {s for s in sets if not s.is_full}
    return tuple(sorted((s for s in proper if not any(t < s for t in proper)), key=VertexSet.sort_key))


def nx_family_mismatches(nx, h, o, fam):
    """Where ``fam`` disagrees with the networkx reference: its level, each
    q set, and the proper members of ``m_minus``, ``m_plus`` and
    ``r_family``."""
    k, qm, qp = nx_q_sets(nx, h, o)
    problems = [] if fam.k == k else [f"level {fam.k}, networkx {k}"]
    for name, got, ref in (("q_minus", fam.q_minus, qm), ("q_plus", fam.q_plus, qp)):
        problems += [f"{name}[{v}] {got[v]}, networkx {ref[v]}" for v in range(h.n) if got[v] != ref[v]]
    m_minus, m_plus = minimal_proper(qm), minimal_proper(qp)
    r_family = nx_r_family(nx, h, o, k, m_minus, m_plus)
    for name, got, ref in (("m_minus", fam.m_minus, m_minus), ("m_plus", fam.m_plus, m_plus), ("r_family", fam.r_family, r_family)):
        if tuple(x for x in got if not x.is_full) != ref:
            problems.append(f"{name} {got}, networkx {ref}")
    return problems


def nx_safe_endpoint(nx, h, o, k, q, member_set, u, side):
    """Whether ``u`` is a safe source (``side='out'``, ``member_set`` a
    minimal in-tight set) or a safe sink (``side='in'``, a minimal
    out-tight set) at level ``k``, the connectivity, with ``q`` the q sets
    of ``side`` from :func:`nx_q_sets`.

    A set is tight or dangerous when its ``side``-degree is ``k`` or
    ``k + 1`` and it avoids 0.  ``u`` is safe when every tight set that
    holds it holds the member set strictly, and every dangerous one that
    holds it but not the whole member set holds a tight set without
    ``u``.  One flow per other ``v`` of the member set, from ``u`` into a
    super-sink behind ``v`` and 0, decides both for the sets that miss
    ``v``: a value of ``k`` is a tight one; at ``k + 1`` every such
    dangerous set holds what ``u`` reaches in the residual, so it is enough
    that that reach without ``u`` holds some ``q[w]``.  The member set
    itself is the one tight set left that holds the whole member set but
    not strictly.  The flows share one residual network, which gets the
    super-sink and its arcs from ``v`` and 0 anew for each flow."""
    from networkx.algorithms.flow import build_residual_network, edmonds_karp

    if member_set.is_full:
        return u == 0
    r = build_residual_network(nx_incidence(nx, h, o, side == "in"), "capacity")
    for v in member_set:
        if v == u:
            continue
        for x in (v, 0):
            r.add_edge(x, "t", capacity=r.graph["inf"])
            r.add_edge("t", x, capacity=0)
        value, reach = residual_reach(edmonds_karp(r, u, "t", residual=r), u, h.n)
        r.remove_node("t")
        if value == k:
            return False
        inner = reach.remove(u)
        if value == k + 1 and not any(q[w] <= inner for w in inner):
            return False
    degree = out_degree if side == "out" else in_degree
    return degree(h, o, member_set) != k
