"""The eager cut-family computation, kept as the reference for
``compute_families``.

``eager_families`` reads every q set up front, with one search per vertex
and side in a snapshot of the check's kept residuals, takes the minimal
families with ``minimal_members`` over all of them, and returns plain
tuples.  Every search passes its own stop list for vertex 0.  Each
``r_family`` candidate is one fresh ``min_separator`` query from the whole
minimal member, capped at ``k + 1``, so it rests neither on the crossing
lemma that ``compute_families`` reads its candidates from the q sets by,
nor on the kept residuals.  ``compute_families`` computes the q sets on
read and finds the minimal families by an early-exit descent; it must
return equal families on every input.
"""

from __future__ import annotations

from hyperorient import CutFamilies, VertexSet, hyperarc_connectivity, min_separator, minimal_members
from hyperorient.families import ROOT
from hyperorient.separator import IncrementalConnectivity


def eager_families(h, o, check=None):
    """All cut families at the connectivity, every q set computed up front,
    from ``check``'s kept flows (one built at cap ``k + 1`` by default)."""
    k = hyperarc_connectivity(h, o)
    if check is None:
        check = IncrementalConnectivity(h, o, cap=k + 1)
    n = h.n
    full = VertexSet.full(n)
    root = [v == ROOT for v in range(n)]
    reaches = {side: check.kept_reaches(side) for side in ("in", "out")}

    def q_set(v, side):
        return reaches[side].reach(v, root) if reaches[side].tight[v] else None

    def minimal_tight(x, side):
        value, sep = min_separator(h, o, x, VertexSet.singleton(n, ROOT), side, limit=k + 1)
        return sep if value == k else None

    qm = [q_set(v, "in") or full for v in range(n)]
    qp = [q_set(v, "out") or full for v in range(n)]
    proper_m_minus = minimal_members(s for s in qm if not s.is_full)
    proper_m_plus = minimal_members(s for s in qp if not s.is_full)
    m_minus = proper_m_minus or (full,)
    m_plus = proper_m_plus or (full,)
    candidates = [minimal_tight(t_set, "in") for t_set in proper_m_plus]
    candidates += [minimal_tight(s_set, "out") for s_set in proper_m_minus]
    proper_r = minimal_members(c for c in candidates if c is not None)
    return CutFamilies(
        k=k,
        r=ROOT,
        m_minus=m_minus,
        m_plus=m_plus,
        m_all=minimal_members(m_minus + m_plus),
        r_family=proper_r or (full,),
        q_minus=tuple(qm),
        q_plus=tuple(qp),
    )
