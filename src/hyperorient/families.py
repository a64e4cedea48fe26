"""Tight-set families, per-vertex minimal tight sets, and safe endpoints.

Everything here is relative to a directed hypergraph at connectivity level
``k`` and the fixed root vertex 0.  A set ``X`` inside the root's complement
is in-tight when its in-degree is exactly ``k`` and out-tight when its
out-degree is; the full vertex set is adjoined to both tight families.  Sets
of degree exactly ``k + 1`` are called dangerous; they are never materialized
as a family, membership is a degree test.

The computed families:

* ``m_minus`` / ``m_plus``: inclusion-minimal in-tight / out-tight sets,
  falling back to ``{V}`` when no proper tight set exists;
* ``m_all``: inclusion-minimal members of their union;
* ``r_family``: inclusion-minimal tight sets of one sign that contain a
  tight set of the opposite sign.  When no proper such set exists the family
  is ``{V}``, which acts as the search region of last resort;
* ``q_minus[v]`` / ``q_plus[v]``: the unique minimal in-tight / out-tight
  set containing ``v`` (the full set when none exists).

:func:`compute_families` reads the q sets from the root-pair flows that an
:class:`~hyperorient.separator.IncrementalConnectivity` keeps, capped above
``k``: ``q_plus[v]`` is the residual reach of ``v`` in the ``v -> 0`` flow
and ``q_minus[v]`` the set that reaches ``v`` in the ``0 -> v`` flow, where
that flow's value is ``k``.  Each flow is a heads list, the orientation
with every hyperarc that carries a unit turned to the tail it entered by,
and each such read is one search in it, run backward for ``q_minus``.
Each ``r_family`` candidate is one more residual search on one such flow,
from the whole member.  The q sets come only from :func:`compute_families`.
The connectivity is recomputed from scratch once per call, as a
cross-check of the kept flows.

A vertex ``u`` of ``S`` in ``m_minus`` is a *safe source* when every
out-tight set containing ``u`` strictly contains ``S``, and every dangerous
out-set ``X`` containing ``u`` with ``S - X`` nonempty has an out-tight
subset avoiding ``u``.  Reorienting a path leaving a safe source cannot push
any out-degree below ``k``.  Safe sinks mirror this with in-degrees.  Each
test asks one capped :func:`~hyperorient.separator.min_separator` query per
other vertex of ``S``, on the test's side.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    Hypergraph,
    InvariantViolation,
    Orientation,
    PreconditionError,
    VertexSet,
    canonical_sorted,
    in_degree,
    minimal_members,
    out_degree,
)
from .separator import IncrementalConnectivity, hyperarc_connectivity, min_separator

ROOT = 0


@dataclass(frozen=True)
class CutFamilies:
    """All cut families of one directed hypergraph at level ``k``, root ``r``."""

    k: int
    r: int
    m_minus: tuple[VertexSet, ...]
    m_plus: tuple[VertexSet, ...]
    m_all: tuple[VertexSet, ...]
    r_family: tuple[VertexSet, ...]
    q_minus: tuple[VertexSet, ...]
    q_plus: tuple[VertexSet, ...]

    @property
    def trivial(self) -> bool:
        """True when both minimal families are ``{V}``: every set avoiding
        the root has in- and out-degree at least ``k + 1``."""
        full = VertexSet.full(self.q_minus[0].n)
        return self.m_minus == (full,) and self.m_plus == (full,)


def is_in_tight(h: Hypergraph, o: Orientation, k: int, x: VertexSet, r: int = ROOT) -> bool:
    if x.is_full:
        return True
    return not x.is_empty and r not in x and in_degree(h, o, x) == k


def is_out_tight(h: Hypergraph, o: Orientation, k: int, x: VertexSet, r: int = ROOT) -> bool:
    if x.is_full:
        return True
    return not x.is_empty and r not in x and out_degree(h, o, x) == k


def is_in_dangerous(h: Hypergraph, o: Orientation, k: int, x: VertexSet, r: int = ROOT) -> bool:
    if x.is_empty or x.is_full or r in x:
        return False
    return in_degree(h, o, x) == k + 1


def is_out_dangerous(h: Hypergraph, o: Orientation, k: int, x: VertexSet, r: int = ROOT) -> bool:
    if x.is_empty or x.is_full or r in x:
        return False
    return out_degree(h, o, x) == k + 1


def _check_subpartition(name: str, fam: tuple[VertexSet, ...]) -> None:
    for i, a in enumerate(fam):
        for b in fam[i + 1 :]:
            if a.mask & b.mask:
                raise InvariantViolation(f"{name} members overlap: {a} and {b}")


def compute_families(
    h: Hypergraph, o: Orientation, level: int | None = None, *, check: IncrementalConnectivity | None = None
) -> CutFamilies:
    """All cut families at level ``k`` (the exact connectivity by default).

    The per-vertex minimal tight sets and the ``r_family`` candidates are
    residual reaches of the root-pair flows that ``check`` keeps (see
    :meth:`~hyperorient.separator.IncrementalConnectivity.minimal_tight`).
    Without a ``check``, one is built at cap ``k + 1``.  A negative
    ``level`` raises :class:`PreconditionError`.  A ``check`` must be
    for ``o``, with a cap above ``k`` (else :class:`PreconditionError`).
    The connectivity is recomputed from scratch, and a ``check`` whose value
    is not that value capped at its cap raises :class:`InvariantViolation`
    naming the level.

    Minimal tight families come from the per-vertex minimal tight sets.  The
    ``r_family`` members are found as minimal tight supersets of the
    opposite-sign minimal members, by queries whose source side is forced
    to contain the whole member; each such superset is minimal with the
    defining property, and every defining-property set contains one of
    them, so taking inclusion-minimal candidates gives exactly the family.
    """
    if level is not None and level < 0:
        raise PreconditionError(f"level {level} is negative")
    lam = hyperarc_connectivity(h, o)
    if level is None:
        k = lam
    else:
        if level > lam:
            raise PreconditionError(f"orientation has connectivity {lam}, below level {level}")
        k = level
    if check is None:
        check = IncrementalConnectivity(h, o, cap=k + 1)
    elif check.heads != list(o.heads) or check.hypergraph != h or check.cap <= k:
        raise PreconditionError(f"level {k} needs kept flows for this orientation, capped above {k}")
    if check.value != min(lam, check.cap):
        raise InvariantViolation(f"level {k}: kept flows give {check.value} at cap {check.cap}, connectivity {lam}")
    n = h.n
    full = VertexSet.full(n)
    qm = [check.minimal_tight(VertexSet.singleton(n, v), "in", k) or full for v in range(n)]
    qp = [check.minimal_tight(VertexSet.singleton(n, v), "out", k) or full for v in range(n)]

    proper_m_minus = minimal_members(s for s in qm if not s.is_full)
    proper_m_plus = minimal_members(s for s in qp if not s.is_full)
    m_minus = proper_m_minus if proper_m_minus else (full,)
    m_plus = proper_m_plus if proper_m_plus else (full,)
    m_all = minimal_members(m_minus + m_plus)

    candidates = [check.minimal_tight(t_set, "in", k) for t_set in proper_m_plus]
    candidates += [check.minimal_tight(s_set, "out", k) for s_set in proper_m_minus]
    proper_r = minimal_members(c for c in candidates if c is not None)
    r_family = proper_r if proper_r else (full,)

    fam = CutFamilies(
        k=k,
        r=ROOT,
        m_minus=canonical_sorted(m_minus),
        m_plus=canonical_sorted(m_plus),
        m_all=m_all,
        r_family=r_family,
        q_minus=tuple(qm),
        q_plus=tuple(qp),
    )
    _check_subpartition("m_minus", fam.m_minus)
    _check_subpartition("m_plus", fam.m_plus)
    _check_subpartition("m_all", fam.m_all)
    return fam


def _safe_endpoint(
    h: Hypergraph,
    o: Orientation,
    fam: CutFamilies,
    member_set: VertexSet,
    u: int,
    side: str,
) -> bool:
    """Shared safe-source (``side='out'``) / safe-sink (``side='in'``) test.

    ``u`` is unsafe exactly when the member set itself is tight on the
    opposite side, or some ``v`` in the member set yields a minimal
    minimum-degree separator around ``u`` (avoiding ``v`` and the root) that
    is tight, or dangerous without a tight subset avoiding ``u``.
    """
    k = fam.k
    full = VertexSet.full(h.n)
    if member_set == full:
        return u == fam.r
    tight = is_out_tight if side == "out" else is_in_tight
    if tight(h, o, k, member_set, fam.r):
        return False
    q_sets = fam.q_plus if side == "out" else fam.q_minus
    for v in member_set:
        if v == u:
            continue
        avoid = VertexSet(h.n, (v, fam.r))
        value, sep = min_separator(h, o, VertexSet.singleton(h.n, u), avoid, side, limit=k + 2)
        if value == k:
            return False
        if value == k + 1 and sep is not None:
            inner = sep.remove(u)
            if not any(not q_sets[w].is_full and q_sets[w] <= inner for w in inner):
                return False
    return True


def is_safe_source(
    h: Hypergraph, o: Orientation, fam: CutFamilies, s_set: VertexSet, u: int
) -> bool:
    """Whether ``u`` is a safe source of ``s_set`` (a member of ``m_minus``)."""
    if s_set not in fam.m_minus:
        raise PreconditionError("set is not a member of m_minus")
    if u not in s_set:
        raise PreconditionError(f"vertex {u} is not in the set")
    return _safe_endpoint(h, o, fam, s_set, u, "out")


def is_safe_sink(
    h: Hypergraph, o: Orientation, fam: CutFamilies, t_set: VertexSet, u: int
) -> bool:
    """Whether ``u`` is a safe sink of ``t_set`` (a member of ``m_plus``)."""
    if t_set not in fam.m_plus:
        raise PreconditionError("set is not a member of m_plus")
    if u not in t_set:
        raise PreconditionError(f"vertex {u} is not in the set")
    return _safe_endpoint(h, o, fam, t_set, u, "in")


def find_safe_source(h: Hypergraph, o: Orientation, fam: CutFamilies, s_set: VertexSet) -> int:
    """Smallest safe source of ``s_set``; a safe source always exists when
    the instance has the required partition-connectivity."""
    for u in s_set:
        if is_safe_source(h, o, fam, s_set, u):
            return u
    raise InvariantViolation(
        f"no safe source in {s_set}: instance is not sufficiently partition-connected, or bug"
    )


def find_safe_sink(h: Hypergraph, o: Orientation, fam: CutFamilies, t_set: VertexSet) -> int:
    """Smallest safe sink of ``t_set``; mirror of :func:`find_safe_source`."""
    for u in t_set:
        if is_safe_sink(h, o, fam, t_set, u):
            return u
    raise InvariantViolation(
        f"no safe sink in {t_set}: instance is not sufficiently partition-connected, or bug"
    )
