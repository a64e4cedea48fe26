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

:func:`compute_families` reads the q sets from root-pair flows capped above
``k``: ``q_plus[v]`` is the residual reach of ``v`` in the ``v -> 0`` flow
and ``q_minus[v]`` the set that reaches ``v`` in the ``0 -> v`` flow, where
that flow's value is ``k``.  Each flow is a heads list, the orientation
with every hyperarc that carries a unit turned to the tail it entered by,
and each such read is one search in it, run backward for ``q_minus``.
Every read goes through one snapshot of the residuals per side
(:class:`~hyperorient.separator.KeptReaches`), made in one of two places.
With the step check of an augmentation, it copies the flows that the
:class:`~hyperorient.separator.IncrementalConnectivity` keeps for every
root pair.  Without one, :func:`~hyperorient.separator.tight_reaches` finds
the connectivity and the tight vertices in one run of the sink sequences,
one per side.  A tight vertex whose own query there ended at the
connectivity reads its q set from a copy of the heads list that query
left, which labels the same set (the lemma is in ``tight_reaches``).
Only the other tight vertices get a root-pair flow, since no other
vertex's flow is ever read.  The q sets are computed on read:
:class:`QSets` holds a side's snapshot and runs an entry's search the
first time it is read.  The minimal families come from an early-exit
descent over those searches (:attr:`QSets.minimal`), which needs only a
few of the q sets.  Each ``r_family`` candidate is one q set of the
opposite side, read at the member's smallest vertex, by a crossing lemma:
for a proper minimal member ``x`` and any ``v`` in it, the opposite
``q[v]``, when proper, holds ``x`` or lies strictly inside it, never
crosses it (the proof is in :func:`compute_families`).  The q sets come
only from :func:`compute_families`.  With a step check, the connectivity is
recomputed from scratch once per call, as a cross-check of the kept
flows, whose value must equal it.  Without one it is computed once, by
the sink sequences that find the tight vertices, and the flows of those
vertices must reach it.

A vertex ``u`` of ``S`` in ``m_minus`` is a *safe source* when every
out-tight set containing ``u`` strictly contains ``S``, and every dangerous
out-set ``X`` containing ``u`` with ``S - X`` nonempty has an out-tight
subset avoiding ``u``.  Reorienting a path leaving a safe source cannot push
any out-degree below ``k``.  Safe sinks mirror this with in-degrees.  The
tight half is one subset test against ``q_plus[u]`` (``q_minus[u]`` for a
sink); only the dangerous half asks one capped
:func:`~hyperorient.separator.min_separator` query per other vertex of
``S``, on the test's side.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

from .core import (
    Hypergraph,
    InvariantViolation,
    Orientation,
    PreconditionError,
    VertexSet,
    _as_count,
    _as_instance,
    _as_vertex,
    _as_vertex_set,
    _is_out,
    _same_instance,
    in_degree,
    minimal_members,
    out_degree,
)
from .separator import IncrementalConnectivity, KeptReaches, hyperarc_connectivity, min_separator, tight_reaches

ROOT = 0


class QSets(Sequence):
    """The q sets of one side, computed on read: entry ``v`` is the least
    tight set of the side that holds ``v``, or the full set when none does.

    Built on a snapshot of the kept residuals, it first finds the
    inclusion-minimal proper q sets, :attr:`minimal`, canonically sorted,
    by an early-exit descent.  At level ``k`` the tight sets holding a
    vertex are closed under intersection (see :func:`_safe_endpoint`), so
    ``x`` in ``q[v]`` gives ``q[x] <= q[v]``.  A vertex is *resolved* once
    its q set is known not to be minimal, or to be a minimal set already
    found.  The search from an unresolved ``v`` stops at the first resolved
    vertex it labels: that vertex's q set lies in ``q[v]`` and is not
    ``q[v]`` (each member of a found minimal set is resolved), so ``q[v]``
    is not minimal.  A search that meets none has labelled ``S = q[v]``.
    Every ``q[w]`` with ``w`` in ``S`` lies in ``S``, and equals it exactly
    when it holds ``v``, or any ``x`` with ``q[x] = S`` already; so ``S``
    is minimal when every other ``w`` in ``S`` reaches ``v``, each search
    stopping at the first vertex of ``v``'s class found so far.  The first
    ``w`` that does not has ``q[w]`` strictly inside ``S``, and the descent
    goes on from ``w``.  The sets found are minimal and distinct, so
    disjoint.

    Every q set the descent learns is kept.  Any other entry is one
    :meth:`~hyperorient.separator.KeptReaches.reach` search the first time
    it is read, or the sequence's one full set when no tight set holds its
    vertex, and is kept too.  The snapshot is the sequence's own and is
    only read, so a later read gives what an earlier one would have, and
    two threads that fill one entry store equal sets.  Once every entry is
    set the snapshot is let go, so a caller that reads them all does not
    keep the residuals alive with the families.  The sequence is
    immutable, compares equal to the tuple of the same sets and hashes as
    that tuple, so a :class:`CutFamilies` holding it equals and hashes as
    one built from tuples."""

    __slots__ = ("_full", "_reaches", "_sets", "_unset", "minimal")

    def __init__(self, reaches: KeptReaches) -> None:
        n = reaches.n
        self._full = VertexSet.full(n)
        self._reaches = reaches
        self._sets: list[VertexSet | None] = [None] * n
        resolved = [not t for t in reaches.tight]
        in_class = [False] * n
        found = []
        for start in range(n):
            if resolved[start]:
                continue
            resolved[start] = True
            v, s = start, reaches.reach(start, resolved)
            while s is not None:  # s is q[v]
                self._sets[v] = s
                in_class[v] = True
                below = None
                for w in s:
                    if w != v:
                        resolved[w] = True
                        below = reaches.reach(w, in_class)
                        if below is not None:  # q[w] misses v
                            break
                        self._sets[w] = s
                        in_class[w] = True
                for x in s:
                    in_class[x] = False
                if below is None:
                    found.append(s)
                    break
                v, s = w, below
        self.minimal: tuple[VertexSet, ...] = tuple(sorted(found, key=VertexSet.sort_key))
        self._unset = {v for v, q in enumerate(self._sets) if q is None}

    def __len__(self) -> int:
        return len(self._sets)

    def __getitem__(self, v):
        if isinstance(v, slice):
            return tuple(self)[v]
        reaches = self._reaches  # read before the entry: it is let go only once every entry is set
        q = self._sets[v]
        if q is None:
            v = range(len(self._sets))[v]
            if reaches.tight[v]:
                q = reaches.reach(v)
            if q is None:
                q = self._full
            self._sets[v] = q
            self._unset.discard(v)
            if not self._unset:
                self._reaches = None
        return q

    def __iter__(self):
        return (self[v] for v in range(len(self._sets)))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (tuple, QSets)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"QSets({tuple(self)!r})"


@dataclass(frozen=True)
class CutFamilies:
    """All cut families of one directed hypergraph at level ``k``, root ``r``.

    From :func:`compute_families`, ``q_minus`` and ``q_plus`` are
    :class:`QSets`, computed on read, and ``m_minus`` and ``m_plus`` come
    from their early-exit descent; from
    :func:`~hyperorient.oracle.bf_families`, every field is a tuple.  The
    two compare equal when they hold the same sets."""

    k: int
    r: int
    m_minus: tuple[VertexSet, ...]
    m_plus: tuple[VertexSet, ...]
    m_all: tuple[VertexSet, ...]
    r_family: tuple[VertexSet, ...]
    q_minus: QSets | tuple[VertexSet, ...]
    q_plus: QSets | tuple[VertexSet, ...]


def _rootless_degree(
    h: Hypergraph, o: Orientation, k: int, x: VertexSet, r: int, degree: Callable[..., int]
) -> int | None:
    """``degree(h, o, x)``, or ``None`` when ``x`` is empty, full or holds
    the root ``r``.  A level ``k`` that is not a count, an orientation of
    another hypergraph, a root that is not a vertex (``core``'s vertex
    rule), or a set over another ground set, raises
    :class:`PreconditionError` before any of those shortcuts."""
    _as_count("k", k)
    _same_instance(h, o)
    r = _as_vertex(r, h.n)
    _as_vertex_set("x", x, h.n)
    if x.is_empty or x.is_full or r in x:
        return None
    return degree(h, o, x)


def is_in_tight(h: Hypergraph, o: Orientation, k: int, x: VertexSet, r: int = ROOT) -> bool:
    d = _rootless_degree(h, o, k, x, r, in_degree)
    return x.is_full if d is None else d == k


def is_out_tight(h: Hypergraph, o: Orientation, k: int, x: VertexSet, r: int = ROOT) -> bool:
    d = _rootless_degree(h, o, k, x, r, out_degree)
    return x.is_full if d is None else d == k


def is_in_dangerous(h: Hypergraph, o: Orientation, k: int, x: VertexSet, r: int = ROOT) -> bool:
    return _rootless_degree(h, o, k, x, r, in_degree) == k + 1


def is_out_dangerous(h: Hypergraph, o: Orientation, k: int, x: VertexSet, r: int = ROOT) -> bool:
    return _rootless_degree(h, o, k, x, r, out_degree) == k + 1


def _check_subpartition(name: str, fam: tuple[VertexSet, ...]) -> None:
    """One pass that keeps the union of the members so far: a member that
    meets it raises :class:`InvariantViolation` naming the first earlier
    member it meets and itself."""
    union = 0
    for i, b in enumerate(fam):
        if union & b.mask:
            a = next(a for a in fam[:i] if a.mask & b.mask)
            raise InvariantViolation(f"{name} members overlap: {a} and {b}")
        union |= b.mask


def compute_families(
    h: Hypergraph, o: Orientation, *, check: IncrementalConnectivity | None = None
) -> CutFamilies:
    """All cut families at level ``k``, the exact connectivity.

    The per-vertex minimal tight sets are residual reaches of maximum
    flows that separate each vertex from vertex 0, read through one
    snapshot per side (a
    :class:`~hyperorient.separator.KeptReaches`).
    :func:`~hyperorient.augment.augment_to` passes the step check of its
    run, and the snapshots copy the flows it keeps (see
    :meth:`~hyperorient.separator.IncrementalConnectivity.kept_reaches`),
    which its owner moves on.  A ``check`` must be an
    :class:`~hyperorient.separator.IncrementalConnectivity` for ``o``, with
    a cap above ``k`` (else :class:`PreconditionError`).  The connectivity
    is then recomputed from scratch, and a ``check`` whose value is not that
    value raises :class:`InvariantViolation` naming the level.  Without a
    ``check``, :func:`~hyperorient.separator.tight_reaches` gives ``k``
    and the snapshots from one run of the sink sequences: a tight vertex
    whose own query there ended at ``k`` reads that query's heads list,
    which gives the same reach, and only the other tight vertices get a
    flow; a flow that disagrees with ``k`` raises
    :class:`InvariantViolation` naming the level.

    The q sets are :class:`QSets` over the snapshots, and ``m_minus`` and
    ``m_plus`` come from the descent of :attr:`QSets.minimal`, which reads
    few q sets.
    The ``r_family`` members are the inclusion-minimal ones among the
    least opposite-tight supersets of the proper minimal members: each such
    superset is minimal with the defining property, and every set with it
    holds one.  The superset of a member ``x`` is read from the opposite
    side's q sets, as ``q = q_opp[min(x)]``, by a crossing lemma (Frank,
    *Connections in Combinatorial Optimization*, 2011, uncrossing).

    *Lemma.*  Let ``x`` be in ``m_plus``, ``v`` in ``x``, and
    ``Y = q_minus[v]`` proper.  Then ``x <= Y`` or ``Y < x``.  *Proof.*
    Suppose ``x - Y`` and ``Y - x`` are both nonempty.  Both avoid vertex
    0 and are proper, so ``d_in(Y - x)`` and ``d_out(x - Y)`` are at least
    ``k``.  In-degree is submodular, and ``d_out(S) = d_in(V - S)`` for
    every ``S``.  The sets ``Y`` and ``V - x`` meet in ``Y - x``, and their
    union is ``V - (x - Y)``, so ``d_in(Y - x) + d_out(x - Y) <= d_in(Y) +
    d_out(x) = 2k``.  Then ``x - Y`` is out-tight and misses ``v``,
    against the minimality of ``x``.  A member of ``m_minus`` with
    ``q_plus`` is the mirror image.

    So when ``q`` is proper and holds ``x`` it is the least opposite-tight
    set that does (any such set holds ``min(x)``, so it holds ``q``).  When
    ``q`` is full, no opposite-tight set holds ``x``.  When ``q < x``, a
    minimal member ``y`` of the opposite sign lies in ``q``.  The q set
    read for ``y`` cannot lie strictly inside ``y``, or it would be a tight
    set of ``x``'s sign strictly inside ``x``, so it is the candidate of
    ``y``.  It lies in ``x``, so in any candidate of ``x``, and leaving
    out the candidate of ``x`` changes no minimal member.  A proper ``q``
    that neither holds ``x`` nor lies strictly inside it breaks the lemma
    and raises :class:`InvariantViolation` naming the level.  A candidate
    read is one single-root search at most, and it fills the q entry that
    the path search and the safe tests read later.
    """
    if check is None:
        k, in_reaches, out_reaches = tight_reaches(h, o)
    else:
        _as_instance("check", check, IncrementalConnectivity)
        k = hyperarc_connectivity(h, o)
        if check.heads != list(o.heads) or check.hypergraph != h or check.cap <= k:
            raise PreconditionError(f"level {k} needs kept flows for this orientation, capped above {k}")
        if check.value != k:
            raise InvariantViolation(f"level {k}: kept flows give {check.value} at cap {check.cap}, connectivity {k}")
        in_reaches, out_reaches = check.kept_reaches("in"), check.kept_reaches("out")
    full = VertexSet.full(h.n)
    qm, qp = QSets(in_reaches), QSets(out_reaches)

    proper_m_minus = qm.minimal
    proper_m_plus = qp.minimal
    m_minus = proper_m_minus if proper_m_minus else (full,)
    m_plus = proper_m_plus if proper_m_plus else (full,)
    m_all = minimal_members(m_minus + m_plus)

    candidates = []
    for members, q_opp in ((proper_m_plus, qm), (proper_m_minus, qp)):
        for x in members:
            q = q_opp[min(x)]
            if q.is_full or q < x:
                continue
            if not x <= q:
                raise InvariantViolation(f"level {k}: the minimal tight set {q} of {min(x)} crosses the member {x}")
            candidates.append(q)
    proper_r = minimal_members(candidates)
    r_family = proper_r if proper_r else (full,)

    fam = CutFamilies(
        k=k,
        r=ROOT,
        m_minus=m_minus,
        m_plus=m_plus,
        m_all=m_all,
        r_family=r_family,
        q_minus=qm,
        q_plus=qp,
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
    """Shared safe-source (``side='out'``, ``member_set`` in ``m_minus``) /
    safe-sink (``side='in'``, in ``m_plus``) test of a vertex ``u`` of
    ``member_set``; a ``fam`` that is no :class:`CutFamilies`, a set that is
    no such member, or a ``u`` outside it, raises
    :class:`PreconditionError`.

    The tight half is ``member_set < q[u]``, with ``q`` the q sets of the
    test's side.  Two tight sets holding ``u`` meet in ``u``, and their
    union avoids the root, so its degree is at least the connectivity
    ``k``; by submodularity their intersection has degree at most ``k``,
    so it is tight too.  The tight sets holding ``u`` are thus closed under
    intersection, and ``q[u]`` (the least of them, or the full set when
    there is none) lies in each.  So every one strictly contains the member
    set exactly when ``q[u]`` does.

    For the dangerous half each other ``v`` of the member set gives the
    minimal minimum-degree separator around ``u`` avoiding ``v`` and the
    root.  Once the tight half holds, no tight set holds ``u`` and misses
    ``v``, so a value of ``k`` or less raises :class:`InvariantViolation`;
    at ``k + 1`` the separator is dangerous, and ``u`` is unsafe unless it
    has a tight subset avoiding ``u``.  ``inner``, the separator without
    ``u``, misses the root, because the separator avoids ``{v, fam.r}``.  A
    full q set holds the root, so it is never inside ``inner``, and the
    test needs no separate check that ``q_sets[w]`` is proper.
    """
    _as_instance("fam", fam, CutFamilies)
    members, name, q_sets = (fam.m_minus, "m_minus", fam.q_plus) if side == "out" else (fam.m_plus, "m_plus", fam.q_minus)
    if member_set not in members:
        raise PreconditionError(f"set is not a member of {name}")
    if u not in member_set:
        raise PreconditionError(f"vertex {u} is not in the set")
    if member_set.is_full:
        return u == fam.r
    if not member_set < q_sets[u]:
        return False
    for v in member_set:
        if v == u:
            continue
        avoid = VertexSet(h.n, (v, fam.r))
        value, sep = min_separator(h, o, VertexSet.singleton(h.n, u), avoid, side, limit=fam.k + 2)
        if value <= fam.k:
            raise InvariantViolation(
                f"a set around {u} avoiding {v} has {side}-degree {value}, "
                f"but the minimal tight set {q_sets[u]} of {u} holds {v}"
            )
        if value == fam.k + 1:
            inner = sep.remove(u)
            if not any(q_sets[w] <= inner for w in inner):
                return False
    return True


def is_safe_source(
    h: Hypergraph, o: Orientation, fam: CutFamilies, s_set: VertexSet, u: int
) -> bool:
    """Whether ``u`` is a safe source of ``s_set`` (a member of ``m_minus``)."""
    return _safe_endpoint(h, o, fam, s_set, u, "out")


def is_safe_sink(
    h: Hypergraph, o: Orientation, fam: CutFamilies, t_set: VertexSet, u: int
) -> bool:
    """Whether ``u`` is a safe sink of ``t_set`` (a member of ``m_plus``)."""
    return _safe_endpoint(h, o, fam, t_set, u, "in")


def find_safe_endpoint(
    h: Hypergraph, o: Orientation, fam: CutFamilies, member_set: VertexSet, side: str
) -> int:
    """Smallest safe source (``side='out'``, ``member_set`` in ``m_minus``)
    or safe sink (``side='in'``, in ``m_plus``); one always exists when the
    instance has the required partition-connectivity.  Another ``side``,
    an orientation of another hypergraph, or a ``member_set`` that is no
    :class:`~hyperorient.core.VertexSet` over ``h``'s vertices raises
    :class:`PreconditionError`."""
    is_safe, name = (is_safe_source, "source") if _is_out(side) else (is_safe_sink, "sink")
    _same_instance(h, o)
    _as_vertex_set("member_set", member_set, h.n)
    for u in member_set:
        if is_safe(h, o, fam, member_set, u):
            return u
    raise InvariantViolation(
        f"no safe {name} in {member_set}: instance is not sufficiently partition-connected, or bug"
    )
