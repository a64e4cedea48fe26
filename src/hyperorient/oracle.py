"""Brute-force reference implementations.

Everything in this module is written straight from the definitions, with no
shortcuts, so it can certify the polynomial implementations on small
instances.  Every operation refuses inputs above a hard size bound: refusing
is better than silently running for hours.  Performance is a non-goal.
"""

from __future__ import annotations

from typing import Iterator, Optional

from .core import (
    Hypergraph,
    InvariantViolation,
    Orientation,
    Partition,
    PreconditionError,
    VertexSet,
    crossing_edges,
    in_degree,
    minimal_members,
    out_degree,
)
from .families import CutFamilies

BF_MAX_N = 12
BF_PARTITION_MAX_N = 8
BF_ORIENTATIONS_MAX = 1_000_000


def _guard_n(h: Hypergraph, max_n: Optional[int]) -> None:
    bound = BF_MAX_N if max_n is None else max_n
    if h.n > bound:
        raise PreconditionError(f"brute force refused: n={h.n} exceeds bound {bound}")


def _proper_masks(n: int) -> range:
    return range(1, (1 << n) - 1)


def bf_lambda(h: Hypergraph, o: Orientation, max_n: Optional[int] = None) -> int:
    """Hyperarc-connectivity by minimizing out-degree over all 2^n - 2
    nonempty proper vertex sets."""
    _guard_n(h, max_n)
    return min(out_degree(h, o, VertexSet.from_mask(h.n, m)) for m in _proper_masks(h.n))


def bf_tight_families(
    h: Hypergraph, o: Orientation, k: int, r: int = 0
) -> tuple[tuple[VertexSet, ...], tuple[VertexSet, ...], tuple[VertexSet, ...], tuple[VertexSet, ...]]:
    """``(t_minus, t_plus, d_minus, d_plus)`` by subset enumeration.

    The tight families include the full vertex set; the dangerous families
    (degree exactly ``k + 1``) do not.
    """
    _guard_n(h, None)
    n = h.n
    full = VertexSet.full(n)
    t_minus, t_plus, d_minus, d_plus = [full], [full], [], []
    for mask in _proper_masks(n):
        if mask >> r & 1:
            continue
        x = VertexSet.from_mask(n, mask)
        din = in_degree(h, o, x)
        dout = out_degree(h, o, x)
        if din == k:
            t_minus.append(x)
        elif din == k + 1:
            d_minus.append(x)
        if dout == k:
            t_plus.append(x)
        elif dout == k + 1:
            d_plus.append(x)
    key = VertexSet.sort_key
    return (
        tuple(sorted(t_minus, key=key)),
        tuple(sorted(t_plus, key=key)),
        tuple(sorted(d_minus, key=key)),
        tuple(sorted(d_plus, key=key)),
    )


def bf_families(
    h: Hypergraph,
    o: Orientation,
    r: int = 0,
    level: Optional[int] = None,
    max_n: Optional[int] = None,
) -> CutFamilies:
    """All cut families by literal enumeration of the tight families."""
    _guard_n(h, max_n)
    lam = bf_lambda(h, o, max_n=max_n)
    if level is None:
        k = lam
    else:
        if level > lam:
            raise PreconditionError(f"orientation has connectivity {lam}, below level {level}")
        k = level
    n = h.n
    full = VertexSet.full(n)
    t_minus, t_plus, _, _ = bf_tight_families(h, o, k, r)

    m_minus = minimal_members(t_minus)
    m_plus = minimal_members(t_plus)
    m_all = minimal_members(m_minus + m_plus)

    qm, qp = [], []
    for v in range(n):
        for fam, acc in ((t_minus, qm), (t_plus, qp)):
            holding = minimal_members(x for x in fam if v in x)
            if len(holding) != 1:
                raise InvariantViolation(f"minimal tight set containing {v} is not unique")
            acc.append(holding[0])

    prop = []
    for x in t_minus:
        if any(y <= x for y in t_plus):
            prop.append(x)
    for x in t_plus:
        if any(y <= x for y in t_minus):
            prop.append(x)
    r_family = minimal_members(prop)

    return CutFamilies(
        k=k,
        r=r,
        m_minus=m_minus if m_minus else (full,),
        m_plus=m_plus if m_plus else (full,),
        m_all=m_all,
        r_family=r_family,
        q_minus=tuple(qm),
        q_plus=tuple(qp),
    )


def bf_min_separator(
    h: Hypergraph,
    o: Orientation,
    s: int,
    sinks: VertexSet,
    side: str,
    max_n: Optional[int] = None,
) -> tuple[int, tuple[VertexSet, ...], VertexSet]:
    """``(value, all minimizers, minimal minimizer)`` by subset enumeration.

    The minimal minimizer is the intersection of all minimizers; that the
    intersection is itself a minimizer (a submodularity consequence) is
    checked on every call.
    """
    _guard_n(h, max_n)
    if side not in ("out", "in"):
        raise PreconditionError("side must be 'out' or 'in'")
    if not 0 <= s < h.n:
        raise PreconditionError(f"vertex {s} out of range")
    if sinks.is_empty or s in sinks:
        raise PreconditionError("sink set must be nonempty and avoid the source")
    deg = out_degree if side == "out" else in_degree
    best = None
    minimizers: list[VertexSet] = []
    for mask in _proper_masks(h.n):
        if not mask >> s & 1 or mask & sinks.mask:
            continue
        x = VertexSet.from_mask(h.n, mask)
        d = deg(h, o, x)
        if best is None or d < best:
            best = d
            minimizers = [x]
        elif d == best:
            minimizers.append(x)
    assert best is not None and minimizers
    meet = minimizers[0]
    for x in minimizers[1:]:
        meet = meet & x
    if deg(h, o, meet) != best:
        raise InvariantViolation("intersection of minimizers is not a minimizer")
    key = VertexSet.sort_key
    return best, tuple(sorted(minimizers, key=key)), meet


def iter_partitions(n: int) -> Iterator[Partition]:
    """All partitions of ``0..n-1`` into at least two classes, in restricted
    growth string order."""
    code = [0] * n

    def rec(i: int, maxc: int) -> Iterator[Partition]:
        if i == n:
            if maxc > 0:
                classes: list[list[int]] = [[] for _ in range(maxc + 1)]
                for v, c in enumerate(code):
                    classes[c].append(v)
                yield Partition(n, classes)
            return
        for c in range(maxc + 2):
            code[i] = c
            yield from rec(i + 1, max(maxc, c))

    yield from rec(1, 0)


def bf_partition_connected(
    h: Hypergraph, k: int, max_n: Optional[int] = None
) -> tuple[bool, Optional[Partition]]:
    """Whether every partition into at least two classes is crossed by at
    least ``k`` times its class count many hyperedges.

    Returns the first violating partition as a witness.  The trivial
    one-class partition is excluded: no hyperedge can cross it.
    """
    _guard_n(h, BF_PARTITION_MAX_N if max_n is None else max_n)
    if k < 0:
        raise PreconditionError("k must be non-negative")
    if k == 0:
        return True, None
    for p in iter_partitions(h.n):
        if crossing_edges(h, p) < k * len(p):
            return False, p
    return True, None


def bf_orientation_exists(
    h: Hypergraph, k: int, max_orientations: Optional[int] = None
) -> tuple[bool, Optional[Orientation]]:
    """Whether some orientation has connectivity at least ``k``, by
    exhaustive head assignment with pruning.

    The search assigns heads edge by edge and prunes a branch as soon as
    some vertex set can no longer collect ``k`` out-arcs even if every
    remaining crossing edge donates one.
    """
    bound = BF_ORIENTATIONS_MAX if max_orientations is None else max_orientations
    total = 1
    for e in h.edges:
        total *= len(e)
        if total > bound:
            raise PreconditionError(f"brute force refused: orientation count exceeds {bound}")
    if k < 0:
        raise PreconditionError("k must be non-negative")
    min_heads = tuple(min(e) for e in h.edges)
    if k == 0:
        return True, Orientation(h, min_heads)

    n, m = h.n, h.m
    masks = _proper_masks(n)
    edge_masks = [e.mask for e in h.edges]
    crossing_after = [[0] * (1 << n) for _ in range(m + 1)]
    for j in range(m - 1, -1, -1):
        em = edge_masks[j]
        row, prev = crossing_after[j], crossing_after[j + 1]
        for x in masks:
            row[x] = prev[x] + (1 if em & x and em & ~x & ((1 << n) - 1) else 0)
    if any(crossing_after[0][x] < k for x in masks):
        return False, None

    d_plus = [0] * (1 << n)
    heads = [0] * m

    def contribution(j: int, head: int) -> list[int]:
        em = edge_masks[j]
        tail = em & ~(1 << head)
        return [x for x in masks if not x >> head & 1 and tail & x]

    def rec(j: int) -> bool:
        if j == m:
            return True
        nxt = crossing_after[j + 1]
        for head in h.edges[j]:
            heads[j] = head
            touched = contribution(j, head)
            for x in touched:
                d_plus[x] += 1
            if all(d_plus[x] + nxt[x] >= k for x in masks) and rec(j + 1):
                return True
            for x in touched:
                d_plus[x] -= 1
        return False

    if rec(0):
        return True, Orientation(h, tuple(heads))
    return False, None


def _bf_safe(
    h: Hypergraph,
    o: Orientation,
    fam: CutFamilies,
    member_set: VertexSet,
    u: int,
    side: str,
) -> bool:
    """Literal safe-endpoint definition, quantified over every subset of the
    root's complement."""
    _guard_n(h, None)
    k, r = fam.k, fam.r
    full = VertexSet.full(h.n)
    if member_set == full:
        return u == r
    if u not in member_set:
        raise PreconditionError(f"vertex {u} is not in the set")
    deg = out_degree if side == "out" else in_degree
    tight_masks = []
    for mask in _proper_masks(h.n):
        if mask >> r & 1:
            continue
        if deg(h, o, VertexSet.from_mask(h.n, mask)) == k:
            tight_masks.append(mask)
    for mask in _proper_masks(h.n):
        if mask >> r & 1 or not mask >> u & 1:
            continue
        x = VertexSet.from_mask(h.n, mask)
        d = deg(h, o, x)
        if d == k:
            if not member_set < x:
                return False
        elif d == k + 1 and member_set.mask & ~mask:
            reduced = mask & ~(1 << u)
            if not any(t & ~reduced == 0 for t in tight_masks):
                return False
    return True


def bf_safe_source(
    h: Hypergraph, o: Orientation, fam: CutFamilies, s_set: VertexSet, u: int
) -> bool:
    """Safe-source test straight from the definition."""
    if s_set not in fam.m_minus:
        raise PreconditionError("set is not a member of m_minus")
    return _bf_safe(h, o, fam, s_set, u, "out")


def bf_safe_sink(
    h: Hypergraph, o: Orientation, fam: CutFamilies, t_set: VertexSet, u: int
) -> bool:
    """Safe-sink test straight from the definition."""
    if t_set not in fam.m_plus:
        raise PreconditionError("set is not a member of m_plus")
    return _bf_safe(h, o, fam, t_set, u, "in")
