"""Exact hypergraph and directed-hypergraph primitives.

Vertices are the dense integers ``0..n-1``.  A hyperedge is a vertex set of
size at least two; hyperedges are kept in input order (their position is the
edge id) and may repeat, in which case they count with multiplicity.
Orienting a hyperedge toward a head vertex turns it into a hyperarc: the head
receives, every other vertex of the edge is a tail.

All quantities are exact integer counts, every iteration order is ascending,
and every value is immutable, so each operation is a pure deterministic
function of its inputs and values can be shared freely between threads.

Arguments are checked by ten private rules, each written once, here, on
top of the ``int`` rule of :func:`_as_int` (an ``IntEnum`` is an ``int``, a
``bool`` is not): a count (:func:`_as_count`), a vertex count
(:func:`_as_vertex_count`), a vertex (:func:`_as_vertex`), a vertex set of a
ground set (:func:`_as_vertex_set`), an edge id (:func:`_as_edge`), a new
head of an edge (:func:`_as_new_head`), a side (:func:`_is_out`), a
collection (:func:`_as_tuple`), a hypergraph (:func:`_as_hypergraph`) and
an orientation of a hypergraph (:func:`_same_instance`).  A value that
breaks one raises :class:`PreconditionError`.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass


class PreconditionError(ValueError):
    """Arguments violate an operation's contract."""


class InvalidReorientation(PreconditionError):
    """The requested vertex is not a legal new head for the edge."""


class InvariantViolation(RuntimeError):
    """An internal postcondition failed.

    Raised when a search or family computation reaches a state that is
    impossible for feasible inputs; it signals either an instance that lacks
    the required partition-connectivity or a bug.
    """


def _as_int(what: str, x: object) -> int:
    """``x`` as a plain ``int``: an ``IntEnum`` member is one, a ``bool`` is
    not, and anything else raises :class:`PreconditionError`.  Callers test
    ``type(x) is int`` first, so a plain ``int`` costs no call."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise PreconditionError(f"{what} is {x!r}, not an int")
    return int(x)


def _as_count(what: str, x: object) -> int:
    """``x`` as a plain non-negative ``int``: a count, limit, cap, level or
    target.  The ``int`` rule is :func:`_as_int`'s, so an ``IntEnum``
    member is one and a ``bool`` is not, though Python counts it as an
    ``int``."""
    if isinstance(x, bool) or not isinstance(x, int) or x < 0:
        raise PreconditionError(f"{what} must be a non-negative int, not {x!r}")
    return int(x)


def _as_vertex(v: object, n: int) -> int:
    """``v`` as a plain ``int`` in ``0..n-1``, by :func:`_as_int`'s rule."""
    if type(v) is not int:
        v = _as_int("vertex", v)
    if not 0 <= v < n:
        raise PreconditionError(f"vertex {v} outside 0..{n - 1}")
    return v


def _as_edge(e: object, m: int) -> int:
    """``e`` as a plain ``int`` edge id in ``0..m-1``, by :func:`_as_int`'s
    rule, so a ``bool`` is no edge id and a negative one does not count
    from the end."""
    if type(e) is not int:
        e = _as_int("edge id", e)
    if not 0 <= e < m:
        raise PreconditionError(f"edge id {e} out of range")
    return e


def _as_vertex_count(n: object) -> int:
    """``n`` as a vertex count, by :func:`_as_count`'s rule.  Callers test
    ``type(n) is not int or n < 0`` first, so a valid count costs no
    call."""
    return _as_count("vertex count", n)


def _as_new_head(h: Hypergraph, heads: Sequence[int], e: int, u: object) -> int:
    """``u`` as a plain ``int`` (:func:`_as_int`'s rule) that is a vertex of
    edge ``e`` (an edge id already) other than its current head
    ``heads[e]``; any other ``int`` raises :class:`InvalidReorientation`."""
    if type(u) is not int:
        u = _as_int("new head", u)
    if u < 0 or not h.edges[e].mask >> u & 1:
        raise InvalidReorientation(f"vertex {u} not in edge {e}")
    if u == heads[e]:
        raise InvalidReorientation(f"vertex {u} is already the head of edge {e}")
    return u


def _as_tuple(what: str, x: object) -> tuple:
    """The items of ``x`` as a tuple; an ``x`` that is not iterable raises
    :class:`PreconditionError`."""
    if not isinstance(x, Iterable):
        raise PreconditionError(f"{what} must be iterable, not {x!r}")
    return tuple(x)


def _as_hypergraph(h: object) -> None:
    """Check that ``h`` is a :class:`Hypergraph`, else raise
    :class:`PreconditionError`."""
    if not isinstance(h, Hypergraph):
        raise PreconditionError(f"h is a {type(h).__name__}, not a Hypergraph")


def _is_out(side: object) -> bool:
    """Whether ``side`` is ``'out'`` rather than ``'in'``: the direction
    of a query, forward on the out side.  Any other value raises
    :class:`PreconditionError`."""
    if side not in ("out", "in"):
        raise PreconditionError(f"side must be 'out' or 'in', not {side!r}")
    return side == "out"


class VertexSet:
    """Immutable subset of ``{0, .., n-1}`` backed by a bitmask.

    The count is a vertex count (:func:`_as_vertex_count`), the members a
    collection (:func:`_as_tuple`), and the members, a vertex tested with
    ``in`` and a mask are ``int`` (an ``IntEnum`` is one, a ``bool`` is
    not); anything else raises :class:`PreconditionError`.
    Comparison operators follow set semantics (``<=`` is subset, ``<`` is
    proper subset).  Deterministic tie-breaking everywhere in this package
    uses :meth:`sort_key`, which orders by size first and then
    lexicographically on the sorted member tuple.
    """

    __slots__ = ("n", "mask")

    def __init__(self, n: int, members: Iterable[int] = ()) -> None:
        if type(n) is not int or n < 0:
            n = _as_vertex_count(n)
        mask = 0
        try:
            for v in members:
                if type(v) is not int or not 0 <= v < n:
                    v = _as_vertex(v, n)
                mask |= 1 << v
        except TypeError:  # the members are checked only when iterating them failed
            _as_tuple("members", members)
            raise
        self.n = n
        self.mask = mask

    @classmethod
    def from_mask(cls, n: int, mask: int) -> "VertexSet":
        if type(n) is not int or n < 0:
            n = _as_vertex_count(n)
        if type(mask) is not int:
            mask = _as_int("mask", mask)
        if mask < 0 or mask >> n:
            raise PreconditionError("mask has bits outside 0..n-1")
        out = cls.__new__(cls)
        out.n = n
        out.mask = mask
        return out

    @classmethod
    def empty(cls, n: int) -> "VertexSet":
        return cls.from_mask(n, 0)

    @classmethod
    def full(cls, n: int) -> "VertexSet":
        if type(n) is not int or n < 0:
            n = _as_vertex_count(n)
        return cls.from_mask(n, (1 << n) - 1)

    @classmethod
    def singleton(cls, n: int, v: int) -> "VertexSet":
        return cls.empty(n).add(v)

    def __contains__(self, v: int) -> bool:
        if type(v) is not int:
            v = _as_int("vertex", v)
        return 0 <= v < self.n and self.mask >> v & 1 == 1

    def __iter__(self) -> Iterator[int]:
        mask = self.mask
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, VertexSet)
            and other.n == self.n
            and other.mask == self.mask
        )

    def __hash__(self) -> int:
        return hash((self.n, self.mask))

    def __and__(self, other: "VertexSet") -> "VertexSet":
        _as_vertex_set("operand", other, self.n)
        return VertexSet.from_mask(self.n, self.mask & other.mask)

    def __or__(self, other: "VertexSet") -> "VertexSet":
        _as_vertex_set("operand", other, self.n)
        return VertexSet.from_mask(self.n, self.mask | other.mask)

    def __sub__(self, other: "VertexSet") -> "VertexSet":
        _as_vertex_set("operand", other, self.n)
        return VertexSet.from_mask(self.n, self.mask & ~other.mask)

    def __le__(self, other: "VertexSet") -> bool:
        _as_vertex_set("operand", other, self.n)
        return self.mask & ~other.mask == 0

    def __lt__(self, other: "VertexSet") -> bool:
        return self <= other and self.mask != other.mask

    def __ge__(self, other: "VertexSet") -> bool:
        _as_vertex_set("operand", other, self.n)
        return other <= self

    def __gt__(self, other: "VertexSet") -> bool:
        return other < self

    def complement(self) -> "VertexSet":
        return VertexSet.from_mask(self.n, ~self.mask & ((1 << self.n) - 1))

    def add(self, v: int) -> "VertexSet":
        return VertexSet.from_mask(self.n, self.mask | 1 << _as_vertex(v, self.n))

    def remove(self, v: int) -> "VertexSet":
        return VertexSet.from_mask(self.n, self.mask & ~(1 << _as_vertex(v, self.n)))

    @property
    def is_empty(self) -> bool:
        return self.mask == 0

    @property
    def is_full(self) -> bool:
        return self.mask == (1 << self.n) - 1

    def members(self) -> tuple[int, ...]:
        return tuple(self)

    def sort_key(self) -> tuple[int, tuple[int, ...]]:
        return (len(self), self.members())

    def __repr__(self) -> str:
        return f"VertexSet(n={self.n}, {{{', '.join(map(str, self))}}})"


def _as_vertex_set(what: str, x: object, n: int, kind: type = VertexSet) -> object:
    """Check that ``x`` is a ``kind`` (a :class:`VertexSet` unless a
    :class:`Partition` is asked for) over the ground set ``0..n-1``, else
    raise :class:`PreconditionError`.  :class:`Hypergraph` tests each edge
    inline first, so a valid edge costs no call."""
    if not isinstance(x, kind) or x.n != n:
        raise PreconditionError(f"{what} must be a {kind.__name__} over 0..{n - 1}, not {x!r}")
    return x


def crossing(x: VertexSet, y: VertexSet) -> bool:
    """Whether two vertex sets cross: they overlap, neither contains the
    other, and their union is not everything."""
    _as_vertex_set("operand", y, x.n)
    full = (1 << x.n) - 1
    return (
        x.mask & y.mask != 0
        and x.mask | y.mask != full
        and x.mask & ~y.mask != 0
        and y.mask & ~x.mask != 0
    )


def canonical_sorted(sets: Iterable[VertexSet]) -> tuple[VertexSet, ...]:
    """Deduplicate and sort vertex sets in canonical order."""
    uniq = {(s.n, s.mask): s for s in sets}
    return tuple(sorted(uniq.values(), key=VertexSet.sort_key))


def minimal_members(sets: Iterable[VertexSet]) -> tuple[VertexSet, ...]:
    """Inclusion-minimal members of a family over one ground set,
    canonically sorted.  Canonical order puts every proper subset of a set
    before it, and a set with a proper subset in the family also has a
    minimal one, so each set is tested only against those already kept."""
    out: list[VertexSet] = []
    for s in canonical_sorted(sets):
        if not any(t.mask & ~s.mask == 0 for t in out):
            out.append(s)
    return tuple(out)


@dataclass(frozen=True)
class Hypergraph:
    """Undirected hypergraph: a vertex count and an ordered multiset of
    hyperedges, each a vertex set of size at least two.  The vertex count
    is at least two, by :func:`_as_vertex_count`'s rule."""

    n: int
    edges: tuple[VertexSet, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _as_vertex_count(self.n))
        if self.n < 2:
            raise PreconditionError("hypergraph needs at least two vertices")
        if not isinstance(self.edges, tuple):
            object.__setattr__(self, "edges", _as_tuple("edges", self.edges))
        for i, e in enumerate(self.edges):
            if not isinstance(e, VertexSet) or e.n != self.n or len(e) < 2:
                _as_vertex_set(f"edge {i}", e, self.n)
                raise PreconditionError(f"edge {i} has fewer than two vertices")

    @property
    def m(self) -> int:
        return len(self.edges)

    def vertices(self) -> VertexSet:
        return VertexSet.full(self.n)

    def __repr__(self) -> str:
        edges = ", ".join("{" + ",".join(map(str, e)) + "}" for e in self.edges)
        return f"Hypergraph(n={self.n}, edges=[{edges}])"


def hypergraph(n: int, edges: Iterable[Iterable[int]]) -> Hypergraph:
    """Convenience constructor from plain vertex collections."""
    return Hypergraph(n, tuple(VertexSet(n, e) for e in _as_tuple("edges", edges)))


@dataclass(frozen=True)
class Orientation:
    """Head assignment for every edge of a hypergraph.

    Together with its hypergraph this is a directed hypergraph: edge ``e``
    becomes the hyperarc ``(edges[e] - heads[e], heads[e])``.  The
    hypergraph is a :class:`Hypergraph`, and each head is an ``int`` (an
    ``IntEnum`` is one, a ``bool`` is not).
    """

    hypergraph: Hypergraph
    heads: tuple[int, ...]

    def __post_init__(self) -> None:
        h = self.hypergraph
        _as_hypergraph(h)
        heads = list(_as_tuple("heads", self.heads))
        if len(heads) != h.m:
            raise PreconditionError(f"expected {h.m} heads, got {len(heads)}")
        for e, v in enumerate(heads):
            if type(v) is not int:
                v = heads[e] = _as_int(f"head of edge {e}", v)
            if v < 0 or not h.edges[e].mask >> v & 1:  # ``v in h.edges[e]``, without a method call per head
                raise PreconditionError(f"head {v} not in edge {e}")
        object.__setattr__(self, "heads", tuple(heads))

    def tail(self, e: int) -> VertexSet:
        e = _as_edge(e, self.hypergraph.m)
        return self.hypergraph.edges[e].remove(self.heads[e])

    def hyperarc(self, e: int) -> tuple[VertexSet, int]:
        return self.tail(e), self.heads[e]

    def __repr__(self) -> str:
        return f"Orientation(heads={list(self.heads)})"


def _same_instance(h: Hypergraph, o: object) -> None:
    """The "orientation of ``h``" rule: ``o`` must be an
    :class:`Orientation` of ``h`` or of an equal hypergraph.  Anything else
    raises :class:`PreconditionError`; a valid ``o`` costs one type test and
    one identity test."""
    if not isinstance(o, Orientation):
        raise PreconditionError(f"o is a {type(o).__name__}, not an Orientation")
    if o.hypergraph is not h and o.hypergraph != h:
        raise PreconditionError("orientation does not belong to this hypergraph")


def _proper_nonempty(h: Hypergraph, x: VertexSet) -> None:
    _as_vertex_set("x", x, h.n)
    if x.is_empty or x.is_full:
        raise PreconditionError("degree functions need a nonempty proper vertex set")


def degree(h: Hypergraph, x: VertexSet) -> int:
    """Number of hyperedges meeting both ``x`` and its complement."""
    _as_hypergraph(h)
    _proper_nonempty(h, x)
    xm = x.mask
    return sum(1 for e in h.edges if e.mask & xm and e.mask & ~xm)


def in_degree(h: Hypergraph, o: Orientation, x: VertexSet) -> int:
    """Number of hyperarcs whose head lies in ``x`` and whose tail set is
    not fully inside ``x``."""
    _same_instance(h, o)
    _proper_nonempty(h, x)
    xm = x.mask
    count = 0
    for e, v in enumerate(o.heads):
        if xm >> v & 1 and (h.edges[e].mask & ~(1 << v)) & ~xm:
            count += 1
    return count


def out_degree(h: Hypergraph, o: Orientation, x: VertexSet) -> int:
    """Number of hyperarcs whose head lies outside ``x`` and whose tail set
    meets ``x``: the in-degree of its complement."""
    _same_instance(h, o)
    return in_degree(h, o, _as_vertex_set("x", x, h.n).complement())


class Partition:
    """Partition of the vertex set into pairwise-disjoint nonempty classes.

    Classes are stored canonically sorted; disjointness and coverage are
    checked on construction.
    """

    __slots__ = ("n", "classes")

    def __init__(self, n: int, classes: Iterable[Iterable[int] | VertexSet]) -> None:
        n = _as_vertex_count(n)
        parts = []
        for c in _as_tuple("classes", classes):
            part = _as_vertex_set("partition class", c, n) if isinstance(c, VertexSet) else VertexSet(n, c)
            if part.is_empty:
                raise PreconditionError("partition classes must be nonempty")
            parts.append(part)
        union = 0
        total = 0
        for part in parts:
            union |= part.mask
            total += len(part)
        if union != (1 << n) - 1 or total != n:
            raise PreconditionError("classes must partition the vertex set")
        self.n = n
        self.classes = canonical_sorted(parts)

    def __len__(self) -> int:
        return len(self.classes)

    def __iter__(self) -> Iterator[VertexSet]:
        return iter(self.classes)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Partition)
            and other.n == self.n
            and other.classes == self.classes
        )

    def __hash__(self) -> int:
        return hash((self.n, self.classes))

    def __repr__(self) -> str:
        body = ", ".join("{" + ",".join(map(str, c)) + "}" for c in self.classes)
        return f"Partition({body})"


def crossing_edges(h: Hypergraph, p: Partition) -> int:
    """Number of hyperedges that intersect at least two classes of ``p``."""
    _as_hypergraph(h)
    _as_vertex_set("p", p, h.n, Partition)
    count = 0
    for e in h.edges:
        hit = 0
        for c in p.classes:
            if e.mask & c.mask:
                hit += 1
                if hit == 2:
                    count += 1
                    break
    return count


def reorient(o: Orientation, e: int, u: int) -> Orientation:
    """Reorient edge ``e`` toward ``u``: replace hyperarc ``(X, v)`` by
    ``(X - u + v, u)``.  The underlying hyperedge is unchanged.

    Only the changed head is checked; the others were checked when ``o`` was
    built, so the result skips ``Orientation``'s full O(m) validation.  ``e``
    is an edge id (:func:`_as_edge`) and ``u`` a new head of it
    (:func:`_as_new_head`)."""
    h = o.hypergraph
    if type(e) is not int or not 0 <= e < h.m:
        e = _as_edge(e, h.m)
    u = _as_new_head(h, o.heads, e, u)
    out = object.__new__(Orientation)
    object.__setattr__(out, "hypergraph", h)
    object.__setattr__(out, "heads", o.heads[:e] + (u,) + o.heads[e + 1 :])
    return out


@dataclass(frozen=True)
class PathArc:
    """One hyperarc of a hyperpath with its chosen tail vertex recorded.

    ``head`` snapshots the head at the time the path was found, so a path
    stays meaningful while the orientation it came from is being modified.
    """

    edge: int
    tail: int
    head: int


@dataclass(frozen=True)
class Hyperpath:
    """Sequence of hyperarcs chaining ``s`` to ``t`` with distinct heads."""

    arcs: tuple[PathArc, ...]

    def __post_init__(self) -> None:
        if not self.arcs:
            raise PreconditionError("hyperpath needs at least one arc")

    @property
    def s(self) -> int:
        return self.arcs[0].tail

    @property
    def t(self) -> int:
        return self.arcs[-1].head


def trim(h: Hypergraph, path: Hyperpath) -> tuple[int, ...]:
    """Vertex sequence ``s, a_1, .., a_l`` of the induced plain directed path.

    Rejects a ``path`` that is not a :class:`Hyperpath` and malformed
    hyperpaths: an edge id that is not one (:func:`_as_edge`), tail or head
    outside the edge, a chosen tail that is not the previous head, or
    repeated vertices.  ``h`` is a hypergraph (:func:`_as_hypergraph`).
    """
    _as_hypergraph(h)
    if not isinstance(path, Hyperpath):
        raise PreconditionError(f"path is a {type(path).__name__}, not a Hyperpath")
    for i, arc in enumerate(path.arcs):
        e = h.edges[_as_edge(arc.edge, h.m)]
        if arc.head not in e:
            raise PreconditionError(f"arc {i}: head {arc.head} not in edge {arc.edge}")
        if arc.tail not in e or arc.tail == arc.head:
            raise PreconditionError(f"arc {i}: tail {arc.tail} is not a tail of edge {arc.edge}")
        if i > 0 and arc.tail != path.arcs[i - 1].head:
            raise PreconditionError(f"arc {i}: chosen tail {arc.tail} is not the previous head")
    seq = (path.s,) + tuple(arc.head for arc in path.arcs)
    if len(set(seq)) != len(seq):
        raise PreconditionError("hyperpath revisits a vertex")
    return seq
