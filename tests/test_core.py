import enum

import pytest

from hyperorient import (
    Hypergraph,
    Hyperpath,
    InvalidReorientation,
    Orientation,
    Partition,
    PathArc,
    PreconditionError,
    VertexSet,
    canonical_sorted,
    crossing,
    crossing_edges,
    degree,
    hypergraph,
    in_degree,
    minimal_members,
    out_degree,
    reorient,
    trim,
)
from corpus import random_instances, vs


def three_cycle():
    h = hypergraph(3, [(0, 1), (1, 2), (0, 2)])
    return h, Orientation(h, (1, 2, 0))


class TestVertexSet:
    def test_algebra(self):
        a = vs(5, [0, 2, 4])
        b = vs(5, [2, 3])
        assert list(a & b) == [2]
        assert list(a | b) == [0, 2, 3, 4]
        assert list(a - b) == [0, 4]
        assert list(a.complement()) == [1, 3]
        assert b < vs(5, [1, 2, 3])
        assert not a <= b
        assert len(a) == 3 and 4 in a and 1 not in a

    def test_canonical_order_is_size_then_lexicographic(self):
        sets = [vs(4, [1, 2]), vs(4, [0, 3]), vs(4, [2]), vs(4, [0, 1, 2])]
        ordered = sorted(sets, key=VertexSet.sort_key)
        assert [s.members() for s in ordered] == [(2,), (0, 3), (1, 2), (0, 1, 2)]

    def test_bounds_checked(self):
        with pytest.raises(PreconditionError):
            vs(3, [3])
        with pytest.raises(PreconditionError):
            vs(3, [0]) & vs(4, [0])

    def test_members_must_be_ints(self):
        for bad in (True, False, 0.5, 1.0, "1", None):
            with pytest.raises(PreconditionError, match="not an int"):
                VertexSet(3, [0, bad])

        class Vertex(enum.IntEnum):
            A = 1
            B = 2

        assert VertexSet(3, [Vertex.A, Vertex.B]) == vs(3, [1, 2])
        assert hypergraph(3, [(Vertex.A, 0)]).edges[0] == vs(3, [0, 1])

    # each of these used to raise a raw TypeError, or (``empty(True)``) to
    # return a set over ``n=True``, or (a negative count) a raw ValueError
    @pytest.mark.parametrize(
        "make",
        [
            lambda: VertexSet.full(3.0),
            lambda: VertexSet.full(True),
            lambda: VertexSet.empty(True),
            lambda: VertexSet.empty("3"),
            lambda: VertexSet.from_mask(3.0, 1),
            lambda: VertexSet.from_mask(True, 1),
            lambda: VertexSet.singleton(3, 1.0),
            lambda: VertexSet.singleton(3, True),
            lambda: VertexSet.singleton(3.0, 1),
            lambda: vs(3, [0]).add(1.0),
            lambda: vs(3, [0]).add(False),
            lambda: vs(3, [0, 1]).remove(1.0),
            lambda: VertexSet.from_mask(-1, 0),
            lambda: VertexSet.full(-1),
            lambda: VertexSet.empty(-1),
            lambda: VertexSet.singleton(-1, 0),
        ],
        ids=[
            "full-float",
            "full-bool",
            "empty-bool",
            "empty-str",
            "from_mask-float",
            "from_mask-bool",
            "singleton-float-vertex",
            "singleton-bool-vertex",
            "singleton-float-count",
            "add-float",
            "add-bool",
            "remove-float",
            "from_mask-negative",
            "full-negative",
            "empty-negative",
            "singleton-negative-count",
        ],
    )
    def test_class_methods_and_editors_take_ints_only(self, make):
        with pytest.raises(PreconditionError, match="not an int|must be a non-negative int") as info:
            make()
        assert type(info.value) is PreconditionError

    # a float raised a raw TypeError; ``True in`` and a ``True`` mask gave
    # an answer, as if they were 1
    @pytest.mark.parametrize(
        "read",
        [
            lambda: 1.0 in vs(3, [1]),
            lambda: True in vs(3, [1]),
            lambda: "1" in vs(3, [1]),
            lambda: VertexSet.from_mask(3, 1.0),
            lambda: VertexSet.from_mask(3, True),
            lambda: VertexSet.from_mask(3, None),
        ],
        ids=["in-float", "in-bool", "in-str", "mask-float", "mask-bool", "mask-none"],
    )
    def test_membership_and_masks_take_ints_only(self, read):
        with pytest.raises(PreconditionError, match="not an int"):
            read()

    def test_membership_and_masks_take_int_enums(self):
        class Bit(enum.IntEnum):
            ONE = 1
            TWO = 2

        assert Bit.ONE in vs(3, [1]) and Bit.TWO not in vs(3, [1])
        made = VertexSet.from_mask(3, Bit.TWO)
        assert made == vs(3, [1]) and type(made.mask) is int

    def test_class_methods_and_editors_take_int_enums(self):
        class Vertex(enum.IntEnum):
            A = 1
            N = 3

        for made, expected in (
            (VertexSet.full(Vertex.N), vs(3, [0, 1, 2])),
            (VertexSet.empty(Vertex.N), vs(3, [])),
            (VertexSet.from_mask(Vertex.N, 2), vs(3, [1])),
            (VertexSet.singleton(3, Vertex.A), vs(3, [1])),
            (vs(3, [0]).add(Vertex.A), vs(3, [0, 1])),
            (vs(3, [0, 1]).remove(Vertex.A), vs(3, [0])),
        ):
            assert made == expected and type(made.n) is int


class TestConstruction:
    def test_size_one_edges_rejected(self):
        with pytest.raises(PreconditionError):
            hypergraph(3, [(0,)])

    def test_single_vertex_rejected(self):
        with pytest.raises(PreconditionError):
            hypergraph(1, [])

    def test_duplicates_allowed(self):
        h = hypergraph(3, [(0, 1, 2), (0, 1, 2)])
        assert h.m == 2

    def test_head_must_lie_in_edge(self):
        h = hypergraph(3, [(0, 1)])
        for head in (2, -1, 7):
            with pytest.raises(PreconditionError, match=f"head {head} not in edge 0"):
                Orientation(h, (head,))

    def test_counts_and_heads_must_be_ints(self):
        """A float count or head used to be accepted and to break a later
        call with a raw ``TypeError``, and a ``bool`` head was written as
        ``True``, which the ``.or`` format rejects."""
        for bad in (3.0, True, "3"):
            with pytest.raises(PreconditionError, match="vertex count must be a non-negative int, not "):
                hypergraph(bad, [(0, 1), (1, 2), (0, 2)])
        h, _ = three_cycle()
        with pytest.raises(PreconditionError, match="vertex count must be a non-negative int, not 3.0"):
            Hypergraph(3.0, h.edges)
        for heads in ((True, 2, 0), (1.0, 2, 0), (1, 2, "0"), (1, None, 0)):
            with pytest.raises(PreconditionError, match="head of edge [0-2] is .*, not an int"):
                Orientation(h, heads)

        class Vertex(enum.IntEnum):
            A = 1
            B = 2

        h2 = hypergraph(Vertex.B, [(0, 1)])
        assert type(h2.n) is int and h2 == hypergraph(2, [(0, 1)])
        o = Orientation(h, (Vertex.A, Vertex.B, 0))
        assert [type(v) for v in o.heads] == [int] * 3 and o == three_cycle()[1]


def foreign_object_calls():
    """Each entry handed an object of another kind, with the refusal it
    gives.  Each used to raise a raw ``AttributeError`` or ``TypeError``."""
    from hyperorient import (
        augment_to,
        compute_families,
        find_safe_endpoint,
        format_hypergraph,
        format_orientation,
        gen_orientation,
        hyperarc_connectivity,
        parse_orientation,
    )

    h, o = three_cycle()
    x, p = vs(3, [0]), Partition(3, [[0], [1, 2]])
    not_o, not_h = "o is a NoneType, not an Orientation", "h is a NoneType, not a Hypergraph"
    return [
        pytest.param(lambda: compute_families(h, None), not_o, id="compute_families"),
        pytest.param(lambda: augment_to(h, None, 1), not_o, id="augment_to"),
        pytest.param(lambda: augment_to(None, o, 1), not_h, id="augment_to-h"),
        pytest.param(lambda: hyperarc_connectivity(h, None), not_o, id="hyperarc_connectivity"),
        pytest.param(lambda: in_degree(h, None, x), not_o, id="in_degree"),
        pytest.param(lambda: out_degree(h, None, x), not_o, id="out_degree"),
        pytest.param(lambda: out_degree(h, o, None), "x must be a VertexSet over 0..2, not None", id="out_degree-x"),
        pytest.param(lambda: degree(None, x), not_h, id="degree"),
        pytest.param(lambda: crossing_edges(None, p), not_h, id="crossing_edges"),
        pytest.param(lambda: Orientation(None, (1,)), not_h, id="Orientation"),
        pytest.param(lambda: Orientation(h, None), "heads must be iterable, not None", id="Orientation-heads"),
        pytest.param(lambda: Hypergraph(3, None), "edges must be iterable, not None", id="Hypergraph"),
        pytest.param(lambda: Partition(3, None), "classes must be iterable, not None", id="Partition"),
        pytest.param(lambda: VertexSet(3, None), "members must be iterable, not None", id="VertexSet"),
        pytest.param(lambda: Partition(3, [None]), "members must be iterable, not None", id="Partition-class"),
        pytest.param(lambda: hypergraph(3, None), "edges must be iterable, not None", id="hypergraph"),
        pytest.param(lambda: format_hypergraph(None), not_h, id="format_hypergraph"),
        pytest.param(lambda: format_orientation(None), not_o, id="format_orientation"),
        pytest.param(lambda: parse_orientation("o 0 1\n", None), not_h, id="parse_orientation"),
        pytest.param(lambda: gen_orientation(None), not_h, id="gen_orientation"),
        pytest.param(lambda: trim(h, None), "path is a NoneType, not a Hyperpath", id="trim"),
        pytest.param(lambda: trim(None, None), not_h, id="trim-h"),
        pytest.param(
            lambda: find_safe_endpoint(h, o, None, x, "out"),
            "fam is a NoneType, not a CutFamilies",
            id="find_safe_endpoint",
        ),
    ]


@pytest.mark.parametrize("call, message", foreign_object_calls())
def test_foreign_objects_are_precondition_errors(call, message):
    with pytest.raises(PreconditionError) as info:
        call()
    assert type(info.value) is PreconditionError and str(info.value) == message


@pytest.mark.parametrize("foreign", [None, "x", object()], ids=["None", "str", "object"])
@pytest.mark.parametrize(
    "entry", ["admissible_path_in_tminus", "admissible_path_in_tplus", "bf_safe_source", "bf_safe_sink"]
)
def test_a_foreign_fam_is_a_precondition_error(entry, foreign):
    """The two path searches and the two brute-force safe tests refuse a
    ``fam`` that is not a ``CutFamilies`` by ``core``'s instance rule,
    before they read any field of it."""
    from hyperorient import oracle, pathsearch

    h, o = three_cycle()
    full = VertexSet.full(3)
    call = getattr(pathsearch, entry, None) or getattr(oracle, entry)
    args = (h, o, foreign, full) if entry.startswith("admissible") else (h, o, foreign, full, 0)
    with pytest.raises(PreconditionError) as info:
        call(*args)
    assert type(info.value) is PreconditionError
    assert str(info.value) == f"fam is a {type(foreign).__name__}, not a CutFamilies"


@pytest.mark.parametrize("foreign", [None, "x", object()], ids=["None", "str", "object"])
@pytest.mark.parametrize("entry", ["gen_instance", "crossing"])
def test_a_foreign_spec_or_first_operand_is_a_precondition_error(entry, foreign):
    """``gen_instance`` refuses a ``spec`` that is not a ``GenSpec``, and
    ``crossing`` a first operand that is not a ``VertexSet``, by ``core``'s
    instance rule, before they read any field of it.  Both used to raise a
    raw ``AttributeError``."""
    from hyperorient import gen_instance

    if entry == "gen_instance":
        call, message = lambda: gen_instance(foreign), "spec is a {}, not a GenSpec"
    else:
        call, message = lambda: crossing(foreign, vs(3, [0])), "x is a {}, not a VertexSet"
    with pytest.raises(PreconditionError) as info:
        call()
    assert type(info.value) is PreconditionError and str(info.value) == message.format(type(foreign).__name__)


class TestDegree:
    def test_two_identical_triples(self):
        h = hypergraph(3, [(0, 1, 2), (0, 1, 2)])
        assert degree(h, vs(3, [0])) == 2

    def test_isolated_vertex(self):
        h = hypergraph(4, [(0, 1), (1, 2)])
        assert degree(h, vs(4, [3])) == 0

    def test_triangle_pair(self):
        h, _ = three_cycle()
        assert degree(h, vs(3, [0, 1])) == 2

    def test_rejects_empty_and_full(self):
        h, _ = three_cycle()
        with pytest.raises(PreconditionError):
            degree(h, vs(3, []))
        with pytest.raises(PreconditionError):
            degree(h, vs(3, [0, 1, 2]))


class TestInOutDegree:
    def test_single_hyperarc(self):
        h = hypergraph(3, [(0, 1, 2)])
        o = Orientation(h, (2,))
        assert in_degree(h, o, vs(3, [2])) == 1
        assert in_degree(h, o, vs(3, [1, 2])) == 1
        assert out_degree(h, o, vs(3, [0])) == 1
        assert out_degree(h, o, vs(3, [2])) == 0

    def test_three_cycle_pair(self):
        h, o = three_cycle()
        assert out_degree(h, o, vs(3, [0, 1])) == 1

    def test_in_is_out_of_complement(self):
        for h, o in random_instances(2024, 25, n_max=8, m_max=8):
            for mask in range(1, (1 << h.n) - 1):
                x = VertexSet.from_mask(h.n, mask)
                assert in_degree(h, o, x) == out_degree(h, o, x.complement())

    def test_crossing_edges_split_exactly_between_in_and_out(self):
        for h, o in random_instances(77, 25, n_max=6, m_max=7):
            for mask in range(1, (1 << h.n) - 1):
                x = VertexSet.from_mask(h.n, mask)
                assert degree(h, x) == in_degree(h, o, x) + out_degree(h, o, x)

    def test_submodularity_of_both_degree_functions(self):
        for h, o in random_instances(31, 12, n_max=6, m_max=6):
            full = (1 << h.n) - 1
            for xm in range(1, full):
                for ym in range(1, full):
                    x, y = VertexSet.from_mask(h.n, xm), VertexSet.from_mask(h.n, ym)
                    if not crossing(x, y):
                        continue
                    for deg in (in_degree, out_degree):
                        assert deg(h, o, x) + deg(h, o, y) >= deg(h, o, x & y) + deg(
                            h, o, x | y
                        )


class TestPartition:
    def test_validation(self):
        with pytest.raises(PreconditionError):
            Partition(3, [[0], [1]])
        with pytest.raises(PreconditionError):
            Partition(3, [[0, 1], [1, 2]])
        with pytest.raises(PreconditionError):
            Partition(3, [[0, 1, 2], []])
        # a negative count raised a raw ValueError, and ``True`` was kept as the count
        for n, classes in ((-1, []), (True, [VertexSet(1, [0])]), (3, [VertexSet(2, [0, 1]), [2]])):
            with pytest.raises(PreconditionError) as info:
                Partition(n, classes)
            assert type(info.value) is PreconditionError

    def test_crossing_edges_examples(self):
        h = hypergraph(3, [(0, 1, 2), (0, 1, 2)])
        assert crossing_edges(h, Partition(3, [[0], [1], [2]])) == 2
        assert crossing_edges(h, Partition(3, [[0, 1, 2]])) == 0
        tri, _ = three_cycle()
        assert crossing_edges(tri, Partition(3, [[0], [1], [2]])) == 3

    def test_crossing_count_equals_sum_of_class_in_degrees(self):
        from hyperorient import iter_partitions

        for h, o in random_instances(5150, 15, n_max=5, m_max=6):
            for p in iter_partitions(h.n):
                assert crossing_edges(h, p) == sum(in_degree(h, o, c) for c in p)


class TestReorient:
    def test_reorients_single_edge(self):
        h = hypergraph(3, [(0, 1, 2)])
        o = Orientation(h, (2,))
        o2 = reorient(o, 0, 0)
        assert o2.heads == (0,)
        assert o2.hyperarc(0) == (vs(3, [1, 2]), 0)
        assert o2.hypergraph.edges == h.edges

    def test_involution(self):
        h = hypergraph(3, [(0, 1, 2)])
        o = Orientation(h, (2,))
        assert reorient(reorient(o, 0, 0), 0, 2) == o

    def test_rejects_current_head_and_outsiders(self):
        h = hypergraph(4, [(0, 1, 2)])
        o = Orientation(h, (2,))
        with pytest.raises(InvalidReorientation):
            reorient(o, 0, 2)
        with pytest.raises(InvalidReorientation):
            reorient(o, 0, 3)

    def test_edge_ids_and_heads_must_be_ints(self):
        h, o = three_cycle()
        for e, u in ((0, 1.0), (1.5, 2), (0, True), (False, 0), ("0", 0)):
            with pytest.raises(PreconditionError, match="(edge id|new head) is .*, not an int"):
                reorient(o, e, u)

        class Id(enum.IntEnum):
            ZERO = 0

        o2 = reorient(o, Id.ZERO, Id.ZERO)
        assert o2 == reorient(o, 0, 0) and type(o2.heads[0]) is int

    def test_checks_only_the_changed_head(self, monkeypatch):
        m = 3000
        h = hypergraph(4, [(i % 4, (i + 1) % 4) for i in range(m)])
        o = Orientation(h, tuple(i % 4 for i in range(m)))
        calls = 0
        contains = VertexSet.__contains__

        def counting(self, v):
            nonlocal calls
            calls += 1
            return contains(self, v)

        monkeypatch.setattr(VertexSet, "__contains__", counting)
        o2 = reorient(o, m // 2, (m // 2 + 1) % 4)
        assert calls <= 2
        assert o2.heads[m // 2] == (m // 2 + 1) % 4
        assert o2 == Orientation(h, o2.heads)


class TestSingleReorientationLemma:
    """Turning edge ``e`` from head ``a`` to head ``b`` lowers the
    out-degree of exactly the sets holding ``b`` but not ``a`` by one,
    raises it for the sets holding ``a`` but not ``b`` by one, and leaves
    every other set alone; in-degrees move the opposite way.  The verifier
    tracks its kept sets' degrees by it, and the step check repairs its
    flows by it."""

    def test_every_step_on_random_small_instances(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @st.composite
        def instances(draw):
            n = draw(st.integers(2, 7))
            edge = st.lists(st.integers(0, n - 1), min_size=2, max_size=4, unique=True)
            edges = draw(st.lists(edge, min_size=1, max_size=6))
            h = hypergraph(n, edges)
            return h, Orientation(h, tuple(draw(st.sampled_from(sorted(e))) for e in h.edges))

        @hypothesis.settings(max_examples=40, derandomize=True, database=None, deadline=None)
        @hypothesis.given(instances())
        def check(instance):
            h, o = instance
            sets = [VertexSet.from_mask(h.n, mask) for mask in range(1, (1 << h.n) - 1)]
            before = [(out_degree(h, o, x), in_degree(h, o, x)) for x in sets]
            for e, a in enumerate(o.heads):
                for b in h.edges[e]:
                    if b == a:
                        continue
                    o2 = reorient(o, e, b)
                    for x, (out_d, in_d) in zip(sets, before):
                        delta = (a in x and b not in x) - (b in x and a not in x)
                        assert out_degree(h, o2, x) == out_d + delta, (e, a, b, x)
                        assert in_degree(h, o2, x) == in_d - delta, (e, a, b, x)

        check()


def all_pairs_minimal_members(sets):
    """The definition ``minimal_members`` had before it tested each set
    only against the sets it kept: a set is minimal when no member of the
    whole family is a proper subset of it."""
    pool = canonical_sorted(sets)
    return tuple(s for s in pool if not any(t.mask != s.mask and t.mask & ~s.mask == 0 for t in pool))


class TestMinimalMembers:
    def test_nested_and_disjoint(self):
        family = [vs(5, [0, 1, 2]), vs(5, [3]), vs(5, [0, 1]), vs(5, [3, 4]), vs(5, [0, 1]), vs(5, [2, 4])]
        assert minimal_members(family) == (vs(5, [3]), vs(5, [0, 1]), vs(5, [2, 4]))
        assert minimal_members([]) == ()

    def test_matches_the_all_pairs_definition(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @st.composite
        def families(draw):
            n = draw(st.integers(1, 7))
            masks = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=12))
            return [VertexSet.from_mask(n, mask) for mask in masks]

        @hypothesis.settings(max_examples=200, derandomize=True, database=None, deadline=None)
        @hypothesis.given(families())
        def check(family):
            assert minimal_members(iter(family)) == all_pairs_minimal_members(family)

        check()


class TestEdgeIds:
    """Every ``core`` entry that takes an edge id takes it by one rule: an
    ``int`` in ``0..m-1``, where an ``IntEnum`` is one and a ``bool`` is
    not.  A float or a string used to fail with a raw ``TypeError``,
    ``True`` was read as edge 1, and ``-1`` as the last edge."""

    def test_every_entry_checks_its_edge_id(self):
        h, o = three_cycle()
        for e in (1.0, True, "1", -1, h.m):
            entries = (
                lambda: o.tail(e),
                lambda: o.hyperarc(e),
                lambda: reorient(o, e, 1),
                lambda: trim(h, Hyperpath((PathArc(e, 1, 2),))),
            )
            for entry in entries:
                with pytest.raises(PreconditionError, match="^edge id"):
                    entry()

    def test_an_int_enum_edge_id_is_its_int(self):
        h, o = three_cycle()
        one = enum.IntEnum("Edge", "ONE").ONE
        assert o.tail(one) == o.tail(1) == vs(3, [1])
        assert o.hyperarc(one) == o.hyperarc(1)
        assert reorient(o, one, 1) == reorient(o, 1, 1)
        assert trim(h, Hyperpath((PathArc(one, 1, 2),))) == (1, 2)


class TestTrim:
    def test_single_arc(self):
        h = hypergraph(3, [(0, 1, 2)])
        path = Hyperpath((PathArc(edge=0, tail=0, head=2),))
        assert trim(h, path) == (0, 2)

    def test_two_plain_edges(self):
        h = hypergraph(3, [(0, 1), (1, 2)])
        path = Hyperpath((PathArc(0, 0, 1), PathArc(1, 1, 2)))
        assert trim(h, path) == (0, 1, 2)

    def test_four_hyperarc_chain(self):
        # s=0 .. t=8 through heads 1, 4, 5: trims to (0, 1, 4, 5, 8)
        h = hypergraph(9, [(0, 2, 1), (1, 3, 6, 4), (4, 7, 5), (5, 6, 8)])
        path = Hyperpath(
            (PathArc(0, 0, 1), PathArc(1, 1, 4), PathArc(2, 4, 5), PathArc(3, 5, 8))
        )
        assert trim(h, path) == (0, 1, 4, 5, 8)

    def test_rejects_broken_chain_and_repeats(self):
        h = hypergraph(4, [(0, 1), (2, 3)])
        with pytest.raises(PreconditionError):
            trim(h, Hyperpath((PathArc(0, 0, 1), PathArc(1, 2, 3))))
        h2 = hypergraph(3, [(0, 1), (1, 2), (2, 0), (0, 1)])
        looped = Hyperpath(
            (PathArc(0, 0, 1), PathArc(1, 1, 2), PathArc(2, 2, 0), PathArc(3, 0, 1))
        )
        with pytest.raises(PreconditionError):
            trim(h2, looped)
