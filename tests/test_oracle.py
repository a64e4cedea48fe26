from enum import IntEnum

import pytest

from hyperorient import (
    Orientation,
    Partition,
    PreconditionError,
    VertexSet,
    bf_families,
    bf_lambda,
    bf_min_separator,
    bf_orientation_exists,
    bf_partition_connected,
    bf_safe_sink,
    bf_safe_source,
    bf_tight_families,
    hyperarc_connectivity,
    hypergraph,
    iter_partitions,
)
from corpus import random_instances, vs


def three_cycle():
    h = hypergraph(3, [(0, 1), (1, 2), (0, 2)])
    return h, Orientation(h, (1, 2, 0))


def doubled_triangle():
    return hypergraph(3, [(0, 1), (0, 1), (1, 2), (1, 2), (0, 2), (0, 2)])


class TestBfLambda:
    def test_three_cycle(self):
        h, o = three_cycle()
        assert bf_lambda(h, o) == 1

    def test_single_hyperarc(self):
        h = hypergraph(3, [(0, 1, 2)])
        assert bf_lambda(h, Orientation(h, (2,))) == 0

    def test_bound_refused(self):
        h = hypergraph(13, [(i, i + 1) for i in range(12)])
        o = Orientation(h, tuple(i + 1 for i in range(12)))
        with pytest.raises(PreconditionError):
            bf_lambda(h, o)


class TestPartitions:
    def test_count_excludes_trivial(self):
        # Bell(3) = 5 partitions, 4 with at least two classes.
        assert len(list(iter_partitions(3))) == 4
        assert len(list(iter_partitions(4))) == 14

    def test_a_vertex_count_must_be_a_count(self):
        """``iter_partitions(2.5)`` used to fail with a raw ``TypeError`` and
        ``iter_partitions(True)`` to yield nothing; both are refused when
        called.  Below two vertices there is no partition to yield."""
        for n in (2.5, True, False, "2", None, -1):
            with pytest.raises(PreconditionError, match="^n must be a non-negative int"):
                iter_partitions(n)
        assert list(iter_partitions(0)) == list(iter_partitions(1)) == []
        three = IntEnum("Count", "ONE TWO THREE").THREE
        assert list(iter_partitions(three)) == list(iter_partitions(3))

    def test_two_identical_triples_not_connected(self):
        h = hypergraph(3, [(0, 1, 2), (0, 1, 2)])
        ok, witness = bf_partition_connected(h, 1)
        assert not ok
        assert witness == Partition(3, [[0], [1], [2]])

    def test_doubled_triangle_is_2_2(self):
        ok, witness = bf_partition_connected(doubled_triangle(), 2)
        assert ok and witness is None

    def test_k_zero_always_true(self):
        h = hypergraph(4, [(0, 1)])
        assert bf_partition_connected(h, 0) == (True, None)

    def test_bound_refused(self):
        h = hypergraph(9, [(i, i + 1) for i in range(8)])
        with pytest.raises(PreconditionError):
            bf_partition_connected(h, 1)


class TestOrientationExists:
    def test_doubled_triangle_reaches_two(self):
        ok, witness = bf_orientation_exists(doubled_triangle(), 2)
        assert ok
        assert hyperarc_connectivity(witness.hypergraph, witness) >= 2

    def test_two_identical_triples_cannot_reach_one(self):
        h = hypergraph(3, [(0, 1, 2), (0, 1, 2)])
        assert bf_orientation_exists(h, 1) == (False, None)

    def test_k_zero_trivial(self):
        h = hypergraph(3, [(0, 1), (1, 2)])
        ok, witness = bf_orientation_exists(h, 0)
        assert ok and witness.heads == (0, 1)

    def test_bound_refused(self):
        h = hypergraph(4, [(0, 1, 2, 3)] * 11)
        o_count_guard = 4**11  # above the million default
        assert o_count_guard > 1_000_000
        with pytest.raises(PreconditionError):
            bf_orientation_exists(h, 1)


class TestBfSeparator:
    def test_parallel_pair(self):
        h = hypergraph(2, [(0, 1), (0, 1)])
        o = Orientation(h, (1, 1))
        value, minimizers, minimal = bf_min_separator(h, o, 0, vs(2, [1]), "out")
        assert (value, minimal) == (2, vs(2, [0]))
        assert minimizers == (vs(2, [0]),)

    def test_three_cycle_minimizer_family(self):
        h, o = three_cycle()
        value, minimizers, minimal = bf_min_separator(h, o, 0, vs(3, [1]), "out")
        assert value == 1
        assert minimal == vs(3, [0])
        assert set(minimizers) == {vs(3, [0]), vs(3, [0, 2])}


class TestBfFamilies:
    def test_three_cycle(self):
        h, o = three_cycle()
        fam = bf_families(h, o)
        expected = (vs(3, [1]), vs(3, [2]))
        assert fam.k == 1 and fam.r == 0
        assert fam.m_minus == expected
        assert fam.m_plus == expected
        assert fam.m_all == expected
        assert fam.r_family == expected


class TestBfSafe:
    def test_singleton_tight_both_ways_is_unsafe(self):
        # 3-cycle: {1} is in m_minus but also out-tight, so 1 is not safe.
        h, o = three_cycle()
        fam = bf_families(h, o)
        assert not bf_safe_source(h, o, fam, vs(3, [1]), 1)
        assert not bf_safe_sink(h, o, fam, vs(3, [1]), 1)

    def test_full_set_safe_exactly_at_root(self):
        h = hypergraph(3, [(0, 1), (0, 1), (1, 2), (1, 2)])
        o = Orientation(h, (0, 0, 1, 1))
        fam = bf_families(h, o)
        full = VertexSet.full(3)
        assert fam.m_plus == (full,)
        assert bf_safe_sink(h, o, fam, full, 0)
        assert not bf_safe_sink(h, o, fam, full, 1)

    def test_existence_on_feasible_instances(self):
        found = 0
        for h, o in random_instances(606, 120, n_max=6, m_max=7):
            k = bf_lambda(h, o)
            if h.n > 8 or not bf_partition_connected(h, k + 1)[0]:
                continue
            fam = bf_families(h, o)
            for s_set in fam.m_minus:
                assert any(bf_safe_source(h, o, fam, s_set, u) for u in s_set)
            for t_set in fam.m_plus:
                assert any(bf_safe_sink(h, o, fam, t_set, u) for u in t_set)
            found += 1
        assert found >= 20


# each oracle, called with a valid orientation and families of the three-cycle
CALLS_ON_H = {
    "bf_lambda": lambda h, o, fam: bf_lambda(h, o),
    "bf_tight_families": lambda h, o, fam: bf_tight_families(h, o, 1),
    "bf_families": lambda h, o, fam: bf_families(h, o),
    "bf_min_separator": lambda h, o, fam: bf_min_separator(h, o, 0, vs(3, [2]), "out"),
    "bf_partition_connected": lambda h, o, fam: bf_partition_connected(h, 1),
    "bf_orientation_exists": lambda h, o, fam: bf_orientation_exists(h, 1),
    "bf_safe_source": lambda h, o, fam: bf_safe_source(h, o, fam, fam.m_minus[0], 1),
    "bf_safe_sink": lambda h, o, fam: bf_safe_sink(h, o, fam, fam.m_plus[0], 1),
}


class TestArgumentRules:
    """The oracles take a level, a vertex and a side by the rules every
    other entry takes them by.  Each case below used to give an answer or
    fail with a raw ``TypeError``."""

    def test_a_level_must_be_a_count(self):
        h = doubled_triangle()
        o = Orientation(h, (1, 1, 2, 2, 2, 2))
        for k in (True, False, 1.0, "1", None, -1):
            for call in (bf_partition_connected, bf_orientation_exists):
                with pytest.raises(PreconditionError, match="^k must be a non-negative int"):
                    call(h, k)
            with pytest.raises(PreconditionError, match="^k must be a non-negative int"):
                bf_tight_families(h, o, k)
        level = IntEnum("Level", "ONE TWO THREE")
        for k in level:
            assert bf_partition_connected(h, k) == bf_partition_connected(h, int(k))
            assert bf_orientation_exists(h, k) == bf_orientation_exists(h, int(k))
            assert bf_tight_families(h, o, k) == bf_tight_families(h, o, int(k))

    def test_a_source_and_a_side_are_checked(self):
        h, o = three_cycle()
        for s in (1.0, True, "0", None, 3, -1):
            with pytest.raises(PreconditionError, match="^vertex"):
                bf_min_separator(h, o, s, vs(3, [2]), "out")
        with pytest.raises(PreconditionError, match="side must be 'out' or 'in', not 'up'"):
            bf_min_separator(h, o, 0, vs(3, [2]), "up")
        # sinks over another ground set used to be answered, as if over this one
        for sinks in (vs(5, [4]), vs(2, [1]), None):
            with pytest.raises(PreconditionError, match="^sinks must be a VertexSet over 0..2, not "):
                bf_min_separator(h, o, 0, sinks, "out")
        vertex = IntEnum("Vertex", "ONE")
        assert bf_min_separator(h, o, vertex.ONE, vs(3, [2]), "in") == bf_min_separator(h, o, 1, vs(3, [2]), "in")

    def test_a_safe_endpoint_must_be_a_vertex(self):
        """The full member set used to answer ``u == root`` for any ``u``:
        ``False`` read as the root 0, ``1.0`` as a vertex that is not."""
        h = hypergraph(3, [(0, 1), (0, 1), (1, 2), (1, 2)])
        full = VertexSet.full(3)
        for heads, call, members in (((1, 1, 2, 2), bf_safe_source, "m_minus"), ((0, 0, 1, 1), bf_safe_sink, "m_plus")):
            o = Orientation(h, heads)
            fam = bf_families(h, o)
            assert getattr(fam, members) == (full,)
            for u in (1.0, False, True, "0", None, 3, -1):
                with pytest.raises(PreconditionError, match="^vertex"):
                    call(h, o, fam, full, u)
            assert call(h, o, fam, full, IntEnum("Root", [("ZERO", 0)]).ZERO)

    @pytest.mark.parametrize("h", [None, object()], ids=["None", "object"])
    @pytest.mark.parametrize("oracle", sorted(CALLS_ON_H))
    def test_a_hypergraph_is_checked(self, oracle, h):
        """``core``'s hypergraph rule: each oracle used to fail with a raw
        ``AttributeError`` on an ``h`` that is no hypergraph."""
        g, o = three_cycle()
        fam = bf_families(g, o)
        name = type(h).__name__
        with pytest.raises(PreconditionError, match=f"^h is a {name}, not a Hypergraph$"):
            CALLS_ON_H[oracle](h, o, fam)
