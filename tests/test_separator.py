import random
from enum import IntEnum

import pytest

from hyperorient import (
    GenSpec,
    InvalidReorientation,
    InvariantViolation,
    Orientation,
    PreconditionError,
    VertexSet,
    bf_lambda,
    bf_min_separator,
    gen_instance,
    gen_orientation,
    hyperarc_connectivity,
    hypergraph,
    in_degree,
    min_separator,
    out_degree,
    reorient,
    separator,
)
from hyperorient.separator import (
    IncrementalConnectivity,
    _sink_mask,
    connectivity,
    incidence_digraph,
    max_flow_min_cut,
)
from corpus import nx_incidence, nx_min_side, pass_order, random_instances, vs


def three_cycle():
    h = hypergraph(3, [(0, 1), (1, 2), (0, 2)])
    return h, Orientation(h, (1, 2, 0))


def flow_on(h, heads, sources, sinks, limit=None, forward=True):
    """A flow on a copy of ``heads``: ``(value, side, heads after)``."""
    res = list(heads)
    g = incidence_digraph(h)
    value, side = max_flow_min_cut(g, sources, _sink_mask(h.n, sinks), limit=limit, residual=res, forward=forward)
    return value, side, res


class TestMaxFlow:
    def test_parallel_arcs_as_capacity(self):
        h = hypergraph(2, [(0, 1), (0, 1)])
        assert flow_on(h, [1, 1], [0], [1]) == (2, frozenset({0}), [0, 0])

    def test_unit_path(self):
        h = hypergraph(3, [(0, 1), (1, 2)])
        assert flow_on(h, [1, 2], [0], [2]) == (1, frozenset({0}), [0, 1])

    def test_disconnected_source_component(self):
        h = hypergraph(4, [(0, 1), (0, 1), (0, 1), (2, 3)])
        assert flow_on(h, [1, 1, 1, 3], [0], [3]) == (0, frozenset({0, 1}), [1, 1, 1, 3])

    def test_limit_caps_work(self):
        h = hypergraph(2, [(0, 1)] * 5)
        assert flow_on(h, [1] * 5, [0], [1], limit=3) == (3, None, [0, 0, 0, 1, 1])
        assert flow_on(h, [1] * 5, [0], [1], limit=9) == (5, frozenset({0}), [0] * 5)
        assert flow_on(h, [1] * 5, [0], [1], limit=0) == (0, None, [1] * 5)

    # The kernel trusts its in-package callers: min_separator, the public
    # flow entry, makes the checks below.

    def test_negative_limit_rejected(self):
        h, o = three_cycle()
        with pytest.raises(PreconditionError, match="negative"):
            min_separator(h, o, vs(3, [0]), vs(3, [1]), limit=-2)

    def test_source_equals_sink_rejected(self):
        h, o = three_cycle()
        with pytest.raises(PreconditionError, match="disjoint"):
            min_separator(h, o, vs(3, [1]), vs(3, [1]))

    def test_terminal_sets_validated(self):
        h, o = three_cycle()
        for x, avoid in ((vs(3, []), vs(3, [2])), (vs(3, [0]), vs(3, [])), (vs(3, [0, 2]), vs(3, [2, 1]))):
            with pytest.raises(PreconditionError):
                min_separator(h, o, x, avoid)

    def test_non_collection_terminals_rejected(self):
        h, o = three_cycle()
        for x, avoid in ((None, vs(3, [2])), (vs(3, [0]), 2.0), (0, vs(3, [2])), ([0], vs(3, [2]))):
            with pytest.raises(PreconditionError, match="^(x|avoid) must be a VertexSet over 0..2, not "):
                min_separator(h, o, x, avoid)

    def test_bool_and_non_int_terminals_rejected(self):
        # a bool is not a vertex set, though Python counts it as an int
        h, o = three_cycle()
        for x, avoid in ((True, vs(3, [2])), (vs(3, [0]), False), ([True], vs(3, [2])), (["0"], vs(3, [2]))):
            with pytest.raises(PreconditionError):
                min_separator(h, o, x, avoid)
        # an int subclass other than bool is still a vertex
        one = IntEnum("Vertex", "ONE")
        assert min_separator(h, o, vs(3, [0]), vs(3, [one.ONE])) == (1, vs(3, [0]))

    def test_residual_resumes_and_is_updated_in_place(self):
        # 0 -> 1 twice, 0 -> 2, 1 -> 3, 2 -> 3 twice, 1 -> 2: max flow 3
        h = hypergraph(4, [(0, 1), (0, 1), (0, 2), (1, 3), (2, 3), (2, 3), (1, 2)])
        heads = [1, 1, 2, 3, 3, 3, 2]
        g, res, into_3 = incidence_digraph(h), list(heads), _sink_mask(h.n, [3])
        assert max_flow_min_cut(g, [0], into_3, limit=1, residual=res) == (1, None)
        assert res != heads
        assert max_flow_min_cut(g, [0], into_3, residual=res) == (2, frozenset({0}))
        assert flow_on(h, heads, [0], [3])[:2] == (3, frozenset({0}))
        # the residual now holds a maximum flow: nothing more to push
        assert max_flow_min_cut(g, [0], into_3, residual=res) == (0, frozenset({0}))

    def test_multi_terminal(self):
        # two sources feeding one sink through separate hyperarcs
        h = hypergraph(4, [(0, 2), (1, 2)] + [(2, 3)] * 5)
        heads = [2, 2] + [3] * 5
        assert flow_on(h, heads, [0, 1], [3])[:2] == (2, frozenset({0, 1}))
        assert flow_on(h, heads, [0, 1], [2, 3])[:2] == (2, frozenset({0, 1}))
        assert flow_on(h, heads, [2], [0, 3])[:2] == (5, frozenset({2}))

    def test_backward_runs_on_the_reversed_hyperarcs(self):
        # 0 -> 1 -> 2 run backward: from 2 back to 0, turning each hyperarc to its tail
        h = hypergraph(3, [(0, 1), (1, 2)])
        assert flow_on(h, [1, 2], [2], [0], forward=False) == (1, frozenset({2}), [0, 1])
        assert flow_on(h, [1, 2], [0], [2], forward=False) == (0, frozenset({0}), [1, 2])


def random_terminals(rng, n):
    vertices = rng.sample(range(n), rng.randint(2, min(n, 6)))
    cut = rng.randint(1, len(vertices) - 1)
    return vertices[:cut], vertices[cut:]


def brute_force_cut(h, heads, sources, sinks, forward=True):
    """Minimum out-degree (in-degree when not ``forward``) over vertex sets
    containing the sources and avoiding the sinks, and the intersection of
    all minimizers."""
    o = Orientation(h, tuple(heads))
    degree = out_degree if forward else in_degree
    best, side = None, None
    for mask in range(1 << h.n):
        if any(not mask >> s & 1 for s in sources) or any(mask >> t & 1 for t in sinks):
            continue
        value = degree(h, o, VertexSet.from_mask(h.n, mask))
        if best is None or value < best:
            best, side = value, mask
        elif value == best:
            side &= mask
    return best, frozenset(VertexSet.from_mask(h.n, side))


def capped(value, side, limit):
    """What a flow of ``value`` with minimal side ``side`` returns at ``limit``."""
    return (limit, None) if limit is not None and limit <= value else (value, side)


class TestMultiTerminalAgainstSuperNodes:
    def test_incidence_digraphs(self):
        """Flows from vertex sets on heads lists, forward and backward,
        against brute force and against networkx's max flow on the
        incidence digraph with one super-source and one super-sink (arc
        reversed for a backward flow)."""
        nx = pytest.importorskip("networkx")
        rng = random.Random(2024)
        for h, o in random_instances(2024, 150, n_max=7, m_max=9, size_max=4):
            forward = rng.random() < 0.5
            sources, sinks = random_terminals(rng, h.n)
            value, side, _ = flow_on(h, o.heads, sources, sinks, forward=forward)
            assert (value, side) == brute_force_cut(h, o.heads, sources, sinks, forward)
            ref_value, ref_side = nx_min_side(nx, nx_incidence(nx, h, o, not forward), sources, sinks, h.n)
            assert (value, side) == (ref_value, frozenset(ref_side))
            for limit in range(value + 2):
                got = flow_on(h, o.heads, sources, sinks, limit=limit, forward=forward)[:2]
                assert got == capped(value, side, limit)


class TestManySourcesOneSink:
    """Queries with many sources and one sink search from all the sources
    at once."""

    @staticmethod
    def instances(seed, count):
        rng = random.Random(seed)
        for h, o in random_instances(seed, count, n_max=8, m_max=14, size_max=4):
            if h.n >= 3:
                yield rng, h, o

    def test_many_sources_one_sink(self):
        for rng, h, o in self.instances(5, 200):
            vertices = rng.sample(range(h.n), rng.randint(3, h.n))
            sources, sink = vertices[1:], vertices[:1]
            forward = rng.random() < 0.5
            value, side, _ = flow_on(h, o.heads, sources, sink, forward=forward)
            assert (value, side) == brute_force_cut(h, o.heads, sources, sink, forward)
            for limit in range(value + 2):
                got = flow_on(h, o.heads, sources, sink, limit=limit, forward=forward)[:2]
                assert got == capped(value, side, limit)

    def test_resumes_from_a_residual(self):
        for rng, h, o in self.instances(6, 200):
            vertices = rng.sample(range(h.n), rng.randint(3, h.n))
            sources, sink = vertices[1:], vertices[:1]
            forward = rng.random() < 0.5
            value, side = brute_force_cut(h, o.heads, sources, sink, forward)
            g, res, into = incidence_digraph(h), list(o.heads), _sink_mask(h.n, sink)
            first = rng.randint(0, value)
            got = max_flow_min_cut(g, sources, into, limit=first, residual=res, forward=forward)
            rest, reach = max_flow_min_cut(g, sources, into, residual=res, forward=forward)
            assert got == (first, None)
            assert (first + rest, reach) == (value, side)

    def test_sink_sequence_on_one_residual(self):
        """A flow between vertices that are all sources of the next query
        leaves that query's cuts at their degree, so it resumes without a
        reset."""
        for rng, h, o in self.instances(7, 100):
            order = rng.sample(range(h.n), h.n)
            forward = rng.random() < 0.5
            g, res = incidence_digraph(h), list(o.heads)
            for i in range(1, h.n):
                sources, sink = order[:i], order[i : i + 1]
                limit = rng.choice([None, rng.randint(0, 4)])
                got = max_flow_min_cut(g, sources, _sink_mask(h.n, sink), limit=limit, residual=res, forward=forward)
                assert got == capped(*brute_force_cut(h, o.heads, sources, sink, forward), limit)

    def test_mirrored_query_labels_the_maximal_side(self):
        """Asked from the sink with the flow run backward, a query has the
        same value and labels the complement of the union of its minimum
        cuts' source sides."""
        for rng, h, o in self.instances(8, 100):
            vertices = rng.sample(range(h.n), rng.randint(3, h.n))
            sources, sink = vertices[1:], vertices[0]
            cuts = {
                mask: out_degree(h, o, VertexSet.from_mask(h.n, mask))
                for mask in range(1 << h.n)
                if all(mask >> s & 1 for s in sources) and not mask >> sink & 1
            }
            best, union = min(cuts.values()), 0
            for mask, value in cuts.items():
                if value == best:
                    union |= mask
            value, reach, _ = flow_on(h, o.heads, [sink], sources, forward=False)
            assert value == best
            assert set(range(h.n)) - reach == set(VertexSet.from_mask(h.n, union))


class TestIncidenceDigraph:
    def test_structure(self):
        h = hypergraph(4, [(0, 1, 2), (2, 3)])
        g = incidence_digraph(h)
        assert g.n == h.n
        assert g.members == ((0, 1, 2), (2, 3))
        assert g.inc == ((0,), (0,), (0, 1), (1,))
        # one entry per incidence, as many as the incidence digraph has arcs
        assert sorted(g.arcs) == [(0, 0), (1, 0), (2, 0), (2, 1), (3, 1)]


class TestSeparators:
    def test_three_cycle_out(self):
        h, o = three_cycle()
        assert min_separator(h, o, vs(3, [0]), vs(3, [1])) == (1, vs(3, [0]))
        assert min_separator(h, o, vs(3, [0]), vs(3, [1]), limit=1) == (1, None)

    def test_three_cycle_in(self):
        h, o = three_cycle()
        assert min_separator(h, o, vs(3, [1]), vs(3, [0]), "in") == (1, vs(3, [1]))

    def test_single_hyperarc(self):
        h = hypergraph(3, [(0, 1, 2)])
        o = Orientation(h, (2,))
        assert min_separator(h, o, vs(3, [0]), vs(3, [2]), "out") == (1, vs(3, [0]))
        assert min_separator(h, o, vs(3, [2]), vs(3, [0]), "in") == (1, vs(3, [2]))

    def test_source_without_outgoing_incidence(self):
        # 1 -> 0 only: nothing leaves {0}, the reachable-closed side is {0}
        h = hypergraph(3, [(0, 1), (1, 2)])
        o = Orientation(h, (0, 2))
        assert min_separator(h, o, vs(3, [0]), vs(3, [2])) == (0, vs(3, [0]))

    def test_preconditions(self):
        h, o = three_cycle()
        with pytest.raises(PreconditionError):
            min_separator(h, o, vs(3, [0]), vs(3, []))
        with pytest.raises(PreconditionError):
            min_separator(h, o, vs(3, [0]), vs(3, [0, 1]))
        with pytest.raises(PreconditionError, match="side must be"):
            min_separator(h, o, vs(3, [0]), vs(3, [1]), "up")
        for x, avoid in ((vs(4, [0]), vs(3, [1])), (vs(3, [0]), vs(2, [1]))):
            with pytest.raises(PreconditionError, match="^(x|avoid) must be a VertexSet over 0..2, not "):
                min_separator(h, o, x, avoid)

    def test_limit_must_be_a_non_negative_int(self):
        h = hypergraph(2, [(0, 1)] * 3)
        o = Orientation(h, (1, 1, 1))
        for limit in (1.5, True, "2"):
            with pytest.raises(PreconditionError, match="limit"):
                min_separator(h, o, vs(2, [0]), vs(2, [1]), limit=limit)
        assert min_separator(h, o, vs(2, [0]), vs(2, [1]), limit=1) == (1, None)
        assert min_separator(h, o, vs(2, [0]), vs(2, [1]), limit=0) == (0, None)
        assert min_separator(h, o, vs(2, [0]), vs(2, [1]), limit=4) == (3, vs(2, [0]))

    def test_in_out_duality(self):
        from hyperorient import out_degree

        for h, o in random_instances(404, 20, n_max=5, m_max=5):
            for t in range(1, h.n):
                value, _ = min_separator(h, o, vs(h.n, [t]), vs(h.n, [0]), "in")
                best = min(
                    out_degree(h, o, VertexSet.from_mask(h.n, m).complement())
                    for m in range(1, (1 << h.n) - 1)
                    if m >> t & 1 and not m & 1
                )
                assert value == best

    def test_matches_brute_force_with_minimal_set(self):
        for h, o in random_instances(11, 60, n_max=6, m_max=6):
            for s in range(h.n):
                for t in range(h.n):
                    if s == t:
                        continue
                    sinks = vs(h.n, [t])
                    for side in ("out", "in"):
                        value, sep = min_separator(h, o, vs(h.n, [s]), sinks, side)
                        bf_value, minimizers, minimal = bf_min_separator(h, o, s, sinks, side)
                        assert value == bf_value
                        assert sep == minimal
                        assert all(sep <= x for x in minimizers)

    def test_missed_constraint_is_an_invariant_violation(self, monkeypatch):
        h, o = three_cycle()

        def no_side(g, sources, sinks, limit=None, *, residual, forward=True):
            return 0, frozenset()

        monkeypatch.setattr(separator, "max_flow_min_cut", no_side)
        with pytest.raises(InvariantViolation, match="missed its constraints"):
            min_separator(h, o, vs(3, [0]), vs(3, [1]))

    def test_merged_sinks_never_contain_a_sink(self):
        for h, o in random_instances(88, 40, n_max=6, m_max=6):
            if h.n < 3:
                continue
            sinks = vs(h.n, [1, 2])
            value, sep = min_separator(h, o, vs(h.n, [0]), sinks)
            assert not sep.mask & sinks.mask
            bf_value, _, minimal = bf_min_separator(h, o, 0, sinks, "out")
            assert (value, sep) == (bf_value, minimal)


class TestConnectivity:
    def test_three_cycle(self):
        h, o = three_cycle()
        assert hyperarc_connectivity(h, o) == 1

    def test_zero_in_degree_vertex(self):
        h = hypergraph(3, [(0, 1), (1, 2)])
        o = Orientation(h, (0, 1))
        assert hyperarc_connectivity(h, o) == 0

    def test_doubled_cycle(self):
        h = hypergraph(3, [(0, 1), (1, 2), (0, 2), (0, 1), (1, 2), (0, 2)])
        o = Orientation(h, (1, 2, 0, 1, 2, 0))
        assert hyperarc_connectivity(h, o) == 2

    def test_matches_brute_force(self):
        for h, o in random_instances(13, 80, n_max=6, m_max=7):
            assert hyperarc_connectivity(h, o) == bf_lambda(h, o)

    def test_capped_value(self):
        for h, o in random_instances(31, 60, n_max=6, m_max=7):
            lam = bf_lambda(h, o)
            for cap in range(lam + 3):
                assert connectivity(h, o, cap=cap) == min(lam, cap)

    def test_negative_cap_rejected(self):
        h, o = three_cycle()
        with pytest.raises(PreconditionError, match="negative"):
            connectivity(h, o, cap=-1)

    def test_cap_must_be_a_non_negative_int(self):
        h, o = three_cycle()
        for cap in (1.5, True, "2"):
            with pytest.raises(PreconditionError, match="cap"):
                connectivity(h, o, cap=cap)
            with pytest.raises(PreconditionError, match="cap"):
                IncrementalConnectivity(h, o, cap)
            with pytest.raises(PreconditionError, match="cap"):
                IncrementalConnectivity(h, o, 0).raise_cap(cap)

    def test_int_enum_counts_are_kept_as_plain_ints(self):
        """A cap or limit that is an ``IntEnum`` member gives the answers of
        its ``int``; a cap used to be kept as the enum, and returned as the
        connectivity when no set lies below it."""
        count = IntEnum("Count", "ONE TWO")
        h, o = three_cycle()
        assert connectivity(h, o, cap=count.ONE) == connectivity(h, o, cap=1) == 1
        assert type(connectivity(h, o, cap=count.ONE)) is int
        for limit in count:
            got = min_separator(h, o, vs(3, [0]), vs(3, [1]), limit=limit)
            assert got == min_separator(h, o, vs(3, [0]), vs(3, [1]), limit=int(limit))
            assert type(got[0]) is int
        assert type(IncrementalConnectivity(h, o, count.TWO).cap) is int
        check = IncrementalConnectivity(h, o, 1)
        assert check.raise_cap(count.TWO) == 1 and type(check.cap) is int and check.cap == 2


def root_pair_connectivity(h, o, cap=None):
    """Connectivity by independent root-pair queries, vertex 0 to each other
    vertex and back, each capped at the best value so far: the routine the
    sink sequence replaced, and the queries :class:`IncrementalConnectivity`
    keeps."""
    best = h.m + 1 if cap is None else cap
    for src, snk in ((s, t) for v in range(1, h.n) for s, t in ((0, v), (v, 0))):
        if best == 0:
            break
        value, _ = min_separator(h, o, VertexSet.singleton(h.n, src), VertexSet.singleton(h.n, snk), limit=best)
        best = min(best, value)
    return best


class TestSinkSequence:
    def test_matches_root_pairs_on_walks(self):
        rng = random.Random(48)
        values = set()
        for seed in range(12):
            n, k = rng.choice([8, 16, 32, 48]), rng.randint(1, 4)
            spec = GenSpec(n=n, k=k, extra_edges=rng.randint(0, n), max_edge_size=min(5, n), seed=seed)
            h = gen_instance(spec)
            if seed % 3:  # connectivity at least k, then walks down and up
                o = perturbed_cycle_orientation(h, k, rng)
            else:
                o = gen_orientation(h, seed=seed, mode=rng.choice(["random", "min-head"]))
            for step in range(10):
                cap = rng.choice([h.m + 1, rng.randint(0, k + 2)])
                value = connectivity(h, o, cap=cap)
                assert value == root_pair_connectivity(h, o, cap=cap), (seed, step)
                values.add(value)
                o = reorient(o, *walk_step(rng, h, o, k + 1))
        assert set(range(5)) <= values

    def test_one_kept_residual_per_pass(self, monkeypatch):
        """Each pass runs its queries on one heads list and one sink mask.
        The sources follow the pass's order, and when the query from
        ``order[i]`` runs the mask holds exactly ``order[:i]``."""
        h = gen_instance(GenSpec(n=12, k=3, extra_edges=6, max_edge_size=4, seed=12))
        o = gen_orientation(h, seed=12)
        calls = []
        original = separator.max_flow_min_cut

        def recorded(g, sources, sinks, limit=None, *, residual, forward=True):
            held = [v for v, sink in enumerate(sinks) if sink]
            calls.append((sources, held, id(sinks), id(residual), forward))
            return original(g, sources, sinks, limit=limit, residual=residual, forward=forward)

        monkeypatch.setattr(separator, "max_flow_min_cut", recorded)
        assert connectivity(h, o, 1) == 1 and calls == []  # a cap of 1 runs no query
        connectivity(h, o, h.m + 1)
        assert len(calls) == 2 * (h.n - 1)
        for half, forward in ((calls[: h.n - 1], False), (calls[h.n - 1 :], True)):
            order = pass_order(h, o, forward)
            assert order != list(range(h.n))
            expected = [([t], sorted(order[:i])) for i, t in enumerate(order) if i]
            assert [(source, held) for source, held, *_ in half] == expected
            assert len({mask for _, _, mask, _, _ in half}) == len({res for *_, res, _ in half}) == 1
            assert {direction for *_, direction in half} == {forward}

    def test_each_pass_runs_in_the_order_of_one_search_from_vertex_0(self, monkeypatch):
        """``tight_reaches`` first runs the two order searches, one per
        pass: from vertex 0, on the orientation's heads, against the pass's
        direction.  In each pass the query sources are the vertices after 0
        in the pass's order: what its search labels, then the vertices it
        misses in index order.  Each query's sinks are exactly the vertices
        before its source, and each search that finds a query's maximal
        minimizer runs from those same vertices, in that order, against
        the pass's direction, with the source as its only sink.  When both
        order searches label every vertex no query reads 0, and
        ``connectivity`` capped at 1 runs no query.  A search misses
        vertices only at a connectivity of 0; such instances occur here,
        and on them ``connectivity``, ``tight_reaches`` and
        ``compute_families`` equal the oracles, and ``connectivity`` on
        the same orientation runs no flow and no search."""
        from hyperorient import bf_families, compute_families
        from corpus import search_labels

        calls, inside = [], [False]
        flow, search = separator.max_flow_min_cut, separator._search

        def recorded_flow(g, sources, sinks, limit=None, *, residual, forward=True):
            call = ["flow", list(sources), [v for v, sink in enumerate(sinks) if sink], forward, residual]
            inside[0] = True
            value, reach = flow(g, sources, sinks, limit=limit, residual=residual, forward=forward)
            inside[0] = False
            calls.append((*call, value))
            return value, reach

        def recorded_search(g, heads, roots, is_sink, forward):
            parent, labelled, hit = search(g, heads, roots, is_sink, forward)
            if not inside[0]:  # the flows' own searches are part of their call
                sinks = [v for v, sink in enumerate(is_sink) if sink]
                calls.append(("search", list(roots), sinks, forward, heads, len(labelled)))
            return parent, labelled, hit

        monkeypatch.setattr(separator, "max_flow_min_cut", recorded_flow)
        monkeypatch.setattr(separator, "_search", recorded_search)
        maximal = missed = full = 0
        for h, o in random_instances(36, 300, n_max=7, m_max=9, size_max=4):
            calls.clear()
            k = separator.tight_reaches(h, o)[0]
            complete = all(len(search_labels(h, o, forward)) == h.n for forward in (False, True))
            for forward, call in zip((False, True), calls):
                assert call[:5] == ("search", [0], [], not forward, o.heads)
            passes = []
            for call in calls[2:]:  # each pass keeps one heads list; each root-pair flow has its own
                if passes and call[4] is passes[-1][0][4]:
                    passes[-1].append(call)
                else:
                    passes.append([call])
            for run, forward in zip(passes, (False, True)):
                order = pass_order(h, o, forward)
                queries = [call for call in run if call[0] == "flow"]
                assert [call[1:3] for call in queries] == [([t], sorted(order[:i])) for i, t in enumerate(order) if i]
                assert {call[3] for call in queries} == {forward}
                for query, mt in zip(run, run[1:]):
                    if mt[0] == "search":
                        t = query[1][0]
                        assert mt[1:4] == (order[: order.index(t)], [t], not forward)
                        maximal += 1
                if complete:
                    assert all(call[5] > 0 for call in queries)
                    full += 1
            calls.clear()
            if not complete:
                missed += 1
                assert k == connectivity(h, o, h.m + 1) == bf_lambda(h, o) == 0
                assert calls == []
                assert compute_families(h, o) == bf_families(h, o)
            else:
                assert connectivity(h, o, 1) == 1 and calls == []
        assert maximal > 100 and missed > 20 and full > 100


def order_searches(monkeypatch):
    """Patch ``separator._search`` to record the order searches, the only
    searches with no sink, as ``(roots, forward)``."""
    found, search = [], separator._search

    def recorded(g, heads, roots, is_sink, forward):
        if not any(is_sink):
            found.append((list(roots), forward))
        return search(g, heads, roots, is_sink, forward)

    monkeypatch.setattr(separator, "_search", recorded)
    monkeypatch.setattr(separator, "_passes_memo", None)
    return found


class TestPassSlot:
    def test_connectivity_then_families_runs_two_order_searches(self, monkeypatch):
        """``hyperarc_connectivity`` then ``compute_families`` on one
        orientation runs the two order searches once, and a second call
        runs none.  An equal orientation that is another object runs them
        again, and so does the first one once the slot has moved on."""
        from hyperorient import compute_families
        from corpus import benchmark_like_orientations

        h, (o,) = benchmark_like_orientations(0, 1, n=16)
        found = order_searches(monkeypatch)
        k = hyperarc_connectivity(h, o)
        assert k >= 1 and compute_families(h, o).k == k
        assert found == [([0], True), ([0], False)]
        assert hyperarc_connectivity(h, o) == connectivity(h, o, h.m + 1) == k and len(found) == 2
        twin = Orientation(h, o.heads)
        assert twin == o and twin is not o
        assert compute_families(h, twin).k == k and len(found) == 4
        assert hyperarc_connectivity(h, o) == k and len(found) == 6

    def test_threads_alternating_orientations_get_the_serial_answers(self):
        """Four threads, more than the cores, each alternating between
        orientations whose starts, order searches and connectivities
        differ (one of connectivity 0 whose search misses a vertex), read
        and replace the one slot between each other's calls, and get the
        serial answers."""
        import sys
        import threading

        from hyperorient import compute_families
        from corpus import benchmark_like_orientations

        h, states = benchmark_like_orientations(7, 6, n=16)
        zero = Orientation(h, tuple(min(edge) for edge in h.edges))  # nothing is headed at the last vertex
        states.append(zero)

        def answers(o):
            return hyperarc_connectivity(h, o), connectivity(h, o, 1), connectivity(h, o, 2), compute_families(h, o)

        serial = [answers(o) for o in states]
        assert serial[-1][:3] == (0, 0, 0) and {a[0] for a in serial} >= {0, 1}
        got, errors = {}, []

        def work(i):
            try:
                got[i] = [[answers(o) for o in states[i % 2 :] + states[: i % 2]] for _ in range(3)]
            except Exception as error:  # reported below, with the thread
                errors.append((i, error))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and errors == []
        for i, rounds in got.items():
            assert all(run == serial[i % 2 :] + serial[: i % 2] for run in rounds), i

    def test_a_cap_of_1_is_the_order_searches(self, monkeypatch):
        """``connectivity(h, o, 1)``, and ``hyperarc_connectivity`` where
        the degree bound is at most 1, run no flow, and equal
        ``min(bf_lambda, 1)``, the connectivity itself in the second case;
        a cap of 2 still runs queries and equals ``min(bf_lambda, 2)``.
        Random instances have connectivity 1 often but seldom 0 above a
        bound of 1, where an order search misses a vertex, so
        :func:`split_in_two` adds such instances, vertex 0 on either
        side."""
        flows, flow = [], separator.max_flow_min_cut

        def counted(*args, **kwargs):
            flows.append(args[1])
            return flow(*args, **kwargs)

        monkeypatch.setattr(separator, "max_flow_min_cut", counted)
        rng, missed, bounded, one = random.Random(38), 0, 0, 0
        split = [split_in_two(rng) for _ in range(60)]
        for h, o in random_instances(38, 300, n_max=7, m_max=9, size_max=4) + split:
            lam = bf_lambda(h, o)
            assert connectivity(h, o, 1) == min(lam, 1)
            if separator._degree_bound(h, o) <= 1:
                assert hyperarc_connectivity(h, o) == lam
                bounded += 1
            assert flows == []
            assert connectivity(h, o, 2) == min(lam, 2)
            missed += lam == 0 and separator._degree_bound(h, o) >= 1
            one += lam == 1
            flows.clear()
        assert missed > 60 and bounded > 100 and one > 40


def split_in_two(rng):
    """A random directed hypergraph of connectivity 0 and degree bound at
    least 1: its vertices, shuffled, fall into two blocks, each a directed
    cycle, so every vertex has a hyperarc in and one out, and each extra
    edge that meets the second block is headed there, so none leaves it."""
    n = rng.randint(4, 9)
    vertices = rng.sample(range(n), n)
    first, second = vertices[: rng.randint(2, n - 2)], set(vertices)
    second -= set(first)
    edges, heads = [], []
    for block in (first, sorted(second)):
        for i, v in enumerate(block):
            edges.append((block[i - 1], v))
            heads.append(v)
    for _ in range(rng.randint(1, 4)):
        edge = rng.sample(range(n), rng.randint(2, 4))
        edges.append(edge)
        heads.append(rng.choice([v for v in edge if v in second] or edge))
    h = hypergraph(n, edges)
    return h, Orientation(h, tuple(heads))


def walk_step(rng, h, o, cap):
    """One single reorientation: a random one (these often lower the
    connectivity) or, half of the time, the best capped connectivity among
    four random candidates, so that walks also climb."""
    moves = []
    for _ in range(1 if rng.random() < 0.5 else 4):
        e = rng.randrange(h.m)
        moves.append((e, rng.choice([x for x in h.edges[e] if x != o.heads[e]])))
    return max(moves, key=lambda move: connectivity(h, reorient(o, *move), cap=cap))


class TestIncrementalConnectivity:
    def test_random_walks_match_from_scratch(self, monkeypatch):
        """Walks of single reorientations keep the check's value equal to a
        from-scratch one, and, below the cap, its kept residual reaches
        equal to a fresh check's.  The walks move the value both ways, and
        on the small corpus at caps k + 1 and k + 2 many steps leave a flow
        unit through the turned edge with no path from its carrier to the
        old head, so that flow starts again from the heads."""
        failed = []
        push = IncrementalConnectivity._push_unit

        def recorded(self, res, src, dst):
            pushed = push(self, res, src, dst)
            failed.append(not pushed)
            return pushed

        monkeypatch.setattr(IncrementalConnectivity, "_push_unit", recorded)
        walks = []
        for seed in range(16):
            rng = random.Random(seed)
            n, k = rng.randint(3, 24), rng.randint(1, 4)
            spec = GenSpec(n=n, k=k, extra_edges=rng.randint(0, n), max_edge_size=min(4, n), seed=seed)
            h = gen_instance(spec)
            o = gen_orientation(h, seed=seed, mode=rng.choice(["random", "min-head"]))
            walks.append((seed, h, o, connectivity(h, o, h.m + 1) + rng.randint(1, 3), rng, 30))
        for i, (h, o) in enumerate(random_instances(5, 120, n_max=7, m_max=9, size_max=4, m_min=3)):
            k = hyperarc_connectivity(h, o)
            walks += [((i, cap), h, o, cap, random.Random(i), 10) for cap in (k + 1, k + 2)]
        moved = {-1: 0, 1: 0}
        for case, h, o, cap, rng, steps in walks:
            check = IncrementalConnectivity(h, o, cap)
            assert check.value == root_pair_connectivity(h, o, cap)
            assert check.value == connectivity(h, o, cap=cap)
            for step in range(1, steps + 1):
                e, head = walk_step(rng, h, o, cap)
                before = check.value
                o = reorient(o, e, head)
                assert check.reorient(e, head) == check.value
                assert check.value == root_pair_connectivity(h, o, cap), (case, step)
                assert check.value == connectivity(h, o, cap=cap), (case, step)
                if check.value != before:
                    moved[check.value - before] += 1
                if check.value < cap:
                    fresh = IncrementalConnectivity(h, o, cap)
                    for side in ("in", "out"):
                        kept, new = check.kept_reaches(side), fresh.kept_reaches(side)
                        assert kept.tight == new.tight, (case, step)
                        assert all(kept.reach(v) == new.reach(v) for v in range(h.n) if kept.tight[v])
        assert moved[-1] > 0 and moved[1] > 0
        assert sum(failed) > 1000

    def test_raise_cap_matches_from_scratch(self):
        raised = 0
        for seed in range(12):
            rng = random.Random(100 + seed)
            n, k = rng.randint(3, 24), rng.randint(1, 4)
            spec = GenSpec(n=n, k=k, extra_edges=rng.randint(0, n), max_edge_size=min(4, n), seed=seed)
            h = gen_instance(spec)
            o = gen_orientation(h, seed=seed, mode=rng.choice(["random", "min-head"]))
            cap = rng.randint(0, connectivity(h, o, h.m + 1) + 1)
            check = IncrementalConnectivity(h, o, cap)
            for step in range(1, 25):
                if rng.random() < 0.3:
                    at_cap = check.value == check.cap
                    cap += rng.randint(1, 2)
                    assert check.raise_cap(cap) == check.value and check.cap == cap
                    raised += at_cap
                else:
                    e, head = walk_step(rng, h, o, cap)
                    o = reorient(o, e, head)
                    check.reorient(e, head)
                assert check.value == root_pair_connectivity(h, o, cap), (seed, step)
                assert check.value == connectivity(h, o, cap=cap), (seed, step)
        assert raised > 0

    def test_raise_cap_augments_only_the_queries_at_the_cap(self, monkeypatch):
        h = gen_instance(GenSpec(n=10, k=2, extra_edges=4, max_edge_size=3, seed=3))
        o = gen_orientation(h, seed=3, mode="min-head")
        check = IncrementalConnectivity(h, o, 1)
        at_cap = sum(value == 1 for value in check._value)
        limits = []
        original = separator.max_flow_min_cut

        def recorded(g, sources, sinks, limit=None, *, residual, forward=True):
            limits.append(limit)
            return original(g, sources, sinks, limit=limit, residual=residual, forward=forward)

        monkeypatch.setattr(separator, "max_flow_min_cut", recorded)
        check.raise_cap(2)
        assert 0 < at_cap == len(limits) and set(limits) == {1}
        assert check.raise_cap(2) == check.value and len(limits) == at_cap
        with pytest.raises(PreconditionError):
            check.raise_cap(1)

    def test_cap_zero_and_edge_cases(self):
        h, o = three_cycle()
        check = IncrementalConnectivity(h, o, 0)
        assert check.value == connectivity(h, o, cap=0) == 0
        with pytest.raises(PreconditionError):
            IncrementalConnectivity(h, o, -1)
        check = IncrementalConnectivity(h, o, 2)
        # out of range, same head, not in edge: a refused head is refused as ``reorient`` refuses it
        for e, head, error in ((3, 0, PreconditionError), (0, 1, InvalidReorientation), (0, 2, InvalidReorientation)):
            with pytest.raises(error) as info:
                check.reorient(e, head)
            assert type(info.value) is error
        assert check.reorient(0, 0) == 0 == connectivity(h, reorient(o, 0, 0), cap=2)

    def test_a_step_that_turns_an_edge_out_of_a_kept_cut(self):
        """The last step turns edge ``{0, 3}`` from head 3 to head 0.  Vertex
        3 is in the kept cut of the query ``3 -> 0`` and vertex 0 is not, so
        the cut's out-degree rises by one, and the check must augment that
        query again rather than read its value from the cut."""
        h = hypergraph(4, [(0, 3), (0, 1, 2, 3), (0, 1, 2), (0, 3), (0, 2), (1, 2)])
        o = Orientation(h, (3, 2, 1, 3, 0, 2))
        check = IncrementalConnectivity(h, o, connectivity(h, o, h.m + 1) + 1)
        values = []
        for e, head in ((5, 1), (1, 3), (5, 2), (0, 0)):
            o = reorient(o, e, head)
            values.append(check.reorient(e, head))
            assert check.value == connectivity(h, o, cap=check.cap)
        assert values == [1, 0, 0, 1]

    def test_reorient_checks_its_edge_id(self):
        """On the doubled triangle ``reorient(True, 0)`` used to turn edge
        1; a float or a string failed with a raw ``TypeError``.  A refused
        id leaves the check as it was."""
        h = hypergraph(3, [(0, 1), (0, 1), (1, 2), (1, 2), (0, 2), (0, 2)])
        o = Orientation(h, (1, 1, 2, 2, 2, 2))
        check = IncrementalConnectivity(h, o, 3)
        for e in (1.0, True, "1", -1, h.m):
            with pytest.raises(PreconditionError, match="^edge id"):
                check.reorient(e, 0)
            assert (check.heads, check.value) == (list(o.heads), connectivity(h, o, cap=3))
        one = IntEnum("Edge", "ONE").ONE
        assert check.reorient(one, 0) == connectivity(h, reorient(o, 1, 0), cap=3)
        assert check.heads == [1, 0, 2, 2, 2, 2]

    def test_families_run_no_flow_but_the_lambda_recompute(self, monkeypatch):
        """Every minimal tight set ``compute_families`` finds, in every field
        and every q set, is a residual search in the kept flows: the call's
        one flow-backed read is its connectivity recompute."""
        from hyperorient import compute_families, families

        h = gen_instance(GenSpec(n=10, k=1, extra_edges=4, max_edge_size=3, seed=9))
        o = gen_orientation(h, seed=9)
        k = connectivity(h, o, h.m + 1)
        check = IncrementalConnectivity(h, o, k + 1)
        recomputes = []

        def no_flow(*args, **kwargs):
            raise AssertionError("compute_families ran a flow")

        monkeypatch.setattr(families, "hyperarc_connectivity", lambda *args: recomputes.append(args) or k)
        monkeypatch.setattr(separator, "max_flow_min_cut", no_flow)
        fam = compute_families(h, o, check=check)
        assert (fam.k, len(recomputes)) == (k, 1)
        assert all(len(q) > 0 for q in (*fam.q_minus, *fam.q_plus))
        members = [x for x in fam.m_minus + fam.m_plus if not x.is_full]
        assert any(len(x) > 1 for x in members) and not fam.r_family[0].is_full  # a search from a whole set ran

    def test_every_push_is_a_max_flow_call(self, monkeypatch):
        h = gen_instance(GenSpec(n=10, k=2, extra_edges=4, max_edge_size=3, seed=3))
        o = gen_orientation(h, seed=3)
        cap = connectivity(h, o, h.m + 1) + 1
        calls = []
        original = separator.max_flow_min_cut

        def counted(*args, **kwargs):
            calls.append(kwargs.get("residual") is not None)
            return original(*args, **kwargs)

        monkeypatch.setattr(separator, "max_flow_min_cut", counted)
        check = IncrementalConnectivity(h, o, cap)
        assert len(calls) == 2 * (h.n - 1) and all(calls)
        rng = random.Random(3)
        for _ in range(20):
            e = rng.randrange(h.m)
            o = reorient(o, e, rng.choice([x for x in h.edges[e] if x != o.heads[e]]))
            check.reorient(e, o.heads[e])
        assert all(calls) and len(calls) < 2 * (h.n - 1) * 21


def perturbed_cycle_orientation(h, k, rng):
    """``gen_instance``'s ``k`` spanning cycles each oriented around itself
    (connectivity at least ``k``), extra edges toward their smallest vertex,
    then a few random head changes."""
    n = h.n
    heads = []
    for c in range(k):
        for i in range(n):
            shared = h.edges[c * n + i] & h.edges[c * n + (i + 1) % n]
            heads.append(min(shared))
    heads.extend(min(e) for e in h.edges[k * n :])
    o = Orientation(h, tuple(heads))
    for _ in range(rng.randint(0, 3)):
        e = rng.randrange(h.m)
        o = reorient(o, e, rng.choice([v for v in h.edges[e] if v != o.heads[e]]))
    return o


@pytest.mark.parametrize("n", [24, 48, 96])
def test_networkx_cross_check_above_oracle_bound(n):
    nx = pytest.importorskip("networkx")
    rng = random.Random(n)
    k = 2
    h = gen_instance(GenSpec(n=n, k=k, extra_edges=n // 2, max_edge_size=5, seed=n))
    o = perturbed_cycle_orientation(h, k, rng)
    fwd = nx_incidence(nx, h, o, False)

    lam = min(
        min(nx.maximum_flow_value(fwd, 0, v), nx.maximum_flow_value(fwd, v, 0)) for v in range(1, n)
    )
    assert hyperarc_connectivity(h, o) == lam

    # a random orientation has far more varied minimal minimizers
    o = gen_orientation(h, seed=n)
    fwd, rev = nx_incidence(nx, h, o, False), nx_incidence(nx, h, o, True)
    for _ in range(8):
        s = rng.randrange(n)
        sinks = VertexSet(n, rng.sample([v for v in range(n) if v != s], rng.randint(1, 3)))
        assert min_separator(h, o, vs(n, [s]), sinks, "out") == nx_min_side(nx, fwd, [s], sinks, n)
        assert min_separator(h, o, vs(n, [s]), sinks, "in") == nx_min_side(nx, rev, [s], sinks, n)
