import random

import pytest

from hyperorient import (
    GenSpec,
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
    incidence_digraph,
    max_flow_min_cut,
    min_separator,
    out_degree,
    reorient,
    separator,
)
from hyperorient.separator import IncrementalConnectivity, connectivity
from corpus import nx_incidence, nx_min_side, random_instances, vs


def three_cycle():
    h = hypergraph(3, [(0, 1), (1, 2), (0, 2)])
    return h, Orientation(h, (1, 2, 0))


def flow_on(h, heads, sources, sinks, limit=None, forward=True):
    """A flow on a copy of ``heads``: ``(value, side, heads after)``."""
    res = list(heads)
    g = incidence_digraph(h)
    value, side = max_flow_min_cut(g, sources, sinks, limit=limit, residual=res, forward=forward)
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

    def test_negative_limit_rejected(self):
        g = incidence_digraph(hypergraph(2, [(0, 1)]))
        with pytest.raises(PreconditionError, match="negative"):
            max_flow_min_cut(g, 0, 1, limit=-2, residual=[1])

    def test_source_equals_sink_rejected(self):
        g = incidence_digraph(hypergraph(2, [(0, 1)]))
        with pytest.raises(PreconditionError):
            max_flow_min_cut(g, [1], [1], residual=[1])

    def test_terminal_sets_validated(self):
        g = incidence_digraph(hypergraph(3, [(0, 1), (1, 2)]))
        for sources, sinks in (([], [2]), ([0], []), ([0], [3]), ([-1], [2]), ([0, 2], [2, 1])):
            with pytest.raises(PreconditionError):
                max_flow_min_cut(g, sources, sinks, residual=[1, 2])

    def test_single_node_terminals(self):
        h = hypergraph(3, [(0, 1), (1, 2)])
        assert flow_on(h, [1, 2], 0, 2) == flow_on(h, [1, 2], [0], [2])
        assert flow_on(h, [1, 2], 0, [1, 2]) == (1, frozenset({0}), [0, 2])

    def test_non_collection_terminals_rejected(self):
        g = incidence_digraph(hypergraph(3, [(0, 1), (1, 2)]))
        for sources, sinks in ((None, [2]), ([0], 2.0)):
            with pytest.raises(PreconditionError, match="vertex collections"):
                max_flow_min_cut(g, sources, sinks, residual=[1, 2])

    def test_residual_resumes_and_is_updated_in_place(self):
        # 0 -> 1 twice, 0 -> 2, 1 -> 3, 2 -> 3 twice, 1 -> 2: max flow 3
        h = hypergraph(4, [(0, 1), (0, 1), (0, 2), (1, 3), (2, 3), (2, 3), (1, 2)])
        heads = [1, 1, 2, 3, 3, 3, 2]
        g, res = incidence_digraph(h), list(heads)
        assert max_flow_min_cut(g, [0], [3], limit=1, residual=res) == (1, None)
        assert res != heads
        assert max_flow_min_cut(g, [0], [3], residual=res) == (2, frozenset({0}))
        assert flow_on(h, heads, [0], [3])[:2] == (3, frozenset({0}))
        # the residual now holds a maximum flow: nothing more to push
        assert max_flow_min_cut(g, [0], [3], residual=res) == (0, frozenset({0}))

    def test_residual_length_validated(self):
        g = incidence_digraph(hypergraph(2, [(0, 1), (0, 1)]))
        with pytest.raises(PreconditionError, match="one head per edge"):
            max_flow_min_cut(g, [0], [1], residual=[1])

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
            g, res = incidence_digraph(h), list(o.heads)
            first = rng.randint(0, value)
            got = max_flow_min_cut(g, sources, sink, limit=first, residual=res, forward=forward)
            rest, reach = max_flow_min_cut(g, sources, sink, residual=res, forward=forward)
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
                got = max_flow_min_cut(g, sources, sink, limit=limit, residual=res, forward=forward)
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
            value, reach, _ = flow_on(h, o.heads, sink, sources, forward=False)
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
            with pytest.raises(PreconditionError, match="different ground set"):
                min_separator(h, o, x, avoid)

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

    def test_capped_value_and_witness(self):
        for h, o in random_instances(31, 60, n_max=6, m_max=7):
            lam = bf_lambda(h, o)
            for cap in range(lam + 3):
                value, witness = connectivity(h, o, cap=cap)
                assert value == min(lam, cap)
                if lam < cap:
                    assert out_degree(h, o, witness) == lam
                else:
                    assert witness is None

    def test_negative_cap_rejected(self):
        h, o = three_cycle()
        with pytest.raises(PreconditionError, match="negative"):
            connectivity(h, o, cap=-1)


def root_pair_connectivity(h, o, cap=None):
    """Connectivity by independent root-pair queries, vertex 0 to each other
    vertex and back, each capped at the best value so far: the routine the
    sink sequence replaced, and the set :class:`IncrementalConnectivity`
    keeps as its witness."""
    best = h.m + 1 if cap is None else cap
    found = None
    for src, snk in separator._root_pairs(h.n):
        if best == 0:
            break
        value, sep = min_separator(
            h, o, VertexSet.singleton(h.n, src), VertexSet.singleton(h.n, snk), limit=best
        )
        if value < best:
            best, found = value, sep
    return best, found


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
                cap = rng.choice([None, rng.randint(0, k + 2)])
                value, x = connectivity(h, o, cap=cap)
                assert value == root_pair_connectivity(h, o, cap=cap)[0], (seed, step)
                if x is None:
                    assert value == (h.m + 1 if cap is None else cap)
                else:
                    assert out_degree(h, o, x) == value
                values.add(value)
                o = reorient(o, *walk_step(rng, h, o, k + 1))
        assert set(range(5)) <= values

    def test_witness_side_of_vertex_zero(self):
        """The first pass (sets containing vertex 0) keeps its set unless the
        second pass finds a strictly smaller out-degree."""
        sides = set()
        for h, o in random_instances(17, 120, n_max=6, m_max=8):
            n = h.n
            degrees = {
                mask: out_degree(h, o, VertexSet.from_mask(n, mask)) for mask in range(1, (1 << n) - 1)
            }
            with_root = min(d for mask, d in degrees.items() if mask & 1)
            without_root = min(d for mask, d in degrees.items() if not mask & 1)
            value, x = connectivity(h, o)
            assert value == min(with_root, without_root) and out_degree(h, o, x) == value
            assert (0 in x) == (with_root <= without_root)
            sides.add(0 in x)
        assert sides == {False, True}

    def test_one_kept_residual_per_pass(self, monkeypatch):
        h = gen_instance(GenSpec(n=12, k=3, extra_edges=6, max_edge_size=4, seed=12))
        o = gen_orientation(h, seed=12)
        calls = []
        original = separator.max_flow_min_cut

        def recorded(g, sources, sinks, limit=None, *, residual, forward=True):
            calls.append((sources, list(sinks), id(residual), forward))
            return original(g, sources, sinks, limit=limit, residual=residual, forward=forward)

        monkeypatch.setattr(separator, "max_flow_min_cut", recorded)
        connectivity(h, o)
        assert len(calls) == 2 * (h.n - 1)
        for half, forward in ((calls[: h.n - 1], False), (calls[h.n - 1 :], True)):
            assert [(source, sinks) for source, sinks, _, _ in half] == [
                (t, list(range(t))) for t in range(1, h.n)
            ]
            assert len({res for _, _, res, _ in half}) == 1
            assert {direction for *_, direction in half} == {forward}


def walk_step(rng, h, o, cap):
    """One single reorientation: a random one (these often lower the
    connectivity) or, half of the time, the best capped connectivity among
    four random candidates, so that walks also climb."""
    moves = []
    for _ in range(1 if rng.random() < 0.5 else 4):
        e = rng.randrange(h.m)
        moves.append((e, rng.choice([x for x in h.edges[e] if x != o.heads[e]])))
    return max(moves, key=lambda move: connectivity(h, reorient(o, *move), cap=cap)[0])


class TestIncrementalConnectivity:
    def test_random_walks_match_from_scratch(self):
        moved = {-1: 0, 1: 0}
        for seed in range(16):
            rng = random.Random(seed)
            n, k = rng.randint(3, 24), rng.randint(1, 4)
            spec = GenSpec(n=n, k=k, extra_edges=rng.randint(0, n), max_edge_size=min(4, n), seed=seed)
            h = gen_instance(spec)
            o = gen_orientation(h, seed=seed, mode=rng.choice(["random", "min-head"]))
            cap = connectivity(h, o)[0] + rng.randint(1, 3)
            check = IncrementalConnectivity(h, o, cap)
            assert (check.value, check.witness()) == root_pair_connectivity(h, o, cap)
            assert check.value == connectivity(h, o, cap=cap)[0]
            for step in range(1, 31):
                e, head = walk_step(rng, h, o, cap)
                before = check.value
                o = reorient(o, e, head)
                assert check.reorient(e, head) == check.value
                assert (check.value, check.witness()) == root_pair_connectivity(h, o, cap), (seed, step)
                assert check.value == connectivity(h, o, cap=cap)[0], (seed, step)
                if check.value != before:
                    moved[check.value - before] += 1
        assert moved[-1] > 0 and moved[1] > 0

    def test_raise_cap_matches_from_scratch(self):
        raised = 0
        for seed in range(12):
            rng = random.Random(100 + seed)
            n, k = rng.randint(3, 24), rng.randint(1, 4)
            spec = GenSpec(n=n, k=k, extra_edges=rng.randint(0, n), max_edge_size=min(4, n), seed=seed)
            h = gen_instance(spec)
            o = gen_orientation(h, seed=seed, mode=rng.choice(["random", "min-head"]))
            cap = rng.randint(0, connectivity(h, o)[0] + 1)
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
                assert (check.value, check.witness()) == root_pair_connectivity(h, o, cap), (seed, step)
                assert check.value == connectivity(h, o, cap=cap)[0], (seed, step)
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
        assert (check.value, check.witness()) == connectivity(h, o, cap=0) == (0, None)
        with pytest.raises(PreconditionError):
            IncrementalConnectivity(h, o, -1)
        check = IncrementalConnectivity(h, o, 2)
        for e, head in ((3, 0), (0, 1), (0, 2)):  # out of range, same head, not in edge
            with pytest.raises(PreconditionError):
                check.reorient(e, head)
        assert check.reorient(0, 0) == 0 == connectivity(h, reorient(o, 0, 0), cap=2)[0]

    def test_minimal_tight_rejects_an_empty_set(self):
        h, o = three_cycle()
        check = IncrementalConnectivity(h, o, 2)
        with pytest.raises(PreconditionError, match="nonempty"):
            check.minimal_tight(VertexSet.empty(3), "out", 1)

    def test_minimal_tight_rejects_an_unknown_side(self):
        h, o = three_cycle()
        check = IncrementalConnectivity(h, o, 2)
        with pytest.raises(PreconditionError, match="side"):
            check.minimal_tight(vs(3, [1]), "up", 1)

    def test_minimal_tight_rejects_another_ground_set(self):
        h, o = three_cycle()
        check = IncrementalConnectivity(h, o, 2)
        for x in (vs(5, [4]), vs(2, [1])):
            with pytest.raises(PreconditionError, match="different ground set"):
                check.minimal_tight(x, "out", 1)

    def test_minimal_tight_runs_no_flow(self, monkeypatch):
        h = gen_instance(GenSpec(n=10, k=2, extra_edges=4, max_edge_size=3, seed=3))
        o = gen_orientation(h, seed=3)
        k = connectivity(h, o)[0]
        check = IncrementalConnectivity(h, o, k + 1)

        def no_flow(*args, **kwargs):
            raise AssertionError("minimal_tight ran a flow")

        monkeypatch.setattr(separator, "max_flow_min_cut", no_flow)
        found = [
            check.minimal_tight(vs(h.n, xs), side, k)
            for v in range(1, h.n)
            for xs in ([v], [v, v % (h.n - 1) + 1])
            for side in ("out", "in")
        ]
        assert any(x is not None and len(x) > 1 for x in found)

    def test_every_push_is_a_max_flow_call(self, monkeypatch):
        h = gen_instance(GenSpec(n=10, k=2, extra_edges=4, max_edge_size=3, seed=3))
        o = gen_orientation(h, seed=3)
        cap = connectivity(h, o)[0] + 1
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
