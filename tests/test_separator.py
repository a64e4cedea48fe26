import random

import pytest

from hyperorient import (
    GenSpec,
    IncidenceDigraph,
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
    incidence_digraph,
    max_flow_min_cut,
    min_in_separator,
    min_out_separator,
    out_degree,
    reorient,
    separator,
)
from hyperorient.separator import IncrementalConnectivity, connectivity
from corpus import random_instances, vs


def three_cycle():
    h = hypergraph(3, [(0, 1), (1, 2), (0, 2)])
    return h, Orientation(h, (1, 2, 0))


class TestMaxFlow:
    def test_parallel_arcs_as_capacity(self):
        g = IncidenceDigraph(2, ((0, 1, 2),))
        assert max_flow_min_cut(g, [0], [1]) == (2, frozenset({0}))

    def test_unit_path(self):
        g = IncidenceDigraph(3, ((0, 1, 1), (1, 2, 1)))
        assert max_flow_min_cut(g, [0], [2]) == (1, frozenset({0}))

    def test_disconnected_source_component(self):
        g = IncidenceDigraph(4, ((0, 1, 3), (2, 3, 1)))
        value, side = max_flow_min_cut(g, [0], [3])
        assert value == 0 and side == frozenset({0, 1})

    def test_limit_caps_work(self):
        g = IncidenceDigraph(2, ((0, 1, 5),))
        assert max_flow_min_cut(g, [0], [1], limit=3) == (3, None)
        assert max_flow_min_cut(g, [0], [1], limit=9) == (5, frozenset({0}))

    def test_source_equals_sink_rejected(self):
        g = IncidenceDigraph(2, ((0, 1, 1),))
        with pytest.raises(PreconditionError):
            max_flow_min_cut(g, [1], [1])

    def test_terminal_sets_validated(self):
        g = IncidenceDigraph(3, ((0, 1, 1), (1, 2, 1)))
        for sources, sinks in (([], [2]), ([0], []), ([0], [3]), ([-1], [2]), ([0, 2], [2, 1])):
            with pytest.raises(PreconditionError):
                max_flow_min_cut(g, sources, sinks)

    def test_single_node_terminals(self):
        g = IncidenceDigraph(3, ((0, 1, 1), (1, 2, 1)))
        assert max_flow_min_cut(g, 0, 2) == max_flow_min_cut(g, [0], [2])
        assert max_flow_min_cut(g, 0, [1, 2]) == (1, frozenset({0}))

    def test_non_collection_terminals_rejected(self):
        g = IncidenceDigraph(3, ((0, 1, 1), (1, 2, 1)))
        for sources, sinks in ((None, [2]), ([0], 2.0)):
            with pytest.raises(PreconditionError, match="node collections"):
                max_flow_min_cut(g, sources, sinks)

    def test_residual_resumes_and_is_updated_in_place(self):
        g = IncidenceDigraph(4, ((0, 1, 2), (0, 2, 1), (1, 3, 1), (2, 3, 2), (1, 2, 1)))
        res = list(g.arc_cap)
        assert max_flow_min_cut(g, [0], [3], limit=1, residual=res) == (1, None)
        assert res != list(g.arc_cap)
        assert max_flow_min_cut(g, [0], [3], residual=res) == (2, frozenset({0}))
        assert max_flow_min_cut(g, [0], [3]) == (3, frozenset({0}))
        # the residual now holds a maximum flow: nothing more to push
        assert max_flow_min_cut(g, [0], [3], residual=res) == (0, frozenset({0}))

    def test_residual_length_validated(self):
        g = IncidenceDigraph(2, ((0, 1, 1),))
        with pytest.raises(PreconditionError, match="one capacity per residual arc"):
            max_flow_min_cut(g, [0], [1], residual=[1])

    def test_multi_terminal(self):
        # two sources feeding one sink through separate unit arcs
        g = IncidenceDigraph(4, ((0, 2, 1), (1, 2, 1), (2, 3, 5)))
        assert max_flow_min_cut(g, [0, 1], [3]) == (2, frozenset({0, 1}))
        assert max_flow_min_cut(g, [0, 1], [2, 3]) == (2, frozenset({0, 1}))
        assert max_flow_min_cut(g, [2], [0, 3]) == (5, frozenset({2}))


def super_node_flow(g, sources, sinks, limit=None):
    """Reference formulation: one super-source and one super-sink, joined to
    the terminals by arcs larger than any flow, and a single-terminal flow
    between them.  The reachable side drops the super-source."""
    big = sum(c for _, _, c in g.arcs) + 1
    ss, tt = g.n_nodes, g.n_nodes + 1
    arcs = g.arcs + tuple((ss, x, big) for x in sources) + tuple((y, tt, big) for y in sinks)
    value, reach = max_flow_min_cut(IncidenceDigraph(g.n_nodes + 2, arcs), [ss], [tt], limit=limit)
    return value, None if reach is None else reach - {ss}


def random_terminals(rng, n_nodes):
    nodes = rng.sample(range(n_nodes), rng.randint(2, min(n_nodes, 6)))
    cut = rng.randint(1, len(nodes) - 1)
    return nodes[:cut], nodes[cut:]


def brute_force_cut(g, sources, sinks):
    """Minimum cut capacity over node sets containing the sources and
    avoiding the sinks, and the intersection of all minimizers."""
    best, side = None, None
    for mask in range(1 << g.n_nodes):
        if any(not mask >> s & 1 for s in sources) or any(mask >> t & 1 for t in sinks):
            continue
        value = sum(c for u, v, c in g.arcs if mask >> u & 1 and not mask >> v & 1)
        if best is None or value < best:
            best, side = value, mask
        elif value == best:
            side &= mask
    return best, frozenset(x for x in range(g.n_nodes) if side >> x & 1)


def reversed_digraph(g):
    return IncidenceDigraph(g.n_nodes, tuple((v, u, c) for u, v, c in g.arcs))


class TestMultiTerminalAgainstSuperNodes:
    def check(self, rng, g, reverse=False):
        """Flows on ``g`` against the references on ``g``, or with
        ``reverse`` flows on ``_swapped(g.arc_cap)`` against the references
        on an explicitly arc-reversed digraph."""
        ref = reversed_digraph(g) if reverse else g
        sources, sinks = random_terminals(rng, g.n_nodes)

        def flow(limit=None):
            residual = separator._swapped(g.arc_cap) if reverse else None
            return max_flow_min_cut(g, sources, sinks, limit=limit, residual=residual)

        value, reach = flow()
        assert (value, reach) == super_node_flow(ref, sources, sinks)
        if g.n_nodes <= 10:
            assert (value, reach) == brute_force_cut(ref, sources, sinks)
        for limit in range(value + 2):
            assert flow(limit) == super_node_flow(ref, sources, sinks, limit=limit)

    def test_incidence_digraphs(self):
        rng = random.Random(2024)
        for h, o in random_instances(2024, 150, n_max=7, m_max=9, size_max=4):
            self.check(rng, incidence_digraph(h, o), reverse=rng.random() < 0.5)

    def test_general_capacities(self):
        rng = random.Random(77)
        for _ in range(150):
            n_nodes = rng.randint(2, 9)
            arcs = []
            for _ in range(rng.randint(0, 3 * n_nodes)):
                u, v = rng.sample(range(n_nodes), 2)
                arcs.append((u, v, rng.randint(1, 4)))
            self.check(rng, IncidenceDigraph(n_nodes, tuple(arcs)))


def random_digraph(rng, n_max):
    n_nodes = rng.randint(3, n_max)
    arcs = []
    for _ in range(rng.randint(n_nodes, 3 * n_nodes)):
        u, v = rng.sample(range(n_nodes), 2)
        arcs.append((u, v, rng.randint(1, 3)))
    return IncidenceDigraph(n_nodes, tuple(arcs))


class TestManySourcesOneSink:
    """Queries with many sources and one sink search forward from all the
    sources at once."""

    def test_many_sources_one_sink(self):
        rng = random.Random(5)
        for _ in range(200):
            g = random_digraph(rng, 9)
            nodes = rng.sample(range(g.n_nodes), rng.randint(3, g.n_nodes))
            sources, sink = nodes[1:], nodes[:1]
            value, reach = max_flow_min_cut(g, sources, sink)
            assert (value, reach) == super_node_flow(g, sources, sink)
            assert (value, reach) == brute_force_cut(g, sources, sink)
            for limit in range(value + 2):
                assert max_flow_min_cut(g, sources, sink, limit=limit) == super_node_flow(
                    g, sources, sink, limit=limit
                )

    def test_resumes_from_a_residual(self):
        rng = random.Random(6)
        for _ in range(200):
            g = random_digraph(rng, 9)
            nodes = rng.sample(range(g.n_nodes), rng.randint(3, g.n_nodes))
            sources, sink = nodes[1:], nodes[:1]
            value = super_node_flow(g, sources, sink)[0]
            res = list(g.arc_cap)
            first = rng.randint(0, value)
            assert max_flow_min_cut(g, sources, sink, limit=first, residual=res) == (first, None)
            rest, reach = max_flow_min_cut(g, sources, sink, residual=res)
            assert (first + rest, reach) == brute_force_cut(g, sources, sink)

    def test_sink_sequence_on_one_residual(self):
        """A flow between nodes that are all sources of the next query leaves
        that query's cuts at their capacity, so it resumes without a reset."""
        rng = random.Random(7)
        for _ in range(100):
            g = random_digraph(rng, 8)
            order = rng.sample(range(g.n_nodes), g.n_nodes)
            res = list(g.arc_cap)
            for i in range(1, g.n_nodes):
                sources, sink = order[:i], order[i : i + 1]
                limit = rng.choice([None, rng.randint(0, 4)])
                got = max_flow_min_cut(g, sources, sink, limit=limit, residual=res)
                assert got == super_node_flow(g, sources, sink, limit=limit)
                if got[1] is not None:
                    assert got == brute_force_cut(g, sources, sink)


    def test_mirrored_query_labels_the_maximal_side(self):
        """Asked from the sink on the swapped capacities, a query has the
        same value and labels the complement of the union of its minimum
        cuts' source sides."""
        rng = random.Random(8)
        for _ in range(100):
            g = random_digraph(rng, 8)
            nodes = rng.sample(range(g.n_nodes), rng.randint(3, g.n_nodes))
            sources, sink = nodes[1:], nodes[0]
            cuts = {
                mask: sum(c for u, v, c in g.arcs if mask >> u & 1 and not mask >> v & 1)
                for mask in range(1 << g.n_nodes)
                if all(mask >> s & 1 for s in sources) and not mask >> sink & 1
            }
            best, union = min(cuts.values()), 0
            for mask, value in cuts.items():
                if value == best:
                    union |= mask
            value, reach = max_flow_min_cut(g, sink, sources, residual=separator._swapped(g.arc_cap))
            assert value == best
            assert set(range(g.n_nodes)) - reach == {x for x in range(g.n_nodes) if union >> x & 1}


class TestIncidenceDigraph:
    def test_structure(self):
        h = hypergraph(4, [(0, 1, 2), (2, 3)])
        o = Orientation(h, (2, 3))
        g = incidence_digraph(h, o)
        assert g.n_nodes == h.n + h.m
        for e in range(h.m):
            w = h.n + e
            out = [(u, v, c) for (u, v, c) in g.arcs if u == w]
            assert out == [(w, o.heads[e], 1)]
            tails = [(u, v, c) for (u, v, c) in g.arcs if v == w]
            assert all(c == h.m + 1 for (_, _, c) in tails)
            assert {u for (u, _, _) in tails} == set(o.tail(e))

    def test_swapped_cap_is_the_reversed_digraph(self):
        """Per node, the residual arcs in search order with their heads and
        capacities: ``_swapped(arc_cap)`` on ``g`` reads exactly like
        ``arc_cap`` on the arc-reversed digraph."""

        def residual_view(g, cap):
            return [[(g.arc_head[i], cap[i]) for i in g.adj[u]] for u in range(g.n_nodes)]

        for h, o in random_instances(5, 40, n_max=7, m_max=9, size_max=4):
            g = incidence_digraph(h, o)
            rev = reversed_digraph(g)
            assert residual_view(g, separator._swapped(g.arc_cap)) == residual_view(rev, rev.arc_cap)
            assert residual_view(g, g.arc_cap) != residual_view(rev, rev.arc_cap)


class TestSeparators:
    def test_three_cycle_out(self):
        h, o = three_cycle()
        res = min_out_separator(h, o, 0, vs(3, [1]))
        assert res.value == 1 and res.separator == vs(3, [0])

    def test_three_cycle_in(self):
        h, o = three_cycle()
        res = min_in_separator(h, o, 1, vs(3, [0]))
        assert res.value == 1 and res.separator == vs(3, [1])

    def test_single_hyperarc(self):
        h = hypergraph(3, [(0, 1, 2)])
        o = Orientation(h, (2,))
        out = min_out_separator(h, o, 0, vs(3, [2]))
        assert out.value == 1 and out.separator == vs(3, [0])
        inn = min_in_separator(h, o, 2, vs(3, [0]))
        assert inn.value == 1 and inn.separator == vs(3, [2])

    def test_source_without_outgoing_incidence(self):
        # 1 -> 0 only: nothing leaves {0}, the reachable-closed side is {0}
        h = hypergraph(3, [(0, 1), (1, 2)])
        o = Orientation(h, (0, 2))
        res = min_out_separator(h, o, 0, vs(3, [2]))
        assert res.value == 0 and res.separator == vs(3, [0])

    def test_preconditions(self):
        h, o = three_cycle()
        with pytest.raises(PreconditionError):
            min_out_separator(h, o, 0, vs(3, []))
        with pytest.raises(PreconditionError):
            min_out_separator(h, o, 0, vs(3, [0, 1]))

    def test_in_out_duality(self):
        from hyperorient import out_degree

        for h, o in random_instances(404, 20, n_max=5, m_max=5):
            for t in range(1, h.n):
                res = min_in_separator(h, o, t, vs(h.n, [0]))
                best = min(
                    out_degree(h, o, VertexSet.from_mask(h.n, m).complement())
                    for m in range(1, (1 << h.n) - 1)
                    if m >> t & 1 and not m & 1
                )
                assert res.value == best

    def test_matches_brute_force_with_minimal_set(self):
        for h, o in random_instances(11, 60, n_max=6, m_max=6):
            for s in range(h.n):
                for t in range(h.n):
                    if s == t:
                        continue
                    sinks = vs(h.n, [t])
                    for side, fn in (("out", min_out_separator), ("in", min_in_separator)):
                        res = fn(h, o, s, sinks)
                        value, minimizers, minimal = bf_min_separator(h, o, s, sinks, side)
                        assert res.value == value
                        assert res.separator == minimal
                        assert all(res.separator <= x for x in minimizers)

    def test_missed_constraint_is_an_invariant_violation(self, monkeypatch):
        h, o = three_cycle()
        monkeypatch.setattr(
            separator, "max_flow_min_cut", lambda g, s, t, limit=None, residual=None: (0, frozenset())
        )
        with pytest.raises(InvariantViolation, match="missed its constraints"):
            min_out_separator(h, o, 0, vs(3, [1]))

    def test_merged_sinks_never_contain_a_sink(self):
        for h, o in random_instances(88, 40, n_max=6, m_max=6):
            if h.n < 3:
                continue
            sinks = vs(h.n, [1, 2])
            res = min_out_separator(h, o, 0, sinks)
            assert not res.separator.mask & sinks.mask
            value, _, minimal = bf_min_separator(h, o, 0, sinks, "out")
            assert (res.value, res.separator) == (value, minimal)


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


def root_pair_connectivity(h, o, cap=None):
    """Connectivity by independent root-pair queries, vertex 0 to each other
    vertex and back, each capped at the best value so far: the routine the
    sink sequence replaced, and the set :class:`IncrementalConnectivity`
    keeps as its witness."""
    net = separator.network(h, o)
    best = h.m + 1 if cap is None else cap
    found = None
    for src, snk in separator._root_pairs(h.n):
        if best == 0:
            break
        value, sep = separator._solve(
            h,
            o,
            "out",
            VertexSet.singleton(h.n, src),
            VertexSet.singleton(h.n, snk),
            limit=best,
            net=net,
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

        def recorded(g, sources, sinks, limit=None, residual=None):
            calls.append((sources, list(sinks), id(residual)))
            return original(g, sources, sinks, limit=limit, residual=residual)

        monkeypatch.setattr(separator, "max_flow_min_cut", recorded)
        connectivity(h, o)
        assert len(calls) == 2 * (h.n - 1)
        for half in (calls[: h.n - 1], calls[h.n - 1 :]):
            assert [(source, sinks) for source, sinks, _ in half] == [
                (t, list(range(t))) for t in range(1, h.n)
            ]
            assert len({res for _, _, res in half}) == 1


def walk_step(rng, h, o, cap):
    """One single reorientation: a random one (these often lower the
    connectivity) or, half of the time, the best capped connectivity among
    four random candidates, so that walks also climb."""
    moves = []
    for _ in range(1 if rng.random() < 0.5 else 4):
        e = rng.randrange(h.m)
        moves.append((e, rng.choice([x for x in h.edges[e] if x != o.heads[e]])))
    return max(moves, key=lambda move: connectivity(h, reorient(o, *move), cap=cap)[0])


def test_block_rewrites_describe_a_fresh_build():
    """The capacities of one network with each step's block rewritten
    (``_blocks``/``_write``, as ``verify_trace`` and the step check keep
    them) give every vertex pair the flow and minimal side of a fresh
    ``incidence_digraph(h, cur)``."""
    for seed in range(8):
        rng = random.Random(seed)
        n = rng.randint(3, 12)
        spec = GenSpec(n=n, k=rng.randint(1, 3), extra_edges=n // 2, max_edge_size=min(4, n), seed=seed)
        h = gen_instance(spec)
        o = gen_orientation(h, seed=seed, mode=rng.choice(["random", "min-head"]))
        g, res = separator.network(h, o)
        blocks = separator._topology(h)[1]
        for _ in range(6):
            e, head = walk_step(rng, h, o, h.m)
            o = reorient(o, e, head)
            separator._write(res, blocks[e], head, h.m + 1)
            fresh = incidence_digraph(h, o)
            for s in range(n):
                for t in range(n):
                    if s != t:
                        kept = max_flow_min_cut(g, s, t, residual=list(res))
                        assert kept == max_flow_min_cut(fresh, s, t), (seed, s, t)


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

        def recorded(g, sources, sinks, limit=None, residual=None):
            limits.append(limit)
            return original(g, sources, sinks, limit=limit, residual=residual)

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


# Above the brute-force oracles' reach: an independent max flow (networkx's
# default preflow-push) on the same reduction, with the residual-reachable
# side computed here from its flow.


def nx_incidence(nx, h, o, reverse):
    g = nx.DiGraph()
    g.add_nodes_from(range(h.n + h.m))
    for e in range(h.m):
        w = h.n + e
        g.add_edges_from((x, w) for x in o.tail(e))  # no capacity: unbounded
        g.add_edge(w, o.heads[e], capacity=1)
    return g.reverse(copy=True) if reverse else g


def nx_min_side(nx, g, sources, sinks, n):
    """Max flow value between vertex sets and the vertices reachable from
    the sources in its residual network."""
    g = g.copy()
    g.add_edges_from(("s", x) for x in sources)
    g.add_edges_from((y, "t") for y in sinks)
    value, flow = nx.maximum_flow(g, "s", "t")
    seen, stack = {"s"}, ["s"]
    while stack:
        u = stack.pop()
        forward = (v for v, d in g[u].items() if flow[u][v] < d.get("capacity", float("inf")))
        backward = (v for v in g.predecessors(u) if flow[v][u] > 0)
        for v in (*forward, *backward):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return value, VertexSet(n, [v for v in seen if isinstance(v, int) and v < n])


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
        out = min_out_separator(h, o, s, sinks)
        assert (out.value, out.separator) == nx_min_side(nx, fwd, [s], sinks, n)
        inn = min_in_separator(h, o, s, sinks)
        assert (inn.value, inn.separator) == nx_min_side(nx, rev, [s], sinks, n)
