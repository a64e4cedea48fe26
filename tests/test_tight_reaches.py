"""``compute_families`` without a step check reads its level and its
families from ``separator.tight_reaches``: one run of the connectivity's
sink sequences gives the connectivity, the tight vertices, and a copy of
the heads list after each query that ended at the connectivity, which
serves as that query's vertex's residual.  Only the other tight vertices,
those whose own query ended above it, get a root-pair flow.  These tests
hold it to the root-pair flows an ``IncrementalConnectivity`` keeps for
every vertex, hold every copied residual's q set to the eager reference
and to networkx, hold its level to the brute-force oracle, to
``hyperarc_connectivity`` and to networkx, count the flows it runs, check
that the cross-checks of its flows and searches are caught, and compare it
with an independent networkx reference above the oracle bound on
orientations like the ``query-families`` benchmark's.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from hyperorient import (
    GenSpec,
    InvariantViolation,
    PreconditionError,
    VertexSet,
    bf_families,
    bf_lambda,
    compute_families,
    gen_instance,
    gen_orientation,
    hyperarc_connectivity,
    in_degree,
    min_separator,
)
from hyperorient.oracle import BF_MAX_N
from hyperorient.separator import IncrementalConnectivity, tight_reaches
from corpus import (
    all_proper_subsets,
    benchmark_like_orientations,
    cyclic_orientation,
    flipped,
    pass_order,
    random_instances,
    walk_states,
)
from eager_families import eager_families
from nx_families import nx_family_mismatches, nx_q_sets


def kept_tight(h, o, k):
    """The tight flags of the ``(in, out)`` snapshots of a step check that
    keeps a flow for every root pair."""
    check = IncrementalConnectivity(h, o, k + 1)
    return check.kept_reaches("in").tight, check.kept_reaches("out").tight


def own_query_values(h, o):
    """``{side: values}``: the value of each vertex ``t``'s own query in
    the sink sequence of ``side``, the least ``side``-degree of a set that
    holds ``t`` and avoids the vertices before ``t`` in the pass's order,
    from a fresh ``min_separator`` (``None`` at vertex 0, which has no
    query)."""
    values = {}
    for side in ("in", "out"):
        order, values[side] = pass_order(h, o, side == "out"), [None] * h.n
        for i in range(1, h.n):
            t, before = order[i], VertexSet(h.n, order[:i])
            values[side][t] = min_separator(h, o, VertexSet.singleton(h.n, t), before, side)[0]
    return values


def recorded_call(sources, sinks, residual):
    """A flow call as ``(sources, sinks, residual)``, the sources and the
    sink mask read as ascending vertex lists, the mask when the call is
    made, since a sink sequence's mask grows after."""
    return sorted(sources), [v for v, sink in enumerate(sinks) if sink], residual


def finds_a_maximal_minimizer(search, query):
    """Whether ``search``, recorded as :func:`recorded_call` records a flow,
    finds the maximal minimizer of ``query``, the last flow before it: it
    runs on that query's heads list, from the query's sinks to its
    source."""
    return query is not None and search[2] is query[2] and search[:2] == (query[1], query[0])


def record_searches(patch, searches):
    """Patch the flow and search globals so that each search appends
    ``(forward, maximal)`` to ``searches``: its direction, and whether it
    finds the maximal minimizer of the last flow call before it."""
    from hyperorient import separator

    flow, search, last = separator.max_flow_min_cut, separator._search, [None]

    def recorded_flow(g, sources, sinks, limit=None, *, residual, forward=True):
        last[0] = recorded_call(sources, sinks, residual)
        return flow(g, sources, sinks, limit, residual=residual, forward=forward)

    def recorded_search(g, heads, roots, is_sink, forward):
        searches.append((forward, finds_a_maximal_minimizer(recorded_call(roots, is_sink, heads), last[0])))
        return search(g, heads, roots, is_sink, forward)

    patch.setattr(separator, "max_flow_min_cut", recorded_flow)
    patch.setattr(separator, "_search", recorded_search)


def assert_matches_the_kept_flows(h, o):
    k, in_reaches, out_reaches = tight_reaches(h, o)
    assert k == hyperarc_connectivity(h, o)
    assert (in_reaches.tight, out_reaches.tight) == kept_tight(h, o, k)
    assert compute_families(h, o) == eager_families(h, o)
    return in_reaches.tight, out_reaches.tight


def corpus_walks():
    for seed in range(8):
        n = 6 + 3 * seed
        spec = GenSpec(n=n, k=1 + seed % 3, extra_edges=n // 2, max_edge_size=4, seed=seed)
        yield walk_states(spec, ("min-head", "random")[seed % 2], seed, 6)
    for h, o in random_instances(11, 40, n_max=7, m_max=9):
        yield h, [o]


class TestAgainstTheKeptFlows:
    def test_tight_flags_and_families_on_corpus_walks(self):
        tight_seen = untight_seen = 0
        for h, states in corpus_walks():
            for o in states:
                for flags in assert_matches_the_kept_flows(h, o):
                    tight_seen += sum(flags)
                    untight_seen += h.n - 1 - sum(flags)
        assert tight_seen > 50 and untight_seen > 50


def copied_and_fresh(k, reaches, q_sets, own):
    """Check each tight vertex's q set against ``q_sets``, and that the
    vertices with none hold the full set there.  Returns how many tight
    vertices read a copied residual (their own query's value in ``own``
    is ``k``) and how many a root-pair flow's (it is above ``k``)."""
    copied = fresh = 0
    for v in range(1, reaches.n):
        if not reaches.tight[v]:
            assert q_sets[v].is_full, v
            continue
        assert reaches.reach(v) == q_sets[v], v
        copied += own[v] == k
        fresh += own[v] > k
    return copied, fresh


class TestCopiedResiduals:
    """A tight vertex whose own query ended at the connectivity reads its
    q set from the heads list that query left, and the others from a
    root-pair flow.  Both must give the q set, and a search with a stop
    mask must stop exactly where the root-pair flow's search does."""

    def test_q_sets_match_the_eager_reference(self):
        counts = Counter()
        rng = random.Random(33)
        for h, o in random_instances(33, 300, n_max=8, m_max=12):
            k, in_reaches, out_reaches = tight_reaches(h, o)
            ref, own = eager_families(h, o), own_query_values(h, o)
            check = IncrementalConnectivity(h, o, k + 1)
            for side, reaches, q_sets in (("in", in_reaches, ref.q_minus), ("out", out_reaches, ref.q_plus)):
                copied, fresh = copied_and_fresh(k, reaches, q_sets, own[side])
                counts["copied"] += copied
                counts["fresh"] += fresh
                kept = check.kept_reaches(side)
                for v in range(1, h.n):
                    if reaches.tight[v]:
                        stop = [rng.random() < 0.3 for _ in range(h.n)]
                        stopped = reaches.reach(v, stop)
                        assert stopped == kept.reach(v, stop)
                        counts["stopped"] += stopped is None
        assert counts["copied"] > 100 and counts["fresh"] > 20 and counts["stopped"] > 20

    def test_q_sets_match_networkx_above_the_oracle_bound(self):
        nx = pytest.importorskip("networkx")
        copied = fresh = 0
        for seed in (0, 7):
            h, states = benchmark_like_orientations(seed, 4)
            assert h.n > BF_MAX_N
            for o in states:
                k, in_reaches, out_reaches = tight_reaches(h, o)
                nx_k, q_minus, q_plus = nx_q_sets(nx, h, o)
                assert k == nx_k
                own = own_query_values(h, o)
                for side, reaches, q_sets in (("in", in_reaches, q_minus), ("out", out_reaches, q_plus)):
                    counts = copied_and_fresh(k, reaches, q_sets, own[side])
                    copied, fresh = copied + counts[0], fresh + counts[1]
        assert copied > 0 and fresh > 0


class TestLevel:
    def test_the_level_is_the_brute_force_connectivity(self):
        levels = set()
        for h, o in random_instances(13, 200, n_max=7, m_max=9):
            assert h.n <= BF_MAX_N
            k = tight_reaches(h, o)[0]
            assert k == bf_lambda(h, o)
            levels.add(k)
        assert levels >= {0, 1, 2}

    def test_a_side_above_the_connectivity_comes_back_untight(self, monkeypatch):
        """The in side runs first, from the least one-vertex degree, and
        marks the tight vertices of its own minimum exactly when that
        minimum is at most the bound.  When the out side then finds a lower
        value, those marks are at a level above the connectivity, and are
        cleared: no set that avoids vertex 0 has in-degree ``k``.  Such
        cases are rare, so the corpus is large."""
        from hyperorient import separator

        searches = []
        record_searches(monkeypatch, searches)
        reset = 0
        for seed in range(20):
            for h, o in random_instances(seed, 200, n_max=7, m_max=12):
                searches.clear()
                k, in_reaches, out_reaches = tight_reaches(h, o)
                in_side_marks = [search for search in searches if search == (True, True)]  # backward from an in query
                in_minimum = min(in_degree(h, o, x) for x in all_proper_subsets(h.n) if 0 not in x)
                assert bool(in_side_marks) == (in_minimum <= separator._degree_bound(h, o))
                if in_minimum > k:
                    reset += bool(in_side_marks)
                    assert not any(in_reaches.tight) and any(out_reaches.tight)
                    assert compute_families(h, o) == bf_families(h, o)
                else:
                    assert any(in_reaches.tight)
        assert reset >= 5


class TestFlowCounts:
    def test_root_pair_flows_only_for_tight_vertices(self, monkeypatch):
        """No ``IncrementalConnectivity`` is built, no connectivity is
        computed apart from the one sink sequence run, and each root-pair
        flow (one whose residual ends up in a snapshot) is the one of a
        tight vertex whose own query ended above the connectivity, once
        per vertex and side.  Every other tight vertex keeps a copy of its
        own query's heads list, so the snapshots hold one residual per
        tight vertex.  In the pass's breadth-first order a tight vertex's
        own query seldom ends above the connectivity, so one instance
        shows such a vertex on the in side and another on the out side."""
        from hyperorient import families, separator

        seen = Counter()
        for seed in (10, 16):
            h = gen_instance(GenSpec(n=24, k=2, extra_edges=12, max_edge_size=4, seed=seed))
            o = gen_orientation(h, seed=seed, mode="random")
            k = hyperarc_connectivity(h, o)
            tight = kept_tight(h, o, k)
            assert k > 0 and all(map(any, tight)) and not all(tight[0][1:] + tight[1][1:])
            own = own_query_values(h, o)
            above = [[flags[v] and own[side][v] > k for v in range(h.n)] for side, flags in zip(("in", "out"), tight)]
            for side, flags, ends in zip(("in", "out"), tight, above):
                seen[side, "above"] += any(ends)
                seen[side, "at"] += any(flags[v] and not ends[v] for v in range(h.n))
            ref = eager_families(h, o)

            def no_check(*args, **kwargs):
                raise AssertionError("an IncrementalConnectivity was built")

            flows, kept, lambdas = [], [], []
            flow, snapshot = separator.max_flow_min_cut, separator.KeptReaches.__init__

            def counted_flow(g, sources, sinks, limit=None, *, residual, forward=True):
                flows.append((*recorded_call(sources, sinks, residual)[:2], forward, residual))
                return flow(g, sources, sinks, limit, residual=residual, forward=forward)

            def counted_snapshot(self, g, residuals, forward):
                kept.extend(r for r in residuals if r is not None)
                snapshot(self, g, residuals, forward)

            def counted_connectivity(h, o, cap=None, connectivity=separator.connectivity):
                lambdas.append(1)
                return connectivity(h, o, cap)

            with monkeypatch.context() as patch:
                patch.setattr(separator, "IncrementalConnectivity", no_check)
                patch.setattr(families, "IncrementalConnectivity", no_check)
                patch.setattr(separator, "max_flow_min_cut", counted_flow)
                patch.setattr(separator.KeptReaches, "__init__", counted_snapshot)
                patch.setattr(separator, "connectivity", counted_connectivity)
                patch.setattr(families, "hyperarc_connectivity", lambda h, o: counted_connectivity(h, o)[0])
                fam = compute_families(h, o)
            root_pairs = sorted(
                (sources, sinks) for sources, sinks, forward, res in flows if any(res is r for r in kept) and forward
            )
            expected = [([0], [v]) for v in range(1, h.n) if above[0][v]]
            expected = sorted(expected + [([v], [0]) for v in range(1, h.n) if above[1][v]])
            assert root_pairs == expected and len(kept) == sum(tight[0]) + sum(tight[1])
            assert lambdas == []
            assert fam == ref
        assert all(seen[side, end] for side in ("in", "out") for end in ("above", "at")), seen

    def test_labels_fewer_vertices_than_a_flow_per_root_pair(self, monkeypatch):
        """At n=64 most vertices are not tight, so the sink sequences and
        the tight vertices' flows label fewer vertices than a flow per
        root pair does."""
        from hyperorient import separator

        h = gen_instance(GenSpec(n=64, k=2, extra_edges=32, max_edge_size=6, seed=0))
        o = flipped(cyclic_orientation(h, 2), random.Random(0))
        k = hyperarc_connectivity(h, o)
        labelled = []
        search = separator._search

        def counted(g, heads, roots, is_sink, forward):
            parent, queue, hit = search(g, heads, roots, is_sink, forward)
            labelled.append(len(queue))
            return parent, queue, hit

        monkeypatch.setattr(separator, "_search", counted)
        tight_reaches(h, o)
        owned = sum(labelled)
        labelled.clear()
        check = IncrementalConnectivity(h, o, k + 1)
        check.kept_reaches("in"), check.kept_reaches("out")
        assert 0 < owned < sum(labelled)


def flow_kinds(monkeypatch, h, o):
    """The kind of each flow ``tight_reaches(h, o)`` runs, in order:
    ``'root pair'`` for one whose residual a snapshot keeps, and
    ``'query'`` for the others."""
    from hyperorient import separator

    flows, kept = [], []
    flow, snapshot = separator.max_flow_min_cut, separator.KeptReaches.__init__

    def recorded(g, sources, sinks, limit=None, *, residual, forward=True):
        flows.append(residual)
        return flow(g, sources, sinks, limit, residual=residual, forward=forward)

    def recorded_snapshot(self, g, residuals, forward):
        kept.extend(r for r in residuals if r is not None)
        snapshot(self, g, residuals, forward)

    with monkeypatch.context() as patch:
        patch.setattr(separator, "max_flow_min_cut", recorded)
        patch.setattr(separator.KeptReaches, "__init__", recorded_snapshot)
        tight_reaches(h, o)
    return ["root pair" if any(res is r for r in kept) else "query" for res in flows]


def corrupt_flow(monkeypatch, index, change):
    """Make flow call ``index`` (counted from 0 from now on) return
    ``change(value, reach)`` instead of its result."""
    from hyperorient import separator

    flow, calls = separator.max_flow_min_cut, [0]

    def corrupted(g, sources, sinks, limit=None, *, residual, forward=True):
        result = flow(g, sources, sinks, limit, residual=residual, forward=forward)
        calls[0] += 1
        return change(*result) if calls[0] - 1 == index else result

    monkeypatch.setattr(separator, "max_flow_min_cut", corrupted)


def corrupt_search(monkeypatch, index):
    """Make search call ``index`` (counted from 0 from now on) report a hit
    at its first sink."""
    from hyperorient import separator

    search, calls = separator._search, [0]

    def corrupted(g, heads, roots, is_sink, forward):
        parent, labelled, hit = search(g, heads, roots, is_sink, forward)
        calls[0] += 1
        return (parent, labelled, is_sink.index(True)) if calls[0] - 1 == index else (parent, labelled, hit)

    monkeypatch.setattr(separator, "_search", corrupted)


def guarded_instances():
    for seed in range(4):
        h = gen_instance(GenSpec(n=10, k=2, extra_edges=5, max_edge_size=3, seed=seed))
        yield h, gen_orientation(h, seed=seed, mode="random")


class TestWrongLevel:
    @pytest.mark.parametrize("shift", [1, -1])
    def test_a_wrong_connectivity_is_an_invariant_violation(self, monkeypatch, shift):
        """A tight vertex's root-pair flow that ends one off the level the
        sink sequences found is caught, naming that level, by
        ``tight_reaches`` and by ``compute_families`` alike.  Only a tight
        vertex whose own query ended above the level runs one, and each
        instance here has such a vertex."""
        for h, o in guarded_instances():
            k = hyperarc_connectivity(h, o)
            kinds = flow_kinds(monkeypatch, h, o)
            assert "root pair" in kinds, "an instance that runs no root-pair flow guards nothing here"
            first = kinds.index("root pair")
            for run in (tight_reaches, compute_families):
                corrupt_flow(monkeypatch, first, lambda value, reach: (value + shift, reach))
                with pytest.raises(InvariantViolation, match=f"^level {k}: the root-pair flow"):
                    run(h, o)
                monkeypatch.undo()

    def test_a_maximal_minimizer_flow_that_adds_a_unit_is_an_invariant_violation(self, monkeypatch):
        """The search that finds a query's maximal minimizer must not
        reach the query's vertex: a hit is a path along which the query's
        flow would add a unit, so that flow was not maximum.  The last such
        search runs at the connectivity, and a hit there is caught naming
        that level."""
        for h, o in guarded_instances():
            k, searches = hyperarc_connectivity(h, o), []
            with monkeypatch.context() as patch:
                record_searches(patch, searches)
                tight_reaches(h, o)
            last = max(i for i, (_, maximal) in enumerate(searches) if maximal)
            message = rf"^level {k}: the flow from \d+ into the \d+ vertices before it was not maximum"
            for run in (tight_reaches, compute_families):
                corrupt_search(monkeypatch, last)
                with pytest.raises(InvariantViolation, match=message):
                    run(h, o)
                monkeypatch.undo()

    def test_one_side_alone_can_show_the_level(self):
        """Every minimum set may hold vertex 0, so only the in side has
        tight vertices, or avoid it, so only the out side has."""
        patterns = set()
        for h, o in random_instances(5, 200, n_max=6, m_max=9):
            _, in_reaches, out_reaches = tight_reaches(h, o)
            patterns.add((any(in_reaches.tight), any(out_reaches.tight)))
        assert patterns >= {(True, False), (False, True), (True, True)}

    def test_bad_arguments_are_precondition_errors(self):
        h = gen_instance(GenSpec(n=6, k=1, extra_edges=2, max_edge_size=3, seed=1))
        o = gen_orientation(h, seed=1)
        other = gen_instance(GenSpec(n=6, k=1, extra_edges=3, max_edge_size=3, seed=1))
        with pytest.raises(PreconditionError):
            tight_reaches(other, o)


def test_networkx_reference_on_benchmark_like_orientations():
    nx = pytest.importorskip("networkx")
    proper = 0
    for seed in (0, 7):
        h, [o] = benchmark_like_orientations(seed, 1)
        assert h.n > BF_MAX_N
        fam = compute_families(h, o)
        assert nx_family_mismatches(nx, h, o, fam) == []
        proper += sum(not x.is_full for x in fam.m_minus + fam.m_plus)
    assert proper > 0


@pytest.mark.parametrize("n", [64, 96])
def test_the_level_is_the_networkx_connectivity(n):
    nx = pytest.importorskip("networkx")
    for seed in (0, 7):
        h, states = benchmark_like_orientations(seed, 2, n)
        for o in states:
            assert tight_reaches(h, o)[0] == nx_q_sets(nx, h, o)[0]
