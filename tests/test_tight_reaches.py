"""``compute_families`` without a step check reads its level and its
families from ``separator.tight_reaches``: one run of the connectivity's
sink sequences gives the connectivity and the tight vertices, and only
those vertices get a root-pair flow.  These tests hold it to the root-pair
flows an ``IncrementalConnectivity`` keeps for every vertex, hold its level
to the brute-force oracle, to ``hyperarc_connectivity`` and to networkx,
count the flows it runs, check that the flows' own cross-checks are
caught, and compare it with an independent networkx reference above the
oracle bound on orientations like the ``query-families`` benchmark's.
"""

from __future__ import annotations

import random

import pytest

from hyperorient import (
    GenSpec,
    InvariantViolation,
    PreconditionError,
    bf_families,
    bf_lambda,
    compute_families,
    gen_instance,
    gen_orientation,
    hyperarc_connectivity,
    in_degree,
)
from hyperorient.oracle import BF_MAX_N
from hyperorient.separator import IncrementalConnectivity, tight_reaches
from corpus import (
    all_proper_subsets,
    benchmark_like_orientations,
    cyclic_orientation,
    flipped,
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

        flow, in_side_marks = separator.max_flow_min_cut, []
        last_sinks = [None]

        def counted(g, sources, sinks, limit=None, *, residual, forward=True):
            if sources is last_sinks[0] and forward:  # a maximal minimizer's flow, run backward from an in query
                in_side_marks.append(1)
            last_sinks[0] = sinks
            return flow(g, sources, sinks, limit, residual=residual, forward=forward)

        monkeypatch.setattr(separator, "max_flow_min_cut", counted)
        reset = 0
        for seed in range(20):
            for h, o in random_instances(seed, 200, n_max=7, m_max=12):
                in_side_marks.clear()
                k, in_reaches, out_reaches = tight_reaches(h, o)
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
        tight vertex, once per vertex and side."""
        from hyperorient import families, separator

        h = gen_instance(GenSpec(n=24, k=2, extra_edges=12, max_edge_size=4, seed=3))
        o = gen_orientation(h, mode="min-head")
        k = hyperarc_connectivity(h, o)
        tight_in, tight_out = kept_tight(h, o, k)
        assert any(tight_in) and any(tight_out) and not all(tight_in[1:] + tight_out[1:])
        ref = eager_families(h, o)

        def no_check(*args, **kwargs):
            raise AssertionError("an IncrementalConnectivity was built")

        flows, kept, lambdas = [], [], []
        flow, snapshot = separator.max_flow_min_cut, separator.KeptReaches.__init__

        def counted_flow(g, sources, sinks, limit=None, *, residual, forward=True):
            flows.append((list(sources), list(sinks), forward, residual))
            return flow(g, sources, sinks, limit, residual=residual, forward=forward)

        def counted_snapshot(self, g, residuals, forward):
            kept.extend(r for r in residuals if r is not None)
            snapshot(self, g, residuals, forward)

        def counted_connectivity(h, o, cap=None, connectivity=separator.connectivity):
            lambdas.append(1)
            return connectivity(h, o, cap)

        monkeypatch.setattr(separator, "IncrementalConnectivity", no_check)
        monkeypatch.setattr(families, "IncrementalConnectivity", no_check)
        monkeypatch.setattr(separator, "max_flow_min_cut", counted_flow)
        monkeypatch.setattr(separator.KeptReaches, "__init__", counted_snapshot)
        monkeypatch.setattr(separator, "connectivity", counted_connectivity)
        monkeypatch.setattr(families, "hyperarc_connectivity", lambda h, o: counted_connectivity(h, o)[0])
        fam = compute_families(h, o)
        root_pairs = sorted(
            (sources, sinks) for sources, sinks, forward, res in flows if any(res is r for r in kept) and forward
        )
        expected = [([0], [v]) for v in range(1, h.n) if tight_in[v]]
        expected = sorted(expected + [([v], [0]) for v in range(1, h.n) if tight_out[v]])
        assert root_pairs == expected and len(kept) == len(expected)
        assert lambdas == []
        assert fam == ref

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
    ``'M_t'`` for a flow from the previous flow's sinks (the one that
    finds a query's maximal minimizer), ``'root pair'`` for one whose
    residual a snapshot keeps, and ``'query'`` for the others."""
    from hyperorient import separator

    flows, kept = [], []
    flow, snapshot = separator.max_flow_min_cut, separator.KeptReaches.__init__

    def recorded(g, sources, sinks, limit=None, *, residual, forward=True):
        after_sinks = bool(flows) and sources is flows[-1][1]
        flows.append((residual, sinks, after_sinks))
        return flow(g, sources, sinks, limit, residual=residual, forward=forward)

    def recorded_snapshot(self, g, residuals, forward):
        kept.extend(r for r in residuals if r is not None)
        snapshot(self, g, residuals, forward)

    with monkeypatch.context() as patch:
        patch.setattr(separator, "max_flow_min_cut", recorded)
        patch.setattr(separator.KeptReaches, "__init__", recorded_snapshot)
        tight_reaches(h, o)
    return [
        "M_t" if after_sinks else "root pair" if any(res is r for r in kept) else "query"
        for res, _, after_sinks in flows
    ]


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


def guarded_instances():
    for seed in range(4):
        h = gen_instance(GenSpec(n=10, k=2, extra_edges=5, max_edge_size=3, seed=seed))
        yield h, gen_orientation(h, seed=seed, mode="random")


class TestWrongLevel:
    @pytest.mark.parametrize("shift", [1, -1])
    def test_a_wrong_connectivity_is_an_invariant_violation(self, monkeypatch, shift):
        """A tight vertex's root-pair flow that ends one off the level the
        sink sequences found is caught, naming that level, by
        ``tight_reaches`` and by ``compute_families`` alike."""
        for h, o in guarded_instances():
            k = hyperarc_connectivity(h, o)
            kinds = flow_kinds(monkeypatch, h, o)
            first = kinds.index("root pair")
            for run in (tight_reaches, compute_families):
                corrupt_flow(monkeypatch, first, lambda value, reach: (value + shift, reach))
                with pytest.raises(InvariantViolation, match=f"^level {k}: the root-pair flow"):
                    run(h, o)
                monkeypatch.undo()

    def test_a_maximal_minimizer_flow_that_adds_a_unit_is_an_invariant_violation(self, monkeypatch):
        """The flow that finds a query's maximal minimizer must add
        nothing, since the query's flow is maximum.  The last one runs at
        the connectivity, and a unit there is caught naming that level."""
        for h, o in guarded_instances():
            k = hyperarc_connectivity(h, o)
            kinds = flow_kinds(monkeypatch, h, o)
            last = len(kinds) - 1 - kinds[::-1].index("M_t")
            for run in (tight_reaches, compute_families):
                corrupt_flow(monkeypatch, last, lambda value, reach: (1, None))
                with pytest.raises(InvariantViolation, match=f"^level {k}: the flow into .* was not maximum"):
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
