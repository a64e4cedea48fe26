"""``compute_families`` without a step check reads its families from
``separator.tight_reaches``: a sink sequence per side finds the tight
vertices, and only those get a root-pair flow.  These tests hold it to the
root-pair flows an ``IncrementalConnectivity`` keeps for every vertex, count
the flows it runs, check that a wrong level is caught either way, and
compare it with an independent networkx reference above the oracle bound
on orientations like the ``query-families`` benchmark's.
"""

from __future__ import annotations

import random

import pytest

from hyperorient import (
    GenSpec,
    InvariantViolation,
    PreconditionError,
    compute_families,
    gen_instance,
    gen_orientation,
    hyperarc_connectivity,
)
from hyperorient.oracle import BF_MAX_N
from hyperorient.separator import IncrementalConnectivity, tight_reaches
from corpus import cyclic_orientation, flipped, random_instances, walk_states
from eager_families import eager_families
from nx_families import nx_family_mismatches

def kept_tight(h, o, k):
    """The tight flags of the ``(in, out)`` snapshots of a step check that
    keeps a flow for every root pair."""
    check = IncrementalConnectivity(h, o, k + 1)
    return check.kept_reaches("in").tight, check.kept_reaches("out").tight


def assert_matches_the_kept_flows(h, o):
    k = hyperarc_connectivity(h, o)
    in_reaches, out_reaches = tight_reaches(h, o, k)
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


class TestFlowCounts:
    def test_root_pair_flows_only_for_tight_vertices(self, monkeypatch):
        """No ``IncrementalConnectivity`` is built, one connectivity is
        computed, and each root-pair flow (one whose residual ends up in a
        snapshot) is the one of a tight vertex, once per vertex and side."""
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

        def counted_connectivity(h, o):
            lambdas.append(1)
            return hyperarc_connectivity(h, o)

        monkeypatch.setattr(separator, "IncrementalConnectivity", no_check)
        monkeypatch.setattr(families, "IncrementalConnectivity", no_check)
        monkeypatch.setattr(separator, "max_flow_min_cut", counted_flow)
        monkeypatch.setattr(separator.KeptReaches, "__init__", counted_snapshot)
        monkeypatch.setattr(families, "hyperarc_connectivity", counted_connectivity)
        fam = compute_families(h, o)
        root_pairs = sorted(
            (sources, sinks) for sources, sinks, forward, res in flows if any(res is r for r in kept) and forward
        )
        expected = [([0], [v]) for v in range(1, h.n) if tight_in[v]]
        expected = sorted(expected + [([v], [0]) for v in range(1, h.n) if tight_out[v]])
        assert root_pairs == expected and len(kept) == len(expected)
        assert lambdas == [1]
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
        tight_reaches(h, o, k)
        owned = sum(labelled)
        labelled.clear()
        check = IncrementalConnectivity(h, o, k + 1)
        check.kept_reaches("in"), check.kept_reaches("out")
        assert 0 < owned < sum(labelled)


class TestWrongLevel:
    @pytest.mark.parametrize("shift", [1, -1])
    def test_a_wrong_connectivity_is_an_invariant_violation(self, monkeypatch, shift):
        from hyperorient import families

        for seed in range(4):
            h = gen_instance(GenSpec(n=10, k=2, extra_edges=5, max_edge_size=3, seed=seed))
            o = gen_orientation(h, seed=seed, mode="random")
            k = hyperarc_connectivity(h, o)
            if k + shift < 0:
                continue
            with pytest.raises(InvariantViolation, match=f"level {k + shift}"):
                tight_reaches(h, o, k + shift)
            monkeypatch.setattr(families, "hyperarc_connectivity", lambda h, o: k + shift)
            with pytest.raises(InvariantViolation, match=f"level {k + shift}"):
                compute_families(h, o)
            monkeypatch.undo()

    def test_one_side_alone_can_show_the_level(self):
        """Every minimum set may hold vertex 0, so only the in side has
        tight vertices, or avoid it, so only the out side has; either side
        alone passes the level check."""
        patterns = set()
        for h, o in random_instances(5, 200, n_max=6, m_max=9):
            in_reaches, out_reaches = tight_reaches(h, o, hyperarc_connectivity(h, o))
            patterns.add((any(in_reaches.tight), any(out_reaches.tight)))
        assert patterns >= {(True, False), (False, True), (True, True)}

    def test_bad_arguments_are_precondition_errors(self):
        h = gen_instance(GenSpec(n=6, k=1, extra_edges=2, max_edge_size=3, seed=1))
        o = gen_orientation(h, seed=1)
        for bad in (-1, 1.0, True, None):
            with pytest.raises(PreconditionError, match="^k "):
                tight_reaches(h, o, bad)
        other = gen_instance(GenSpec(n=6, k=1, extra_edges=3, max_edge_size=3, seed=1))
        with pytest.raises(PreconditionError):
            tight_reaches(other, o, hyperarc_connectivity(h, o))


def benchmark_like_orientations(seed, count):
    """``count`` orientations of one hypergraph made like those of the
    ``query-families`` benchmark: n=64, k=2, 32 extra edges of up to six
    vertices, the cyclic orientation after 1 to 4 seeded head changes."""
    h = gen_instance(GenSpec(n=64, k=2, extra_edges=32, max_edge_size=6, seed=seed))
    base, rng = cyclic_orientation(h, 2), random.Random(seed)
    return h, [flipped(base, rng) for _ in range(count)]


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
