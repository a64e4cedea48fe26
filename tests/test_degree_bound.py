"""The sink sequences of the two entries that take no cap,
``hyperarc_connectivity`` and ``tight_reaches``, start at
``separator._degree_bound``, the least out-degree of a set ``{v}`` or
``V - {v}``, which the connectivity never exceeds; ``connectivity`` starts
at the cap its caller passes.  These tests hold the bound to
``core.out_degree`` and to the brute-force connectivity, hold every answer
to the one started from ``h.m + 1``, and count the work of a connectivity
that equals the bound.
"""

from __future__ import annotations

import random

from hyperorient import (
    GenSpec,
    Orientation,
    VertexSet,
    bf_lambda,
    gen_instance,
    hyperarc_connectivity,
    hypergraph,
    out_degree,
    separator,
)
from hyperorient.separator import connectivity, tight_reaches
from corpus import benchmark_like_orientations, cyclic_orientation, flipped, random_instances, walk_states


def old_start(h, o, cap, mark):
    """The sink sequences from the start they had before the bound:
    ``h.m + 1``, or the cap."""
    return separator._sink_sequences(h, o, h.m + 1 if cap is None else cap, mark)


def glued_walk(seed, steps=8):
    """Two copies of a ``gen_instance`` hypergraph, each in its cyclic
    orientation, joined by one hyperarc each way, then ``steps`` seeded
    head changes.  At the start the connectivity is 1, below every
    one-vertex degree, which the cycles make at least 2."""
    half = gen_instance(GenSpec(n=8, k=2, extra_edges=4, max_edge_size=3, seed=seed))
    heads = cyclic_orientation(half, 2).heads
    edges = [tuple(e) for e in half.edges] + [tuple(v + 8 for v in e) for e in half.edges] + [(0, 8), (1, 9)]
    h = hypergraph(16, edges)
    states, rng = [Orientation(h, heads + tuple(v + 8 for v in heads) + (8, 1))], random.Random(seed)
    for _ in range(steps):
        states.append(flipped(states[-1], rng))
    return h, states


def walk_corpus():
    """Walks on ``gen_instance`` hypergraphs up to n=48 from both start
    modes and on two glued copies, then orientations like the
    ``query-families`` benchmark's."""
    rng = random.Random(26)
    for seed in range(10):
        n, k = rng.choice([6, 12, 24, 48]), rng.randint(1, 3)
        spec = GenSpec(n=n, k=k, extra_edges=rng.randint(0, n), max_edge_size=min(5, n), seed=seed)
        yield walk_states(spec, ("min-head", "random")[seed % 2], seed, 8)
    for seed in range(4):
        yield glued_walk(seed)
    for seed in (0, 7):
        yield benchmark_like_orientations(seed, 3)


def test_the_bound_is_the_least_one_vertex_degree():
    below = 0
    for h, o in random_instances(26, 200, n_max=7, m_max=10):
        ones = [VertexSet.singleton(h.n, v) for v in range(h.n)]
        least = min(out_degree(h, o, x) for one in ones for x in (one, one.complement()))
        lam = bf_lambda(h, o)
        assert separator._degree_bound(h, o) == least >= lam
        below += lam < least
    assert below > 0


def test_every_answer_equals_the_old_start():
    """``connectivity`` capped at ``h.m + 1``, which caps nothing, and at
    random caps gives the old start's value,
    ``hyperarc_connectivity`` its value, and ``tight_reaches`` its level
    and tight flags.  The corpus holds a connectivity of 0, one at the
    bound and one below it."""
    rng = random.Random(26)
    seen = set()
    for h, states in walk_corpus():
        for o in states:
            bound = separator._degree_bound(h, o)
            lam = old_start(h, o, None, False)[0]
            seen.add("zero" if lam == 0 else "at the bound" if lam == bound else "below the bound")
            assert connectivity(h, o, h.m + 1) == lam
            assert hyperarc_connectivity(h, o) == lam
            for cap in (rng.randint(0, bound + 2), rng.randint(0, h.m + 1)):
                assert connectivity(h, o, cap) == old_start(h, o, cap, False)[0]
            k, in_reaches, out_reaches = tight_reaches(h, o)
            old_k, (old_in, old_out), _ = old_start(h, o, None, True)
            assert (k, in_reaches.tight, out_reaches.tight) == (old_k, tuple(old_in), tuple(old_out))
    assert seen == {"zero", "at the bound", "below the bound"}


def test_a_connectivity_at_the_bound_pushes_its_units_and_fails_no_search(monkeypatch):
    """At a bound of 2 or more, each of the ``2(n - 1)`` queries stops at
    the cap, ``lambda``, so the run pushes ``2(n - 1) lambda`` units and
    every search inside a flow finds a path.  Outside the flows each pass
    runs exactly one search, the one that fixes its order, which reaches
    no sink; a second call on the same orientation reuses both orders and
    runs none.  At a bound of 1 the run is those two searches alone.  From
    the old start the same orientation runs failing searches in its
    flows."""
    h, states = benchmark_like_orientations(0, 4)
    o = next(o for o in states if hyperarc_connectivity(h, o) == separator._degree_bound(h, o) >= 2)
    one = next(o for o in states if separator._degree_bound(h, o) == 1)
    lam = hyperarc_connectivity(h, o)
    flow, search = separator.max_flow_min_cut, separator._search
    units, failed, outside = [], [], []
    in_flow = [False]

    def counted_flow(g, sources, sinks, limit=None, *, residual, forward=True):
        in_flow[0] = True
        try:
            value, reach = flow(g, sources, sinks, limit, residual=residual, forward=forward)
        finally:
            in_flow[0] = False
        units.append(value)
        return value, reach

    def counted_search(g, heads, roots, is_sink, forward):
        parent, labelled, hit = search(g, heads, roots, is_sink, forward)
        (failed if in_flow[0] else outside).append(hit < 0)
        return parent, labelled, hit

    monkeypatch.setattr(separator, "max_flow_min_cut", counted_flow)
    monkeypatch.setattr(separator, "_search", counted_search)
    monkeypatch.setattr(separator, "_passes_memo", None)
    assert hyperarc_connectivity(h, o) == lam
    assert (len(units), sum(units), sum(failed)) == (2 * (h.n - 1), 2 * (h.n - 1) * lam, 0)
    assert outside == [True, True]
    units.clear(), outside.clear()
    assert hyperarc_connectivity(h, o) == lam
    assert (len(units), sum(failed), outside) == (2 * (h.n - 1), 0, [])
    units.clear(), outside.clear()
    assert hyperarc_connectivity(h, one) == 1
    assert (units, outside) == ([], [True, True])
    units.clear(), failed.clear()
    assert old_start(h, o, None, False)[0] == lam
    assert sum(failed) > 0
