"""Pins the work the solver does on a small seeded corpus to exact counts.

``test_trace_pin`` pins what the solver outputs; a change that only makes
it slower keeps those digests.  Here the module globals every flow, search,
network build and safe test goes through are patched to count calls, as in
``test_one_network``, over three runs: ``augment_to`` then ``verify_trace``
on small generated instances; ``hyperarc_connectivity`` then
``compute_families`` (no step check) on orientations like the
``query-families`` benchmark's; and a walk of random single
reorientations of a step check, ``IncrementalConnectivity.reorient``, on
small random instances, which lowers the connectivity on many steps.  The
counts are:

- ``flow_calls`` and ``flow_units``: ``max_flow_min_cut`` calls and the
  units they push;
- ``searches`` and ``labelled``: residual searches and the vertices they
  label;
- ``builds``: incidence networks built;
- ``compares``: ``Hypergraph`` equality tests, which the network slot
  skips for the hypergraph it holds;
- ``safe_probes``: safe-source and safe-sink tests.

A change of a count is a change of the work.  One made on purpose updates
``PINNED`` and says in CHANGES.md what moved and why, as for the trace pin.
"""

from __future__ import annotations

import random
from collections import Counter

from hyperorient import (
    GenSpec,
    Hypergraph,
    augment_to,
    compute_families,
    families,
    gen_instance,
    gen_orientation,
    hyperarc_connectivity,
    separator,
    verify_trace,
)
from hyperorient.separator import IncrementalConnectivity
from corpus import benchmark_like_orientations, random_instances

PINNED = {
    "augment": {
        "builds": 8,
        "compares": 87,
        "flow_calls": 3664,
        "flow_units": 6622,
        "labelled": 35678,
        "safe_probes": 175,
        "searches": 4272,
    },
    "query": {"builds": 2, "compares": 1, "flow_calls": 630, "flow_units": 1321, "labelled": 8260, "searches": 678},
    "reorient": {
        "builds": 695,
        "compares": 699,
        "flow_calls": 60639,
        "flow_units": 35366,
        "labelled": 147157,
        "searches": 55784,
    },
}


def augment_run():
    for n, k, extra in ((8, 2, 3), (10, 3, 4), (12, 2, 6), (20, 4, 10)):
        for seed, mode in ((0, "min-head"), (1, "random")):
            h = gen_instance(GenSpec(n=n, k=k, extra_edges=extra, max_edge_size=4, seed=seed))
            trace = augment_to(h, gen_orientation(h, seed=seed, mode=mode), k)
            assert verify_trace(h, trace).ok


def query_run():
    for seed in (0, 7):
        h, states = benchmark_like_orientations(seed, 2)
        for o in states:
            assert compute_families(h, o).k == hyperarc_connectivity(h, o)


def reorient_run():
    drops = 0
    for i, (h, o) in enumerate(random_instances(5, 700, n_max=7, m_max=9, size_max=4, m_min=3)):
        k = hyperarc_connectivity(h, o)
        for cap in (k + 1, k + 2):
            check, rng = IncrementalConnectivity(h, o, cap), random.Random(i)
            for _ in range(10):
                e, before = rng.randrange(h.m), check.value
                drops += check.reorient(e, rng.choice([x for x in h.edges[e] if x != check.heads[e]])) < before
    assert drops > 1000


def counted(monkeypatch, run) -> dict:
    counts = Counter()
    flow, search, build = separator.max_flow_min_cut, separator._search, separator.incidence_digraph
    equal = Hypergraph.__eq__

    def counted_flow(g, sources, sinks, limit=None, *, residual, forward=True):
        value, reach = flow(g, sources, sinks, limit, residual=residual, forward=forward)
        counts["flow_calls"] += 1
        counts["flow_units"] += value
        return value, reach

    def counted_search(g, heads, roots, is_sink, forward):
        parent, labelled, hit = search(g, heads, roots, is_sink, forward)
        counts["searches"] += 1
        counts["labelled"] += len(labelled)
        return parent, labelled, hit

    def counted_build(h):
        counts["builds"] += 1
        return build(h)

    def counted_equal(self, other):
        counts["compares"] += 1
        return equal(self, other)

    def counted_probe(probe):
        def probed(*args):
            counts["safe_probes"] += 1
            return probe(*args)

        return probed

    with monkeypatch.context() as patch:
        patch.setattr(separator, "_memo", None)
        patch.setattr(separator, "_passes_memo", None)
        patch.setattr(separator, "max_flow_min_cut", counted_flow)
        patch.setattr(separator, "_search", counted_search)
        patch.setattr(separator, "incidence_digraph", counted_build)
        patch.setattr(Hypergraph, "__eq__", counted_equal)
        patch.setattr(families, "is_safe_source", counted_probe(families.is_safe_source))
        patch.setattr(families, "is_safe_sink", counted_probe(families.is_safe_sink))
        run()
    return dict(counts)


def test_augment_and_verify_work_is_pinned(monkeypatch):
    assert counted(monkeypatch, augment_run) == PINNED["augment"]


def test_query_work_is_pinned(monkeypatch):
    assert counted(monkeypatch, query_run) == PINNED["query"]


def test_reorient_walk_work_is_pinned(monkeypatch):
    assert counted(monkeypatch, reorient_run) == PINNED["reorient"]
