"""Pins the work the solver does on a small seeded corpus to exact counts.

``test_trace_pin`` pins what the solver outputs; a change that only makes
it slower keeps those digests.  Here the module globals every flow, search,
network build and safe test goes through are patched to count calls, as in
``test_one_network``, over two runs: ``augment_to`` then ``verify_trace``
on small generated instances, and ``hyperarc_connectivity`` then
``compute_families`` (no step check) on orientations like the
``query-families`` benchmark's.  The counts are:

- ``flow_calls`` and ``flow_units``: ``max_flow_min_cut`` calls and the
  units they push;
- ``searches`` and ``labelled``: residual searches and the vertices they
  label;
- ``builds``: incidence networks built;
- ``safe_probes``: safe-source and safe-sink tests.

A change of a count is a change of the work.  One made on purpose updates
``PINNED`` and says in CHANGES.md what moved and why, as for the trace pin.
"""

from __future__ import annotations

from collections import Counter

from hyperorient import (
    GenSpec,
    augment_to,
    compute_families,
    families,
    gen_instance,
    gen_orientation,
    hyperarc_connectivity,
    separator,
    verify_trace,
)
from corpus import benchmark_like_orientations

PINNED = {
    "augment": {
        "builds": 8,
        "flow_calls": 5340,
        "flow_units": 9682,
        "labelled": 49521,
        "safe_probes": 175,
        "searches": 6042,
    },
    "query": {"builds": 2, "flow_calls": 1133, "flow_units": 1824, "labelled": 16824, "searches": 967},
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


def counted(monkeypatch, run) -> dict:
    counts = Counter()
    flow, search, build = separator.max_flow_min_cut, separator._search, separator.incidence_digraph

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

    def counted_probe(probe):
        def probed(*args):
            counts["safe_probes"] += 1
            return probe(*args)

        return probed

    with monkeypatch.context() as patch:
        patch.setattr(separator, "_memo", None)
        patch.setattr(separator, "max_flow_min_cut", counted_flow)
        patch.setattr(separator, "_search", counted_search)
        patch.setattr(separator, "incidence_digraph", counted_build)
        patch.setattr(families, "is_safe_source", counted_probe(families.is_safe_source))
        patch.setattr(families, "is_safe_sink", counted_probe(families.is_safe_sink))
        run()
    return dict(counts)


def test_augment_and_verify_work_is_pinned(monkeypatch):
    assert counted(monkeypatch, augment_run) == PINNED["augment"]


def test_query_work_is_pinned(monkeypatch):
    assert counted(monkeypatch, query_run) == PINNED["query"]
