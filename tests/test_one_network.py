"""One incidence network per hypergraph: an orientation is a capacity array.

``separator.network(h, o)`` returns the hypergraph's one digraph, kept in a
single slot for the last hypergraph seen, with a fresh list of ``o``'s
capacities on it.  Every answer must equal the one on a freshly built
``incidence_digraph(h, o)``, whatever the slot holds.
"""

import random
import sys
import threading

from hyperorient import (
    GenSpec,
    IncidenceDigraph,
    augment_to,
    gen_instance,
    gen_orientation,
    incidence_digraph,
    max_flow_min_cut,
    reorient,
    separator,
    verify_trace,
)
from replay import MUTATIONS, instance_trace, mutate, reference_verify_trace


def reversed_digraph(g):
    return IncidenceDigraph(g.n_nodes, tuple((v, u, c) for u, v, c in g.arcs))


def random_step(rng, h, o):
    e = rng.randrange(h.m)
    return e, rng.choice([x for x in h.edges[e] if x != o.heads[e]])


def walk_instance(seed, mode):
    rng = random.Random(seed)
    n = rng.randint(3, 16)
    spec = GenSpec(n=n, k=rng.randint(1, 3), extra_edges=rng.randint(0, n), max_edge_size=min(4, n), seed=seed)
    h = gen_instance(spec)
    return rng, h, gen_orientation(h, seed=seed, mode=mode)


def assert_fresh_answers(net, h, o):
    """Every vertex pair's out-side flow on ``net``'s capacities, and its
    in-side flow on them swapped, against a fresh build and its reversal."""
    g, cap = net
    fresh = incidence_digraph(h, o)
    rev = reversed_digraph(fresh)
    for s in range(h.n):
        for t in range(h.n):
            if s != t:
                assert max_flow_min_cut(g, s, t, residual=list(cap)) == max_flow_min_cut(fresh, s, t), (s, t)
                assert max_flow_min_cut(g, s, t, residual=separator._swapped(cap)) == max_flow_min_cut(rev, s, t)


def test_network_capacities_answer_as_a_fresh_build(monkeypatch):
    """Walks on two hypergraphs at a time, one per start mode.  Each state is
    checked with its topology built while the slot held the other
    hypergraph, and after the other took the slot back while ``net`` was
    held, so the two alternate throughout."""
    monkeypatch.setattr(separator, "_memo", None)
    for seed in range(6):
        walks = [list(walk_instance(2 * seed + j, mode)) for j, mode in enumerate(("random", "min-head"))]
        for _ in range(3):
            for j, (rng, h, o) in enumerate(walks):
                other = walks[1 - j][1]
                separator._topology(other)
                net = separator.network(h, o)  # built while the slot holds the other hypergraph
                assert separator._memo[0] is h
                separator._topology(other)
                assert separator._memo[0] is other
                assert_fresh_answers(net, h, o)
                assert_fresh_answers(separator.network(h, o), h, o)
                walks[j][2] = reorient(o, *random_step(rng, h, o))


def test_one_build_per_run(monkeypatch):
    h = gen_instance(GenSpec(n=10, k=3, extra_edges=4, max_edge_size=4, seed=2))
    o = gen_orientation(h, mode="min-head")
    builds = []
    real = separator.incidence_digraph
    monkeypatch.setattr(separator, "incidence_digraph", lambda h, o: builds.append(o) or real(h, o))
    monkeypatch.setattr(separator, "_memo", None)
    trace = augment_to(h, o, 3)
    assert verify_trace(h, trace).ok and len(trace.steps) == 18
    # with one build per query, this run made 29 builds
    assert len(builds) == 1


def test_verify_reports_do_not_depend_on_the_slot(monkeypatch):
    other = gen_instance(GenSpec(n=7, k=2, seed=99))
    for seed in range(12):
        h, trace = instance_trace(seed)
        rng = random.Random(seed)
        for kind in ("none", MUTATIONS[seed % len(MUTATIONS)]):
            mutated = mutate(rng, h, trace, kind)
            monkeypatch.setattr(separator, "_memo", None)
            empty = verify_trace(h, mutated)
            separator._topology(h)
            holding = verify_trace(h, mutated)
            separator._topology(other)
            report = verify_trace(h, mutated)
            assert report == holding == empty == reference_verify_trace(h, mutated), (seed, kind)


def test_two_threads_give_the_serial_traces():
    runs = []
    for seed in (3, 4):
        h = gen_instance(GenSpec(n=10, k=3, extra_edges=5, max_edge_size=4, seed=seed))
        runs.append((h, gen_orientation(h, mode="min-head")))
    serial = [augment_to(h, o, 3) for h, o in runs]
    assert all(trace.steps for trace in serial)
    got: list = [None, None]
    errors = []

    def work(i):
        try:
            h, o = runs[i]
            got[i] = [augment_to(h, o, 3) for _ in range(2)]
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch often, so the slot changes hands mid-run
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and not errors
    assert got == [[serial[0]] * 2, [serial[1]] * 2]
