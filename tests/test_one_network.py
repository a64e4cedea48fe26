"""One incidence network per hypergraph: an orientation is a heads list.

``separator.network(h)`` returns the hypergraph's one structure, kept in a
single slot for the last hypergraph seen.  Every flow on it, run on a copy
of an orientation's heads, must answer as the independent network-flow
reference in ``corpus``, whatever the slot holds.
"""

import random
import sys
import threading

import pytest

from hyperorient import (
    GenSpec,
    Hypergraph,
    Orientation,
    augment_to,
    gen_instance,
    gen_orientation,
    reorient,
    separator,
    verify_trace,
)
from hyperorient.separator import _sink_mask, max_flow_min_cut
from corpus import nx_incidence, nx_min_side
from replay import MUTATIONS, instance_trace, mutate, reference_verify_trace


def random_step(rng, h, o):
    e = rng.randrange(h.m)
    return e, rng.choice([x for x in h.edges[e] if x != o.heads[e]])


def walk_instance(seed, mode):
    rng = random.Random(seed)
    n = rng.randint(3, 16)
    spec = GenSpec(n=n, k=rng.randint(1, 3), extra_edges=rng.randint(0, n), max_edge_size=min(4, n), seed=seed)
    h = gen_instance(spec)
    return rng, h, gen_orientation(h, seed=seed, mode=mode)


def assert_reference_answers(nx, rng, g, h, o):
    """From every vertex to a random other one, the forward flow on ``g``
    and ``o``'s heads, and the backward one, against networkx on the
    incidence digraph and its reversal."""
    fwd, rev = nx_incidence(nx, h, o, False), nx_incidence(nx, h, o, True)
    for s in range(h.n):
        t = rng.choice([v for v in range(h.n) if v != s])
        for forward, ref in ((True, fwd), (False, rev)):
            value, side = max_flow_min_cut(g, [s], _sink_mask(h.n, [t]), residual=list(o.heads), forward=forward)
            ref_value, ref_side = nx_min_side(nx, ref, [s], [t], h.n)
            assert (value, side) == (ref_value, frozenset(ref_side)), (s, t, forward)


def test_network_answers_as_the_reference(monkeypatch):
    """Walks on two hypergraphs at a time, one per start mode.  Each state is
    checked on a network fetched while the slot held the other hypergraph,
    and after the other took the slot back while it was held, so the two
    alternate throughout."""
    nx = pytest.importorskip("networkx")
    monkeypatch.setattr(separator, "_memo", None)
    for seed in range(6):
        walks = [list(walk_instance(2 * seed + j, mode)) for j, mode in enumerate(("random", "min-head"))]
        for _ in range(3):
            for j, (rng, h, o) in enumerate(walks):
                other = walks[1 - j][1]
                separator.network(other)
                g = separator.network(h)  # built while the slot holds the other hypergraph
                assert separator._memo[0] is h
                separator.network(other)
                assert separator._memo[0] is other
                assert_reference_answers(nx, rng, g, h, o)
                assert_reference_answers(nx, rng, separator.network(h), h, o)
                walks[j][2] = reorient(o, *random_step(rng, h, o))


def test_one_build_per_run(monkeypatch):
    h = gen_instance(GenSpec(n=10, k=3, extra_edges=4, max_edge_size=4, seed=2))
    o = gen_orientation(h, mode="min-head")
    builds = []
    real = separator.incidence_digraph
    monkeypatch.setattr(separator, "incidence_digraph", lambda h: builds.append(h) or real(h))
    monkeypatch.setattr(separator, "_memo", None)
    trace = augment_to(h, o, 3)
    assert verify_trace(h, trace).ok and len(trace.steps) == 18
    # with one build per query, this run made 29 builds
    assert len(builds) == 1


def test_an_equal_copy_shares_the_build(monkeypatch):
    """An orientation may hold an equal copy of the hypergraph it is
    queried with: the flows then run on one, the path search on the other,
    and the slot serves both without a rebuild."""
    h = gen_instance(GenSpec(n=10, k=3, extra_edges=4, max_edge_size=4, seed=2))
    copy = Hypergraph(h.n, tuple(h.edges))
    o = Orientation(copy, gen_orientation(h, mode="min-head").heads)
    builds = []
    real = separator.incidence_digraph
    monkeypatch.setattr(separator, "incidence_digraph", lambda h: builds.append(h) or real(h))
    monkeypatch.setattr(separator, "_memo", None)
    assert copy is not h and len(augment_to(h, o, 3).steps) == 18
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
            separator.network(h)
            holding = verify_trace(h, mutated)
            separator.network(other)
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
