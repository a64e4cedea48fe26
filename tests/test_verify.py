"""``verify_trace`` against the from-scratch replay it replaced.

Each step's connectivity is decided by one capped flow and the least
out-degree of a set ``{v}`` or ``V - {v}`` where those meet, and recomputed
from scratch otherwise; the report must not depend on which route decided
it.  The from-scratch route runs on every step that raises a level, and on
glued instances also on steps where the connectivity stays below every
one-vertex degree.
"""

import random
from collections import Counter

from hyperorient import (
    GenSpec,
    VertexSet,
    augment_to,
    gen_instance,
    gen_orientation,
    hypergraph,
    out_degree,
    reorient,
    separator,
    verify_trace,
)
from hyperorient import augment as augment_module
from replay import MUTATIONS, instance_trace, mutate, reference_verify_trace


def test_reports_equal_the_replay_on_the_mutation_corpus():
    seen = Counter()
    for seed in range(120):
        h, trace = instance_trace(seed)
        rng = random.Random(seed)
        for kind in (MUTATIONS[seed % len(MUTATIONS)], MUTATIONS[(7 * seed + 3) % len(MUTATIONS)]):
            mutated = mutate(rng, h, trace, kind)
            report = verify_trace(h, mutated)
            assert report == reference_verify_trace(h, mutated), (seed, kind)
            seen[kind, report.ok] += 1
    assert {kind for kind, _ in seen} == set(MUTATIONS)
    assert seen["none", True] > 10 and sum(n for (_, ok), n in seen.items() if not ok) > 150


def fixed_trace():
    h = gen_instance(GenSpec(n=12, k=3, extra_edges=6, max_edge_size=4, seed=5))
    return h, augment_to(h, gen_orientation(h, mode="min-head"), 3)


def test_flow_calls_on_a_fixed_trace(monkeypatch):
    h, trace = fixed_trace()
    calls = []
    original = separator.max_flow_min_cut

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(separator, "max_flow_min_cut", counted)
    assert verify_trace(h, trace).ok and len(trace.steps) == 49
    # the replay that recomputed every step from scratch made 963 calls here
    assert len(calls) <= 963 // 4


def test_one_connectivity_call_per_level_raised(monkeypatch):
    h, trace = fixed_trace()
    caps = []
    original = augment_module.connectivity

    def counted(h, o, cap=None):
        caps.append(cap)
        return original(h, o, cap)

    monkeypatch.setattr(augment_module, "connectivity", counted)
    assert verify_trace(h, trace).ok and (trace.lambda_initial, trace.lambda_final) == (0, 3)
    # every other step keeps its level, which the one-vertex degrees bound from above
    assert caps == [1, 2, 3]


def glued_instance(seed):
    """Two ``gen_instance`` halves on ten vertices each, the second from
    ``seed + 1000``, joined by five seeded edges with one end in each."""
    halves = [gen_instance(GenSpec(n=10, k=2, extra_edges=5, max_edge_size=3, seed=s)) for s in (seed, seed + 1000)]
    rng = random.Random(seed)
    join = [(rng.randrange(10), 10 + rng.randrange(10)) for _ in range(5)]
    edges = [tuple(v + 10 * i for v in e) for i, half in enumerate(halves) for e in half.edges]
    return hypergraph(20, edges + join)


def least_one_vertex_degree(h, o):
    degrees = (out_degree(h, o, x) for v in range(h.n) for x in (VertexSet.singleton(h.n, v), h.vertices().remove(v)))
    return min(degrees)


def test_reports_equal_the_replay_where_the_connectivity_stays_below_the_degrees():
    below = []
    for seed in range(12):
        h = glued_instance(seed)
        o = gen_orientation(h, mode="min-head")
        trace = augment_to(h, o, 2)
        count = 0
        for step in trace.steps:
            o = reorient(o, step.edge, step.new_head)
            count += step.lambda_after < least_one_vertex_degree(h, o)
        below.append(count)
        mutated = mutate(random.Random(seed), h, trace, MUTATIONS[1 + seed % (len(MUTATIONS) - 1)])
        for t in (trace, mutated):
            assert verify_trace(h, t) == reference_verify_trace(h, t), seed
    # the five joining edges, not a single vertex, bound the connectivity on those steps
    assert sum(below) >= 30 and sum(c > 0 for c in below) >= 8, below
