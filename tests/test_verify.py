"""``verify_trace`` against the from-scratch replay it replaced.

Each step's connectivity is decided by one capped flow and the least
out-degree of a set ``{v}`` or ``V - {v}`` where those meet, and recomputed
from scratch otherwise; the report must not depend on which route decided
it.  The from-scratch route runs on every step that raises a level, and on
glued instances also on steps where the connectivity stays below every
one-vertex degree.  Every ``connectivity`` the verifier runs is capped at
its own least one-vertex degree, so it reads no bound of the solver's.
Above the oracle bound, the connectivity one n=64 trace claims is held to
networkx at every step that raises the level and at seeded others.
"""

import random
from collections import Counter
from dataclasses import replace

import pytest

from hyperorient import (
    GenSpec,
    ReorientationTrace,
    VerifyFailure,
    VertexSet,
    apply_trace,
    augment_to,
    bf_lambda,
    gen_instance,
    gen_orientation,
    hyperarc_connectivity,
    hypergraph,
    out_degree,
    reorient,
    separator,
    verify_trace,
)
from hyperorient import augment as augment_module
from nx_families import nx_q_sets
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


def no_degree_bound(h, o):
    raise AssertionError("the solver's one-vertex degree bound was read")


def test_reports_equal_the_replay_with_no_degree_bound(monkeypatch):
    """Neither ``verify_trace`` nor the replay reads
    ``separator._degree_bound``, the start of the solver's uncapped
    connectivity: each trace and each of its mutations gets the same
    report with that routine made to raise."""
    cases = []
    for seed in range(40):
        h, trace = instance_trace(seed)
        rng = random.Random(seed)
        cases += [(h, trace)] + [(h, mutate(rng, h, trace, kind)) for kind in MUTATIONS]
    monkeypatch.setattr(separator, "_degree_bound", no_degree_bound)
    failed = 0
    for h, t in cases:
        report = verify_trace(h, t)
        assert report == reference_verify_trace(h, t)
        failed += not report.ok
    assert len(cases) == 400 and failed > 100


def test_a_low_degree_bound_does_not_fool_the_verifier(monkeypatch):
    """With a ``_degree_bound`` that reads one low, ``hyperarc_connectivity``
    reads 1 on an orientation whose connectivity is 2.  The verifier
    counts its own bound, so it still rejects a trace that claims 1."""
    h = gen_instance(GenSpec(n=8, k=2, extra_edges=3, max_edge_size=3, seed=0))
    o = apply_trace(augment_to(h, gen_orientation(h, mode="min-head"), 2))
    real = separator._degree_bound
    monkeypatch.setattr(separator, "_degree_bound", lambda h, o: real(h, o) - 1)
    assert (hyperarc_connectivity(h, o), bf_lambda(h, o)) == (1, 2)
    claim = ReorientationTrace(o, 1, 1, 1, ())
    report = verify_trace(h, claim)
    assert report == reference_verify_trace(h, claim)
    assert report.failures[0] == VerifyFailure(None, "initial connectivity is 2, trace claims 1")


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

    def counted(h, o, cap):
        caps.append(cap)
        return original(h, o, cap)

    monkeypatch.setattr(augment_module, "connectivity", counted)
    assert verify_trace(h, trace).ok and (trace.lambda_initial, trace.lambda_final) == (0, 3)
    # the initial value, capped at the least one-vertex degree (0 from a min-head start), then
    # one call per level raised: every other step keeps its level, which those degrees bound from above
    assert caps == [0, 1, 2, 3]


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


def claimed_connectivities(trace):
    """The connectivity a trace claims at each orientation: 0 is the
    initial one, and ``i`` the one after step ``i``."""
    return [trace.lambda_initial] + [step.lambda_after for step in trace.steps]


def nx_connectivities(nx, h, trace, checked):
    """``{i: connectivity}`` for each index in ``checked``, from networkx
    (:func:`nx_families.nx_q_sets`) on the orientation after step ``i``."""
    o, found = trace.initial, {}
    for i in range(max(checked) + 1):
        if i:
            o = reorient(o, trace.steps[i - 1].edge, trace.steps[i - 1].new_head)
        if i in checked:
            found[i] = nx_q_sets(nx, h, o)[0]
    return found


def test_per_step_connectivity_matches_networkx_above_the_oracle_bound():
    """One trace of the n=64 scale recipe: its initial connectivity, every
    step that raises the level and ten seeded others, against networkx,
    and ``verify_trace`` accepts it.  One ``lambda_after`` changed on a
    level-raising step, or on another checked step, is caught by both."""
    nx = pytest.importorskip("networkx")
    h = gen_instance(GenSpec(n=64, k=3, extra_edges=32, max_edge_size=4, seed=1))
    trace = augment_to(h, gen_orientation(h, mode="min-head"), 3)
    claims = claimed_connectivities(trace)
    raising = [i for i in range(1, len(claims)) if claims[i] > claims[i - 1]]
    others = random.Random(64).sample([i for i in range(1, len(claims)) if i not in raising], 10)
    assert len(raising) == 3 - trace.lambda_initial > 0
    reference = nx_connectivities(nx, h, trace, {0, *raising, *others})
    assert verify_trace(h, trace).ok
    assert all(claims[i] == value for i, value in reference.items())
    for i in (raising[-1], others[0]):
        step = trace.steps[i - 1]
        wrong = replace(step, lambda_after=step.lambda_after - 1)
        mutated = replace(trace, steps=trace.steps[: i - 1] + (wrong,) + trace.steps[i:])
        wrong_claims = claimed_connectivities(mutated)
        assert [j for j, value in reference.items() if wrong_claims[j] != value] == [i]
        assert not verify_trace(h, mutated).ok
