"""``verify_trace`` against the from-scratch replay it replaced.

Each step's connectivity is decided by one capped flow and a kept tight set
where those meet, and recomputed from scratch otherwise; the report must
not depend on which route decided it.  Kept sets' out-degrees are tracked
by the single-reorientation lemma, and only the one set a step relies on is
confirmed by ``out_degree``.
"""

import random
from collections import Counter

import pytest

from hyperorient import (
    GenSpec,
    InvariantViolation,
    augment_to,
    gen_instance,
    gen_orientation,
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


def test_one_out_degree_call_per_step(monkeypatch):
    h, trace = fixed_trace()
    calls = []
    original = augment_module.out_degree

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(augment_module, "out_degree", counted)
    assert verify_trace(h, trace).ok and len(trace.steps) == 49
    # testing every kept set on every step made 216 calls here
    assert 0 < len(calls) <= len(trace.steps)


def test_a_refuted_tracked_degree_is_an_invariant_violation(monkeypatch):
    h, trace = fixed_trace()
    calls = []
    original = augment_module.out_degree

    def refuting(*args):
        calls.append(args)
        d = original(*args)
        return d + 1 if len(calls) == 3 else d

    monkeypatch.setattr(augment_module, "out_degree", refuting)
    # steps 2, 3 and 4 make the first three calls on this trace
    message = r"^step 4: kept set VertexSet\(.*\) has out-degree \d+, tracked as \d+$"
    with pytest.raises(InvariantViolation, match=message):
        verify_trace(h, trace)
    assert len(calls) == 3
