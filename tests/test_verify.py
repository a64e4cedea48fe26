"""``verify_trace`` against the from-scratch replay it replaced.

Each step's connectivity is decided by one capped flow and a kept tight set
where those meet, and recomputed from scratch otherwise; the report must
not depend on which route decided it.
"""

import random
from collections import Counter

from hyperorient import GenSpec, augment_to, gen_instance, gen_orientation, separator, verify_trace
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


def test_flow_calls_on_a_fixed_trace(monkeypatch):
    h = gen_instance(GenSpec(n=12, k=3, extra_edges=6, max_edge_size=4, seed=5))
    trace = augment_to(h, gen_orientation(h, mode="min-head"), 3)
    calls = []
    original = separator.max_flow_min_cut

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(separator, "max_flow_min_cut", counted)
    assert verify_trace(h, trace).ok and len(trace.steps) == 49
    # the replay that recomputed every step from scratch made 963 calls here
    assert len(calls) <= 963 // 4
