"""Acceptance suite.

One test per criterion, each printing a pass line (run with ``pytest -s`` to
see them).  All tolerances are exact: these are combinatorial identities.
"""

import random
import time

import pytest

from hyperorient import (
    GenSpec,
    VertexSet,
    augment_to,
    bf_families,
    bf_lambda,
    bf_min_separator,
    bf_orientation_exists,
    bf_partition_connected,
    bf_safe_sink,
    bf_safe_source,
    bf_tight_families,
    compute_families,
    crossing,
    gen_instance,
    gen_orientation,
    hyperarc_connectivity,
    is_in_dangerous,
    is_in_tight,
    is_out_dangerous,
    is_out_tight,
    is_safe_sink,
    is_safe_source,
    min_separator,
    trim,
    verify_trace,
)
from corpus import all_hypergraphs, random_instance


def _passed(tag, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"\n[{tag}] PASS{suffix}")


# ---------------------------------------------------------------- criterion 1


def test_a1_orientation_theorem_equivalence():
    start = time.time()
    checked = 0
    for h in all_hypergraphs(n_values=(2, 3, 4), m_max=4, sizes=(2, 3)):
        for k in (1, 2):
            exists, witness = bf_orientation_exists(h, k)
            connected, _ = bf_partition_connected(h, k)
            assert exists == connected, (h, k)
            if witness is not None:
                assert bf_lambda(h, witness) >= k
            checked += 1
    exhaustive = checked

    rng = random.Random(20260810)
    for _ in range(500):
        h, _ = random_instance(rng, n_max=6, m_max=8, size_max=3)
        for k in (1, 2):
            exists, _ = bf_orientation_exists(h, k)
            connected, _ = bf_partition_connected(h, k)
            assert exists == connected, (h, k)
            checked += 1
    elapsed = time.time() - start
    assert elapsed < 300, f"criterion 1 took {elapsed:.1f}s"
    _passed(
        "A1 orientation-existence == partition-connectivity",
        f"{exhaustive} exhaustive + 1000 random checks in {elapsed:.1f}s",
    )


# ------------------------------------------------- criterion 2 (shared runs)


def _criterion2_corpus():
    rng = random.Random(424242)
    runs = []
    for i in range(200):
        n = rng.randint(3, 10)
        k = rng.randint(1, 3)
        extra = rng.randint(0, 5)
        spec = GenSpec(n=n, k=k, extra_edges=extra, max_edge_size=min(4, n), seed=i)
        h = gen_instance(spec)
        mode = "min-head" if i % 4 == 0 else "random"
        o = gen_orientation(h, seed=1000 + i, mode=mode)
        if hyperarc_connectivity(h, o) > k:
            # already past the target; restart from the adversarial
            # orientation, which pins the connectivity at zero
            o = gen_orientation(h, mode="min-head")
        runs.append((i, h, o, k))
    return runs


@pytest.fixture(scope="module")
def augmentation_runs():
    """Criterion 2's 200 augmentations, with every admissible path recorded."""
    start = time.time()
    results = []
    for run_id, h, o, k in _criterion2_corpus():
        events = []
        trace = augment_to(h, o, k, observer=events.append)
        results.append((run_id, h, o, k, trace, events))
    return results, time.time() - start


def test_a2_end_to_end_augmentation(augmentation_runs):
    results, elapsed = augmentation_runs
    assert len(results) == 200
    total_steps = 0
    for run_id, h, o, k, trace, _ in results:
        assert trace.lambda_final == k, run_id
        lams = [trace.lambda_initial] + [s.lambda_after for s in trace.steps]
        assert all(a <= b for a, b in zip(lams, lams[1:])), run_id
        assert len(trace.steps) <= (k - trace.lambda_initial) * h.n**3, run_id
        report = verify_trace(h, trace)
        assert report.ok, (run_id, report.render())
        if h.n <= 6:
            from hyperorient import reorient

            cur = o
            for step in trace.steps:
                cur = reorient(cur, step.edge, step.new_head)
                assert bf_lambda(h, cur) == step.lambda_after, run_id
        total_steps += len(trace.steps)
    assert elapsed < 600, f"criterion 2 took {elapsed:.1f}s"
    _passed(
        "A2 end-to-end augmentation",
        f"200 runs, {total_steps} steps, verified in {elapsed:.1f}s",
    )


# ---------------------------------------------------------------- criterion 3


def _sampled_corpus(seed=777, count=1000):
    rng = random.Random(seed)
    return [random_instance(rng, n_max=5, m_max=5, size_max=4) for _ in range(count)]


@pytest.fixture(scope="module")
def sampled_instances():
    return _sampled_corpus()


def test_a3_separator_equivalence(sampled_instances):
    queries = 0
    for h, o in sampled_instances:
        for s in range(h.n):
            sink_sets = [VertexSet(h.n, [t]) for t in range(h.n) if t != s]
            others = [t for t in range(h.n) if t != s]
            if len(others) >= 2:
                sink_sets.append(VertexSet(h.n, others[:2]))
            for sinks in sink_sets:
                for side in ("out", "in"):
                    value, sep = min_separator(h, o, VertexSet(h.n, [s]), sinks, side)
                    bf_value, minimizers, minimal = bf_min_separator(h, o, s, sinks, side)
                    assert value == bf_value
                    assert sep == minimal
                    assert all(sep <= x for x in minimizers)
                    assert not sep.mask & sinks.mask
                    queries += 1
    _passed("A3 separator == brute force", f"{queries} queries over 1000 instances")


# ---------------------------------------------------------------- criterion 4


def test_a4_family_equivalence(sampled_instances):
    for h, o in sampled_instances:
        fast = compute_families(h, o)
        slow = bf_families(h, o)
        assert fast.k == slow.k and fast.r == slow.r
        assert fast.m_minus == slow.m_minus
        assert fast.m_plus == slow.m_plus
        assert fast.m_all == slow.m_all
        assert fast.r_family == slow.r_family
        assert fast.q_minus == slow.q_minus
        assert fast.q_plus == slow.q_plus
    _passed("A4 families == brute force", "all six families on 1000 instances")


# ---------------------------------------------------------------- criterion 5


def test_a5_tight_set_closure_laws():
    rng = random.Random(5150)
    pairs = 0
    for _ in range(150):
        h, o = random_instance(rng, n_max=6, m_max=7, size_max=3)
        k = hyperarc_connectivity(h, o)
        fam = compute_families(h, o)
        t_minus, t_plus, d_minus, d_plus = bf_tight_families(h, o, k)
        m_minus = [x for x in fam.m_minus if not x.is_full]
        m_plus = [x for x in fam.m_plus if not x.is_full]
        for x in t_minus:
            for y in t_minus:
                if crossing(x, y):
                    assert is_in_tight(h, o, k, x | y) and is_in_tight(h, o, k, x & y)
                    pairs += 1
        for x in t_plus:
            for y in t_plus:
                if crossing(x, y):
                    assert is_out_tight(h, o, k, x | y) and is_out_tight(h, o, k, x & y)
                    pairs += 1
        for x in t_minus:
            for y in t_plus:
                if crossing(x, y):
                    assert is_in_tight(h, o, k, x - y) and is_out_tight(h, o, k, y - x)
                    pairs += 1
        for x in m_minus:
            for y in list(t_plus) + list(d_plus):
                if crossing(x, y):
                    assert is_out_dangerous(h, o, k, y) and is_out_tight(h, o, k, y - x)
                    pairs += 1
        for x in list(t_minus) + list(d_minus):
            for y in m_plus:
                if crossing(x, y):
                    assert is_in_dangerous(h, o, k, x) and is_in_tight(h, o, k, x - y)
                    pairs += 1
    assert pairs >= 100
    _passed("A5 tight/dangerous closure laws", f"{pairs} crossing pairs, zero exceptions")


# ---------------------------------------------------------------- criterion 6


def test_a6_safe_endpoints(sampled_instances):
    compared = 0
    existence = 0
    for h, o in sampled_instances:
        fam = compute_families(h, o)
        for s_set in fam.m_minus:
            for u in s_set:
                assert is_safe_source(h, o, fam, s_set, u) == bf_safe_source(
                    h, o, fam, s_set, u
                )
                compared += 1
        for t_set in fam.m_plus:
            for u in t_set:
                assert is_safe_sink(h, o, fam, t_set, u) == bf_safe_sink(
                    h, o, fam, t_set, u
                )
                compared += 1
        if h.n <= 8 and bf_partition_connected(h, fam.k + 1)[0]:
            for s_set in fam.m_minus:
                assert any(bf_safe_source(h, o, fam, s_set, u) for u in s_set)
            for t_set in fam.m_plus:
                assert any(bf_safe_sink(h, o, fam, t_set, u) for u in t_set)
            existence += 1
    assert existence >= 50
    _passed(
        "A6 safe endpoints",
        f"{compared} membership comparisons, existence on {existence} feasible instances",
    )


# ---------------------------------------------------------------- criterion 7


def test_a7_admissible_path_postconditions(augmentation_runs):
    results, _ = augmentation_runs
    paths = delta_checked = 0
    for run_id, h, _, _, _, events in results:
        for ev in events:
            res = ev.result
            seq = trim(h, res.path)
            assert len(res.path.arcs) < h.n, run_id
            assert all(v in ev.region for v in seq), run_id
            if h.n <= 6:
                t_minus, t_plus, _, _ = bf_tight_families(h, ev.orientation, ev.level)
                arcs = list(zip(seq, seq[1:]))
                if ev.branch == "in-tight":
                    for x in t_plus:
                        if x.is_full or res.source in x or res.sink in x:
                            continue
                        assert not any(u in x and v not in x for (u, v) in arcs), run_id
                else:
                    for x in t_minus:
                        if x.is_full or res.source in x or res.sink in x:
                            continue
                        assert not any(u not in x and v in x for (u, v) in arcs), run_id
                delta_checked += 1
            paths += 1
    assert paths and delta_checked
    _passed(
        "A7 admissible-path postconditions",
        f"{paths} paths, {delta_checked} with exhaustive boundary checks",
    )


# ---------------------------------------------------------------- criterion 8


def test_a8_potential_strictly_decreases(augmentation_runs):
    results, _ = augmentation_runs
    chains = 0
    for run_id, h, _, _, _, events in results:
        by_level = {}
        for ev in events:
            by_level.setdefault(ev.level, []).append(ev)
        for level, evs in by_level.items():
            assert [ev.iteration for ev in evs] == list(range(1, len(evs) + 1)), run_id
            assert len(evs) <= h.n**2, run_id
            potentials = [
                (len(ev.families.m_all), -sum(len(x) for x in ev.families.m_all))
                for ev in evs
            ]
            assert all(a > b for a, b in zip(potentials, potentials[1:])), run_id
            chains += 1
    assert chains
    _passed("A8 potential strictly decreases", f"{chains} level chains")
