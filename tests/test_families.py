import random

import pytest

from hyperorient import (
    GenSpec,
    InvariantViolation,
    Orientation,
    PreconditionError,
    VertexSet,
    bf_families,
    bf_lambda,
    bf_partition_connected,
    bf_safe_sink,
    bf_safe_source,
    bf_tight_families,
    augment_to,
    compute_families,
    crossing,
    find_safe_sink,
    find_safe_source,
    gen_instance,
    gen_orientation,
    hyperarc_connectivity,
    hypergraph,
    in_degree,
    is_in_dangerous,
    is_in_tight,
    is_out_dangerous,
    is_out_tight,
    is_safe_sink,
    is_safe_source,
    minimal_members,
    min_separator,
    out_degree,
    reorient,
)
from hyperorient.separator import IncrementalConnectivity
from corpus import random_instances, vs


def three_cycle():
    h = hypergraph(3, [(0, 1), (1, 2), (0, 2)])
    return h, Orientation(h, (1, 2, 0))


def families_tuple(fam):
    return (fam.k, fam.r, fam.m_minus, fam.m_plus, fam.m_all, fam.r_family, fam.q_minus, fam.q_plus)


class TestQSets:
    def test_root_maps_to_full(self):
        h, o = three_cycle()
        fam = compute_families(h, o, level=1)
        assert fam.q_minus[0] == VertexSet.full(3)
        assert fam.q_plus[0] == VertexSet.full(3)

    def test_three_cycle_singletons(self):
        h, o = three_cycle()
        fam = compute_families(h, o, level=1)
        assert fam.q_minus[1] == vs(3, [1])
        assert fam.q_plus[1] == vs(3, [1])

    def test_fallback_when_no_tight_set(self):
        # arcs 0->1, 1->2, 1->2, 2->0, 2->0: no out-tight set avoids the root
        h = hypergraph(3, [(0, 1), (1, 2), (1, 2), (0, 2), (0, 2)])
        o = Orientation(h, (1, 2, 2, 0, 0))
        assert hyperarc_connectivity(h, o) == 1
        fam = compute_families(h, o, level=1)
        assert fam.q_plus[1] == VertexSet.full(3)
        assert fam.q_plus[2] == VertexSet.full(3)
        assert fam.q_minus[2] == vs(3, [1, 2])

    def test_level_above_connectivity_rejected(self):
        # connectivity 1, and {1} avoids the root with out-degree exactly 3
        h = hypergraph(3, [(0, 1), (1, 2), (0, 2), (1, 2), (1, 2)])
        o = Orientation(h, (1, 2, 0, 2, 2))
        assert hyperarc_connectivity(h, o) == 1 and out_degree(h, o, vs(3, [1])) == 3
        for level in (2, 3):
            with pytest.raises(PreconditionError, match=f"below level {level}"):
                compute_families(h, o, level=level)
            check = IncrementalConnectivity(h, o, cap=level + 1)
            with pytest.raises(PreconditionError, match=f"below level {level}"):
                compute_families(h, o, level=level, check=check)

    def test_contained_in_every_tight_superset(self):
        for h, o in random_instances(314, 40, n_max=6, m_max=6):
            fam = compute_families(h, o)
            t_minus, t_plus, _, _ = bf_tight_families(h, o, fam.k)
            for v in range(h.n):
                for x in t_minus:
                    if v in x:
                        assert fam.q_minus[v] <= x
                for x in t_plus:
                    if v in x:
                        assert fam.q_plus[v] <= x


class TestComputeFamilies:
    def test_three_cycle(self):
        h, o = three_cycle()
        fam = compute_families(h, o)
        expected = (vs(3, [1]), vs(3, [2]))
        assert fam.k == 1
        assert fam.m_minus == expected
        assert fam.m_plus == expected
        assert fam.m_all == expected
        assert fam.r_family == expected
        assert not fam.trivial

    def test_below_connectivity_families_trivial(self):
        h = hypergraph(3, [(0, 1), (0, 1), (1, 2), (1, 2), (0, 2), (0, 2)])
        o = Orientation(h, (1, 0, 2, 1, 0, 2))
        fam = compute_families(h, o, level=1)
        assert fam.trivial and fam.r_family == (VertexSet.full(3),)

    def test_level_above_connectivity_rejected(self):
        h, o = three_cycle()
        with pytest.raises(PreconditionError):
            compute_families(h, o, level=2)

    @pytest.mark.parametrize("level", [-1, -5])
    def test_negative_level_rejected(self, level):
        h, o = three_cycle()
        with pytest.raises(PreconditionError, match=f"level {level} is negative"):
            compute_families(h, o, level=level)
        with pytest.raises(PreconditionError, match=f"level {level} is negative"):
            compute_families(h, o, level=level, check=IncrementalConnectivity(h, o, cap=1))

    def test_r_family_full_fallback(self):
        # arcs 1->2, 2->1, 1->0, 2->0: m_minus={{1,2}}, m_plus={V}, so the
        # only region available is the full vertex set.
        h = hypergraph(3, [(1, 2), (1, 2), (0, 1), (0, 2)])
        o = Orientation(h, (2, 1, 0, 0))
        fam = compute_families(h, o)
        assert fam.k == 0
        assert fam.m_minus == (vs(3, [1, 2]),)
        assert fam.m_plus == (VertexSet.full(3),)
        assert fam.r_family == (VertexSet.full(3),)

    def test_matches_brute_force(self):
        for h, o in random_instances(271, 150, n_max=5, m_max=5):
            assert families_tuple(compute_families(h, o)) == families_tuple(bf_families(h, o))

    def test_families_are_subpartitions(self):
        for h, o in random_instances(99, 60, n_max=6, m_max=6):
            fam = compute_families(h, o)
            for name in ("m_minus", "m_plus", "m_all"):
                members = getattr(fam, name)
                for i, a in enumerate(members):
                    for b in members[i + 1 :]:
                        assert not a.mask & b.mask


def minimal_tight(h, o, k, side, x):
    """The minimal set of ``side``-degree ``k`` containing ``x`` and avoiding
    the root, or ``None``, from one fresh capped separator query: how
    :func:`compute_families` found its ``r_family`` candidates before it
    read the kept root-pair flows."""
    value, sep = min_separator(h, o, x, VertexSet.singleton(h.n, 0), side, limit=k + 1)
    return sep if value == k else None


def single_query_families(h, o, k):
    """The q sets and ``r_family`` at level ``k`` from one fresh separator
    query each, as :func:`compute_families` found them before it read the
    kept root-pair flows."""
    full = VertexSet.full(h.n)
    qm, qp = (
        (full,) + tuple(minimal_tight(h, o, k, side, vs(h.n, [v])) or full for v in range(1, h.n))
        for side in ("in", "out")
    )
    candidates = [minimal_tight(h, o, k, "in", t) for t in minimal_members(t for t in qp if not t.is_full)]
    candidates += [minimal_tight(h, o, k, "out", s) for s in minimal_members(s for s in qm if not s.is_full)]
    r_family = minimal_members(c for c in candidates if c is not None)
    return qm, qp, r_family or (VertexSet.full(h.n),)


def climbing_step(rng, h, o):
    """The best of four random reorientations by connectivity, or one random
    reorientation (which often lowers it), with even odds."""
    moves = []
    for _ in range(1 if rng.random() < 0.5 else 4):
        e = rng.randrange(h.m)
        moves.append((e, rng.choice([x for x in h.edges[e] if x != o.heads[e]])))
    return max(moves, key=lambda move: hyperarc_connectivity(h, reorient(o, *move)))


class TestKeptFlows:
    def test_carried_check_matches_single_queries(self):
        levels = set()
        for seed in range(10):
            rng = random.Random(300 + seed)
            n, k = rng.randint(3, 14), rng.randint(1, 3)
            spec = GenSpec(n=n, k=k, extra_edges=rng.randint(0, n), max_edge_size=min(4, n), seed=seed)
            h = gen_instance(spec)
            o = gen_orientation(h, seed=seed, mode=rng.choice(["random", "min-head"]))
            check = IncrementalConnectivity(h, o, cap=hyperarc_connectivity(h, o) + 1)
            for step in range(15):
                lam = hyperarc_connectivity(h, o)
                if check.cap <= lam:  # the next level keeps the same flows
                    check.raise_cap(lam + 1)
                level = rng.choice([None, None, max(lam - 1, 0)])
                fam = compute_families(h, o, level, check=check)
                qm, qp, r_family = single_query_families(h, o, fam.k)
                assert (fam.q_minus, fam.q_plus, fam.r_family) == (qm, qp, r_family), (seed, step)
                assert families_tuple(fam) == families_tuple(compute_families(h, o, level))
                for side, members in (("in", fam.m_plus), ("out", fam.m_minus)):
                    for x in members:
                        if not x.is_full:
                            expected = minimal_tight(h, o, fam.k, side, x)
                            assert check.minimal_tight(x, side, fam.k) == expected
                levels.add((fam.k, check.cap - fam.k))
                e, head = climbing_step(rng, h, o)
                o = reorient(o, e, head)
                check.reorient(e, head)
        assert {1, 2} <= {k for k, _ in levels} and {1, 2} <= {gap for _, gap in levels}

    def test_families_along_augmentation_match_single_queries(self):
        seen = 0
        for seed in range(6):
            h = gen_instance(GenSpec(n=9 + seed, k=3, extra_edges=4, max_edge_size=4, seed=seed))
            o = gen_orientation(h, mode="min-head")

            def observe(event):
                nonlocal seen
                fam = event.families
                expected = single_query_families(h, event.orientation, fam.k)
                assert (fam.q_minus, fam.q_plus, fam.r_family) == expected
                seen += 1

            augment_to(h, o, 3, observer=observe)
        assert seen > 20

    def test_check_for_another_state_is_rejected(self):
        h = hypergraph(3, [(0, 1), (0, 1), (1, 2), (1, 2), (0, 2), (0, 2)])
        o = Orientation(h, (1, 0, 2, 1, 0, 2))  # connectivity 2
        with pytest.raises(PreconditionError, match="kept flows for this orientation"):
            compute_families(h, o, check=IncrementalConnectivity(h, reorient(o, 0, 0), cap=3))
        other = hypergraph(3, [(0, 1), (0, 1), (1, 2), (1, 2), (0, 2), (0, 2), (0, 1)])
        with pytest.raises(PreconditionError, match="kept flows for this orientation"):
            compute_families(h, o, check=IncrementalConnectivity(other, Orientation(other, o.heads + (0,)), 3))
        for cap in (0, 1, 2):
            with pytest.raises(PreconditionError, match="capped above"):
                compute_families(h, o, check=IncrementalConnectivity(h, o, cap=cap))
        with pytest.raises(PreconditionError, match="capped above"):
            compute_families(h, o, level=1, check=IncrementalConnectivity(h, o, cap=1))
        assert compute_families(h, o, level=1, check=IncrementalConnectivity(h, o, cap=2)).trivial

    def test_corrupted_check_value_is_an_invariant_violation(self):
        h, o = three_cycle()
        check = IncrementalConnectivity(h, o, cap=2)
        check.value = 0
        with pytest.raises(InvariantViolation, match="level 1: kept flows give 0 at cap 2, connectivity 1"):
            compute_families(h, o, check=check)


class TestClaims:
    """Closure laws for crossing tight/dangerous sets."""

    def test_crossing_pair_laws(self):
        seen = 0
        for h, o in random_instances(424, 50, n_max=6, m_max=7):
            k = hyperarc_connectivity(h, o)
            fam = compute_families(h, o)
            t_minus, t_plus, d_minus, d_plus = bf_tight_families(h, o, k)
            m_minus = [x for x in fam.m_minus if not x.is_full]
            m_plus = [x for x in fam.m_plus if not x.is_full]

            def tin(x):
                return is_in_tight(h, o, k, x)

            def tout(x):
                return is_out_tight(h, o, k, x)

            for x in t_minus:
                for y in t_minus:
                    if crossing(x, y):
                        assert tin(x | y) and tin(x & y)
                        seen += 1
            for x in t_plus:
                for y in t_plus:
                    if crossing(x, y):
                        assert tout(x | y) and tout(x & y)
            for x in t_minus:
                for y in t_plus:
                    if crossing(x, y):
                        assert tin(x - y) and tout(y - x)
            for x in m_minus:
                for y in list(t_plus) + list(d_plus):
                    if crossing(x, y):
                        assert is_out_dangerous(h, o, k, y)
                        assert tout(y - x)
            for x in list(t_minus) + list(d_minus):
                for y in m_plus:
                    if crossing(x, y):
                        assert is_in_dangerous(h, o, k, x)
                        assert tin(x - y)
        assert seen >= 10


def feasible_instances(seed, count, **kwargs):
    """Instances whose hypergraph supports one more connectivity level."""
    out = []
    for h, o in random_instances(seed, count, **kwargs):
        if h.n > 8:
            continue
        k = bf_lambda(h, o)
        if bf_partition_connected(h, k + 1)[0]:
            out.append((h, o, k))
    return out


class TestSafeEndpoints:
    def test_matches_brute_force_everywhere(self):
        for h, o in random_instances(31337, 120, n_max=5, m_max=6):
            fam = compute_families(h, o)
            for s_set in fam.m_minus:
                for u in s_set:
                    assert is_safe_source(h, o, fam, s_set, u) == bf_safe_source(
                        h, o, fam, s_set, u
                    )
            for t_set in fam.m_plus:
                for u in t_set:
                    assert is_safe_sink(h, o, fam, t_set, u) == bf_safe_sink(
                        h, o, fam, t_set, u
                    )

    def test_singleton_member_not_tight_other_way_is_safe(self):
        # doubled path arcs 1->0,1->0,2->1,2->1: m_minus = {{2}} and {2} has
        # out-degree 2, so its only vertex is safe vacuously.
        h = hypergraph(3, [(0, 1), (0, 1), (1, 2), (1, 2)])
        o = Orientation(h, (0, 0, 1, 1))
        fam = compute_families(h, o)
        assert fam.m_minus == (vs(3, [2]),)
        assert is_safe_source(h, o, fam, vs(3, [2]), 2)

    def test_member_tight_other_way_makes_all_unsafe(self):
        h, o = three_cycle()
        fam = compute_families(h, o)
        assert not is_safe_source(h, o, fam, vs(3, [1]), 1)
        with pytest.raises(InvariantViolation):
            find_safe_source(h, o, fam, vs(3, [1]))

    def test_requires_family_membership(self):
        h, o = three_cycle()
        fam = compute_families(h, o)
        with pytest.raises(PreconditionError):
            is_safe_source(h, o, fam, vs(3, [1, 2]), 1)

    def test_find_returns_smallest_safe(self):
        for h, o, k in feasible_instances(5551, 80, n_max=6, m_max=7):
            fam = compute_families(h, o)
            for s_set in fam.m_minus:
                u = find_safe_source(h, o, fam, s_set)
                assert u == min(w for w in s_set if bf_safe_source(h, o, fam, s_set, w))
            for t_set in fam.m_plus:
                u = find_safe_sink(h, o, fam, t_set)
                assert u == min(w for w in t_set if bf_safe_sink(h, o, fam, t_set, w))


def generated_feasible_instances(seed, count):
    """Generator instances one level above the working connectivity, so the
    level-``k`` families always satisfy the feasibility hypotheses."""
    import random

    from hyperorient import GenSpec, gen_instance, gen_orientation

    rng = random.Random(seed)
    out = []
    for i in range(count):
        n = rng.randint(4, 7)
        k = rng.randint(1, 2)
        spec = GenSpec(
            n=n, k=k + 1, extra_edges=rng.randint(0, 3), max_edge_size=min(4, n), seed=i
        )
        h = gen_instance(spec)
        o = gen_orientation(h, seed=i * 7 + 3)
        if hyperarc_connectivity(h, o) <= k:
            out.append((h, o))
    return out


class TestStructuralLemmas:
    def test_safe_sink_q_set_recovers_region(self):
        # For every in-tight region, the minimal in-tight set of the safe
        # sink of any contained m_plus member is the region itself (and the
        # out-tight mirror).
        hits_in = hits_out = 0
        for h, o in generated_feasible_instances(1, 120):
            fam = compute_families(h, o)
            k = fam.k
            for region in fam.r_family:
                if region.is_full:
                    continue
                if is_in_tight(h, o, k, region):
                    for t_set in fam.m_plus:
                        if t_set <= region and not t_set.is_full:
                            t = find_safe_sink(h, o, fam, t_set)
                            assert fam.q_minus[t] == region
                            hits_in += 1
                if is_out_tight(h, o, k, region):
                    for s_set in fam.m_minus:
                        if s_set <= region and not s_set.is_full:
                            s = find_safe_source(h, o, fam, s_set)
                            assert fam.q_plus[s] == region
                            hits_out += 1
        assert hits_in >= 3 and hits_out >= 3

    def test_safe_to_safe_cuts_exceed_level(self):
        hits = 0
        for h, o, k in feasible_instances(117, 100, n_max=6, m_max=7):
            fam = compute_families(h, o)
            for region in fam.r_family:
                s_sets = [x for x in fam.m_minus if x <= region]
                t_sets = [x for x in fam.m_plus if x <= region]
                if not s_sets or not t_sets:
                    continue
                s = find_safe_source(h, o, fam, s_sets[0])
                t = find_safe_sink(h, o, fam, t_sets[0])
                if s == t:
                    continue
                for mask in range(1, (1 << h.n) - 1):
                    if mask & 1:
                        continue
                    x = VertexSet.from_mask(h.n, mask)
                    if s in x and t not in x:
                        assert out_degree(h, o, x) >= k + 1
                        hits += 1
                    if t in x and s not in x:
                        assert in_degree(h, o, x) >= k + 1
        assert hits >= 10
