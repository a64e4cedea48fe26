import pytest

from hyperorient import (
    InvariantViolation,
    Orientation,
    PreconditionError,
    VertexSet,
    admissible_path_in_tminus,
    admissible_path_in_tplus,
    bf_lambda,
    bf_partition_connected,
    bf_tight_families,
    compute_families,
    hypergraph,
    is_in_tight,
    reachability_check,
    trim,
)
from hyperorient.pathsearch import _explore
from corpus import random_instances, vs


def doubled_path():
    # edges {0,1} x2 head 0, {1,2} x2 head 1: arcs 1->0 twice, 2->1 twice
    h = hypergraph(3, [(0, 1), (0, 1), (1, 2), (1, 2)])
    return h, Orientation(h, (0, 0, 1, 1))


class TestForwardSearch:
    def test_doubled_path_hand_run(self):
        h, o = doubled_path()
        fam = compute_families(h, o)
        assert fam.r_family == (VertexSet.full(3),)
        res = admissible_path_in_tminus(h, o, fam, fam.r_family[0])
        assert res.s_set == vs(3, [2])
        assert res.t_set == VertexSet.full(3)
        assert (res.source, res.sink) == (2, 0)
        assert [(a.edge, a.tail, a.head) for a in res.path.arcs] == [(2, 2, 1), (0, 1, 0)]
        assert trim(h, res.path) == (2, 1, 0)

    def test_deterministic(self):
        h, o = doubled_path()
        fam = compute_families(h, o)
        a = admissible_path_in_tminus(h, o, fam, fam.r_family[0])
        b = admissible_path_in_tminus(h, o, fam, fam.r_family[0])
        assert a == b

    def test_infeasible_instance_raises(self):
        h = hypergraph(3, [(0, 1), (1, 2), (0, 2)])
        o = Orientation(h, (1, 2, 0))
        fam = compute_families(h, o)
        with pytest.raises(InvariantViolation):
            admissible_path_in_tminus(h, o, fam, fam.r_family[0])


def feasible_instances(seed, count):
    out = []
    for h, o in random_instances(seed, count, n_max=6, m_max=7):
        if h.n > 8:
            continue
        k = bf_lambda(h, o)
        if bf_partition_connected(h, k + 1)[0]:
            out.append((h, o, k))
    # generator instances one level above the working connectivity add
    # richer region structure (the random corpus rarely has out-tight ones)
    import random

    from hyperorient import GenSpec, gen_instance, gen_orientation, hyperarc_connectivity

    rng = random.Random(seed + 1)
    for i in range(count):
        n = rng.randint(4, 7)
        k = rng.randint(1, 2)
        spec = GenSpec(
            n=n, k=k + 1, extra_edges=rng.randint(0, 3), max_edge_size=min(4, n), seed=i
        )
        h = gen_instance(spec)
        o = gen_orientation(h, seed=i * 13 + 5)
        lam = hyperarc_connectivity(h, o)
        if lam <= k:
            out.append((h, o, lam))
    return out


def path_postconditions(h, o, fam, region, res, branch):
    k = fam.k
    seq = trim(h, res.path)
    assert len(res.path.arcs) < h.n
    assert all(v in region for v in seq)
    assert res.s_set in fam.m_minus and res.s_set <= region
    assert res.t_set in fam.m_plus and res.t_set <= region
    if not region.is_full:
        # the far endpoint set is strictly inside the region
        far = res.t_set if branch == "in" else res.s_set
        assert far < region
    # the trimming respects every tight set of the guarded sign that avoids
    # both endpoints
    t_minus, t_plus, _, _ = bf_tight_families(h, o, k)
    arcs = list(zip(seq, seq[1:]))
    if branch == "in":
        for x in t_plus:
            if x.is_full or res.source in x or res.sink in x:
                continue
            assert not any(u in x and v not in x for (u, v) in arcs)
    else:
        for x in t_minus:
            if x.is_full or res.source in x or res.sink in x:
                continue
            assert not any(u not in x and v in x for (u, v) in arcs)


class TestPostconditions:
    def test_both_branches_on_feasible_corpus(self):
        ran_in = ran_out = 0
        for h, o, k in feasible_instances(2468, 140):
            fam = compute_families(h, o)
            for region in fam.r_family:
                if region.is_full or is_in_tight(h, o, k, region):
                    res = admissible_path_in_tminus(h, o, fam, region)
                    path_postconditions(h, o, fam, region, res, "in")
                    ran_in += 1
                else:
                    res = admissible_path_in_tplus(h, o, fam, region)
                    path_postconditions(h, o, fam, region, res, "out")
                    ran_out += 1
        assert ran_in >= 5 and ran_out >= 5


class TestBackwardSearch:
    def test_out_tight_region_hand_case(self):
        # mirror of the doubled path: arcs 0->1 twice, 1->2 twice
        h = hypergraph(3, [(0, 1), (0, 1), (1, 2), (1, 2)])
        o = Orientation(h, (1, 1, 2, 2))
        fam = compute_families(h, o)
        assert fam.k == 0
        assert fam.m_plus == (vs(3, [2]),)
        assert fam.r_family == (VertexSet.full(3),)
        # full region is in-tight by convention, forward branch applies; the
        # backward search is exercised through regions that are only
        # out-tight, so force it here for the mirror case.
        res = admissible_path_in_tplus(h, o, fam, fam.r_family[0])
        assert (res.source, res.sink) == (0, 2)
        assert [(a.edge, a.tail, a.head) for a in res.path.arcs] == [(0, 0, 1), (2, 1, 2)]


class TestExplore:
    # edge 0 is the hyperarc {2} -> 1, edge 1 the hyperarc {1, 2} -> 0
    h = hypergraph(3, [(1, 2), (0, 1, 2)])
    o = Orientation(h, (1, 0))

    def test_forward_links_each_head_to_its_smallest_explored_tail(self):
        explored, window, links = _explore(self.o, 2, 0b111, True)
        assert (explored, window) == (0b111, 0b111)
        assert links == {1: (0, 2), 0: (1, 1)}

    def test_backward_takes_every_tail_of_a_hyperarc_before_rescanning(self):
        # rescanning after vertex 1 would reach 2 through edge 0 instead
        explored, window, links = _explore(self.o, 0, 0b111, False)
        assert (explored, window) == (0b111, 0b111)
        assert links == {1: (1, 0), 2: (1, 0)}

    def test_window_shrinks_between_the_tails_of_one_hyperarc(self):
        full = VertexSet.full(3)
        shrink = (full, vs(3, [0, 1]), full)
        explored, window, links = _explore(self.o, 0, 0b111, False, shrink)
        assert (explored, window) == (0b011, 0b011)
        assert links == {1: (1, 0)}


class TestReachability:
    def test_three_cycle(self):
        h = hypergraph(3, [(0, 1), (1, 2), (0, 2)])
        o = Orientation(h, (1, 2, 0))
        fam = compute_families(h, o)
        assert reachability_check(h, o, fam, 1)
        assert reachability_check(h, o, fam, 1, side="in")
        assert reachability_check(h, o, fam, 1, target_region=VertexSet.full(3))

    def test_region_over_another_ground_set_is_rejected(self):
        h = hypergraph(3, [(0, 1), (1, 2), (0, 2)])
        o = Orientation(h, (1, 2, 0))
        fam = compute_families(h, o)
        for side in ("out", "in"):
            with pytest.raises(PreconditionError, match="^target_region must be a VertexSet over 0..2, not "):
                reachability_check(h, o, fam, 1, target_region=VertexSet(5, [1, 3]), side=side)

    def test_a_vertex_and_a_side_are_checked(self):
        """A float vertex used to fail with a raw ``TypeError``, and
        ``True`` to be read as vertex 1."""
        h = hypergraph(3, [(0, 1), (1, 2), (0, 2)])
        o = Orientation(h, (1, 2, 0))
        fam = compute_families(h, o)
        for v in (1.0, True, "1", None, 3, -1):
            with pytest.raises(PreconditionError, match="^vertex"):
                reachability_check(h, o, fam, v)
        with pytest.raises(PreconditionError, match="side must be 'out' or 'in', not 'up'"):
            reachability_check(h, o, fam, 1, side="up")

    def test_unreachable_region_fails(self):
        h = hypergraph(3, [(0, 1), (1, 2)])
        o = Orientation(h, (0, 1))  # arcs 1->0, 2->1
        fam = compute_families(h, o)
        assert not reachability_check(h, o, fam, 1, target_region=VertexSet.full(3))

    def test_proper_q_regions_always_reachable(self):
        # the guarantee is for genuine tight regions; the full-set fallback
        # carries no reachability promise on arbitrary instances
        hits = 0
        for h, o in random_instances(86420, 60, n_max=6, m_max=6):
            fam = compute_families(h, o)
            for v in range(h.n):
                if not fam.q_plus[v].is_full:
                    assert reachability_check(h, o, fam, v, side="out")
                    hits += 1
                if not fam.q_minus[v].is_full:
                    assert reachability_check(h, o, fam, v, side="in")
                    hits += 1
        assert hits >= 20

    def test_everything_reachable_at_positive_connectivity(self):
        for h, o in random_instances(1618, 80, n_max=6, m_max=7):
            from hyperorient import hyperarc_connectivity

            if hyperarc_connectivity(h, o) >= 1:
                fam = compute_families(h, o)
                full = VertexSet.full(h.n)
                for v in range(h.n):
                    assert reachability_check(h, o, fam, v, target_region=full)
                    assert reachability_check(h, o, fam, v, target_region=full, side="in")
