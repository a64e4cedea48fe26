import itertools
import random
import re
from collections import Counter
from dataclasses import replace
from enum import IntEnum

import pytest

from hyperorient import (
    GenSpec,
    InvariantViolation,
    NotPartitionConnectedError,
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
    find_safe_endpoint,
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
    separator,
)
from hyperorient import augment as augment_module
from hyperorient import families
from hyperorient.families import QSets
from hyperorient.separator import IncrementalConnectivity
from corpus import random_instances, vs
from eager_families import eager_families, per_v_safe_endpoint
from nx_families import nx_q_sets, nx_safe_endpoint


def three_cycle():
    h = hypergraph(3, [(0, 1), (1, 2), (0, 2)])
    return h, Orientation(h, (1, 2, 0))


def families_tuple(fam):
    return (fam.k, fam.r, fam.m_minus, fam.m_plus, fam.m_all, fam.r_family, fam.q_minus, fam.q_plus)


class TestQSets:
    def test_root_maps_to_full(self):
        h, o = three_cycle()
        fam = compute_families(h, o)
        assert fam.q_minus[0] == VertexSet.full(3)
        assert fam.q_plus[0] == VertexSet.full(3)

    def test_three_cycle_singletons(self):
        h, o = three_cycle()
        fam = compute_families(h, o)
        assert fam.q_minus[1] == vs(3, [1])
        assert fam.q_plus[1] == vs(3, [1])

    def test_fallback_when_no_tight_set(self):
        # arcs 0->1, 1->2, 1->2, 2->0, 2->0: no out-tight set avoids the root
        h = hypergraph(3, [(0, 1), (1, 2), (1, 2), (0, 2), (0, 2)])
        o = Orientation(h, (1, 2, 2, 0, 0))
        assert hyperarc_connectivity(h, o) == 1
        fam = compute_families(h, o)
        assert fam.q_plus[1] == VertexSet.full(3)
        assert fam.q_plus[2] == VertexSet.full(3)
        assert fam.q_minus[2] == vs(3, [1, 2])

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

    def test_a_minimal_family_holds_a_proper_set(self):
        """A set of out-degree the connectivity avoids the root, or its
        complement does and has that in-degree: at the connectivity one of
        ``m_minus`` / ``m_plus`` is never ``{V}``."""
        for h, o in random_instances(99, 60, n_max=6, m_max=6):
            fam = compute_families(h, o)
            assert not (fam.m_minus[0].is_full and fam.m_plus[0].is_full)

    def test_families_are_subpartitions(self):
        for h, o in random_instances(99, 60, n_max=6, m_max=6):
            fam = compute_families(h, o)
            for name in ("m_minus", "m_plus", "m_all"):
                members = getattr(fam, name)
                for i, a in enumerate(members):
                    for b in members[i + 1 :]:
                        assert not a.mask & b.mask

    def test_overlapping_m_all_members_are_an_invariant_violation(self, monkeypatch):
        """``m_all``, the minimal members of ``m_minus`` and ``m_plus``, is
        checked to be a subpartition, and the level loop's bound on its
        paths rests on that check.  Here ``{1}`` is the one member of both,
        so a ``minimal_members`` that returns its input unfiltered puts two
        copies side by side, and they must be refused."""
        h = hypergraph(2, [(0, 1), (0, 1)])
        o = Orientation(h, (1, 0))
        fam = compute_families(h, o)
        assert fam.m_minus == fam.m_plus == fam.m_all == (vs(2, [1]),)
        monkeypatch.setattr(families, "minimal_members", tuple)
        with pytest.raises(InvariantViolation, match=r"^m_all members overlap: "):
            compute_families(h, o)

    @pytest.mark.parametrize(
        "name, in_members, out_members", [("m_minus", 3, 0), ("m_plus", 0, 3), ("m_all", 2, 1)]
    )
    def test_a_member_overlapping_a_later_one_is_named_with_it(self, monkeypatch, name, in_members, out_members):
        """``m_minus``, ``m_plus`` and ``m_all`` are each checked to be a
        subpartition in one pass.  Here the first of three members,
        ``{1, 3}``, meets the third, ``{3, 5}``, and not the one next to
        it, ``{2, 4}``.  The descent of each side is made to find the
        members given (the first ``in_members`` on the in side, the rest
        on the out side), with every q set full, so that no ``r_family``
        candidate is read.  The overlap is refused, naming both sets."""
        h = gen_instance(GenSpec(n=6, k=1, extra_edges=2, max_edge_size=3, seed=1))
        o = gen_orientation(h, seed=1)
        first, middle, last = vs(6, [1, 3]), vs(6, [2, 4]), vs(6, [3, 5])
        given = (first, middle, last)
        assert minimal_members(given) == given
        found = {False: given[:in_members], True: given[in_members:]}
        assert len(found[True]) == out_members
        init = QSets.__init__

        def corrupted(self, reaches):
            init(self, reaches)
            self.minimal = found[reaches._forward]
            self._sets, self._unset = [VertexSet.full(6)] * 6, set()

        monkeypatch.setattr(QSets, "__init__", corrupted)
        message = re.escape(f"{name} members overlap: {first} and {last}")
        with pytest.raises(InvariantViolation, match=f"^{message}$"):
            compute_families(h, o)

    @pytest.mark.parametrize("side, members", [("in", "m_plus"), ("out", "m_minus")])
    def test_a_crossing_q_set_is_an_invariant_violation(self, monkeypatch, side, members):
        """The ``r_family`` candidate of a minimal member ``x`` is the
        opposite q set of ``min(x)``.  An entry there that neither holds
        ``x`` nor lies strictly inside it breaks the crossing lemma."""
        h, o, x = next(
            (h, o, x)
            for h, o in random_instances(3, 400, n_max=6, m_max=7, size_max=4)
            for x in getattr(bf_families(h, o), members)
            if 1 < len(x) < h.n - 1
        )
        w = next(w for w in range(1, h.n) if w not in x)
        crossing_set = vs(h.n, [min(x), w])
        init = QSets.__init__

        def corrupted(self, reaches):
            init(self, reaches)
            if reaches._forward == (side == "out"):
                self._sets[min(x)] = crossing_set

        assert compute_families(h, o) == bf_families(h, o)
        monkeypatch.setattr(QSets, "__init__", corrupted)
        with pytest.raises(InvariantViolation, match=r"^level \d+: the minimal tight set .* crosses the member"):
            compute_families(h, o)


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
                fam = compute_families(h, o, check=check)
                qm, qp, r_family = single_query_families(h, o, fam.k)
                assert (fam.q_minus, fam.q_plus, fam.r_family) == (qm, qp, r_family), (seed, step)
                assert families_tuple(fam) == families_tuple(compute_families(h, o))
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

    def test_corrupted_check_value_is_an_invariant_violation(self):
        h, o = three_cycle()
        check = IncrementalConnectivity(h, o, cap=2)
        check.value = 0
        with pytest.raises(InvariantViolation, match="level 1: kept flows give 0 at cap 2, connectivity 1"):
            compute_families(h, o, check=check)


class TestPredicates:
    PREDICATES = (is_in_tight, is_out_tight, is_in_dangerous, is_out_dangerous)

    def test_a_foreign_ground_set_is_rejected(self):
        """Every set over another ground set is rejected, the full and the
        empty one included, which the predicates would otherwise answer
        without a degree."""
        h, o = three_cycle()
        for x in (VertexSet.full(5), VertexSet.empty(5), vs(5, [1]), vs(5, [0, 4]), VertexSet.full(2)):
            for predicate in self.PREDICATES:
                with pytest.raises(PreconditionError, match="^x must be a VertexSet over 0..2, not "):
                    predicate(h, o, 1, x)

    def test_a_foreign_orientation_is_rejected(self):
        """An orientation of another hypergraph is rejected before the
        full, empty and root shortcuts, which need no degree."""
        h, _ = three_cycle()
        h4 = hypergraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        o4 = Orientation(h4, (1, 2, 3, 0))
        for x in (VertexSet.full(3), VertexSet.empty(3), vs(3, [0]), vs(3, [0, 2]), vs(3, [1])):
            for predicate in self.PREDICATES:
                with pytest.raises(PreconditionError, match="does not belong to this hypergraph"):
                    predicate(h, o4, 1, x)

    def test_full_empty_and_root_sets(self):
        h, o = three_cycle()  # connectivity 1: {1} and {2} have in- and out-degree 1
        for predicate, full in zip(self.PREDICATES, (True, True, False, False)):
            assert predicate(h, o, 1, VertexSet.full(3)) is full
            assert predicate(h, o, 1, VertexSet.empty(3)) is False
            assert predicate(h, o, 0, vs(3, [0])) is False
        assert is_in_tight(h, o, 1, vs(3, [1])) and is_out_dangerous(h, o, 0, vs(3, [2]))

    def test_a_level_must_be_a_count(self):
        """On the doubled triangle ``{1}`` has in- and out-degree 2.  A
        level of ``2.0`` used to call it tight, ``True`` (``True + 1 == 2``)
        dangerous, and ``"2"`` failed with a raw ``TypeError``; an
        ``IntEnum`` level answers as its ``int``."""
        h = hypergraph(3, [(0, 1), (0, 1), (1, 2), (1, 2), (0, 2), (0, 2)])
        o = Orientation(h, (1, 1, 2, 2, 2, 2))
        x = vs(3, [1])
        for predicate in self.PREDICATES:
            for k in (True, False, 2.0, "2", None, -1):
                with pytest.raises(PreconditionError, match="^k must be a non-negative int"):
                    predicate(h, o, k, x)
            for k in IntEnum("Level", "ONE TWO"):
                assert predicate(h, o, k, x) is predicate(h, o, int(k), x)
        assert is_in_tight(h, o, 2, x) and is_in_dangerous(h, o, 1, x)


    def test_a_root_must_be_a_vertex(self):
        """On the three-cycle ``{0}`` has in- and out-degree 1.  A root of
        5, no vertex, used to let it avoid the root, so ``is_in_tight``
        called it tight at level 1, and ``r=-1`` did the same for the
        dangerous ones at level 0; a float or a string failed with a raw
        ``TypeError``.  An ``IntEnum`` root answers as its ``int``."""
        h, o = three_cycle()
        x = vs(3, [0])
        for predicate, k in zip(self.PREDICATES, (1, 1, 0, 0)):
            for r in (5, 3, -1, 1.0, True, "0", None):
                with pytest.raises(PreconditionError, match="^vertex"):
                    predicate(h, o, k, x, r=r)
            for r in IntEnum("Root", "ONE TWO"):
                assert predicate(h, o, k, x, r=r) is predicate(h, o, k, x, r=int(r)) is True


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


def tight_half_failures(seed, count):
    """``(h, o, fam, side, member, u)`` wherever a member of ``m_minus``
    (``side='out'``) or ``m_plus`` (``side='in'``) with at least two vertices
    is neither inside ``u``'s minimal tight set on that side nor tight on it
    itself: a tight set holds ``u`` and misses a vertex of the member, and
    no degree probe of the member shows it."""
    for h, o in random_instances(seed, count, n_max=6, m_max=7):
        fam = compute_families(h, o)
        for side, members, q_sets, tight in (
            ("out", fam.m_minus, fam.q_plus, is_out_tight),
            ("in", fam.m_plus, fam.q_minus, is_in_tight),
        ):
            for member in members:
                for u in member:
                    if len(member) < 2 or member <= q_sets[u] or tight(h, o, fam.k, member):
                        continue
                    yield h, o, fam, side, member, u


def safe_tests(h, o, fam):
    """``(side, member, u)`` for every vertex ``u`` of every member of
    ``m_minus`` (``side='out'``) and ``m_plus`` (``side='in'``)."""
    for side, members in (("out", fam.m_minus), ("in", fam.m_plus)):
        for member in members:
            for u in member:
                yield side, member, u


def augment_safe_tests(count):
    """``(h, o, fam, side, member, u)`` for the safe tests of every path's
    families in ``augment_to`` runs from min-head starts on ``count``
    generated instances, n = 3..9 and targets 1..3."""
    for seed in range(count):
        n, k = 3 + seed % 7, 1 + seed % 3
        h = gen_instance(GenSpec(n=n, k=k, extra_edges=seed % 5, max_edge_size=min(4, n), seed=seed))
        events = []
        augment_to(h, gen_orientation(h, mode="min-head"), k, observer=events.append)
        for event in events:
            o, fam = event.orientation, event.families
            for side, member, u in safe_tests(h, o, fam):
                yield h, o, fam, side, member, u


def random_safe_tests(seed, count):
    """``(h, o, fam, side, member, u)`` for the safe tests of ``count``
    random instances with n <= 7, where a minimal cut that holds the whole
    member, with no q set inside it, is less rare than on an augmentation's
    paths."""
    for h, o in random_instances(seed, count, n_max=7, m_max=9, size_max=4):
        fam = compute_families(h, o)
        for side, member, u in safe_tests(h, o, fam):
            yield h, o, fam, side, member, u


def safe_branch(h, o, fam, side, member, u):
    """Which part of the safe test decides it: ``"full"`` or ``"tight"``
    (no flow), ``"singleton"`` (a member ``{u}``, no flow), ``"proper"``
    (``q[u]`` proper, one flow per other vertex) or, when ``q[u]`` is full,
    what the one flow from ``u`` into the root shows: ``"k+2"``,
    ``"holds"`` (its minimal cut holds the member, and no q set lies in the
    cut without ``u``, so only the first decides) or ``"cut"``."""
    q_sets = fam.q_plus if side == "out" else fam.q_minus
    q = q_sets[u]
    if member.is_full or not member < q:
        return "full" if member.is_full else "tight"
    if len(member) == 1 or not q.is_full:
        return "singleton" if len(member) == 1 else "proper"
    value, sep = min_separator(h, o, vs(h.n, [u]), vs(h.n, [0]), side, limit=fam.k + 2)
    if value == fam.k + 2:
        return "k+2"
    inner = sep.remove(u)
    return "holds" if member <= sep and not any(q_sets[w] <= inner for w in inner) else "cut"


class TestSafeEndpoints:
    def test_matches_brute_force_everywhere(self):
        """Every safe test on 400 random instances equals the brute-force
        oracle's, and between them they reach each part of the test."""
        seen = set()
        for h, o in random_instances(31337, 400, n_max=5, m_max=6):
            fam = compute_families(h, o)
            for side, member, u in safe_tests(h, o, fam):
                is_safe, bf_safe = (is_safe_source, bf_safe_source) if side == "out" else (is_safe_sink, bf_safe_sink)
                got = is_safe(h, o, fam, member, u)
                assert got == bf_safe(h, o, fam, member, u), (side, member, u)
                seen.add((safe_branch(h, o, fam, side, member, u), got))
        assert {("singleton", True), ("k+2", True), ("holds", True), ("cut", True), ("cut", False)} <= seen

    def test_matches_the_per_vertex_reference(self):
        """On the safe tests of 600 augmentations and 1,000 random
        instances, the one flow into the root gives the answer of one flow
        per other vertex of the member, on every part of the test and with
        both answers where it can."""
        seen = Counter()
        for h, o, fam, side, member, u in itertools.chain(augment_safe_tests(600), random_safe_tests(5, 1000)):
            is_safe = is_safe_source if side == "out" else is_safe_sink
            got = is_safe(h, o, fam, member, u)
            assert got == per_v_safe_endpoint(h, o, fam, member, u, side), (h, o.heads, side, member, u)
            seen[safe_branch(h, o, fam, side, member, u), got] += 1
        parts = ("singleton", True), ("k+2", True), ("holds", True), ("cut", True), ("cut", False)
        assert all(seen[part] for part in parts + (("proper", True), ("proper", False)))
        assert sum(seen[part] for part in parts) >= 5000

    def test_a_singleton_runs_no_flow_and_a_full_q_set_one(self, monkeypatch):
        """A member ``{u}`` is decided with no flow, a full ``q[u]`` with one
        flow from ``u`` into the root, capped at ``k + 2``, and a proper
        ``q[u]`` with at most one per other vertex of the member."""
        flows = []
        real = separator.max_flow_min_cut

        def counted(g, sources, sinks, limit=None, **kwargs):
            flows.append((tuple(sources), tuple(v for v, t in enumerate(sinks) if t), limit))
            return real(g, sources, sinks, limit, **kwargs)

        seen = Counter()
        for h, o, fam, side, member, u in itertools.chain(augment_safe_tests(200), random_safe_tests(5, 300)):
            part = safe_branch(h, o, fam, side, member, u)
            is_safe = is_safe_source if side == "out" else is_safe_sink
            flows.clear()
            with monkeypatch.context() as patch:
                patch.setattr(separator, "max_flow_min_cut", counted)
                is_safe(h, o, fam, member, u)
            if part in ("full", "tight", "singleton"):
                assert flows == [], (part, side, member, u)
            elif part == "proper":
                assert 1 <= len(flows) <= len(member) - 1 and all(f[0] == (u,) for f in flows)
            else:
                assert flows == [((u,), (0,), fam.k + 2)], (part, side, member, u)
            seen[part] += 1
        assert all(seen[part] for part in ("singleton", "proper", "k+2", "holds", "cut"))

    def test_matches_networkx_above_the_oracle_bound(self):
        """The safe tests on every vertex of the endpoint sets of two paths
        of the n=64 scale recipe: the first whose source set holds more
        than one vertex but not all, and the last.  Between them they run
        the dangerous half on both sides, reach safe and unsafe vertices,
        and test a singleton and the full set.  With a full ``q[u]``, the
        one flow into the root reaches ``k + 2``, or stops at ``k + 1``
        with a cut that leaves ``u`` safe, or unsafe."""
        nx = pytest.importorskip("networkx")
        h = gen_instance(GenSpec(n=64, k=3, extra_edges=32, max_edge_size=4, seed=1))
        events = []
        augment_to(h, gen_orientation(h, mode="min-head"), 3, observer=events.append)
        first = next(e for e in events if 1 < len(e.result.s_set) < h.n)
        answers, parts = set(), set()
        for event in (first, events[-1]):
            o, fam, res = event.orientation, event.families, event.result
            k, qm, qp = nx_q_sets(nx, h, o)
            assert k == fam.k
            sides = (("out", res.s_set, qp, is_safe_source), ("in", res.t_set, qm, is_safe_sink))
            for side, member, q, is_safe in sides:
                for u in member:
                    got = is_safe(h, o, fam, member, u)
                    assert got == nx_safe_endpoint(nx, h, o, k, q, member, u, side), (event.level, side, u)
                    answers.add((side, len(member), got))
                    parts.add((safe_branch(h, o, fam, side, member, u), got))
        sizes = {size for _, size, _ in answers}
        assert {1, h.n} <= sizes and {("out", True), ("out", False), ("in", True), ("in", False)} <= {
            (side, got) for side, size, got in answers if 1 < size < h.n
        }
        assert {("k+2", True), ("cut", True), ("cut", False)} <= parts

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
        with pytest.raises(InvariantViolation, match=r"no safe source in VertexSet\(n=3, \{1\}\)"):
            find_safe_endpoint(h, o, fam, vs(3, [1]), "out")

    def test_tight_half_is_read_from_the_q_sets(self, monkeypatch):
        """The tight set that holds ``u`` and misses part of the member is
        ``q[u]`` itself, so the test rejects ``u`` without a flow."""
        flows = []
        real = separator.max_flow_min_cut

        def counted(*args, **kwargs):
            flows.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(separator, "max_flow_min_cut", counted)
        seen = 0
        for h, o, fam, side, member, u in tight_half_failures(5, 60):
            is_safe = is_safe_source if side == "out" else is_safe_sink
            flows.clear()
            assert not is_safe(h, o, fam, member, u)
            assert flows == [], (side, member, u)
            seen += 1
        assert seen >= 2

    def test_flows_cross_check_the_q_sets(self):
        """A q set widened to the full set passes the tight half, and the flow
        from ``u`` into the root then finds the tight set it hid."""
        seen = 0
        for h, o, fam, side, member, u in tight_half_failures(5, 60):
            if len(member) != 2:
                continue
            name = "q_plus" if side == "out" else "q_minus"
            q_sets = list(getattr(fam, name))
            q_sets[u] = VertexSet.full(h.n)
            widened = replace(fam, **{name: tuple(q_sets)})
            is_safe = is_safe_source if side == "out" else is_safe_sink
            message = (
                f"a set around {u} avoiding {re.escape(str(vs(h.n, [0])))} has {side}-degree {fam.k}, "
                f"but the q set of {u} is {re.escape(str(q_sets[u]))}"
            )
            with pytest.raises(InvariantViolation, match=message):
                is_safe(h, o, widened, member, u)
            seen += 1
        assert seen >= 2

    def test_flows_cross_check_a_proper_q_set(self):
        """A tight set holds ``u`` and misses ``v``.  Made the member set
        ``{u, v}``, with ``q[u]`` widened to every vertex but the root, a
        proper set, it passes the tight half, and the flow around ``u``
        avoiding ``v`` finds the tight set."""
        seen = 0
        for h, o in random_instances(11, 40, n_max=6, m_max=7):
            fam = compute_families(h, o)
            for side, members, name in (("out", "m_minus", "q_plus"), ("in", "m_plus", "q_minus")):
                q_sets = list(getattr(fam, name))
                pairs = [(u, v) for u in range(1, h.n) if not q_sets[u].is_full for v in range(1, h.n) if v not in q_sets[u]]
                if h.n < 4 or not pairs:
                    continue
                u, v = pairs[0]
                member, q_sets[u] = vs(h.n, [u, v]), VertexSet.full(h.n).remove(0)
                widened = replace(fam, **{members: (member,), name: tuple(q_sets)})
                is_safe = is_safe_source if side == "out" else is_safe_sink
                message = (
                    f"a set around {u} avoiding {re.escape(str(vs(h.n, [0, v])))} has {side}-degree {fam.k}, "
                    f"but the q set of {u} is {re.escape(str(q_sets[u]))}"
                )
                with pytest.raises(InvariantViolation, match=f"^{message}$"):
                    is_safe(h, o, widened, member, u)
                seen += 1
        assert seen >= 10

    def test_find_rejects_an_unknown_side(self):
        h, o = three_cycle()
        fam = compute_families(h, o)
        with pytest.raises(PreconditionError, match="side must be 'out' or 'in', not 'up'"):
            find_safe_endpoint(h, o, fam, vs(3, [1]), "up")

    @pytest.mark.parametrize("foreign", [None, "x", object()], ids=["None", "str", "object"])
    def test_a_foreign_check_or_member_set_is_a_precondition_error(self, foreign):
        """``compute_families``'s ``check`` must be an
        ``IncrementalConnectivity`` (``None``, its default, asks for none)
        and ``find_safe_endpoint``'s ``member_set`` a ``VertexSet`` of the
        hypergraph; anything else is refused before it is used."""
        h, o = three_cycle()
        fam = compute_families(h, o)
        message = re.escape(f"member_set must be a VertexSet over 0..2, not {foreign!r}")
        with pytest.raises(PreconditionError, match=f"^{message}$"):
            find_safe_endpoint(h, o, fam, foreign, "out")
        if foreign is None:
            assert compute_families(h, o, check=foreign) == fam
        else:
            message = f"check is a {type(foreign).__name__}, not an IncrementalConnectivity"
            with pytest.raises(PreconditionError, match=f"^{message}$"):
                compute_families(h, o, check=foreign)

    def test_no_safe_sink_names_the_member(self, monkeypatch):
        """On an infeasible target that every vertex's degree allows, the
        search at level 1, iteration 5 finds no safe sink in ``{4, 5}``."""
        h = gen_instance(GenSpec(n=6, k=1, extra_edges=5, max_edge_size=4, seed=119))
        last = []
        real = augment_module.compute_families

        def recorded(h, o, **kwargs):
            last[:] = [o, real(h, o, **kwargs)]
            return last[1]

        monkeypatch.setattr(augment_module, "compute_families", recorded)
        with pytest.raises(NotPartitionConnectedError):
            augment_to(h, gen_orientation(h, mode="min-head"), 2)
        o, fam = last
        with pytest.raises(InvariantViolation) as info:
            find_safe_endpoint(h, o, fam, vs(6, [4, 5]), "in")
        assert str(info.value) == (
            "no safe sink in VertexSet(n=6, {4, 5}): "
            "instance is not sufficiently partition-connected, or bug"
        )

    def test_requires_family_membership(self):
        h, o = three_cycle()
        fam = compute_families(h, o)
        with pytest.raises(PreconditionError):
            is_safe_source(h, o, fam, vs(3, [1, 2]), 1)

    def test_find_returns_smallest_safe(self):
        for h, o, k in feasible_instances(5551, 80, n_max=6, m_max=7):
            fam = compute_families(h, o)
            for s_set in fam.m_minus:
                u = find_safe_endpoint(h, o, fam, s_set, "out")
                assert u == min(w for w in s_set if bf_safe_source(h, o, fam, s_set, w))
            for t_set in fam.m_plus:
                u = find_safe_endpoint(h, o, fam, t_set, "in")
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
                            t = find_safe_endpoint(h, o, fam, t_set, "in")
                            assert fam.q_minus[t] == region
                            hits_in += 1
                if is_out_tight(h, o, k, region):
                    for s_set in fam.m_minus:
                        if s_set <= region and not s_set.is_full:
                            s = find_safe_endpoint(h, o, fam, s_set, "out")
                            assert fam.q_plus[s] == region
                            hits_out += 1
        assert hits_in >= 3 and hits_out >= 3

    @staticmethod
    def member_q_pairs(fam):
        """``(x, q)`` for every proper member ``x`` of ``m_plus`` and
        ``m_minus`` and every ``v`` in it, with ``q`` the opposite q set of
        ``v``: ``q_minus[v]`` for ``m_plus``, ``q_plus[v]`` for ``m_minus``."""
        for members, q_opp in ((fam.m_plus, fam.q_minus), (fam.m_minus, fam.q_plus)):
            for x in members:
                if not x.is_full:
                    yield from ((x, q_opp[v]) for v in x)

    def test_crossing_lemma_by_brute_force(self):
        """The lemma ``compute_families`` reads its ``r_family`` candidates
        by: the opposite q set of every vertex of a proper minimal member
        holds the member or lies strictly inside it, never crosses it."""
        kinds = {"full": 0, "holds": 0, "inside": 0}
        for h, o in random_instances(28, 1500, n_max=6, m_max=7, size_max=4):
            for x, q in self.member_q_pairs(bf_families(h, o)):
                assert x <= q or q < x, (h, o, x, q)
                kinds["full" if q.is_full else "holds" if x <= q else "inside"] += 1
        assert min(kinds.values()) > 50

    def test_crossing_lemma_above_the_oracle_bound(self):
        """The same, on states along augmentations at n = 40 to 64, with
        every q set from the eager reference's per-vertex searches."""
        proper = 0
        for n in (40, 48, 64):
            h = gen_instance(GenSpec(n=n, k=3, extra_edges=n // 2, max_edge_size=4, seed=n))
            events = []
            augment_to(h, gen_orientation(h, mode="min-head"), 3, observer=events.append)
            for event in events[:: max(1, len(events) // 4)][:4]:
                for x, q in self.member_q_pairs(eager_families(h, event.orientation)):
                    assert x <= q or q < x, (n, x, q)
                    proper += not q.is_full
        assert proper > 20

    def test_safe_to_safe_cuts_exceed_level(self):
        hits = 0
        for h, o, k in feasible_instances(117, 100, n_max=6, m_max=7):
            fam = compute_families(h, o)
            for region in fam.r_family:
                s_sets = [x for x in fam.m_minus if x <= region]
                t_sets = [x for x in fam.m_plus if x <= region]
                if not s_sets or not t_sets:
                    continue
                s = find_safe_endpoint(h, o, fam, s_sets[0], "out")
                t = find_safe_endpoint(h, o, fam, t_sets[0], "in")
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
