"""``compute_families`` computes the q sets on read and finds the minimal
families by an early-exit descent.  These tests hold it to the eager
reference (``eager_families``, which reads a flow per root pair from an
``IncrementalConnectivity``, where ``compute_families`` without a step
check runs flows only for the tight vertices that ``tight_reaches`` finds
with the connectivity), to the brute-force oracle within its bound, and to
an independent networkx reference above it, and check that the q sets a
kept ``PathEvent`` holds do not change when the step check moves on.
"""

from __future__ import annotations

import random
import sys
import threading
from dataclasses import replace

import pytest

from hyperorient import (
    GenSpec,
    PreconditionError,
    VertexSet,
    augment_to,
    bf_families,
    compute_families,
    gen_instance,
    gen_orientation,
    hyperarc_connectivity,
)
from hyperorient.families import QSets
from hyperorient.oracle import BF_MAX_N
from hyperorient.separator import IncrementalConnectivity, tight_reaches
from corpus import walk_states
from eager_families import eager_families
from nx_families import nx_family_mismatches

FIELDS = ("k", "r", "m_minus", "m_plus", "m_all", "r_family", "q_minus", "q_plus")


def as_tuples(fam):
    """The same families with the q sets as plain tuples."""
    return replace(fam, q_minus=tuple(fam.q_minus), q_plus=tuple(fam.q_plus))


class TestAgainstTheEagerReference:
    def test_every_field_on_gen_instance_walks(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @st.composite
        def walks(draw):
            n = draw(st.integers(3, 10))
            spec = GenSpec(
                n=n,
                k=draw(st.integers(1, 3)),
                extra_edges=draw(st.integers(0, n)),
                max_edge_size=draw(st.integers(2, min(4, n))),
                seed=draw(st.integers(0, 10**6)),
            )
            mode = draw(st.sampled_from(["min-head", "random"]))
            return spec, mode, draw(st.integers(0, 10**6)), draw(st.integers(0, 4))

        @hypothesis.settings(max_examples=60, derandomize=True, database=None, deadline=None)
        @hypothesis.given(walks(), st.randoms(use_true_random=False))
        def check(walk, rng):
            h, states = walk_states(*walk)
            for o in states:
                fam = compute_families(h, o)
                ref = eager_families(h, o)
                kept = IncrementalConnectivity(h, o, ref.k + 1)
                k, in_reaches, out_reaches = tight_reaches(h, o)
                assert k == ref.k
                assert (in_reaches.tight, out_reaches.tight) == (
                    kept.kept_reaches("in").tight,
                    kept.kept_reaches("out").tight,
                )
                order = [(side, v) for side in ("q_minus", "q_plus") for v in range(h.n)]
                rng.shuffle(order)
                for side, v in order:  # read in random order, each once
                    assert getattr(fam, side)[v] == getattr(ref, side)[v], (side, v)
                for name in FIELDS:
                    assert getattr(fam, name) == getattr(ref, name), name
                if h.n <= BF_MAX_N:
                    assert fam == bf_families(h, o)

        check()

    def test_along_augmentation_with_the_kept_check(self, monkeypatch):
        """Every call a run's levels make, with the step check they pass,
        against the eager computation from the same check."""
        from hyperorient import augment as augment_module

        real, calls = augment_module.compute_families, []

        def compared(h, o, *, check=None):
            fam = real(h, o, check=check)
            assert as_tuples(fam) == eager_families(h, o, check)
            calls.append(fam.k)
            return fam

        monkeypatch.setattr(augment_module, "compute_families", compared)
        for seed, mode in ((0, "min-head"), (7, "random")):
            h = gen_instance(GenSpec(n=12, k=3, extra_edges=6, max_edge_size=4, seed=seed))
            augment_to(h, gen_orientation(h, seed=seed, mode=mode), 3)
        assert len(calls) >= 20 and {0, 1, 2} <= set(calls)


class TestEqualityAndHash:
    def test_equal_to_tuples_both_ways(self):
        h = gen_instance(GenSpec(n=9, k=2, extra_edges=4, max_edge_size=3, seed=5))
        o = gen_orientation(h, seed=5)
        fam, ref = compute_families(h, o), eager_families(h, o)
        assert fam == ref and ref == fam
        assert fam.q_plus == ref.q_plus and ref.q_plus == fam.q_plus
        assert hash(fam) == hash(ref) == hash(as_tuples(fam))
        assert hash(fam.q_minus) == hash(ref.q_minus)
        assert {fam: 1}[ref] == 1
        other = list(ref.q_plus)
        v = next(v for v in range(1, h.n) if not other[v].is_full)
        other[v] = VertexSet.full(h.n)
        assert fam.q_plus != tuple(other) and tuple(other) != fam.q_plus
        assert fam != replace(ref, q_plus=tuple(other))
        assert fam.q_plus != list(ref.q_plus)

    def test_reads_like_a_tuple(self):
        h = gen_instance(GenSpec(n=8, k=2, extra_edges=4, max_edge_size=3, seed=2))
        o = gen_orientation(h, seed=2)
        q, ref = compute_families(h, o).q_minus, eager_families(h, o).q_minus
        assert isinstance(q, QSets) and len(q) == h.n
        assert q[-1] == ref[-1] and q[-h.n] == ref[0]
        assert q[2:5] == ref[2:5] and list(reversed(q)) == list(reversed(ref))
        assert ref[3] in q and q.index(ref[3]) == ref.index(ref[3])
        for bad in (h.n, -h.n - 1):
            with pytest.raises(IndexError):
                q[bad]
        with pytest.raises(TypeError):
            q["1"]
        with pytest.raises(TypeError):
            q[1] = ref[1]
        assert repr(q) == f"QSets({ref!r})"

    def test_each_entry_is_one_search_at_most(self, monkeypatch):
        """The descent finds the minimal families with at most one search
        per vertex and side and leaves some q sets unread; each of those
        is one search on its first read and none after.  Each
        ``r_family`` candidate is a read of one q entry, at the member's
        smallest vertex: one search when the entry is unset, and none when
        the descent has set it already.  Every entry that no tight set
        holds is the sequence's one full set, not a new one per read."""
        from hyperorient import separator

        h = gen_instance(GenSpec(n=40, k=3, extra_edges=20, max_edge_size=4, seed=1))
        o = gen_orientation(h, mode="min-head")
        ref = eager_families(h, o)
        searches, reads = [], []
        reach, getitem = separator.KeptReaches.reach, QSets.__getitem__

        def counted(self, v, stop=None):
            searches.append(v)
            return reach(self, v, stop)

        def read(self, v):
            was_set, before = self._sets[v] is not None, len(searches)
            q = getitem(self, v)
            reads.append((v, was_set, len(searches) - before))
            return q

        monkeypatch.setattr(separator.KeptReaches, "reach", counted)
        monkeypatch.setattr(QSets, "__getitem__", read)
        fam = compute_families(h, o)
        during = len(searches)
        members = [x for x in fam.m_minus + fam.m_plus if not x.is_full]
        assert sorted(v for v, _, _ in reads) == sorted(min(x) for x in members)
        assert all(ran == 0 for _, was_set, ran in reads if was_set)
        assert all(ran <= 1 for _, was_set, ran in reads if not was_set)
        assert {was_set for _, was_set, _ in reads} == {False, True}
        assert 0 < during - sum(ran for _, _, ran in reads) <= 2 * (h.n - 1)  # the descent's own
        assert fam == ref
        after = len(searches)
        assert during < after <= during + 2 * (h.n - 1)
        assert fam == ref and len(searches) == after
        assert (fam.q_minus._reaches, fam.q_plus._reaches) == (None, None)  # every entry set: snapshot let go
        fulls = [[x for x in q if x.is_full] for q in (fam.q_minus, fam.q_plus)]
        assert sum(map(len, fulls)) > 2 and all(len({id(x) for x in full}) <= 1 for full in fulls)  # one per sequence

    def test_threads_reading_one_sequence_agree(self):
        """Threads that fill the entries of one sequence at once, in one
        order, so that they race for each entry and for the last one, all
        read the eager sets, and none finds the snapshot let go before its
        own entry is set."""
        h = gen_instance(GenSpec(n=24, k=3, extra_edges=12, max_edge_size=4, seed=2))
        o = gen_orientation(h, seed=2)
        ref = eager_families(h, o)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for trial in range(40):
                fam = compute_families(h, o)
                results, errors = {}, []
                order = list(range(h.n))
                random.Random(trial).shuffle(order)

                def read(i):
                    try:
                        results[i] = [(v, fam.q_plus[v], fam.q_minus[v]) for v in order]
                    except Exception as exc:  # reported below, with the thread that raised it
                        errors.append((i, exc))

                threads = [threading.Thread(target=read, args=(i,)) for i in range(6)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads) and errors == []
                for rows in results.values():
                    assert all((qp, qm) == (ref.q_plus[v], ref.q_minus[v]) for v, qp, qm in rows)
                assert len(results) == 6
        finally:
            sys.setswitchinterval(switch)


class TestSnapshot:
    @staticmethod
    def stale_reads(h, o, k):
        """``(reads, mismatches)`` over every q set of every ``PathEvent``
        of ``augment_to(h, o, k)``, read only after the run, against a
        fresh ``compute_families`` on the event's orientation."""
        events = []
        augment_to(h, o, k, observer=events.append)
        reads, bad = 0, []
        for i, event in enumerate(events):
            fresh = compute_families(h, event.orientation)
            for name in ("q_plus", "q_minus"):
                kept, ref = getattr(event.families, name), getattr(fresh, name)
                for v in range(h.n):
                    reads += 1
                    if kept[v] != ref[v]:
                        bad.append((i, name, v))
        return reads, bad

    CASES = ((0, 12), (3, 14))

    @pytest.mark.parametrize("seed,n", CASES)
    def test_kept_events_read_their_own_state(self, seed, n):
        h = gen_instance(GenSpec(n=n, k=3, extra_edges=n // 2, max_edge_size=4, seed=seed))
        reads, bad = self.stale_reads(h, gen_orientation(h, mode="min-head"), 3)
        assert reads > 0 and bad == []

    def test_an_aliased_snapshot_fails(self, monkeypatch):
        """The same check on a snapshot that reads the live residuals of
        the step check must find stale q sets."""
        kept_reaches = IncrementalConnectivity.kept_reaches

        def aliased(self, side):
            reaches = kept_reaches(self, side)
            pair = (lambda v: (v, 0)) if side == "out" else (lambda v: (0, v))
            reaches._res = [r if r is None else self._res[self._pairs.index(pair(v))] for v, r in enumerate(reaches._res)]
            return reaches

        monkeypatch.setattr(IncrementalConnectivity, "kept_reaches", aliased)
        bad = []
        for seed, n in self.CASES:
            h = gen_instance(GenSpec(n=n, k=3, extra_edges=n // 2, max_edge_size=4, seed=seed))
            bad += self.stale_reads(h, gen_orientation(h, mode="min-head"), 3)[1]
        assert bad


class TestKeptReaches:
    def test_rejects_an_unknown_side_and_a_value_at_the_cap(self):
        h = gen_instance(GenSpec(n=6, k=1, extra_edges=2, max_edge_size=3, seed=1))
        o = gen_orientation(h, seed=1)
        k = hyperarc_connectivity(h, o)
        with pytest.raises(PreconditionError, match="side"):
            IncrementalConnectivity(h, o, k + 1).kept_reaches("up")
        with pytest.raises(PreconditionError, match="at the cap"):
            IncrementalConnectivity(h, o, k).kept_reaches("out")

    def test_a_reach_stops_at_vertex_0_unless_told_otherwise(self):
        h = gen_instance(GenSpec(n=10, k=1, extra_edges=4, max_edge_size=3, seed=9))
        o = gen_orientation(h, seed=9)
        check = IncrementalConnectivity(h, o, hyperarc_connectivity(h, o) + 1)
        ref = eager_families(h, o, check)
        for side, q in (("out", ref.q_plus), ("in", ref.q_minus)):
            reaches = check.kept_reaches(side)
            tight = [v for v in range(h.n) if reaches.tight[v]]
            assert tight and all(reaches.reach(v) == q[v] for v in tight)
            for v in tight:
                beyond = [w not in q[v] for w in range(h.n)]  # stop only outside q[v]: the same search
                inside = [w in q[v] and w != v for w in range(h.n)]
                assert reaches.reach(v, beyond) == q[v]
                assert (reaches.reach(v, inside) is None) == (len(q[v]) > 1)
            assert any(len(q[v]) > 1 for v in tight)

    def test_a_copy_outlives_a_reorientation(self):
        h = gen_instance(GenSpec(n=10, k=2, extra_edges=5, max_edge_size=3, seed=4))
        o = gen_orientation(h, mode="min-head")
        check = IncrementalConnectivity(h, o, hyperarc_connectivity(h, o) + 1)
        q = QSets(check.kept_reaches("out"))
        e = next(e for e in range(h.m) if len(h.edges[e]) > 1)
        check.reorient(e, max(h.edges[e]))
        assert q == eager_families(h, o).q_plus


def networkx_orientations(n, count):
    """``count`` orientations spread along one ``augment_to`` trace at
    ``n``, each with the families the augmentation computed for it, read
    after the run."""
    h = gen_instance(GenSpec(n=n, k=3, extra_edges=n // 2, max_edge_size=4, seed=1))
    events = []
    augment_to(h, gen_orientation(h, mode="min-head"), 3, observer=events.append)
    step = max(1, len(events) // count)
    return h, [(e.orientation, e.families) for e in events[::step][:count]]


def test_networkx_reference_above_the_oracle_bound():
    nx = pytest.importorskip("networkx")
    h, states = networkx_orientations(64, 4)
    assert h.n > BF_MAX_N and len({fam.k for _, fam in states}) > 1
    for o, fam in states:
        assert nx_family_mismatches(nx, h, o, fam) == []


def test_networkx_reference_sees_a_widened_q_set():
    nx = pytest.importorskip("networkx")
    h, [(o, fam)] = networkx_orientations(64, 1)
    q_plus = list(fam.q_plus)
    v = next(v for v in range(1, h.n) if not q_plus[v].is_full)
    w = next(w for w in range(1, h.n) if w not in q_plus[v])
    q_plus[v] = q_plus[v].add(w)
    problems = nx_family_mismatches(nx, h, o, replace(fam, q_plus=tuple(q_plus)))
    assert problems and problems[0].startswith(f"q_plus[{v}]")
    dropped = replace(fam, m_minus=fam.m_minus[1:])
    assert any(p.startswith("m_minus") for p in nx_family_mismatches(nx, h, o, dropped))


def test_networkx_reference_sees_a_wrong_r_family_member():
    nx = pytest.importorskip("networkx")
    h, [(o, fam)] = networkx_orientations(64, 1)
    x = fam.r_family[0]
    assert len(fam.r_family) > 1 and not x.is_full
    wider = x.add(next(w for w in range(1, h.n) if w not in x))
    planted = replace(fam, r_family=(wider,) + fam.r_family[1:])
    assert [p for p in nx_family_mismatches(nx, h, o, planted) if p.startswith("r_family")] != []
    dropped = replace(fam, r_family=fam.r_family[1:])
    assert [p.split()[0] for p in nx_family_mismatches(nx, h, o, dropped)] == ["r_family"]
