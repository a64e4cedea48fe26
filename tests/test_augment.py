from dataclasses import replace
from enum import IntEnum

import pytest

from hyperorient import (
    AdmissiblePath,
    GenSpec,
    Hyperpath,
    InvariantViolation,
    NotPartitionConnectedError,
    Orientation,
    Partition,
    PathArc,
    PreconditionError,
    ReorientationStep,
    ReorientationTrace,
    VerifyFailure,
    VerifyReport,
    VertexSet,
    apply_trace,
    augment_to,
    bf_lambda,
    crossing_edges,
    format_hypergraph,
    format_trace,
    gen_instance,
    gen_orientation,
    hyperarc_connectivity,
    hypergraph,
    out_degree,
    parse_trace,
    reorient,
    separator,
    verify_trace,
)
from hyperorient import augment as augment_module
from hyperorient.cli import cli
from corpus import random_instances


def doubled_triangle_flat():
    # both copies of {0,1} toward 1, both {1,2} toward 2, both {0,2} toward 2
    h = hypergraph(3, [(0, 1), (0, 1), (1, 2), (1, 2), (0, 2), (0, 2)])
    return h, Orientation(h, (1, 1, 2, 2, 2, 2))


class TestAugmentOne:
    def test_doubled_triangle_single_increment(self):
        h, o = doubled_triangle_flat()
        assert hyperarc_connectivity(h, o) == 0
        trace = augment_to(h, o, 1)
        o2 = apply_trace(trace)
        assert trace.lambda_initial == 0
        assert trace.lambda_final == 1
        assert hyperarc_connectivity(h, o2) == 1
        assert len(trace.steps) <= 27
        # recorded connectivities match an independent brute-force replay
        cur = o
        for step in trace.steps:
            cur = reorient(cur, step.edge, step.new_head)
            assert bf_lambda(h, cur) == step.lambda_after

    def test_non_int_targets_and_levels_rejected(self):
        """A float target would make a trace that verifies but that the
        trace format rejects, and a ``bool`` one counts as 0 or 1; the entry
        takes only a non-negative ``int``."""
        h, o = doubled_triangle_flat()
        for bad in (1.5, True, "2", None):
            with pytest.raises(PreconditionError, match="k_target must be a non-negative int"):
                augment_to(h, o, bad)
        assert augment_to(h, o, 2).k_target == 2

    def test_an_int_enum_target_gives_a_trace_that_verifies(self):
        """The trace holds the target as a plain ``int``, which the trace
        rule requires; it used to keep the enum, and ``verify_trace``
        rejected the solver's own trace."""
        h, o = doubled_triangle_flat()
        trace = augment_to(h, o, IntEnum("Level", "ONE TWO").TWO)
        assert type(trace.k_target) is int and trace == augment_to(h, o, 2)
        assert verify_trace(h, trace).ok

    def test_full_region_fallback_instance(self):
        h = hypergraph(3, [(1, 2), (1, 2), (0, 1), (0, 2)])
        o = Orientation(h, (2, 1, 0, 0))
        trace = augment_to(h, o, 1)
        assert trace.lambda_initial == 0 and trace.lambda_final == 1
        assert verify_trace(h, trace).ok

    def test_families_off_level_are_an_invariant_violation(self, monkeypatch):
        h, o = doubled_triangle_flat()
        o1 = apply_trace(augment_to(h, o, 1))  # connectivity 1
        real = augment_module.compute_families
        monkeypatch.setattr(
            augment_module, "compute_families", lambda h, o, **kwargs: replace(real(h, o, **kwargs), k=0)
        )
        with pytest.raises(InvariantViolation, match="level 1, iteration 1: families at 0"):
            augment_to(h, o1, 2)

    def test_a_check_off_the_level_after_its_cap_is_raised_is_an_invariant_violation(self, monkeypatch):
        """Each level raises the step check's cap to ``k + 1`` and then
        holds its value to ``k``; a ``raise_cap`` that leaves the value one
        off is caught before any path."""
        h, o = doubled_triangle_flat()
        raise_cap = separator.IncrementalConnectivity.raise_cap

        def one_off(self, cap):
            raise_cap(self, cap)
            self.value += 1
            return self.value

        monkeypatch.setattr(separator.IncrementalConnectivity, "raise_cap", one_off)
        with pytest.raises(InvariantViolation, match="^level 0 starts at connectivity 1$") as info:
            augment_to(h, o, 1)
        assert type(info.value) is InvariantViolation

    def test_a_path_arc_whose_head_moved_is_an_invariant_violation(self, monkeypatch):
        """Each arc of a path records the head its edge had when the path
        was found, and the level checks it before each step.  A path whose
        first reoriented arc (the last one on the in-tight branch, the
        first on the out-tight one) records a head the orientation does not
        have is caught, on either branch."""
        fired = []
        for name, first in (("admissible_path_in_tminus", -1), ("admissible_path_in_tplus", 0)):
            search = getattr(augment_module, name)

            def moved(h, o, fam, region, search=search, first=first, name=name):
                result = search(h, o, fam, region)
                arcs = list(result.path.arcs)
                arc = arcs[first]
                arcs[first] = replace(arc, head=next(v for v in h.edges[arc.edge] if v != o.heads[arc.edge]))
                fired.append(name)
                return replace(result, path=Hyperpath(tuple(arcs)))

            monkeypatch.setattr(augment_module, name, moved)
        cases = ((0, "min-head", "admissible_path_in_tminus"), (10, "random", "admissible_path_in_tplus"))
        for seed, mode, branch in cases:
            fired.clear()
            h = gen_instance(GenSpec(n=8, k=2, extra_edges=3, max_edge_size=4, seed=seed))
            with pytest.raises(InvariantViolation, match=r"^edge \d+ changed head mid-path$") as info:
                augment_to(h, gen_orientation(h, seed=seed, mode=mode), 2)
            assert type(info.value) is InvariantViolation and fired == [branch]

    def test_monotone_per_step(self):
        for h, o in [doubled_triangle_flat()]:
            trace = augment_to(h, o, 1)
            lams = [trace.lambda_initial] + [s.lambda_after for s in trace.steps]
            assert all(a <= b for a, b in zip(lams, lams[1:]))


class TestAugmentTo:
    def test_doubled_triangle_to_two(self):
        h, o = doubled_triangle_flat()
        trace = augment_to(h, o, 2)
        assert trace.lambda_final == 2
        assert len(trace.steps) <= 2 * 27
        assert hyperarc_connectivity(h, apply_trace(trace)) == 2
        assert verify_trace(h, trace).ok

    def test_target_at_current_level_is_empty(self):
        h, o = doubled_triangle_flat()
        trace = augment_to(h, o, 0)
        assert trace.steps == () and trace.lambda_final == 0
        assert verify_trace(h, trace).ok

    def test_target_below_current_rejected(self):
        h = hypergraph(3, [(0, 1), (1, 2), (0, 2)])
        o = Orientation(h, (1, 2, 0))
        with pytest.raises(PreconditionError):
            augment_to(h, o, 0)

    def test_insufficiently_connected_input_raises(self):
        h = hypergraph(3, [(0, 1), (1, 2), (0, 2)])
        o = Orientation(h, (1, 2, 0))
        with pytest.raises(NotPartitionConnectedError) as info:
            augment_to(h, o, 2)
        assert info.value.certificate == Partition(3, [[0], [1, 2]])
        assert crossing_edges(h, info.value.certificate) < 2 * 2

    def test_low_degree_rejected_before_any_flow(self, monkeypatch):
        h = gen_instance(GenSpec(n=8, k=2, extra_edges=3, max_edge_size=3, seed=1))
        o = gen_orientation(h, mode="min-head")
        degree = [sum(v in e for e in h.edges) for v in range(h.n)]

        def no_flow(*args, **kwargs):
            raise AssertionError("a flow ran before the degrees were checked")

        monkeypatch.setattr(separator, "max_flow_min_cut", no_flow)
        target = min(degree) // 2 + 1
        v = min(v for v in range(h.n) if degree[v] < 2 * target)
        assert v > 0  # vertex 0 passes, so the certificate names the first vertex that fails
        message = f"vertex {v} lies in {degree[v]} hyperedges, fewer than 2 \\* {target}"
        with pytest.raises(NotPartitionConnectedError, match=message) as info:
            augment_to(h, o, target)
        assert info.value.certificate == Partition(h.n, [[v], [x for x in range(h.n) if x != v]])
        assert crossing_edges(h, info.value.certificate) == degree[v] < 2 * target

    def test_a_degree_certificate_that_does_not_hold_is_an_invariant_violation(self, monkeypatch):
        """The partition that cuts off a low-degree vertex is counted again
        with ``crossing_edges`` before it is raised.  A count of
        ``2 * target`` or more means the one-pass edge count was wrong, not
        the input."""
        h = gen_instance(GenSpec(n=8, k=2, extra_edges=3, max_edge_size=3, seed=1))
        degree = [sum(v in e for e in h.edges) for v in range(h.n)]
        target = min(degree) // 2 + 1
        v = min(v for v in range(h.n) if degree[v] < 2 * target)
        monkeypatch.setattr(augment_module, "crossing_edges", lambda h, p: 2 * target)
        with pytest.raises(InvariantViolation, match=f"^the degree certificate of vertex {v} does not hold$"):
            augment_to(h, gen_orientation(h, mode="min-head"), target)

    def test_low_degree_matches_the_singleton_degrees(self):
        """The one-pass edge count rejects exactly when some singleton's
        ``degree`` is below ``2 * target``, and names the smallest such
        vertex, on instances with repeated and wide edges."""
        from hyperorient import degree

        seen = set()
        for h, o in random_instances(126, 40, n_max=6, m_max=8):
            degrees = [degree(h, VertexSet.singleton(h.n, v)) for v in range(h.n)]
            for target in range(1, max(degrees) // 2 + 2):
                low = [v for v in range(h.n) if degrees[v] < 2 * target]
                try:
                    augment_module._reject_low_degree(h, target)
                except NotPartitionConnectedError as exc:
                    assert low and str(exc).startswith(f"vertex {low[0]} lies in {degrees[low[0]]} hyperedges")
                    seen.add(low[0])
                else:
                    assert not low
        assert len(seen) > 2

    def test_guard_names_level_iteration_and_region(self):
        """A guard that fires in the path loop says where: here the wrapped
        search's ``find_safe_endpoint`` finds no safe sink, on an infeasible
        target that every vertex's degree allows, so no certificate is at
        hand."""
        h = gen_instance(GenSpec(n=6, k=1, extra_edges=5, max_edge_size=4, seed=119))
        o = gen_orientation(h, mode="min-head")
        with pytest.raises(NotPartitionConnectedError) as info:
            augment_to(h, o, 2)
        assert str(info.value).startswith(
            "level 1, iteration 5, region VertexSet(n=6, {0, 1, 2, 3, 4, 5}): no safe sink in VertexSet(n=6, {4, 5})"
        )
        assert info.value.certificate is None

    def test_potential_guard_names_level_iteration_and_region(self, monkeypatch):
        h = gen_instance(GenSpec(n=10, k=3, extra_edges=4, max_edge_size=4, seed=2))
        o = gen_orientation(h, mode="min-head")
        first = []
        real = augment_module.compute_families

        def stuck(h, o, **kwargs):  # the first families, over and over
            first.append(real(h, o, **kwargs))
            return first[0]

        monkeypatch.setattr(augment_module, "compute_families", stuck)
        with pytest.raises(NotPartitionConnectedError) as info:
            augment_to(h, o, 1)
        assert str(info.value).startswith(
            f"level 0, iteration 2, region {first[0].r_family[0]}: families potential did not decrease"
        )

    def test_a_connectivity_drop_carries_the_cut_its_step_lowered(self, monkeypatch):
        """A step that lowers the connectivity is the fail-fast guard of an
        infeasible input.  Here both patched searches hand level 1 a one-arc
        path that turns edge 2 from head 5 to head 0, which drops the
        connectivity to 0.  Only sets that hold 0 and miss 5 dropped, so the
        certificate is the minimal ``0 -> 5`` cut after the step: it holds
        0, misses 5 and has out-degree 0.  A cut that disagrees with the
        step check, or that does not have the check's out-degree, is an
        :class:`InvariantViolation` naming the step."""
        h = gen_instance(GenSpec(n=6, k=2, extra_edges=3, seed=1))
        cur = apply_trace(augment_to(h, gen_orientation(h, mode="min-head"), 1))
        assert hyperarc_connectivity(h, cur) == 1 and cur.heads[2] == 5
        path = Hyperpath((PathArc(edge=2, tail=0, head=5),))
        drop = AdmissiblePath(VertexSet.singleton(h.n, 0), VertexSet.singleton(h.n, 5), 0, 5, path)
        for search in ("admissible_path_in_tminus", "admissible_path_in_tplus"):
            monkeypatch.setattr(augment_module, search, lambda *args: drop)
        with pytest.raises(NotPartitionConnectedError) as info:
            augment_to(h, cur, 2)
        assert str(info.value).startswith("level 1, iteration 1, region ")
        assert str(info.value).endswith(": connectivity dropped to 0 during a path")
        x = info.value.certificate
        assert isinstance(x, VertexSet) and 0 in x and 5 not in x
        assert out_degree(h, reorient(cur, 2, 0), x) == 0
        flows = []
        flow, step_check = separator.max_flow_min_cut, separator.IncrementalConnectivity.reorient

        def recorded(g, sources, sinks, limit=None, *, residual, forward=True):
            flows.append((list(sources), [v for v, sink in enumerate(sinks) if sink]))
            return flow(g, sources, sinks, limit, residual=residual, forward=forward)

        def step_then_clear(self, e, new_head):
            value = step_check(self, e, new_head)
            flows.clear()
            return value

        monkeypatch.setattr(separator, "max_flow_min_cut", recorded)
        monkeypatch.setattr(separator.IncrementalConnectivity, "reorient", step_then_clear)
        with pytest.raises(NotPartitionConnectedError):
            augment_to(h, cur, 2)
        assert flows == [([0], [5])]  # the drop runs one flow, not a sink sequence
        for cut, message in (
            ((1, x), "the step check reads 0, connectivity is 1"),
            ((0, x.complement()), r"the certificate VertexSet\(.*\) has out-degree \d+, not 0"),
        ):
            monkeypatch.setattr(augment_module, "min_separator", lambda *args, cut=cut, **kwargs: cut)
            with pytest.raises(InvariantViolation, match=f", step 1: {message}$") as info:
                augment_to(h, cur, 2)
            assert str(info.value).startswith("level 1, iteration 1, region ")

    def test_low_degree_rejected_by_the_cli_with_a_certificate(self, capsys, tmp_path):
        hg = tmp_path / "h.hg"
        hg.write_text(format_hypergraph(gen_instance(GenSpec(n=8, k=2, seed=1))))
        code = cli(["orient", "--input", str(hg), "--target-k", "99999999999"])
        err = capsys.readouterr().err
        assert code == 1 and "Traceback" not in err
        assert "fewer than 2 * 99999999999" in err
        assert any(line.startswith("certificate: Partition(") for line in err.splitlines())

    def test_one_step_check_per_run(self, monkeypatch):
        builds = []
        real_init = separator.IncrementalConnectivity.__init__

        def counted(self, *args, **kwargs):
            builds.append(args)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(separator.IncrementalConnectivity, "__init__", counted)
        h = gen_instance(GenSpec(n=10, k=3, extra_edges=4, max_edge_size=4, seed=2))
        o = gen_orientation(h, mode="min-head")
        lam0 = hyperarc_connectivity(h, o)
        trace = augment_to(h, o, 3)
        assert trace.lambda_final == 3 > lam0 + 1 and verify_trace(h, trace).ok
        assert len(builds) == 1
        builds.clear()
        assert augment_to(h, apply_trace(trace), 3).steps == () and builds == []

    def test_deterministic(self):
        h, o = doubled_triangle_flat()
        assert augment_to(h, o, 2) == augment_to(h, o, 2)

    def test_observer_sees_each_path(self):
        h, o = doubled_triangle_flat()
        events = []
        augment_to(h, o, 2, observer=events.append)
        assert events
        for ev in events:
            assert ev.branch in ("in-tight", "out-tight")
            assert ev.region in ev.families.r_family

    def test_emitted_step_order_matches_region_side(self):
        # end-to-start inside an in-tight region, start-to-end inside an
        # out-tight one; paths may be cut short when the target is reached
        import random

        from hyperorient import GenSpec, gen_instance, gen_orientation

        rng = random.Random(64)
        checked = 0
        for i in range(30):
            spec = GenSpec(
                n=rng.randint(3, 8), k=rng.randint(1, 2),
                extra_edges=rng.randint(0, 3), seed=i,
            )
            h = gen_instance(spec)
            o = gen_orientation(h, mode="min-head")
            events = []
            trace = augment_to(h, o, spec.k, observer=events.append)
            idx = 0
            for ev in events:
                arcs = ev.result.path.arcs
                expected = tuple(reversed(arcs)) if ev.branch == "in-tight" else arcs
                for arc in expected:
                    step = trace.steps[idx]
                    assert (step.edge, step.old_head, step.new_head) == (
                        arc.edge,
                        arc.head,
                        arc.tail,
                    )
                    idx += 1
                    checked += 1
                    if step.lambda_after > ev.level:
                        break  # level ended mid-path
            assert idx == len(trace.steps)
        assert checked >= 30


class TestVerifyTrace:
    def test_valid_trace_passes(self):
        h, o = doubled_triangle_flat()
        trace = augment_to(h, o, 2)
        report = verify_trace(h, trace)
        assert report.ok and report.render() == "trace OK"

    def test_verifier_does_not_use_the_incremental_check(self, monkeypatch):
        h, o = doubled_triangle_flat()
        trace = augment_to(h, o, 2)

        def broken(*args, **kwargs):
            raise AssertionError("the incremental check was called")

        monkeypatch.setattr(separator, "IncrementalConnectivity", broken)
        monkeypatch.setattr(augment_module, "IncrementalConnectivity", broken)
        with pytest.raises(AssertionError, match="incremental check"):
            augment_to(h, o, 2)
        report = verify_trace(h, trace)
        assert report.ok and len(trace.steps) > 0

    def test_wrong_lambda_detected_at_step(self):
        h, o = doubled_triangle_flat()
        trace = augment_to(h, o, 1)
        steps = list(trace.steps)
        bad = steps[0]
        steps[0] = ReorientationStep(bad.edge, bad.old_head, bad.new_head, bad.lambda_after + 1)
        tampered = ReorientationTrace(o, trace.k_target, trace.lambda_initial, trace.lambda_final, tuple(steps))
        report = verify_trace(h, tampered)
        assert not report.ok
        assert any(f.step == 1 for f in report.failures)

    def test_wrong_old_head_detected(self):
        h, o = doubled_triangle_flat()
        trace = augment_to(h, o, 1)
        steps = list(trace.steps)
        bad = steps[-1]
        other = next(v for v in h.edges[bad.edge] if v not in (bad.old_head,))
        steps[-1] = ReorientationStep(bad.edge, other, bad.new_head, bad.lambda_after)
        tampered = ReorientationTrace(o, trace.k_target, trace.lambda_initial, trace.lambda_final, tuple(steps))
        assert not verify_trace(h, tampered).ok

    def test_unreached_target_detected(self):
        h, o = doubled_triangle_flat()
        trace = augment_to(h, o, 1)
        inflated = ReorientationTrace(o, 2, trace.lambda_initial, trace.lambda_final, trace.steps)
        report = verify_trace(h, inflated)
        assert not report.ok
        assert any("below target" in f.message for f in report.failures)

    def test_overlong_trace_rejected_before_replay(self, monkeypatch):
        # 400 legal flips of one edge on n = 3, bound (2 - 0) * 3^3 = 54
        h = hypergraph(3, [(0, 1), (1, 2), (0, 2)])
        o = Orientation(h, (1, 2, 0))
        steps = tuple(
            ReorientationStep(0, 1, 0, 0) if i % 2 == 0 else ReorientationStep(0, 0, 1, 0)
            for i in range(400)
        )
        forged = ReorientationTrace(o, 2, 0, 2, steps)

        def no_flow(*args, **kwargs):
            raise AssertionError("a flow ran before the step bound was checked")

        monkeypatch.setattr(separator, "max_flow_min_cut", no_flow)
        report = verify_trace(h, forged)
        assert [(f.step, f.message) for f in report.failures] == [
            (None, "400 steps exceed the bound 54")
        ]

    def test_non_int_fields_rejected_before_replay(self, monkeypatch):
        """A field that is not an ``int`` (a ``bool`` is not one either) is
        named before any flow runs, by ``parse_trace``'s rule: a float edge
        or head would crash the replay, and a float connectivity would pass
        a trace that the text format rejects."""
        h, o = doubled_triangle_flat()
        trace = augment_to(h, o, 1)
        last = len(trace.steps)

        def with_step(i, **changes):
            steps = list(trace.steps)
            steps[i - 1] = replace(steps[i - 1], **changes)
            return replace(trace, steps=tuple(steps))

        cases = [
            (with_step(1, edge=float(trace.steps[0].edge)), 1, "edge"),
            (with_step(1, new_head=float(trace.steps[0].new_head)), 1, "new_head"),
            (with_step(last, lambda_after=1.0), last, "lambda_after"),
            (replace(trace, lambda_initial=0.0), None, "lambda_initial"),
            (replace(trace, k_target=True), None, "k_target"),
        ]

        def no_flow(*args, **kwargs):
            raise AssertionError("a flow ran before the fields were checked")

        monkeypatch.setattr(separator, "max_flow_min_cut", no_flow)
        for bad, step, name in cases:
            value = getattr(bad, name) if step is None else getattr(bad.steps[step - 1], name)
            assert verify_trace(h, bad).failures == (VerifyFailure(step, f"{name} is {value!r}, not an int"),)
        monkeypatch.undo()
        for bad, _, _ in cases:  # format_trace refuses each, with the text of verify_trace's report
            (failure,) = verify_trace(h, bad).failures
            with pytest.raises(PreconditionError) as info:
                format_trace(bad)
            assert str(info.value) == VerifyReport((failure,)).render()

    def test_malformed_trace_objects_rejected_before_replay(self, monkeypatch):
        """A trace built in Python that is no ``ReorientationTrace``, or
        does not start from an ``Orientation``, is refused, and ``steps`` that are not a tuple of steps are named in
        the report, before any flow runs.  Each used to raise a raw
        ``AttributeError`` or ``TypeError``."""
        h, o = doubled_triangle_flat()
        step = augment_to(h, o, 1).steps[0]

        def no_flow(*args, **kwargs):
            raise AssertionError("a flow ran before the steps were checked")

        monkeypatch.setattr(separator, "max_flow_min_cut", no_flow)
        for bad in (None, (o, 1, 0, 1, ()), ReorientationTrace(None, 1, 0, 1, ())):
            with pytest.raises(PreconditionError, match="^trace must be a ReorientationTrace that starts from an Orientation"):
                verify_trace(h, bad)
        cases = [
            (("x",), VerifyFailure(1, "step is a str, not a ReorientationStep")),
            ((step, None), VerifyFailure(2, "step is a NoneType, not a ReorientationStep")),
            (None, VerifyFailure(None, "steps is a NoneType, not a tuple")),
            ([step], VerifyFailure(None, "steps is a list, not a tuple")),
        ]
        for steps, failure in cases:
            assert verify_trace(h, ReorientationTrace(o, 2, 0, 2, steps)).failures == (failure,)

    def test_foreign_start_and_edge_id_out_of_range_reported(self):
        h, o = doubled_triangle_flat()
        trace = augment_to(h, o, 1)
        other = hypergraph(3, [(0, 1), (0, 1), (1, 2), (1, 2), (0, 2)])
        assert verify_trace(other, trace).failures == (
            VerifyFailure(None, "trace initial orientation is for a different hypergraph"),
        )
        steps = list(trace.steps)
        steps[-1] = replace(steps[-1], edge=h.m)
        report = verify_trace(h, replace(trace, steps=tuple(steps)))
        assert report.failures == (VerifyFailure(len(steps), f"edge id {h.m} out of range"),)

    def test_trace_helpers_refuse_malformed_traces(self):
        """``apply_trace`` refuses, by ``verify_trace``'s own rule, what that
        refuses or reports before any replay; ``format_trace`` refuses a
        trace that is none or holds a step that is none, and ``parse_trace``
        an ``initial`` that is no orientation.  Each used to raise a raw
        ``AttributeError``."""
        h, o = doubled_triangle_flat()
        trace = augment_to(h, o, 1)

        def refused(call, message):
            with pytest.raises(PreconditionError) as info:
                call()
            assert type(info.value) is PreconditionError and str(info.value) == message

        for bad in (None, ReorientationTrace(None, 1, 0, 1, ())):
            with pytest.raises(PreconditionError, match="^trace must be a ReorientationTrace that"):
                verify_trace(h, bad)
            for helper in (apply_trace, format_trace):
                refused(lambda: helper(bad), "trace must be a ReorientationTrace that starts from an Orientation")
        for bad in (
            ReorientationTrace(o, 1, 1, 1, ("x",)),
            replace(trace, lambda_final=1.0),
            replace(trace, steps=list(trace.steps)),
        ):
            (failure,) = verify_trace(h, bad).failures
            where = "trace" if failure.step is None else f"step {failure.step}"
            refused(lambda: apply_trace(bad), f"FAIL {where}: {failure.message}")
        refused(lambda: format_trace(ReorientationTrace(o, 1, 1, 1, ("x",))), "FAIL step 1: step is a str, not a ReorientationStep")
        refused(lambda: format_trace(replace(trace, steps=None)), "FAIL trace: steps is a NoneType, not a tuple")
        refused(lambda: parse_trace(format_trace(trace), None), "initial is a NoneType, not an Orientation")

    def test_empty_trace_on_connected_input_passes(self):
        h = hypergraph(3, [(0, 1), (1, 2), (0, 2)])
        o = Orientation(h, (1, 2, 0))
        trace = ReorientationTrace(o, 1, 1, 1, ())
        assert verify_trace(h, trace).ok

    def test_roundtrip_through_text(self):
        h, o = doubled_triangle_flat()
        trace = augment_to(h, o, 2)
        assert parse_trace(format_trace(trace), o) == trace


class TestRandomFeasible:
    def test_small_random_corpus_end_to_end(self):
        from hyperorient import bf_partition_connected

        done = 0
        for h, o in random_instances(95623, 60, n_max=6, m_max=8):
            if h.n > 8:
                continue
            lam = bf_lambda(h, o)
            if not bf_partition_connected(h, lam + 1)[0]:
                continue
            trace = augment_to(h, o, lam + 1)
            o2 = apply_trace(trace)
            assert trace.lambda_final == lam + 1
            assert bf_lambda(h, o2) == lam + 1
            assert verify_trace(h, trace).ok
            done += 1
        assert done >= 10
