import pytest

from hyperorient import (
    GenSpec,
    InvariantViolation,
    NotPartitionConnectedError,
    Orientation,
    Partition,
    PreconditionError,
    ReorientationStep,
    ReorientationTrace,
    apply_trace,
    augment_one,
    augment_to,
    bf_lambda,
    crossing_edges,
    format_hypergraph,
    format_trace,
    gen_instance,
    gen_orientation,
    hyperarc_connectivity,
    hypergraph,
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
        o2, trace = augment_one(h, o)
        assert trace.lambda_initial == 0
        assert trace.lambda_final == 1
        assert hyperarc_connectivity(h, o2) == 1
        assert len(trace.steps) <= 27
        assert apply_trace(trace) == o2
        # recorded connectivities match an independent brute-force replay
        cur = o
        from hyperorient import reorient

        for step in trace.steps:
            cur = reorient(cur, step.edge, step.new_head)
            assert bf_lambda(h, cur) == step.lambda_after

    def test_already_above_level_is_empty(self):
        h = hypergraph(3, [(0, 1), (1, 2), (0, 2)])
        o = Orientation(h, (1, 2, 0))
        o2, trace = augment_one(h, o, level=0)
        assert o2 == o and trace.steps == ()
        assert trace.lambda_final == 1

    def test_level_above_connectivity_rejected(self):
        h, o = doubled_triangle_flat()
        with pytest.raises(PreconditionError):
            augment_one(h, o, level=1)

    def test_negative_level_rejected(self):
        h, o = doubled_triangle_flat()
        with pytest.raises(PreconditionError, match="level -1 is negative"):
            augment_one(h, o, level=-1)

    def test_full_region_fallback_instance(self):
        h = hypergraph(3, [(1, 2), (1, 2), (0, 1), (0, 2)])
        o = Orientation(h, (2, 1, 0, 0))
        o2, trace = augment_one(h, o)
        assert trace.lambda_initial == 0 and trace.lambda_final == 1
        assert verify_trace(h, trace).ok

    def test_families_off_level_are_an_invariant_violation(self, monkeypatch):
        h, o = doubled_triangle_flat()
        o1, _ = augment_one(h, o)  # connectivity 1
        real = augment_module.compute_families
        monkeypatch.setattr(
            augment_module, "compute_families", lambda h, o, level=None, **kwargs: real(h, o, level=0)
        )
        with pytest.raises(InvariantViolation, match="level 1, iteration 1: families at 0"):
            augment_one(h, o1)

    def test_monotone_per_step(self):
        for h, o in [doubled_triangle_flat()]:
            _, trace = augment_one(h, o)
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
        for run in (lambda: augment_to(h, o, target), lambda: augment_one(h, o, level=target - 1)):
            message = f"vertex {v} lies in {degree[v]} hyperedges, fewer than 2 \\* {target}"
            with pytest.raises(NotPartitionConnectedError, match=message) as info:
                run()
            assert info.value.certificate == Partition(h.n, [[v], [x for x in range(h.n) if x != v]])
            assert crossing_edges(h, info.value.certificate) == degree[v] < 2 * target

    def test_guard_names_level_iteration_and_region(self):
        """A guard that fires in the path loop says where: here the wrapped
        search finds no safe sink, on an infeasible target that every
        vertex's degree allows, so no certificate is at hand."""
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

        def stuck(h, o, level=None, **kwargs):  # the first families, over and over
            first.append(real(h, o, level, **kwargs))
            return first[0]

        monkeypatch.setattr(augment_module, "compute_families", stuck)
        with pytest.raises(NotPartitionConnectedError) as info:
            augment_to(h, o, 1)
        assert str(info.value).startswith(
            f"level 0, iteration 2, region {first[0].r_family[0]}: families potential did not decrease"
        )

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

    def test_step_check_for_another_orientation_rejected(self):
        h, o = doubled_triangle_flat()
        check = separator.IncrementalConnectivity(h, reorient(o, 0, 0), cap=1)
        with pytest.raises(PreconditionError, match="another orientation"):
            augment_one(h, o, level=0, check=check)
        check = separator.IncrementalConnectivity(h, o, cap=1)
        o1, trace = augment_one(h, o, level=0, check=check)
        assert check.heads == list(o1.heads) and check.value == trace.lambda_final == 1

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
            o2, trace = augment_one(h, o)
            assert trace.lambda_final == lam + 1
            assert bf_lambda(h, o2) == lam + 1
            assert verify_trace(h, trace).ok
            done += 1
        assert done >= 10
