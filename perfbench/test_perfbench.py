"""Tests of the benchmark itself, on reduced sizes so they take seconds.

Run with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import dataclasses
import importlib
import json

import pytest

import run
import spans
from stopwatch import Stopwatch
from workloads import Tally, load_workloads, setup

ho = run.load_package()
MANIFEST = run.load_manifest()
DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# Same kinds, starts and levels as the full workloads, at a fraction of the size.
REDUCED = {
    "augment-deep": dict(n=10, extra_edges=3, instances=1),
    "query-families": dict(n=14, extra_edges=6, instances=2),
}


def reduced(name: str):
    return dataclasses.replace(load_workloads(MANIFEST)[name], **REDUCED[name])


def untraced(name: str, seed: int = 1, expected: str | None = None):
    w = reduced(name)
    inputs = setup(ho, w, seed)
    tally = Tally()
    passes = run.Passes(name, expected, tally)
    run.measure(ho, w, inputs, 0, passes, Stopwatch(MANIFEST["reference_probe_s"]))
    return w, inputs, passes, tally


def boundary_objects():
    """The callable at every boundary the tracer patches, by (module, name)."""
    out = {}
    for mod, attr, _, _ in spans.BOUNDARIES:
        module = importlib.import_module(f"hyperorient.{mod}" if mod else "hyperorient")
        out[(module.__name__, attr)] = getattr(module, attr)
    return out


def test_workloads_match_benchmark_declaration():
    assert [w["name"] for w in DECLARED["workloads"]] == list(MANIFEST["workloads"])
    assert set(REDUCED) == set(MANIFEST["workloads"])


@pytest.mark.parametrize("name", sorted(REDUCED))
def test_smoke_pass_is_correct(name):
    w, _, passes, tally = untraced(name)
    assert tally.attempted >= 1
    assert tally.failed == 0, tally.reasons
    assert len(passes.scaled) == 1 and passes.scaled[0]["work_s"] > 0
    if w.kind == "augment":
        assert passes.steps[0] > 0


def test_digest_mismatch_counts_as_failure():
    _, _, _, tally = untraced("augment-deep", expected="0" * 64)
    assert tally.failed == 1
    assert "recorded digest" in tally.reasons[0]


def test_untraced_run_uses_the_package_callables():
    before = boundary_objects()
    assert len(before) == len(spans.BOUNDARIES)
    for name in REDUCED:
        untraced(name)
    after = boundary_objects()
    assert all(after[key] is before[key] for key in before)
    assert not any(hasattr(fn, "traced_by") for fn in after.values())


def traced_counters(name: str) -> dict:
    w, inputs, passes, tally = untraced(name)
    before = boundary_objects()
    metrics = run.traced_pass(ho, w, inputs, passes, Stopwatch(MANIFEST["reference_probe_s"]), None)
    after = boundary_objects()
    assert all(after[key] is before[key] for key in before), "tracer left a wrapper installed"
    assert tally.failed == 0, tally.reasons
    return metrics


@pytest.mark.parametrize("name", sorted(REDUCED))
def test_traced_counters_repeat_exactly(name):
    first = traced_counters(name)
    second = traced_counters(name)
    counts = {k: v for k, v in first.items() if not k.endswith(("_s", "_share"))}
    assert counts == {k: second[k] for k in counts}
    assert first["separator.flow_calls"] > 0 and first["families.compute_calls"] > 0
    declared = {m["name"] for m in DECLARED["per_layer"]}
    assert declared <= set(first)
    assert all(first[k] is not None for k in declared)
    assert 0 < first["separator.flow_share"] < 1


def test_traced_attribution_covers_augment_layers():
    m = traced_counters("augment-deep")
    assert m["augment.levels"] >= 1 and m["augment.paths"] >= 1
    assert m["augment.step_check_flow_calls"] > 0 and m["augment.verify_flow_calls"] > 0
    assert m["families.lambda_recomputes"] == m["families.compute_calls"]
    assert m["core.reorient_calls"] >= 2 * m["augment.trace_steps"]
    assert m["toolkit.format_trace_s"] > 0 and m["toolkit.parse_trace_s"] > 0


def test_absent_boundary_reads_absent(monkeypatch):
    monkeypatch.delattr(ho.augment, "reorient")
    tracer = spans.Tracer()
    with tracer.installed():
        pass
    assert spans.REORIENT in tracer.absent
    m = spans.layer_metrics(tracer, steps=0, paths=0)
    assert m["core.reorient_calls"] is None and m["separator.flow_calls"] == 0
