"""Span tracing at the package's module boundaries, from outside the package.

A traced run replaces public callables where their caller looks them up
(``hyperorient.augment.compute_families`` is the name ``augment_one`` calls,
``hyperorient.augment_to`` the name the benchmark calls) with wrappers that
record one span per call: name, start, end, parent span and run id.  Spans
stay in memory; the per-layer metrics are computed from them afterwards.

Flows are attributed to a layer through the parent chain only, never
through private names, so a refactor that renames the package's internals
keeps the attribution.  A boundary the package no longer has is reported as
absent rather than as zero work.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager

FLOW = "separator.max_flow_min_cut"
BUILD = "separator.incidence_digraph"
CONNECTIVITY = "separator.hyperarc_connectivity"
COMPUTE_FAMILIES = "families.compute_families"
SAFE = ("families.is_safe_source", "families.is_safe_sink")
SEARCH = ("pathsearch.admissible_path_in_tminus", "pathsearch.admissible_path_in_tplus")
AUGMENT_ONE = "augment.augment_one"
AUGMENT_TO = "augment.augment_to"
VERIFY = "augment.verify_trace"
REORIENT = "core.reorient"
FORMAT_TRACE = "toolkit.format_trace"
PARSE_TRACE = "toolkit.parse_trace"

# The separator primitives; every other span is a layer span, and a
# primitive belongs to the layer of its nearest layer-span ancestor.
PRIMITIVES = frozenset((FLOW, BUILD))


def _flow_info(args, kwargs, result):
    g = args[0] if args else kwargs["g"]
    value, reach = result
    return (len(g.arcs), value, reach is None)


def _path_info(args, kwargs, result):
    return len(result.path.arcs)


def _bool_info(args, kwargs, result):
    return bool(result)


# (module, attribute, span name, extractor of per-call facts).  The module
# is the one whose global the caller reads; "" is the package itself, which
# is where the benchmark looks up its own entry points.
BOUNDARIES = (
    ("separator", "max_flow_min_cut", FLOW, _flow_info),
    ("separator", "incidence_digraph", BUILD, None),
    ("families", "hyperarc_connectivity", CONNECTIVITY, None),
    ("families", "is_safe_source", SAFE[0], _bool_info),
    ("families", "is_safe_sink", SAFE[1], _bool_info),
    ("augment", "hyperarc_connectivity", CONNECTIVITY, None),
    ("augment", "compute_families", COMPUTE_FAMILIES, None),
    ("augment", "admissible_path_in_tminus", SEARCH[0], _path_info),
    ("augment", "admissible_path_in_tplus", SEARCH[1], _path_info),
    ("augment", "augment_one", AUGMENT_ONE, None),
    ("augment", "reorient", REORIENT, None),
    ("", "augment_to", AUGMENT_TO, None),
    ("", "verify_trace", VERIFY, None),
    ("", "format_trace", FORMAT_TRACE, None),
    ("", "parse_trace", PARSE_TRACE, None),
    ("", "hyperarc_connectivity", CONNECTIVITY, None),
    ("", "compute_families", COMPUTE_FAMILIES, None),
    ("", "admissible_path_in_tminus", SEARCH[0], _path_info),
    ("", "admissible_path_in_tplus", SEARCH[1], _path_info),
)


class Tracer:
    """In-memory span recorder.

    Each span is ``[name, parent index, run id, start ns, end ns, info]``;
    the parent index is -1 for a span the benchmark itself opened.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.run = None
        self.absent: set[str] = set()
        self._stack = [-1]

    def _wrap(self, fn, name, info):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, stack[-1], self.run, clock(), 0, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[4] = clock()
            if info is not None:
                rec[5] = info(args, kwargs, result)
            return result

        traced.traced_by = self
        return traced

    @contextmanager
    def installed(self, package: str = "hyperorient"):
        """Patch every boundary for the duration of the block, then put the
        original callables back even if the block raises.  A span name is
        absent when none of its boundaries exists."""
        saved = []
        present = set()
        try:
            for mod, attr, name, info in BOUNDARIES:
                module = importlib.import_module(f"{package}.{mod}" if mod else package)
                if hasattr(module, attr):
                    present.add(name)
                    original = getattr(module, attr)
                    saved.append((module, attr, original))
                    setattr(module, attr, self._wrap(original, name, info))
            self.absent = {b[2] for b in BOUNDARIES} - present
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path) -> None:
        """One JSON array per span, in call order."""
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


def layer_metrics(tracer: Tracer, steps: int, paths: int) -> dict:
    """Per-layer counts and times (seconds) from one traced pass.

    ``steps`` and ``paths`` come from the traces and the public observer.
    A metric whose boundary is missing from the package is ``None``.
    """
    spans = tracer.spans
    n = len(spans)
    dur = [(s[4] - s[3]) / 1e9 for s in spans]
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s[1] >= 0:
            child[s[1]] += dur[i]
    self_s = [dur[i] - child[i] for i in range(n)]

    def nearest_layer(i):
        p = spans[i][1]
        while p >= 0 and spans[p][0] in PRIMITIVES:
            p = spans[p][1]
        return spans[p][0] if p >= 0 else None

    def has_ancestor(i, names):
        p = spans[i][1]
        while p >= 0:
            if spans[p][0] in names:
                return True
            p = spans[p][1]
        return False

    def idx(*names):
        return [i for i in range(n) if spans[i][0] in names]

    flows = idx(FLOW)
    builds = idx(BUILD)
    conn = idx(CONNECTIVITY)
    fams = idx(COMPUTE_FAMILIES)
    safe = idx(*SAFE)
    searches = idx(*SEARCH)
    reorients = idx(REORIENT)
    owner = {i: nearest_layer(i) for i in flows + builds}
    step_check = [i for i in flows + builds if owner[i] == AUGMENT_ONE]
    step_flows = [i for i in flows if owner[i] == AUGMENT_ONE]

    def frac(num, den):
        return num / den if den else 0.0

    m = {
        "separator.flow_calls": len(flows),
        "separator.flow_s": sum(self_s[i] for i in flows),
        "separator.flow_units": sum(spans[i][5][1] for i in flows),
        "separator.flow_capped_frac": frac(sum(spans[i][5][2] for i in flows), len(flows)),
        "separator.network_builds": len(builds),
        "separator.network_build_s": sum(self_s[i] for i in builds),
        "separator.network_arcs": sum(spans[i][5][0] for i in flows),
        "separator.connectivity_calls": len(conn),
        "separator.connectivity_s": sum(dur[i] for i in conn if not has_ancestor(i, {CONNECTIVITY})),
        "augment.levels": len(idx(AUGMENT_ONE)),
        "augment.paths": paths,
        "augment.trace_steps": steps,
        "augment.step_check_flow_calls": len(step_flows),
        "augment.step_check_s": sum(dur[i] for i in step_check),
        "augment.flows_per_step": frac(len(step_flows), steps),
        "augment.verify_flow_calls": sum(1 for i in flows if has_ancestor(i, {VERIFY})),
        "augment.verify_self_s": sum(self_s[i] for i in idx(VERIFY)),
        "families.compute_calls": len(fams),
        "families.compute_s": sum(dur[i] for i in fams),
        "families.flow_calls": sum(1 for i in flows if owner[i] == COMPUTE_FAMILIES),
        "families.lambda_recomputes": sum(
            1 for i in conn if spans[i][1] >= 0 and spans[spans[i][1]][0] == COMPUTE_FAMILIES
        ),
        "families.safe_probes": len(safe),
        "families.safe_accept_frac": frac(sum(1 for i in safe if spans[i][5]), len(safe)),
        "families.safe_s": sum(dur[i] for i in safe),
        "families.safe_flow_calls": sum(1 for i in flows if owner[i] in SAFE),
        "pathsearch.searches": len(searches),
        "pathsearch.search_self_s": sum(self_s[i] for i in searches),
        "pathsearch.path_arcs": sum(spans[i][5] for i in searches),
        "core.reorient_calls": len(reorients),
        "core.reorient_s": sum(dur[i] for i in reorients),
        "toolkit.format_trace_s": sum(dur[i] for i in idx(FORMAT_TRACE)),
        "toolkit.parse_trace_s": sum(dur[i] for i in idx(PARSE_TRACE)),
    }
    needs = {
        "separator.flow": {FLOW},
        "separator.network": {BUILD, FLOW},
        "separator.connectivity": {CONNECTIVITY},
        "augment.levels": {AUGMENT_ONE},
        "augment.step_check": {AUGMENT_ONE, FLOW},
        "augment.flows_per_step": {AUGMENT_ONE, FLOW},
        "augment.verify": {VERIFY, FLOW},
        "families.compute": {COMPUTE_FAMILIES},
        "families.flow_calls": {COMPUTE_FAMILIES, FLOW},
        "families.lambda_recomputes": {COMPUTE_FAMILIES, CONNECTIVITY},
        "families.safe": set(SAFE),
        "pathsearch": set(SEARCH),
        "core.reorient": {REORIENT},
        "toolkit.format_trace": {FORMAT_TRACE},
        "toolkit.parse_trace": {PARSE_TRACE},
    }
    for prefix, names in needs.items():
        if names & tracer.absent:
            for key in m:
                if key.startswith(prefix):
                    m[key] = None
    return m
