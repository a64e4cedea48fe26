"""Pins the solver's outputs on a small seeded corpus to SHA-256 digests.

``PINNED`` covers the formatted ``augment_to`` traces, the cut families of
the start and end orientations, and separator answers on both sides.  It
was recorded before the in-side queries moved onto the out network, so any
change in search order, trace or answer shows here without running the
full benchmark.  ``PATHS_PINNED`` covers both admissible-path searches on
every ``r_family`` region of the same orientations and of the one halfway
through each trace (the path, or the error it raised) and ``reachability_check`` for every vertex on both sides; it
was recorded before the three searches became one exploration.
``FLOWS_PINNED`` covers single flows: the value, the minimal side and the
heads after each call, over random hypergraphs and heads, both directions,
limits, multi-terminal sets and a heads list resumed across calls.  It was
recorded while flows still ran on capacity arrays over the incidence
digraph's residual arc pairs: a backward flow ran forward with each pair's
capacities swapped, and the heads after a call were read off the residual
capacities, edge ``e``'s head being the one vertex ``x`` whose residual arc
``w_e -> x`` had capacity left.  A deliberate change of output must
re-record them.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import replace

from hyperorient import (
    GenSpec,
    VertexSet,
    admissible_path_in_tminus,
    admissible_path_in_tplus,
    apply_trace,
    augment_to,
    compute_families,
    format_trace,
    gen_instance,
    gen_orientation,
    hypergraph,
    incidence_digraph,
    max_flow_min_cut,
    min_separator,
    reachability_check,
)

PINNED = "5dbb3ebdf3deddf7028e9c2154e6dc6fee508a6c1ccc8ed9c555abd9288a8029"
PATHS_PINNED = "cf700bfe0cfaf7f033dc4557919f2ea92de7415e7bb090495e37845afb486154"
FLOWS_PINNED = "59cc4db5174c1641ca3633a7ef9ea8a26795815e3b4c30a0d590e2beb4642af8"


def corpus():
    for n, k, extra in ((6, 1, 2), (8, 2, 3), (10, 2, 4), (12, 3, 3), (14, 2, 6), (14, 3, 5)):
        for seed in range(2):
            h = gen_instance(GenSpec(n=n, k=k, extra_edges=extra, max_edge_size=4, seed=seed))
            yield h, k, gen_orientation(h, mode="min-head")
            yield h, k, gen_orientation(h, seed=seed)


def families_text(fam) -> str:
    fields = ("m_minus", "m_plus", "m_all", "r_family", "q_minus", "q_plus")
    return f"k={fam.k} " + " ".join(f"{f}={[list(x) for x in getattr(fam, f)]}" for f in fields)


def separator_text(h, o, rng) -> str:
    lines = []
    for _ in range(6):
        v = rng.randrange(h.n)
        others = VertexSet(h.n, rng.sample([u for u in range(h.n) if u != v], rng.randint(1, 3)))
        for side in ("in", "out"):
            value, sep = min_separator(h, o, VertexSet(h.n, [v]), others, side)
            lines.append(f"min_{side}_separator {v} {list(others)} {value} {list(sep)}")
    return "\n".join(lines)


def corpus_text() -> str:
    rng = random.Random(4)
    chunks = []
    for h, k, o in corpus():
        trace = augment_to(h, o, k)
        final = apply_trace(trace)
        chunks.append(format_trace(trace))
        chunks.append(families_text(compute_families(h, o)))
        chunks.append(families_text(compute_families(h, final)))
        chunks.append(separator_text(h, o, rng))
        chunks.append(separator_text(h, final, rng))
    return "\n".join(chunks)


def test_outputs_match_the_pinned_digest():
    assert hashlib.sha256(corpus_text().encode()).hexdigest() == PINNED


def path_outcome(search, h, o, fam, region) -> str:
    try:
        res = search(h, o, fam, region)
    except Exception as exc:
        return f"{search.__name__} {list(region)} {type(exc).__name__}: {exc}"
    arcs = [(a.edge, a.tail, a.head) for a in res.path.arcs]
    return (
        f"{search.__name__} {list(region)} {res.source} {res.sink} "
        f"{list(res.s_set)} {list(res.t_set)} {arcs}"
    )


def paths_text(h, o) -> str:
    fam = compute_families(h, o)
    lines = [
        path_outcome(search, h, o, fam, region)
        for region in fam.r_family
        for search in (admissible_path_in_tminus, admissible_path_in_tplus)
    ]
    lines.append(
        " ".join(
            str(int(reachability_check(h, o, fam, v, side=side)))
            for side in ("out", "in")
            for v in range(h.n)
        )
    )
    return "\n".join(lines)


def test_paths_match_the_pinned_digest():
    chunks = []
    for h, k, o in corpus():
        trace = augment_to(h, o, k)
        half = replace(trace, steps=trace.steps[: len(trace.steps) // 2])
        for cur in (o, apply_trace(half), apply_trace(trace)):
            chunks.append(paths_text(h, cur))
    assert hashlib.sha256("\n".join(chunks).encode()).hexdigest() == PATHS_PINNED


def flows_text() -> str:
    rng = random.Random(2026)
    lines = []
    for _ in range(300):
        n = rng.randint(3, 10)
        edges = [rng.sample(range(n), rng.randint(2, min(4, n))) for _ in range(rng.randint(1, 2 * n))]
        h = hypergraph(n, edges)
        heads = [rng.choice(sorted(e)) for e in edges]
        g = incidence_digraph(h)
        for forward in (True, False):
            res = list(heads)
            for _ in range(4):  # each call resumes from the heads the last one left
                vertices = rng.sample(range(n), rng.randint(2, min(n, 5)))
                cut = rng.randint(1, len(vertices) - 1)
                sources, sinks = vertices[:cut], vertices[cut:]
                limit = rng.choice([None, None, rng.randint(0, 3)])
                value, reach = max_flow_min_cut(g, sources, sinks, limit=limit, residual=res, forward=forward)
                side = None if reach is None else sorted(reach)
                lines.append(f"{int(forward)} {sources} {sinks} {limit} {value} {side} {res}")
    return "\n".join(lines)


def test_flows_match_the_pinned_digest():
    assert hashlib.sha256(flows_text().encode()).hexdigest() == FLOWS_PINNED
