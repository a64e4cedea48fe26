"""The benchmark's workloads: seeded inputs, the timed calls, and the checks
on their outputs.

Every call into the package goes through the ``ho`` module object passed in
and is looked up by attribute at call time, so a traced run sees the
wrappers it installed and an untraced run sees the package's own callables.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    """One workload: ``instances`` hypergraphs per seed, each augmented (the
    augment kind) or queried in ``queries`` orientations (the query kind).
    The generator seeds of workload seed ``s`` are ``instances * s`` up to
    ``instances * (s + 1) - 1``."""

    name: str
    kind: str
    n: int
    k: int
    extra_edges: int
    max_edge_size: int
    why: str
    instances: int = 1
    queries: int = 0

    def gen_seeds(self, seed: int) -> list[int]:
        return [self.instances * seed + i for i in range(self.instances)]


def load_workloads(manifest: dict) -> dict[str, Workload]:
    return {name: Workload(name=name, **spec) for name, spec in manifest["workloads"].items()}


class Tally:
    """Attempted and failed operations, with the first few failure reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, what: str, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(f"{what}: {problem}")


def _hypergraph(ho, w: Workload, gen_seed: int):
    return ho.gen_instance(
        ho.GenSpec(
            n=w.n, k=w.k, extra_edges=w.extra_edges, max_edge_size=w.max_edge_size, seed=gen_seed
        )
    )


def cyclic_orientation(ho, w: Workload, h):
    """Each of ``gen_instance``'s ``k`` spanning cycles (its first ``k * n``
    edges) oriented around itself: edge ``i`` of a cycle points to the
    vertex it shares with edge ``i + 1``.  A directed spanning cycle leaves
    every proper vertex set, so the connectivity is at least ``k``.  Every
    extra edge points to its smallest vertex."""
    heads = []
    for c in range(w.k):
        base = c * w.n
        for i in range(w.n):
            shared = h.edges[base + i].mask & h.edges[base + (i + 1) % w.n].mask
            heads.append(shared.bit_length() - 1)
    heads.extend(min(e) for e in h.edges[w.k * w.n :])
    return ho.Orientation(h, tuple(heads))


def setup(ho, w: Workload, seed: int):
    """The workload's inputs: ``[(h, o), ...]``.  Augment starts orient
    every edge to its smallest vertex; query orientations are the cyclic
    orientation after 1 to 4 seeded random head changes each."""
    if w.kind == "augment":
        hypergraphs = [_hypergraph(ho, w, s) for s in w.gen_seeds(seed)]
        return [(h, ho.gen_orientation(h, mode="min-head")) for h in hypergraphs]
    out = []
    for gen_seed in w.gen_seeds(seed):
        h = _hypergraph(ho, w, gen_seed)
        base = cyclic_orientation(ho, w, h)
        rng = random.Random(gen_seed)
        for _ in range(w.queries):
            o = base
            for _ in range(rng.randint(1, 4)):
                e = rng.randrange(h.m)
                choices = [v for v in h.edges[e] if v != o.heads[e]]
                o = ho.reorient(o, e, rng.choice(choices))
            out.append((h, o))
    return out


def _sets(sets) -> list[list[int]]:
    return [list(s) for s in sets]


def run_augment(ho, w: Workload, inputs, tally: Tally, sw, observer=None):
    """One pass: ``augment_to``, then format, parse and verify each trace.
    Times go to the stopwatch ``sw``; returns the formatted traces and the
    step count."""
    texts, steps = [], 0
    for idx, (h, o) in enumerate(inputs):
        what = f"{w.name}[{idx}]"
        try:
            with sw.unit("augment_s"):
                trace = ho.augment_to(h, o, w.k, observer=observer)
        except Exception as exc:  # a failed operation is counted, not fatal
            tally.record(what + " augment_to", f"{type(exc).__name__}: {exc}")
            continue
        problem = None
        if trace.k_target != w.k or trace.lambda_final < w.k:
            problem = f"trace ends at {trace.lambda_final}, target {w.k}"
        tally.record(what + " augment_to", problem)
        steps += len(trace.steps)
        try:
            with sw.unit("format_s"):
                text = ho.format_trace(trace)
            with sw.unit("verify_s"):
                parsed = ho.parse_trace(text, o)
                report = ho.verify_trace(h, parsed)
        except Exception as exc:
            tally.record(what + " verify", f"{type(exc).__name__}: {exc}")
            continue
        texts.append(text)
        problem = None
        if parsed.steps != trace.steps or parsed.lambda_final != trace.lambda_final:
            problem = "format/parse round trip changed the trace"
        elif not report.ok:
            problem = report.render()
        tally.record(what + " verify", problem)
    return texts, steps


def _check_query(ho, h, o, k, lam, fam, found) -> str | None:
    """Degree-level checks of one query's answer, independent of the flows
    that produced it."""
    if fam.k != lam:
        return f"compute_families level {fam.k}, connectivity {lam}"
    for v in range(h.n):
        single = ho.VertexSet.singleton(h.n, v)
        if ho.out_degree(h, o, single) < lam or ho.in_degree(h, o, single) < lam:
            return f"vertex {v} has degree below the connectivity {lam}"
        if v not in fam.q_minus[v] or v not in fam.q_plus[v]:
            return f"q sets of vertex {v} miss it"
    for x in fam.m_minus:
        if not ho.is_in_tight(h, o, lam, x, fam.r):
            return f"m_minus member {list(x)} is not in-tight"
    for x in fam.m_plus:
        if not ho.is_out_tight(h, o, lam, x, fam.r):
            return f"m_plus member {list(x)} is not out-tight"
    for x in fam.r_family:
        if not (ho.is_in_tight(h, o, lam, x, fam.r) or ho.is_out_tight(h, o, lam, x, fam.r)):
            return f"r_family member {list(x)} is not tight"
    if lam < k:
        region, path = found
        if path is None:
            return "no path searched below the target"
        try:
            seq = ho.trim(h, path.path)
        except ho.PreconditionError as exc:
            return f"malformed path: {exc}"
        if any(o.heads[a.edge] != a.head for a in path.path.arcs):
            return "path arc does not match the orientation"
        if seq[0] != path.source or seq[-1] != path.sink:
            return "path does not run from source to sink"
        if path.source not in path.s_set or path.sink not in path.t_set:
            return "path endpoints lie outside their sets"
        if any(v not in region for v in seq):
            return "path leaves its region"
    return None


def run_query(ho, w: Workload, inputs, tally: Tally, sw):
    """One pass of the queries: connectivity, cut families, and below the
    target one admissible-path search in ``r_family[0]``, on the branch
    ``augment_one`` would take.  Returns the canonical answers."""
    answers = []
    for idx, (h, o) in enumerate(inputs):
        what = f"{w.name}[{idx}]"
        try:
            with sw.unit("query_s"):
                lam = ho.hyperarc_connectivity(h, o)
                fam = ho.compute_families(h, o)
                region = path = branch = None
                if lam < w.k:
                    region = fam.r_family[0]
                    if ho.is_in_tight(h, o, fam.k, region, fam.r):
                        branch = "in-tight"
                        path = ho.admissible_path_in_tminus(h, o, fam, region)
                    else:
                        branch = "out-tight"
                        path = ho.admissible_path_in_tplus(h, o, fam, region)
        except Exception as exc:
            tally.record(what + " query", f"{type(exc).__name__}: {exc}")
            continue
        tally.record(what + " query", _check_query(ho, h, o, w.k, lam, fam, (region, path)))
        answer = {
            "lambda": lam,
            "m_minus": _sets(fam.m_minus),
            "m_plus": _sets(fam.m_plus),
            "m_all": _sets(fam.m_all),
            "r_family": _sets(fam.r_family),
            "q_minus": _sets(fam.q_minus),
            "q_plus": _sets(fam.q_plus),
        }
        if path is not None:
            answer["path"] = {
                "branch": branch,
                "source": path.source,
                "sink": path.sink,
                "s_set": list(path.s_set),
                "t_set": list(path.t_set),
                "arcs": [[a.edge, a.tail, a.head] for a in path.path.arcs],
            }
        answers.append(json.dumps(answer, sort_keys=True))
    return answers


def run_pass(ho, w: Workload, inputs, tally: Tally, sw, observer=None):
    """One pass over the workload's inputs, timed on ``sw``: ``(output
    chunks, trace steps)``."""
    if w.kind == "augment":
        return run_augment(ho, w, inputs, tally, sw, observer)
    return run_query(ho, w, inputs, tally, sw), 0


def digest(chunks: list[str]) -> str:
    """SHA-256 of the outputs of one pass, one chunk per operation."""
    h = hashlib.sha256()
    for c in chunks:
        h.update(c.encode())
        h.update(b"\x00")
    return h.hexdigest()
