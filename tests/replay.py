"""The from-scratch trace replay, kept as the reference for ``verify_trace``,
and a seeded corpus of mutated traces to compare the two on.

``reference_verify_trace`` takes the initial connectivity from
``connectivity(h, trace.initial, h.m + 1)``, which caps nothing, and
recomputes it after every step with ``connectivity(h, cur, cap=lam + 2)``,
on a fresh network each time, so it reads no one-vertex degree bound.
``verify_trace`` must return an equal ``VerifyReport`` on every input.
"""

from __future__ import annotations

import random

from hyperorient import (
    GenSpec,
    ReorientationStep,
    ReorientationTrace,
    VerifyFailure,
    VerifyReport,
    augment_to,
    gen_instance,
    gen_orientation,
    hyperarc_connectivity,
    reorient,
)
from hyperorient.separator import connectivity


def reference_verify_trace(h, trace):
    """Replay every step and recompute the connectivity after each from
    scratch, checking the same things as ``verify_trace``."""
    if trace.initial.hypergraph != h:
        return VerifyReport((VerifyFailure(None, "trace initial orientation is for a different hypergraph"),))
    bound = max(0, trace.k_target - trace.lambda_initial) * h.n**3
    if len(trace.steps) > bound:
        return VerifyReport((VerifyFailure(None, f"{len(trace.steps)} steps exceed the bound {bound}"),))
    failures = []
    lam = connectivity(h, trace.initial, h.m + 1)
    if lam != trace.lambda_initial:
        failures.append(
            VerifyFailure(None, f"initial connectivity is {lam}, trace claims {trace.lambda_initial}")
        )
    cur = trace.initial
    for i, step in enumerate(trace.steps, start=1):
        if not 0 <= step.edge < h.m:
            failures.append(VerifyFailure(i, f"edge id {step.edge} out of range"))
            break
        if cur.heads[step.edge] != step.old_head:
            failures.append(
                VerifyFailure(
                    i,
                    f"edge {step.edge} has head {cur.heads[step.edge]}, step claims {step.old_head}",
                )
            )
        if step.new_head not in h.edges[step.edge] or step.new_head == cur.heads[step.edge]:
            failures.append(VerifyFailure(i, f"illegal new head {step.new_head} for edge {step.edge}"))
            break
        cur = reorient(cur, step.edge, step.new_head)
        lam_after = connectivity(h, cur, cap=lam + 2)
        if lam_after != step.lambda_after:
            failures.append(
                VerifyFailure(i, f"connectivity after step is {lam_after}, step claims {step.lambda_after}")
            )
        if lam_after < lam:
            failures.append(VerifyFailure(i, f"connectivity decreased from {lam} to {lam_after}"))
        lam = lam_after
    else:
        if lam != trace.lambda_final:
            failures.append(
                VerifyFailure(None, f"final connectivity is {lam}, trace claims {trace.lambda_final}")
            )
        if trace.lambda_final < trace.k_target:
            failures.append(
                VerifyFailure(
                    None,
                    f"trace ends at connectivity {trace.lambda_final}, below target {trace.k_target}",
                )
            )
    return VerifyReport(tuple(failures))


MUTATIONS = (
    "none",
    "lambda",
    "delete",
    "swap",
    "old_head",
    "append",
    "walk",
    "lambda_initial",
    "lambda_final",
)


def _flip(rng, h, o, claim):
    """A random legal single reorientation of ``o`` claiming ``claim``."""
    e = rng.randrange(h.m)
    new_head = rng.choice([x for x in h.edges[e] if x != o.heads[e]])
    return ReorientationStep(e, o.heads[e], new_head, claim)


def mutate(rng, h, trace, kind):
    """``trace`` with one mutation of ``kind`` (one of :data:`MUTATIONS`)."""
    steps = list(trace.steps)
    lam_initial, lam_final, k_target = trace.lambda_initial, trace.lambda_final, trace.k_target
    i = rng.randrange(len(steps)) if steps else None
    if kind == "lambda" and steps:
        s = steps[i]
        steps[i] = ReorientationStep(s.edge, s.old_head, s.new_head, s.lambda_after + rng.choice((-1, 1)))
    elif kind == "delete" and steps:
        del steps[i]
    elif kind == "swap" and len(steps) > 1:
        i = min(i, len(steps) - 2)
        steps[i], steps[i + 1] = steps[i + 1], steps[i]
    elif kind == "old_head" and steps:
        s = steps[i]
        wrong = rng.choice([x for x in h.edges[s.edge] if x != s.old_head])
        steps[i] = ReorientationStep(s.edge, wrong, s.new_head, s.lambda_after)
    elif kind == "append":
        o = trace.initial
        for s in steps:
            o = reorient(o, s.edge, s.new_head)
        for _ in range(rng.randint(1, 4)):
            step = _flip(rng, h, o, lam_final + rng.choice((-1, 0, 0, 1)))
            steps.append(step)
            o = reorient(o, step.edge, step.new_head)
    elif kind == "walk":
        o, claim, steps = trace.initial, lam_initial, []
        k_target = lam_initial + 1
        for _ in range(rng.randint(1, 30)):
            claim += rng.choice((-1, 0, 0, 1))
            step = _flip(rng, h, o, claim)
            steps.append(step)
            o = reorient(o, step.edge, step.new_head)
        lam_final = claim
    elif kind == "lambda_initial":
        lam_initial += rng.choice((-1, 1))
    elif kind == "lambda_final":
        lam_final += rng.choice((-1, 1))
    return ReorientationTrace(trace.initial, k_target, lam_initial, lam_final, tuple(steps))


def instance_trace(seed, n_range=(4, 16), k_range=(1, 3)):
    """A seeded ``gen_instance`` case, from a min-head or random start,
    and its ``augment_to`` trace up to the generator's ``k``."""
    rng = random.Random(seed)
    n, k = rng.randint(*n_range), rng.randint(*k_range)
    spec = GenSpec(n=n, k=k, extra_edges=rng.randint(0, n // 2), max_edge_size=min(4, n), seed=seed)
    h = gen_instance(spec)
    o = gen_orientation(h, seed=seed, mode=rng.choice(("min-head", "random")))
    return h, augment_to(h, o, max(k, hyperarc_connectivity(h, o)))
