"""Run the scale recipe and print its work and times, one row per ``n``.

The recipe: ``gen_instance(GenSpec(n=n, k=3, extra_edges=n // 2,
max_edge_size=4, seed=1))``, every head at its edge's smallest vertex
(``gen_orientation(h, mode="min-head")``), ``augment_to`` target 3, then
``verify_trace`` of the trace it returns.  Run from the repository root::

    python tests/scale_recipe.py            # n = 64, 128, 192, 256
    python tests/scale_recipe.py 64 96      # the sizes given

Each row holds ``m``, the trace's steps, then for ``augment_to``, for
``verify_trace`` and for ``query`` in turn: the wall time in seconds,
the flows (one ``separator.max_flow_min_cut`` call each), the units they
push, the residual searches (one ``separator._search`` call each) and the
vertices those searches label.  ``query`` is ``hyperarc_connectivity``
then ``compute_families`` on the initial orientation, the two questions
the ``query-families`` benchmark asks of each orientation, run first on
an orientation object of its own, so that it finds no set-up kept and
leaves none to ``augment_to``.  The last column is the SHA-256 of
``format_trace`` of the trace, which a change that keeps the solver's
output keeps.  The counts are exact; the times include the counting
wrappers and are comparable only within one machine and one session.
"""

from __future__ import annotations

import hashlib
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hyperorient import (
    GenSpec,
    augment_to,
    compute_families,
    format_trace,
    gen_instance,
    gen_orientation,
    hyperarc_connectivity,
    separator,
    verify_trace,
)

SIZES = (64, 128, 192, 256)
COUNTS = ("flows", "units", "searches", "labelled")


def counted(call, *args) -> tuple[object, float, Counter]:
    """``call(*args)`` with every flow and residual search counted:
    ``(result, wall seconds, counts)``."""
    counts = Counter()
    flow, search = separator.max_flow_min_cut, separator._search

    def counted_flow(g, sources, sinks, limit=None, *, residual, forward=True):
        value, reach = flow(g, sources, sinks, limit, residual=residual, forward=forward)
        counts["flows"] += 1
        counts["units"] += value
        return value, reach

    def counted_search(g, heads, roots, is_sink, forward):
        parent, labelled, hit = search(g, heads, roots, is_sink, forward)
        counts["searches"] += 1
        counts["labelled"] += len(labelled)
        return parent, labelled, hit

    separator.max_flow_min_cut, separator._search = counted_flow, counted_search
    try:
        start = time.perf_counter()
        result = call(*args)
        return result, time.perf_counter() - start, counts
    finally:
        separator.max_flow_min_cut, separator._search = flow, search


def query(h, o) -> int:
    """``hyperarc_connectivity`` then ``compute_families`` on ``o``; both
    must give one connectivity."""
    k = hyperarc_connectivity(h, o)
    if compute_families(h, o).k != k:
        raise SystemExit(f"n={h.n}: compute_families and hyperarc_connectivity disagree")
    return k


def recipe(n: int) -> dict:
    """One run of the recipe at ``n``, as a row of named values."""
    h = gen_instance(GenSpec(n=n, k=3, extra_edges=n // 2, max_edge_size=4, seed=1))
    _, query_s, asked = counted(query, h, gen_orientation(h, mode="min-head"))
    trace, augment_s, work = counted(augment_to, h, gen_orientation(h, mode="min-head"), 3)
    report, verify_s, check = counted(verify_trace, h, trace)
    if not report.ok:
        raise SystemExit(f"n={n}: verify_trace refused the recipe's trace: {report}")
    row = {"n": n, "m": h.m, "steps": len(trace.steps), "augment_s": round(augment_s, 3)}
    row.update((name, work[name]) for name in COUNTS)
    row["verify_s"] = round(verify_s, 3)
    row.update((f"verify_{name}", check[name]) for name in COUNTS)
    row["query_s"] = round(query_s, 3)
    row.update((f"query_{name}", asked[name]) for name in COUNTS)
    row["sha256"] = hashlib.sha256(format_trace(trace).encode()).hexdigest()
    return row


def main(argv: list[str]) -> int:
    sizes = [int(a) for a in argv] or list(SIZES)
    for i, n in enumerate(sizes):
        row = recipe(n)
        if i == 0:
            print("  ".join(row))
        print("  ".join(str(value) for value in row.values()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
