"""Seeded benchmark of hyperorient: augmentation, trace verification and
cut-family queries, end to end and per layer.

Run from the repository root, one workload per process:

    python3 perfbench/run.py --workload augment-deep --seed 0 --seconds 30 --trace 0

The inputs come from the package's own generator with ``--seed``; the
workloads, the default and held-out seeds, and the SHA-256 digests of the
outputs on those seeds are in ``perfbench/manifest.json``.  The package is
imported from ``src/`` of the checkout the script sits in.

``--trace 0`` times whole passes over the inputs, with the package
untouched, for ``--seconds`` and reports the end-to-end metrics.  Every
time is in seconds at a fixed reference speed of the machine, measured
around each timed call (see ``stopwatch.py``); wall time is printed beside
it.  ``--trace 1`` takes the first half of the inputs, times untraced
passes over them for a third of ``--seconds``, then makes one pass with
spans recorded at each module boundary (see ``spans.py``).  It reports the
per-layer counts, the per-layer times as shares of the traced pass, and
the tracing overhead; the printed report adds the per-layer wall times and
the untraced split of the pass time (``augment_s``, ``verify_s``,
``query_s``).  The spans of the last traced run of a workload are written
to ``perfbench/out/<workload>.spans.jsonl``.

Every operation's output is checked: each trace must reach its target and
pass ``verify_trace`` after a format/parse round trip, each query answer
must pass degree-level checks, every pass must produce the same digest, and
on a seed with a recorded digest an untraced run's digest must match it.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and the declared metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from spans import Tracer, layer_metrics
from stopwatch import Stopwatch
from workloads import Tally, digest, load_workloads, run_pass, setup

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def load_package():
    """Import ``hyperorient`` from this checkout's ``src/``, or exit."""
    if not (SRC / "hyperorient" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source under {SRC}")
    sys.path.insert(0, str(SRC))
    import hyperorient

    if Path(hyperorient.__file__).resolve().parent != SRC / "hyperorient":
        sys.exit(f"perfbench: imported hyperorient from {hyperorient.__file__}, not {SRC}")
    return hyperorient


def load_manifest() -> dict:
    with open(HERE / "manifest.json", encoding="utf-8") as fh:
        return json.load(fh)


def timed_setup(ho, w, seed: int, repeats: int, sw: Stopwatch):
    """Build the inputs ``repeats`` times; ``setup_s`` is the median."""
    for _ in range(repeats):
        with sw.unit("setup_s"):
            inputs = setup(ho, w, seed)
    units = sw.units.pop("setup_s")
    return inputs, statistics.median(u[1] for u in units), statistics.median(u[0] for u in units)


class Passes:
    """Per-pass times (scaled and wall) and output digests, with the digest
    checks."""

    def __init__(self, workload: str, expected: str | None, tally: Tally) -> None:
        self.workload = workload
        self.expected = expected
        self.tally = tally
        self.scaled: list[dict] = []
        self.wall: list[dict] = []
        self.steps: list[int] = []
        self.digests: list[str] = []

    def check(self, chunks: list[str]) -> None:
        """Compare a pass's output digest with the recorded one (first pass)
        or with the first pass's (later passes)."""
        d = digest(chunks)
        if not self.digests and self.expected is not None:
            problem = None if d == self.expected else f"digest {d[:16]} != recorded {self.expected[:16]}"
            self.tally.record(self.workload + " recorded digest", problem)
        elif self.digests:
            problem = None if d == self.digests[0] else "outputs differ from the first pass"
            self.tally.record(self.workload + " repeat digest", problem)
        self.digests.append(d)

    def add(self, totals: dict, chunks: list[str], steps: int) -> None:
        self.check(chunks)
        for i, series in ((1, self.scaled), (0, self.wall)):
            t = {k: v[i] for k, v in totals.items()}
            t["work_s"] = sum(t.values())
            series.append(t)
        self.steps.append(steps)

    def median(self, key: str, wall: bool = False) -> float:
        return statistics.median(t.get(key, 0.0) for t in (self.wall if wall else self.scaled))

    def quartiles(self, key: str) -> tuple[float, float]:
        values = [t.get(key, 0.0) for t in self.scaled]
        if len(values) < 2:
            return values[0], values[0]
        q = statistics.quantiles(values, n=4)
        return q[0], q[2]


def measure(ho, w, inputs, seconds: float, passes: Passes, sw: Stopwatch) -> None:
    """Whole passes until the next one would end after ``seconds``; at
    least one."""
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        chunks, steps = run_pass(ho, w, inputs, passes.tally, sw)
        passes.add(sw.take(), chunks, steps)
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return


def traced_pass(ho, w, inputs, passes: Passes, sw: Stopwatch, spans_path: Path | None) -> dict:
    """One pass with every module boundary traced; its per-layer metrics.

    Span times are wall time.  Each ``*_s`` time also appears as a
    ``*_share`` of the pass's wall time in package calls, which a change in
    machine speed does not move; the overhead compares scaled pass times.
    """
    tracer = Tracer()
    paths = []
    with tracer.installed():
        tracer.run = f"{w.name}/traced"
        chunks, steps = run_pass(ho, w, inputs, passes.tally, sw, observer=paths.append)
    totals = sw.take().values()
    passes.check(chunks)
    if spans_path is not None:
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.write(spans_path)
    m = layer_metrics(tracer, steps, len(paths))
    wall = sum(v[0] for v in totals)
    for key in [k for k in m if k.endswith("_s")]:
        m[key[:-2] + "_share"] = None if m[key] is None else m[key] / wall
    m["tracing.overhead_share"] = sum(v[1] for v in totals) / passes.median("work_s") - 1
    return m


def main(argv=None) -> int:
    manifest = load_manifest()
    workloads = load_workloads(manifest)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads))
    ap.add_argument("--seed", type=int, default=manifest["default_seed"])
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ho = load_package()
    w = workloads[args.workload]
    tally = Tally()
    sw = Stopwatch(manifest["reference_probe_s"])
    inputs, setup_s, setup_wall = timed_setup(ho, w, args.seed, manifest["setup_repeats"], sw)
    if args.trace:
        # An untraced and a traced pass over every input can take well over
        # two minutes on a slow machine; half of them keeps a traced run
        # about as long as an untraced one.  The recorded digests cover
        # every input, so they are not checked here.
        inputs = inputs[: (len(inputs) + 1) // 2]
        expected = None
    else:
        expected = manifest["digests"].get(w.name, {}).get(str(args.seed))
    passes = Passes(w.name, expected, tally)
    if args.trace:
        measure(ho, w, inputs, args.seconds / 3, passes, sw)
        spans_path = HERE / "out" / f"{w.name}.spans.jsonl"
        values = traced_pass(ho, w, inputs, passes, sw, spans_path)
        section = declared["per_layer"]
    else:
        measure(ho, w, inputs, args.seconds, passes, sw)
        values = {}
        section = declared["end_to_end"]
    values.update({key: passes.median(key) for key in ("work_s", "augment_s", "verify_s", "query_s")})
    values.update(setup_s=setup_s, peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)

    report(w, args, passes, setup_wall, values, tally)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section}
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def report(w, args, passes: Passes, setup_wall: float, values: dict, tally: Tally) -> None:
    """Human-readable summary: every metric by name and unit."""
    n = len(passes.scaled)
    print(f"workload {w.name}  seed {args.seed}  trace {args.trace}  passes {n}")
    print("  times are seconds at the reference speed (see stopwatch.py); wall seconds in brackets")
    print(f"  {'setup_s':<32} {values['setup_s']:12.6f} s  [{setup_wall:.6f}]  (median of the set-up repeats)")
    keys = ("augment_s", "verify_s") if w.kind == "augment" else ("query_s",)
    for key in ("work_s",) + keys:
        q1, q3 = passes.quartiles(key)
        print(
            f"  {key:<32} {passes.median(key):12.6f} s  [{passes.median(key, wall=True):.6f}]"
            f"  (median of {n} passes; q1 {q1:.6f}, q3 {q3:.6f})"
        )
    if w.kind == "augment":
        print(f"  {'trace_steps':<32} {passes.steps[0]:12d} count")
    print(f"  {'peak_rss_mb':<32} {values['peak_rss_mb']:12.3f} MB")
    print(f"  {'failed_frac':<32} {tally.failed / max(tally.attempted, 1):12.6f}  ({tally.failed} of {tally.attempted})")
    recorded = "none" if passes.expected is None else "match" if passes.expected == passes.digests[0] else "MISMATCH"
    print(f"  digest {passes.digests[0]}  recorded: {recorded}")
    for reason in tally.reasons:
        print(f"  FAILED {reason}")
    if args.trace:
        for key, value in values.items():
            if "." in key:
                shown = "absent" if value is None else f"{value:.6f}" if isinstance(value, float) else value
                print(f"  {key:<32} {shown:>12}")


if __name__ == "__main__":
    sys.exit(main())
