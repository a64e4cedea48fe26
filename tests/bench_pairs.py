"""Run the benchmark in alternating pairs: a parent commit against the
working tree, and write ``BENCH_<label>.json``.

Run from the repository root, for instance::

    python tests/bench_pairs.py --label my_change --ref HEAD

Both sides run from clean copies made the same way: the parent is ``git
archive REF`` and the change is ``git archive`` of the working tree's
files that ``.gitignore`` does not exclude (tracked or not), each unpacked
into a fresh temporary directory, so compiled files and test outputs in
the working tree do not reach the runs.  For every workload of
``BENCHMARK.json`` and each of seeds 0 and 7, ten pairs run
``python3 perfbench/run.py --workload W --seed S --seconds T --trace 0``
once in each copy, with ``T`` the file's ``run_seconds``, one run at a
time, and the side that runs first alternates from pair to pair.  Each
end-to-end metric is summarised over the pairs (:func:`summarize`);
``correct`` is true when every run of both sides was, and ``failed`` and
``attempted`` are per-side sums over the runs.  One 12-s ``--trace 1`` run
per side and workload on seed 0 adds the per-layer counts under
``traced_parent_change``.

The file claims nothing: :func:`claim_holds` is the rule a claimed gain
must meet, and a ``claim`` is written by hand after reading the numbers.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10  # alternating pairs per workload and seed
SEEDS = (0, 7)  # the tuned seed and the held-out one
TRACED_SECONDS = 12  # one --trace 1 run per side and workload, on SEEDS[0]


def summarize(parent: list[float], change: list[float]) -> dict:
    """The fields of one metric over paired runs: both sides' values,
    medians and quartiles (``statistics.quantiles(n=4,
    method="inclusive")``), the parent's IQR, the relative change of the
    medians, the pairs in which the change is strictly lower (a tie counts
    for neither side), and whether the change's median lies inside the
    parent's quartiles."""
    pm, cm = statistics.median(parent), statistics.median(change)
    pq1, _, pq3 = (round(q, 5) for q in statistics.quantiles(parent, n=4, method="inclusive"))
    cq1, _, cq3 = (round(q, 5) for q in statistics.quantiles(change, n=4, method="inclusive"))
    return {
        "parent": parent,
        "change": change,
        "parent_median": round(pm, 5),
        "change_median": round(cm, 5),
        "parent_q1_q3": [pq1, pq3],
        "change_q1_q3": [cq1, cq3],
        "parent_iqr": round(pq3 - pq1, 5),
        "relative_change": round(cm / pm - 1, 4),
        "change_lower_in_pairs": sum(c < p for p, c in zip(parent, change)),
        "change_median_inside_parent_q1_q3": pq1 <= cm <= pq3,
    }


def claim_holds(parent: list[float], change: list[float]) -> bool:
    """Whether the change may claim a gain on a metric where lower is
    better: it is lower in at least nine of ten pairs (ties count for
    neither side), and its median is lower than the parent's by more than
    the parent's IQR."""
    s = summarize(parent, change)
    wins, gap = s["change_lower_in_pairs"], s["parent_median"] - s["change_median"]
    return 10 * wins >= 9 * len(parent) and gap > s["parent_iqr"]


def run(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``perfbench/run.py`` run in ``tree``: its last output line."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def paired_row(trees: dict, workload: str, seed: int, seconds: float, names: list[str]) -> dict:
    """``PAIRS`` alternating pairs of runs of one workload and seed."""
    first, runs = [], {side: [] for side in trees}
    for i in range(PAIRS):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        first.append(order[0])
        for side in order:
            runs[side].append(run(trees[side], workload, seed, seconds, 0))
            print(f"{workload} seed {seed} pair {i + 1}/{PAIRS} {side}: "
                  f"{ {m: runs[side][-1]['metrics'][m]['value'] for m in names} }", flush=True)
    row = {
        "pairs": PAIRS,
        "seed": seed,
        "first_in_pair": first,
        "correct": all(r["correct"] for side in runs.values() for r in side),
        "failed": [sum(r["failed"] for r in runs[side]) for side in ("parent", "change")],
        "attempted": [sum(r["attempted"] for r in runs[side]) for side in ("parent", "change")],
    }
    for m in names:
        row[m] = summarize(*([round(r["metrics"][m]["value"], 5) for r in runs[side]] for side in ("parent", "change")))
    return row


def unpack(tree_ish: str, dest: Path) -> Path:
    """``git archive tree_ish`` unpacked into ``dest``."""
    archive = subprocess.run(["git", "archive", tree_ish], cwd=ROOT, capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return dest


def working_tree() -> str:
    """The id of a git tree object holding the working tree's files that
    ``.gitignore`` does not exclude, tracked or not; it is written through
    a temporary index, so the repository's own index is left alone."""
    with tempfile.TemporaryDirectory(prefix="bench_pairs_index_") as tmp:
        env = {**os.environ, "GIT_INDEX_FILE": str(Path(tmp) / "index")}
        subprocess.run(["git", "add", "-A"], cwd=ROOT, env=env, check=True)
        done = subprocess.run(["git", "write-tree"], cwd=ROOT, env=env, capture_output=True, text=True, check=True)
        return done.stdout.strip()


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--ref", default="HEAD", help="the parent commit (default HEAD)")
    args = ap.parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in declared["workloads"]]
    names = [m["name"] for m in declared["end_to_end"]]
    seconds = declared["run_seconds"]
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {"parent": unpack(args.ref, Path(tmp) / "parent"),
                 "change": unpack(working_tree(), Path(tmp) / "change")}
        out = {
            "label": args.label,
            "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds} --trace 0, "
            f"parent = git archive {args.ref}, change = git archive of the working tree's files "
            f"that .gitignore does not exclude, each unpacked into a fresh directory, {PAIRS} pairs "
            "per workload and seed, alternating which side runs first (first_in_pair), one run at a time",
            "claim": None,
            "end_to_end": {
                f"{w} seed {s}": paired_row(trees, w, s, seconds, names)
                for w in workloads
                for s in SEEDS
            },
        }
        traced = {}
        for w in workloads:
            sides = [run(trees[side], w, SEEDS[0], TRACED_SECONDS, 1)["metrics"] for side in ("parent", "change")]
            traced[f"{w} seed {SEEDS[0]}"] = {
                m: [sides[0].get(m, {}).get("value"), sides[1].get(m, {}).get("value")]
                for m in sorted(set(sides[0]) | set(sides[1]))
                if "." in m
            }
        out["traced_parent_change"] = traced
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
