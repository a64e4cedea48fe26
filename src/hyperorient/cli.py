"""Command-line interface.

Subcommands: ``check`` (connectivity of an oriented input), ``families``,
``orient`` (raise connectivity, write a trace), ``verify`` (certify a
trace), ``gen`` (emit an instance), ``oracle`` (desk-scale brute-force
certifications).  Exit codes: 0 success, 1 precondition or verification
failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .augment import NotPartitionConnectedError, augment_to, verify_trace
from .core import Hypergraph, Orientation, PreconditionError, VertexSet
from .families import compute_families
from .oracle import (
    bf_families,
    bf_lambda,
    bf_min_separator,
    bf_orientation_exists,
    bf_partition_connected,
    bf_safe_sink,
    bf_safe_source,
)
from .separator import hyperarc_connectivity
from .toolkit import (
    GenSpec,
    ParseError,
    _ascii_number,
    format_hypergraph,
    format_orientation,
    format_trace,
    gen_instance,
    gen_orientation,
    parse_hypergraph,
    parse_orientation,
    parse_trace,
)


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise PreconditionError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _write(path: Optional[str], text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_instance(args) -> Hypergraph:
    return parse_hypergraph(_read(args.input))


def _load_oriented(args) -> tuple[Hypergraph, Orientation]:
    h = _load_instance(args)
    if args.orientation is None:
        raise PreconditionError("--orientation is required here")
    return h, parse_orientation(_read(args.orientation), h)


def _families_payload(fam) -> dict:
    return {
        "k": fam.k,
        "r": fam.r,
        "m_minus": [list(x) for x in fam.m_minus],
        "m_plus": [list(x) for x in fam.m_plus],
        "m_all": [list(x) for x in fam.m_all],
        "r_family": [list(x) for x in fam.r_family],
        "q_minus": {str(v): list(x) for v, x in enumerate(fam.q_minus)},
        "q_plus": {str(v): list(x) for v, x in enumerate(fam.q_plus)},
    }


def _print_families(fam, as_json: bool) -> None:
    if as_json:
        print(json.dumps(_families_payload(fam)))
        return
    print(f"k = {fam.k}")
    print(f"r = {fam.r}")
    for name in ("m_minus", "m_plus", "m_all", "r_family"):
        sets = " ".join("{" + ",".join(map(str, x)) + "}" for x in getattr(fam, name))
        print(f"{name}: {sets}")
    for name in ("q_minus", "q_plus"):
        sets = " ".join(
            f"{v}->{{{','.join(map(str, x))}}}" for v, x in enumerate(getattr(fam, name))
        )
        print(f"{name}: {sets}")


def _cmd_check(args) -> int:
    h, o = _load_oriented(args)
    lam = hyperarc_connectivity(h, o)
    if args.json:
        print(json.dumps({"lambda": lam}))
    else:
        print(lam)
    return 0


def _cmd_families(args) -> int:
    h, o = _load_oriented(args)
    _print_families(compute_families(h, o), args.json)
    return 0


def _cmd_orient(args) -> int:
    target_k, seed = _integer(args.target_k, "--target-k"), _integer(args.seed, "--seed")
    h = _load_instance(args)
    if args.orientation is not None:
        o = parse_orientation(_read(args.orientation), h)
    else:
        o = gen_orientation(h, seed=seed)
    if args.orientation_out:
        _write(args.orientation_out, format_orientation(o))
    trace = augment_to(h, o, target_k)
    _write(args.trace_out, format_trace(trace))
    summary = {
        "lambda_initial": trace.lambda_initial,
        "lambda_final": trace.lambda_final,
        "steps": len(trace.steps),
    }
    if args.json:
        print(json.dumps(summary))
    elif args.trace_out not in (None, "-"):
        print(
            f"lambda {trace.lambda_initial} -> {trace.lambda_final} "
            f"in {len(trace.steps)} steps"
        )
    return 0


def _cmd_verify(args) -> int:
    h, o = _load_oriented(args)
    trace = parse_trace(_read(args.trace), o)
    report = verify_trace(h, trace)
    if args.json:
        print(
            json.dumps(
                {
                    "ok": report.ok,
                    "failures": [
                        {"step": f.step, "message": f.message} for f in report.failures
                    ],
                }
            )
        )
    else:
        print(report.render())
    return 0 if report.ok else 1


def _cmd_gen(args) -> int:
    spec = GenSpec(
        n=_integer(args.n, "--n"),
        k=_integer(args.k, "--k"),
        extra_edges=_integer(args.extra_edges, "--extra-edges"),
        max_edge_size=_integer(args.max_edge_size, "--max-edge-size"),
        seed=_integer(args.seed, "--seed"),
    )
    _write(args.out, format_hypergraph(gen_instance(spec)))
    return 0


def _integer(token: str, flag: str, expected: str = "a non-negative integer") -> int:
    """A number given on the command line, as ASCII digits like the file
    formats' numbers."""
    v = _ascii_number(token)
    if v is None:
        raise PreconditionError(f"{flag}: expected {expected}, got {token[:20]!r}")
    return v


def _parse_vertex_list(text: str, n: int, flag: str) -> VertexSet:
    return VertexSet(n, [_integer(t, flag, "a vertex") for t in text.split(",") if t != ""])


def _cmd_oracle(args) -> int:
    op = args.operation
    k = _integer(args.k, "--k")
    if op in ("partition-connected", "orientation-exists"):
        h = _load_instance(args)
    else:
        h, o = _load_oriented(args)
    if op == "lambda":
        result = {"lambda": bf_lambda(h, o)}
    elif op == "families":
        _print_families(bf_families(h, o), args.json)
        return 0
    elif op == "separator":
        sinks = _parse_vertex_list(args.sinks, h.n, "--sinks")
        source = _integer(args.source, "--source", "a vertex")
        value, minimizers, minimal = bf_min_separator(h, o, source, sinks, args.side)
        result = {
            "value": value,
            "minimal": list(minimal),
            "minimizers": [list(x) for x in minimizers],
        }
    elif op == "partition-connected":
        ok, witness = bf_partition_connected(h, k)
        result = {"partition_connected": ok}
        if witness is not None:
            result["witness"] = [list(c) for c in witness.classes]
    elif op == "orientation-exists":
        ok, witness = bf_orientation_exists(h, k)
        result = {"orientation_exists": ok}
        if witness is not None:
            result["heads"] = list(witness.heads)
    elif op in ("safe-source", "safe-sink"):
        fam = bf_families(h, o)
        member = _parse_vertex_list(args.set, h.n, "--set")
        test = bf_safe_source if op == "safe-source" else bf_safe_sink
        result = {"safe": test(h, o, fam, member, _integer(args.vertex, "--vertex", "a vertex"))}
    else:  # pragma: no cover - argparse restricts choices
        raise PreconditionError(f"unknown oracle operation {op!r}")
    if args.json:
        print(json.dumps(result))
    else:
        for key, value in result.items():
            print(f"{key}: {value}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperorient",
        description="Raise the hyperarc-connectivity of a hypergraph orientation "
        "one reorientation at a time, with certification tooling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, orientation_required=True):
        p.add_argument("--input", required=True, help="hypergraph file (.hg)")
        p.add_argument(
            "--orientation",
            required=orientation_required,
            default=None,
            help="orientation file (.or)",
        )
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("check", help="print the hyperarc-connectivity of an oriented input")
    add_common(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("families", help="print the cut families of an oriented input")
    add_common(p)
    p.set_defaults(func=_cmd_families)

    p = sub.add_parser("orient", help="raise connectivity to a target and write a trace")
    add_common(p, orientation_required=False)
    p.add_argument("--target-k", required=True, help="target connectivity")
    p.add_argument("--seed", default="0", help="seed for a generated start orientation")
    p.add_argument("--trace-out", default=None, help="trace output path (default stdout)")
    p.add_argument(
        "--orientation-out",
        default=None,
        help="where to save the start orientation (useful with --seed)",
    )
    p.set_defaults(func=_cmd_orient)

    p = sub.add_parser("verify", help="replay and certify a trace")
    add_common(p)
    p.add_argument("trace", help="trace file produced by orient")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("gen", help="emit a feasible instance")
    p.add_argument("--n", required=True)
    p.add_argument("--k", required=True)
    p.add_argument("--extra-edges", default="0")
    p.add_argument("--max-edge-size", default="3")
    p.add_argument("--seed", default="0")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("oracle", help="desk-scale brute-force certifications")
    p.add_argument(
        "operation",
        choices=[
            "lambda",
            "families",
            "separator",
            "partition-connected",
            "orientation-exists",
            "safe-source",
            "safe-sink",
        ],
    )
    add_common(p, orientation_required=False)
    p.add_argument("--k", default="1")
    p.add_argument("--side", choices=["out", "in"], default="out")
    p.add_argument("--source", default="0")
    p.add_argument("--sinks", default="", help="comma-separated vertex list")
    p.add_argument("--set", default="", help="comma-separated vertex list")
    p.add_argument("--vertex", default="0")
    p.set_defaults(func=_cmd_oracle)

    return parser


def cli(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (ParseError, PreconditionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NotPartitionConnectedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.certificate is not None:
            print(f"certificate: {exc.certificate}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
