"""Instance generator and text formats.

Hypergraph format (``.hg``): a ``n <count>`` line, then one
``e <v1> <v2> ...`` line per hyperedge.  Line order defines edge ids,
``#`` starts a comment, tokens are whitespace-separated.  Every vertex must
lie in some hyperedge, and the parser checks that before it builds a
vertex set, so the vertex count it works with, like a network built from a
file, is bounded by the file's size.

Orientation format (``.or``): one ``o <edge_id> <head>`` line per edge,
every edge id exactly once, any order.

Trace format: one JSON object per line.  A header
``{"n":.., "m":.., "lambda_initial":.., "k_target":..}``, then
``{"step": i, "edge": e, "old_head": u, "new_head": v, "lambda": l}`` per
step (1-based), then a ``{"lambda_final":.., "steps":..}`` footer.  Every
field is a JSON integer.  The initial orientation is not embedded; it
travels as a ``.or`` file.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from .augment import ReorientationStep, ReorientationTrace, _as_well_formed
from .core import (
    Hypergraph,
    Orientation,
    PreconditionError,
    VertexSet,
    _as_count,
    _as_hypergraph,
    _as_instance,
    _as_text,
    _same_instance,
)


class ParseError(ValueError):
    """Malformed input text; the message carries the 1-based line number."""


@dataclass(frozen=True)
class GenSpec:
    """Parameters for the guaranteed-feasible instance generator.  Every
    field but ``seed`` is a count: a non-negative ``int``, kept as a plain
    one (an ``IntEnum`` is one, a ``bool`` is not)."""

    n: int
    k: int
    extra_edges: int = 0
    max_edge_size: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("n", "k", "extra_edges", "max_edge_size"):
            object.__setattr__(self, name, _as_count(name, getattr(self, name)))
        if self.n < 3:
            raise PreconditionError("generator needs n >= 3")
        if self.k < 1:
            raise PreconditionError("generator needs k >= 1")
        if not 2 <= self.max_edge_size <= self.n:
            raise PreconditionError("max_edge_size must be in 2..n")


def gen_instance(spec: GenSpec) -> Hypergraph:
    """Union of ``k`` independently shuffled spanning cycles (as size-2
    edges) plus random extra hyperedges.

    Every spanning cycle crosses any partition into ``t`` classes at least
    ``t`` times and extra edges only add crossings, so the result is
    ``(k, k)``-partition-connected by construction.  The procedure is fully
    determined by the seed: per cycle one ``shuffle`` of ``[0..n-1]``, per
    extra edge one ``randint`` for the size then one ``sample``.  A
    ``spec`` that is not a :class:`GenSpec` raises
    :class:`PreconditionError`.
    """
    _as_instance("spec", spec, GenSpec)
    rng = random.Random(spec.seed)
    n = spec.n
    edges: list[VertexSet] = []
    for _ in range(spec.k):
        perm = list(range(n))
        rng.shuffle(perm)
        for i in range(n):
            edges.append(VertexSet(n, (perm[i], perm[(i + 1) % n])))
    for _ in range(spec.extra_edges):
        size = rng.randint(2, spec.max_edge_size)
        edges.append(VertexSet(n, rng.sample(range(n), size)))
    return Hypergraph(n, tuple(edges))


def gen_orientation(h: Hypergraph, seed: int = 0, mode: str = "random") -> Orientation:
    """Seeded orientation: one uniform head pick per edge in edge order.

    ``mode='min-head'`` ignores the seed and orients every edge toward its
    smallest vertex, a deterministic adversarial start.  An ``h`` that is
    not a :class:`Hypergraph` raises :class:`PreconditionError`.
    """
    _as_hypergraph(h)
    if mode == "min-head":
        return Orientation(h, tuple(min(e) for e in h.edges))
    if mode != "random":
        raise PreconditionError(f"unknown orientation mode {mode!r}")
    rng = random.Random(seed)
    heads = []
    for e in h.edges:
        members = e.members()
        heads.append(members[rng.randrange(len(members))])
    return Orientation(h, tuple(heads))


def _tokenize(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def _ascii_number(token: str) -> int | None:
    """``token`` as a non-negative integer of ASCII digits, else ``None``.
    ``int`` alone also takes ``+0``, ``1_0`` and other scripts' digits such
    as ``٣``."""
    if token.isascii() and token.isdigit():
        try:
            return int(token)
        except ValueError:  # beyond the interpreter's digit limit
            pass
    return None


def _number(lineno: int, token: str, expected: str) -> int:
    value = _ascii_number(token)
    if value is None:
        raise ParseError(f"line {lineno}: expected {expected}, got {token[:20]!r}")
    return value


def parse_hypergraph(text: str) -> Hypergraph:
    """Parse the ``.hg`` format.  Every vertex must lie in some hyperedge.

    The edges are kept as lists of ints until that is checked, and only
    then become vertex sets over ``n``: a covered ``n`` is at most the
    number of vertex tokens, so no mask is wider than the text has vertex
    tokens, whatever count its ``n`` line declares.  A ``text`` that is
    not a ``str`` raises :class:`PreconditionError`."""
    _as_text(text)
    n = n_line = None
    covered: set[int] = set()  # the vertices of the edges so far
    edges: list[list[int]] = []
    for lineno, tokens in _tokenize(text):
        kind = tokens[0]
        if kind == "n":
            if n is not None:
                raise ParseError(f"line {lineno}: duplicate n line")
            if len(tokens) != 2:
                raise ParseError(f"line {lineno}: expected 'n <count>'")
            n, n_line = _number(lineno, tokens[1], "'n <count>'"), lineno
            if n < 2:
                raise ParseError(f"line {lineno}: need at least two vertices")
        elif kind == "e":
            if n is None:
                raise ParseError(f"line {lineno}: edge before the n line")
            if len(tokens) < 3:
                raise ParseError(f"line {lineno}: edges need at least two vertices")
            members = [_number(lineno, t, "a vertex") for t in tokens[1:]]
            if len(set(members)) != len(members):
                raise ParseError(f"line {lineno}: repeated vertex in edge")
            if any(not 0 <= v < n for v in members):
                raise ParseError(f"line {lineno}: vertex outside 0..{n - 1}")
            edges.append(members)
            covered.update(members)
        else:
            raise ParseError(f"line {lineno}: unknown directive {kind!r}")
    if n is None:
        raise ParseError("line 1: missing n line")
    v = next(v for v in range(len(covered) + 1) if v not in covered)  # the lowest vertex in no edge
    if v < n:
        raise ParseError(f"line {n_line}: the n line declares vertex {v}, which lies in no hyperedge")
    return Hypergraph(n, tuple(VertexSet(n, members) for members in edges))


def format_hypergraph(h: Hypergraph) -> str:
    _as_hypergraph(h)
    lines = [f"n {h.n}"]
    for e in h.edges:
        lines.append("e " + " ".join(map(str, e)))
    return "\n".join(lines) + "\n"


def parse_orientation(text: str, h: Hypergraph) -> Orientation:
    """Parse the ``.or`` format against its hypergraph.  A ``text`` that
    is not a ``str``, or an ``h`` that is not a :class:`Hypergraph`, raises
    :class:`PreconditionError`."""
    _as_text(text)
    _as_hypergraph(h)
    heads: dict[int, int] = {}
    for lineno, tokens in _tokenize(text):
        if tokens[0] != "o" or len(tokens) != 3:
            raise ParseError(f"line {lineno}: expected 'o <edge_id> <head>'")
        e, v = _number(lineno, tokens[1], "an edge id"), _number(lineno, tokens[2], "a vertex")
        if not 0 <= e < h.m:
            raise ParseError(f"line {lineno}: edge id {e} out of range")
        if e in heads:
            raise ParseError(f"line {lineno}: edge {e} oriented twice")
        if v not in h.edges[e]:
            raise ParseError(f"line {lineno}: vertex {v} not in edge {e}")
        heads[e] = v
    missing = [e for e in range(h.m) if e not in heads]
    if missing:
        raise ParseError(f"line 1: no orientation for edge {missing[0]}")
    return Orientation(h, tuple(heads[e] for e in range(h.m)))


def format_orientation(o: Orientation) -> str:
    _same_instance(getattr(o, "hypergraph", None), o)  # an orientation of its own hypergraph: the type test alone
    lines = [f"o {e} {v}" for e, v in enumerate(o.heads)]
    return "\n".join(lines) + "\n"


def format_trace(trace: ReorientationTrace) -> str:
    """The trace format of ``trace``.  It refuses, with
    :class:`PreconditionError`, what
    :func:`~hyperorient.augment.apply_trace` refuses before any replay, by
    the same rule and message: a ``trace`` that is no
    :class:`~hyperorient.augment.ReorientationTrace` from an
    :class:`~hyperorient.core.Orientation`, ``steps`` that are not a tuple
    of :class:`~hyperorient.augment.ReorientationStep`, and a field that
    is not an ``int``, which :func:`parse_trace` would reject."""
    _as_well_formed(trace)
    lines = [
        json.dumps(
            {
                "n": trace.n,
                "m": trace.m,
                "lambda_initial": trace.lambda_initial,
                "k_target": trace.k_target,
            }
        )
    ]
    for i, step in enumerate(trace.steps, start=1):
        lines.append(
            json.dumps(
                {
                    "step": i,
                    "edge": step.edge,
                    "old_head": step.old_head,
                    "new_head": step.new_head,
                    "lambda": step.lambda_after,
                }
            )
        )
    lines.append(json.dumps({"lambda_final": trace.lambda_final, "steps": len(trace.steps)}))
    return "\n".join(lines) + "\n"


def _int_record(lineno: int, rec, what: str, keys: tuple[str, ...]) -> None:
    """Check that a trace line is a JSON object whose fields ``keys`` are all
    integers (``true``, ``"0"`` and ``1e9`` are not)."""
    if not isinstance(rec, dict):
        raise ParseError(f"line {lineno}: {what} must be a JSON object")
    for key in keys:
        if key not in rec:
            raise ParseError(f"line {lineno}: {what} misses {key!r}")
        if type(rec[key]) is not int:
            raise ParseError(
                f"line {lineno}: {what} field {key!r} must be an integer, "
                f"got {type(rec[key]).__name__}"
            )


def parse_trace(text: str, initial: Orientation) -> ReorientationTrace:
    """Parse a trace file against the orientation it starts from.  A
    ``text`` that is not a ``str``, or an ``initial`` that is not an
    :class:`~hyperorient.core.Orientation`, raises
    :class:`PreconditionError`."""
    _as_text(text)
    _as_instance("initial", initial, Orientation)
    h = initial.hypergraph
    records = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            records.append((lineno, json.loads(line)))
        except ValueError as exc:  # a JSON syntax error, or a number beyond the interpreter's digit limit
            raise ParseError(f"line {lineno}: invalid JSON ({getattr(exc, 'msg', exc)})") from None
        except RecursionError:
            raise ParseError(f"line {lineno}: JSON nested too deeply") from None
    if len(records) < 2:
        raise ParseError("line 1: trace needs a header and a footer")
    lineno, header = records[0]
    _int_record(lineno, header, "header", ("n", "m", "lambda_initial", "k_target"))
    if header["n"] != h.n or header["m"] != h.m:
        raise ParseError(f"line {lineno}: header is for a different hypergraph")
    footer_line, footer = records[-1]
    _int_record(footer_line, footer, "footer", ("lambda_final", "steps"))
    steps = []
    for expected, (lineno, rec) in enumerate(records[1:-1], start=1):
        _int_record(lineno, rec, "step", ("step", "edge", "old_head", "new_head", "lambda"))
        if rec["step"] != expected:
            raise ParseError(f"line {lineno}: step index {rec['step']}, expected {expected}")
        steps.append(
            ReorientationStep(
                edge=rec["edge"],
                old_head=rec["old_head"],
                new_head=rec["new_head"],
                lambda_after=rec["lambda"],
            )
        )
    if footer["steps"] != len(steps):
        raise ParseError(f"line {footer_line}: footer claims {footer['steps']} steps, found {len(steps)}")
    return ReorientationTrace(
        initial=initial,
        k_target=header["k_target"],
        lambda_initial=header["lambda_initial"],
        lambda_final=footer["lambda_final"],
        steps=tuple(steps),
    )
