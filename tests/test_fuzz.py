"""Property fuzz of the input boundaries: the three text parsers, the CLI and
``verify_trace``.

A parser may reject its input only with ``ParseError`` or
``PreconditionError``; the CLI must exit with 0, 1 or 2 and never print a
traceback; ``verify_trace`` must report exactly what the from-scratch replay
reports.  Every test is derandomized with a bounded example count, so each
run replays the same inputs.  Numbers in the generated text stay small, so no
example asks for unbounded work.
"""

import contextlib
import io
import json
import random
import tempfile
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from hyperorient import (  # noqa: E402
    Orientation,
    ParseError,
    PreconditionError,
    augment_to,
    format_hypergraph,
    format_orientation,
    format_trace,
    hypergraph,
    parse_hypergraph,
    parse_orientation,
    parse_trace,
    verify_trace,
)
from hyperorient.cli import cli  # noqa: E402
from replay import MUTATIONS, instance_trace, mutate, reference_verify_trace  # noqa: E402

FUZZ = settings(max_examples=60, derandomize=True, database=None, deadline=None)

H = hypergraph(3, [(0, 1), (0, 1), (1, 2), (1, 2), (0, 2), (0, 2)])
O = Orientation(H, (1, 1, 2, 2, 2, 2))
TRACE = format_trace(augment_to(H, O, 2))

# Digits only come from small integers, so no text names a large vertex
# count; the odd tokens are near misses.  A fixed alphabet keeps hypothesis
# from building its Unicode tables on a fresh checkout.
ALPHABET = "enox #\t\r\n\x00-+._{}[]\":,²٣∞éß\u200b\ufeff"
ODD = ["²", "٣", "+1", "1_0", "0x1", "1e3", "-0", "\x00", "∞", "#", "o", "e", "n"]
TOKEN = st.one_of(st.integers(-2, 7).map(str), st.sampled_from(ODD), st.text(ALPHABET, max_size=3))


def lines_of(directives):
    line = st.tuples(st.sampled_from(directives), st.lists(TOKEN, max_size=4))
    return st.lists(line.map(lambda t: " ".join((t[0], *t[1]))), max_size=7).map("\n".join)


COUNT_LINE = st.one_of(st.integers(-2, 9).map(str), st.sampled_from(ODD)).map("n {}".format)
HG_TEXT = st.one_of(
    st.tuples(COUNT_LINE, lines_of(["e", "e", "n", "x", ""])).map("\n".join),
    st.text(ALPHABET, max_size=30),
)
OR_TEXT = st.one_of(lines_of(["o", "o", "e", ""]), st.text(ALPHABET, max_size=30))

FIELDS = ["n", "m", "lambda_initial", "k_target", "step", "edge", "old_head", "new_head", "lambda", "lambda_final", "steps"]
JSON_VALUE = st.one_of(st.integers(-2, 6), st.booleans(), st.none(), st.floats(allow_nan=False), st.text(ALPHABET, max_size=2))
RECORD = st.dictionaries(st.sampled_from(FIELDS), JSON_VALUE, max_size=6).map(json.dumps)


@st.composite
def trace_text(draw):
    """Either lines of random records or the valid trace with one line
    replaced, dropped or duplicated."""
    if draw(st.booleans()):
        return "\n".join(draw(st.lists(st.one_of(RECORD, st.text(ALPHABET, max_size=8)), max_size=5)))
    lines = TRACE.splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    edit = draw(st.sampled_from(["replace", "drop", "duplicate", "field"]))
    if edit == "replace":
        lines[i] = draw(st.one_of(RECORD, st.text(ALPHABET, max_size=8)))
    elif edit == "drop":
        del lines[i]
    elif edit == "duplicate":
        lines.insert(i, lines[i])
    else:
        rec = json.loads(lines[i])
        rec[draw(st.sampled_from(sorted(rec)))] = draw(JSON_VALUE)
        lines[i] = json.dumps(rec)
    return "\n".join(lines)


def parses_or_rejects(parse, *args):
    try:
        parse(*args)
    except (ParseError, PreconditionError):
        pass


@FUZZ
@given(HG_TEXT)
def test_parse_hypergraph_rejects_only_with_parse_errors(text):
    parses_or_rejects(parse_hypergraph, text)


@FUZZ
@given(OR_TEXT)
def test_parse_orientation_rejects_only_with_parse_errors(text):
    parses_or_rejects(parse_orientation, text, H)


@FUZZ
@given(trace_text())
def test_parse_trace_rejects_only_with_parse_errors(text):
    parses_or_rejects(parse_trace, text, O)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli(argv)
    return code, out.getvalue() + err.getvalue()


def write(d: Path, name: str, text: str) -> str:
    (d / name).write_text(text, encoding="utf-8")
    return str(d / name)


@FUZZ
@given(
    st.sampled_from(["check", "families", "orient", "verify"]),
    st.one_of(HG_TEXT, st.just(format_hypergraph(H))),
    st.one_of(OR_TEXT, st.just(format_orientation(O))),
    trace_text(),
    st.integers(-1, 3),
)
def test_cli_on_fuzzed_files_exits_cleanly(command, hg, orf, trace, k):
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        argv = [command, "--input", write(d, "h.hg", hg), "--orientation", write(d, "o.or", orf)]
        if command == "orient":
            argv += ["--target-k", str(k), "--trace-out", str(d / "out.trace")]
        elif command == "verify":
            argv.append(write(d, "t.trace", trace))
        code, output = run(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in output


ARGV_TOKEN = st.sampled_from(
    [
        "check", "families", "orient", "verify", "gen", "oracle", "lambda", "separator",
        "safe-source", "partition-connected", "--input", "--orientation", "--target-k",
        "--n", "--k", "--seed", "--sinks", "--set", "--side", "--json", "-1",
        "0", "2", "3", "in", "1,2", "x", "@HG", "@OR", "@TRACE", "@DIR", "@MISSING",
    ]
)


@FUZZ
@given(st.lists(ARGV_TOKEN, max_size=9))
@example(["oracle", "lambda", "--input", "@HG"])
def test_cli_on_fuzzed_arguments_exits_cleanly(tokens):
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        paths = {
            "@HG": write(d, "h.hg", format_hypergraph(H)),
            "@OR": write(d, "o.or", format_orientation(O)),
            "@TRACE": write(d, "t.trace", TRACE),
            "@DIR": tmp,
            "@MISSING": str(d / "missing"),
        }
        code, output = run([paths.get(t, t) for t in tokens])
    assert code in (0, 1, 2)
    assert "Traceback" not in output


@FUZZ
@given(st.integers(0, 2**20), st.sampled_from(MUTATIONS))
def test_verify_trace_reports_what_the_replay_reports(seed, kind):
    h, trace = instance_trace(seed, n_range=(4, 9))
    mutated = mutate(random.Random(seed), h, trace, kind)
    assert verify_trace(h, mutated) == reference_verify_trace(h, mutated)
