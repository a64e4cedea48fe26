import json
import os
import subprocess
import sys
from enum import IntEnum
from pathlib import Path

import pytest

import hyperorient
from hyperorient import (
    GenSpec,
    Orientation,
    ParseError,
    PreconditionError,
    augment_to,
    bf_partition_connected,
    format_hypergraph,
    format_orientation,
    format_trace,
    gen_instance,
    gen_orientation,
    hypergraph,
    parse_hypergraph,
    parse_orientation,
    parse_trace,
    separator,
)
from hyperorient.cli import cli


class TestGenerator:
    def test_triangle_is_the_only_3_cycle(self):
        h = gen_instance(GenSpec(n=3, k=1, seed=5))
        assert h.m == 3
        assert {e.members() for e in h.edges} == {(0, 1), (1, 2), (0, 2)}

    def test_doubled_triangle_is_2_2_connected(self):
        h = gen_instance(GenSpec(n=3, k=2, seed=1))
        assert h.m == 6
        assert bf_partition_connected(h, 2)[0]

    def test_generator_soundness(self):
        for seed in range(25):
            spec = GenSpec(
                n=3 + seed % 6,
                k=1 + seed % 3,
                extra_edges=seed % 4,
                max_edge_size=min(4, 3 + seed % 6),
                seed=seed,
            )
            h = gen_instance(spec)
            assert bf_partition_connected(h, spec.k)[0]

    def test_seed_determinism(self):
        spec = GenSpec(n=8, k=2, extra_edges=3, max_edge_size=4, seed=77)
        assert gen_instance(spec) == gen_instance(spec)

    def test_spec_validation(self):
        with pytest.raises(PreconditionError):
            GenSpec(n=2, k=1)
        with pytest.raises(PreconditionError):
            GenSpec(n=4, k=0)
        with pytest.raises(PreconditionError):
            GenSpec(n=4, k=1, max_edge_size=5)

    # ``k=True`` used to build a one-cycle instance, and a float or a
    # string count failed inside ``gen_instance`` with a raw TypeError
    @pytest.mark.parametrize("field", ["n", "k", "extra_edges", "max_edge_size"])
    @pytest.mark.parametrize("bad", [True, False, 0.5, 1.0, "1", None], ids=repr)
    def test_spec_counts_must_be_ints(self, field, bad):
        fields = {"n": 4, "k": 1, "extra_edges": 1, "max_edge_size": 3, field: bad}
        with pytest.raises(PreconditionError, match=f"^{field} must be a non-negative int"):
            GenSpec(**fields)

    def test_spec_keeps_int_enum_counts_as_plain_ints(self):
        count = IntEnum("Count", "ONE TWO THREE FOUR")
        spec = GenSpec(n=count.FOUR, k=count.TWO, extra_edges=count.ONE, max_edge_size=count.THREE, seed=2)
        assert all(type(getattr(spec, name)) is int for name in ("n", "k", "extra_edges", "max_edge_size"))
        assert gen_instance(spec) == gen_instance(GenSpec(n=4, k=2, extra_edges=1, max_edge_size=3, seed=2))

    def test_orientation_modes(self):
        h = gen_instance(GenSpec(n=6, k=2, extra_edges=2, seed=3))
        o1 = gen_orientation(h, seed=9)
        assert o1 == gen_orientation(h, seed=9)
        assert all(o1.heads[e] in h.edges[e] for e in range(h.m))
        o2 = gen_orientation(h, mode="min-head")
        assert o2.heads == tuple(min(e) for e in h.edges)
        with pytest.raises(PreconditionError):
            gen_orientation(h, mode="roulette")


THREE_CYCLE_HG = "n 3\ne 0 1\ne 1 2\ne 0 2\n"
THREE_CYCLE_OR = "o 0 1\no 1 2\no 2 0\n"

# (file kind, text, line-numbered refusal), each against the three-cycle in the other format
MALFORMED_FILES = [
    pytest.param("hg", "n 3 4\ne 0 1\ne 1 2\ne 0 2\n", "line 1: expected 'n <count>'", id="n-line-extra-token"),
    pytest.param("hg", "n 3\ne 0 1\ne 1 1\ne 0 2\n", "line 3: repeated vertex in edge", id="repeated-vertex"),
    pytest.param("hg", "n 3\ne 0 1\ne 1 3\ne 0 2\n", "line 3: vertex outside 0..2", id="vertex-out-of-range"),
    pytest.param("or", "o 0 1\no 1 2\no 3 0\n", "line 3: edge id 3 out of range", id="edge-id-out-of-range"),
    pytest.param("or", "o 0 1\no 1 0\no 2 0\n", "line 2: vertex 0 not in edge 1", id="head-not-in-edge"),
]


class TestFormats:
    def test_hypergraph_roundtrip(self):
        h = hypergraph(5, [(0, 1, 4), (2, 3), (2, 3)])
        assert parse_hypergraph(format_hypergraph(h)) == h

    def test_orientation_roundtrip(self):
        h = hypergraph(4, [(0, 1, 2), (1, 3)])
        from hyperorient import Orientation

        o = Orientation(h, (2, 3))
        assert parse_orientation(format_orientation(o), h) == o

    def test_comments_and_blanks(self):
        text = "# instance\nn 3\n\ne 0 1  # pair\ne 1 2\n"
        assert parse_hypergraph(text).m == 2

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_hypergraph("n 3\ne 0\n")
        with pytest.raises(ParseError, match="line 1"):
            parse_hypergraph("e 0 1\nn 3\n")
        with pytest.raises(ParseError, match="line 3"):
            parse_hypergraph("n 3\ne 0 1\nq 1 2\n")
        h = hypergraph(3, [(0, 1), (1, 2)])
        with pytest.raises(ParseError, match="line 2"):
            parse_orientation("o 0 1\no 0 0\n", h)
        with pytest.raises(ParseError, match="no orientation for edge 1"):
            parse_orientation("o 0 1\n", h)

    @pytest.mark.parametrize("token", ["\u00b2", "\u0663", "+3", "3.0", "3 4"])
    def test_vertex_count_must_be_ascii_digits(self, token):
        with pytest.raises(ParseError, match="line 2: expected 'n <count>'"):
            parse_hypergraph(f"# count\nn {token}\ne 0 1\n")

    @pytest.mark.parametrize("token", ["\u0663", "1_0", "+0", "-0", "\uff11\uff10"])
    def test_edge_and_orientation_tokens_must_be_ascii_digits(self, token):
        with pytest.raises(ParseError, match="line 3: expected a vertex"):
            parse_hypergraph(f"n 12\ne 0 1\ne 2 {token}\n")
        h = hypergraph(12, [(0, 10), (0, 3)])
        with pytest.raises(ParseError, match="line 2: expected an edge id"):
            parse_orientation(f"o 0 0\no {token} 3\n", h)
        with pytest.raises(ParseError, match="line 2: expected a vertex"):
            parse_orientation(f"o 1 0\no 0 {token}\n", h)

    @pytest.mark.parametrize(
        "text, line, vertex",
        [("n 2000\ne 0 1\n", 1, 2), ("# gap\nn 4\ne 0 1\ne 3 0\n", 2, 2), ("n 2\n", 1, 0)],
    )
    def test_vertex_in_no_hyperedge_is_a_parse_error(self, text, line, vertex):
        with pytest.raises(ParseError, match=f"line {line}: the n line declares vertex {vertex},"):
            parse_hypergraph(text)

    @pytest.mark.parametrize("kind, text, message", MALFORMED_FILES)
    def test_malformed_files_are_line_numbered_parse_errors(self, kind, text, message):
        with pytest.raises(ParseError) as info:
            if kind == "hg":
                parse_hypergraph(text)
            else:
                parse_orientation(text, parse_hypergraph(THREE_CYCLE_HG))
        assert str(info.value) == message

    def test_number_beyond_the_digit_limit_is_a_parse_error(self):
        with pytest.raises(ParseError, match="line 1: expected 'n <count>'"):
            parse_hypergraph("n " + "9" * 5000 + "\ne 0 1\n")

    def test_a_huge_declared_count_costs_memory_by_the_text(self):
        """40 edge lines under ``n 40000000`` leave vertex 1 in no edge.
        The masks used to be built over n before that was checked, 50 MB
        and more for this 531-byte file; a child process parses it and
        reports the peak RSS of its own address space (``VmHWM``, which,
        unlike ``ru_maxrss``, does not count the forking process's)."""
        status = Path("/proc/self/status")
        if not status.is_file() or "VmHWM:" not in status.read_text():
            pytest.skip("no VmHWM in /proc/self/status")
        text = "n 40000000\n" + "e 0 9999999\n" * 40
        child = (
            "import re, sys\n"
            "from hyperorient import ParseError, parse_hypergraph\n"
            "try:\n"
            "    parse_hypergraph(sys.stdin.read())\n"
            "except ParseError as err:\n"
            "    print(err)\n"
            "status = open('/proc/self/status').read()\n"
            "print(re.search(r'VmHWM:\\s*(\\d+) kB', status).group(1))\n"
        )
        src = Path(hyperorient.__file__).resolve().parent.parent
        done = subprocess.run(
            [sys.executable, "-c", child],
            input=text,
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        message, peak_kb = done.stdout.splitlines()
        assert message == "line 1: the n line declares vertex 1, which lies in no hyperedge"
        assert int(peak_kb) < 60 * 1024


def doubled_triangle_trace():
    h = hypergraph(3, [(0, 1), (0, 1), (1, 2), (1, 2), (0, 2), (0, 2)])
    o = Orientation(h, (1, 1, 2, 2, 2, 2))
    return h, o, format_trace(augment_to(h, o, 2))


def with_raw_field(text, index, key, raw):
    """The trace text with field ``key`` of line ``index`` replaced by the
    literal JSON token ``raw``."""
    lines = text.splitlines()
    rec = json.loads(lines[index])
    rec[key] = "@"
    lines[index] = json.dumps(rec).replace('"@"', raw)
    return "\n".join(lines) + "\n"


# (line index, field, literal JSON token); -1 is the footer
NON_INTEGER_FIELDS = [
    (1, "edge", '"0"'),
    (1, "edge", "true"),
    (0, "k_target", "1e9"),
    (0, "n", "3.0"),
    (1, "lambda", "null"),
    (-1, "steps", "false"),
]


class TestTraceFormat:
    @pytest.mark.parametrize("text", [1, None, "bytes"], ids=["int", "None", "bytes"])
    @pytest.mark.parametrize("parse", ["hypergraph", "orientation", "trace"])
    def test_text_must_be_a_str(self, parse, text):
        """``core``'s text rule, first in each parser: an ``int`` or ``None``
        used to fail with a raw ``AttributeError``, and ``bytes`` with a raw
        ``TypeError``, or were parsed as a trace through ``json.loads``."""
        h, o, trace = doubled_triangle_trace()
        valid, call = {
            "hypergraph": (format_hypergraph(h), parse_hypergraph),
            "orientation": (format_orientation(o), lambda t: parse_orientation(t, h)),
            "trace": (trace, lambda t: parse_trace(t, o)),
        }[parse]
        if text == "bytes":
            text = valid.encode("utf-8")
        with pytest.raises(PreconditionError, match=f"^text is a {type(text).__name__}, not a str$"):
            call(text)

    @pytest.mark.parametrize("index, key, raw", NON_INTEGER_FIELDS)
    def test_non_integer_field_rejected_with_line(self, index, key, raw):
        _, o, text = doubled_triangle_trace()
        lineno = index + 1 if index >= 0 else len(text.splitlines())
        with pytest.raises(ParseError, match=f"line {lineno}: .*{key!r} must be an integer"):
            parse_trace(with_raw_field(text, index, key, raw), o)

    def test_deeply_nested_json_rejected_with_line(self):
        _, o, text = doubled_triangle_trace()
        lines = text.splitlines()
        lines[1] = "[" * 100_000
        with pytest.raises(ParseError, match="line 2: JSON nested too deeply"):
            parse_trace("\n".join(lines), o)

    @pytest.mark.parametrize(
        "index, key, raw, message",
        [(0, "n", "4", "line 1: header is for a different hypergraph"), (-1, "steps", "99", "footer claims 99 steps")],
    )
    def test_trace_for_another_run_rejected_with_line(self, index, key, raw, message):
        _, o, text = doubled_triangle_trace()
        lineno = index + 1 if index >= 0 else len(text.splitlines())
        with pytest.raises(ParseError, match=f"^line {lineno}: ") as info:
            parse_trace(with_raw_field(text, index, key, raw), o)
        assert message in str(info.value)

    def test_line_that_is_not_an_object_rejected(self):
        _, o, text = doubled_triangle_trace()
        lines = text.splitlines()
        lines[1] = "[1, 2]"
        with pytest.raises(ParseError, match="line 2: step must be a JSON object"):
            parse_trace("\n".join(lines), o)


def run_cli(capsys, *argv):
    code = cli(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCli:
    def write_three_cycle(self, tmp_path):
        hg = tmp_path / "tri.hg"
        orf = tmp_path / "tri.or"
        hg.write_text("n 3\ne 0 1\ne 1 2\ne 0 2\n")
        orf.write_text("o 0 1\no 1 2\no 2 0\n")
        return str(hg), str(orf)

    def test_check_prints_connectivity(self, capsys, tmp_path):
        hg, orf = self.write_three_cycle(tmp_path)
        code, out, _ = run_cli(capsys, "check", "--input", hg, "--orientation", orf)
        assert code == 0 and out.strip() == "1"
        code, out, _ = run_cli(capsys, "check", "--input", hg, "--orientation", orf, "--json")
        assert code == 0 and json.loads(out) == {"lambda": 1}

    def test_families_json(self, capsys, tmp_path):
        hg, orf = self.write_three_cycle(tmp_path)
        code, out, _ = run_cli(
            capsys, "families", "--input", hg, "--orientation", orf, "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["k"] == 1 and payload["m_minus"] == [[1], [2]]

    def test_gen_orient_verify_roundtrip(self, capsys, tmp_path):
        hg = tmp_path / "gen.hg"
        code, _, _ = run_cli(
            capsys, "gen", "--n", "6", "--k", "2", "--extra-edges", "2",
            "--seed", "4", "--out", str(hg),
        )
        assert code == 0
        orf = tmp_path / "start.or"
        trace = tmp_path / "run.trace"
        code, out, _ = run_cli(
            capsys, "orient", "--input", str(hg), "--target-k", "2", "--seed", "11",
            "--trace-out", str(trace), "--orientation-out", str(orf), "--json",
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["lambda_final"] == 2
        code, out, _ = run_cli(
            capsys, "verify", "--input", str(hg), "--orientation", str(orf), str(trace)
        )
        assert code == 0 and out.strip() == "trace OK"

    def write_generated(self, tmp_path):
        """A desk-scale generated instance and a start orientation below
        its target of 2, written as files."""
        h = gen_instance(GenSpec(n=7, k=2, extra_edges=3, max_edge_size=3, seed=4))
        o = gen_orientation(h, seed=4, mode="min-head")
        hg, orf = tmp_path / "gen.hg", tmp_path / "start.or"
        hg.write_text(format_hypergraph(h))
        orf.write_text(format_orientation(o))
        return h, o, str(hg), str(orf)

    def test_orient_to_stdout_and_verify_json(self, capsys, tmp_path):
        """With no ``--trace-out`` the trace goes to stdout, alone, and
        parses back to the solver's trace; ``verify --json`` accepts it,
        and reports a step whose connectivity was changed, exiting 1."""
        h, o, hg, orf = self.write_generated(tmp_path)
        code, out, _ = run_cli(capsys, "orient", "--input", hg, "--orientation", orf, "--target-k", "2")
        trace = augment_to(h, o, 2)
        assert code == 0 and trace.steps and parse_trace(out, o) == trace
        path = tmp_path / "run.trace"
        path.write_text(out)
        code, out, _ = run_cli(capsys, "verify", "--input", hg, "--orientation", orf, str(path), "--json")
        assert code == 0 and json.loads(out) == {"ok": True, "failures": []}
        lines = path.read_text().splitlines()
        rec = json.loads(lines[1])
        rec["lambda"] += 1
        lines[1] = json.dumps(rec)
        path.write_text("\n".join(lines) + "\n")
        code, out, _ = run_cli(capsys, "verify", "--input", hg, "--orientation", orf, str(path), "--json")
        report = json.loads(out)
        assert code == 1 and report["ok"] is False and report["failures"][0]["step"] == 1

    def test_oracle_families_and_lambda_print_like_the_solver(self, capsys, tmp_path):
        """``oracle families`` prints what ``families`` prints, as text and
        as JSON, and ``oracle lambda`` without ``--json`` prints a
        ``key: value`` line."""
        from hyperorient import bf_lambda

        h, o, hg, orf = self.write_generated(tmp_path)
        for flags in ((), ("--json",)):
            solver = run_cli(capsys, "families", "--input", hg, "--orientation", orf, *flags)
            oracle = run_cli(capsys, "oracle", "families", "--input", hg, "--orientation", orf, *flags)
            assert solver[0] == oracle[0] == 0 and solver[1] == oracle[1] and solver[1]
        code, out, _ = run_cli(capsys, "oracle", "lambda", "--input", hg, "--orientation", orf)
        assert code == 0 and out == f"lambda: {bf_lambda(h, o)}\n"

    def test_verify_rejects_tampered_trace(self, capsys, tmp_path):
        hg = tmp_path / "gen.hg"
        run_cli(capsys, "gen", "--n", "4", "--k", "1", "--seed", "2", "--out", str(hg))
        orf = tmp_path / "start.or"
        trace = tmp_path / "run.trace"
        code, _, _ = run_cli(
            capsys, "orient", "--input", str(hg), "--target-k", "1", "--seed", "3",
            "--trace-out", str(trace), "--orientation-out", str(orf),
        )
        assert code == 0
        lines = trace.read_text().splitlines()
        if len(lines) > 2:  # bump a recorded connectivity value
            rec = json.loads(lines[1])
            rec["lambda"] += 1
            lines[1] = json.dumps(rec)
            trace.write_text("\n".join(lines) + "\n")
            code, out, _ = run_cli(
                capsys, "verify", "--input", str(hg), "--orientation", str(orf), str(trace)
            )
            assert code == 1 and "FAIL" in out

    # a number past the interpreter's digit limit used to print a traceback
    @pytest.mark.parametrize(
        "index, key, raw",
        NON_INTEGER_FIELDS
        + [
            pytest.param(0, "k_target", "9" * 5000, id="over-long-int"),
            pytest.param(0, "n", "4", id="header-for-another-hypergraph"),
            pytest.param(-1, "steps", "99", id="footer-step-count"),
        ],
    )
    def test_verify_non_integer_field_exits_one(self, capsys, tmp_path, index, key, raw):
        h, o, text = doubled_triangle_trace()
        paths = {}
        for name, body in (
            ("h.hg", format_hypergraph(h)),
            ("o.or", format_orientation(o)),
            ("t.trace", with_raw_field(text, index, key, raw)),
        ):
            paths[name] = tmp_path / name
            paths[name].write_text(body)
        code, out, err = run_cli(
            capsys, "verify", "--input", str(paths["h.hg"]), "--orientation",
            str(paths["o.or"]), str(paths["t.trace"]),
        )
        lineno = index + 1 if index >= 0 else len(text.splitlines())
        assert code == 1 and err.startswith(f"error: line {lineno}: ")
        assert "Traceback" not in out + err

    @pytest.mark.parametrize("kind, text, message", MALFORMED_FILES)
    def test_malformed_files_exit_one(self, capsys, tmp_path, kind, text, message):
        hg, orf = tmp_path / "h.hg", tmp_path / "o.or"
        hg.write_text(text if kind == "hg" else THREE_CYCLE_HG)
        orf.write_text(text if kind == "or" else THREE_CYCLE_OR)
        code, out, err = run_cli(capsys, "check", "--input", str(hg), "--orientation", str(orf))
        assert code == 1 and err == f"error: {message}\n" and "Traceback" not in out

    def test_orient_infeasible_exits_one(self, capsys, tmp_path):
        hg, orf = self.write_three_cycle(tmp_path)
        code, _, err = run_cli(
            capsys, "orient", "--input", hg, "--orientation", orf, "--target-k", "2",
            "--trace-out", str(tmp_path / "t.trace"),
        )
        assert code == 1 and "error" in err

    def test_usage_error_exits_two(self, capsys):
        assert run_cli(capsys, "check")[0] == 2
        assert run_cli(capsys, "frobnicate")[0] == 2

    def test_missing_file_exits_one(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "check", "--input", str(tmp_path / "nope.hg"),
            "--orientation", str(tmp_path / "nope.or"),
        )
        assert code == 1 and "error" in err

    def test_non_digit_vertex_count_exits_one(self, capsys, tmp_path):
        hg = tmp_path / "sq.hg"
        hg.write_text("n \u00b2\ne 0 1\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "check", "--input", str(hg), "--orientation", str(hg))
        assert code == 1 and err.startswith("error: line 1: expected 'n <count>'")
        assert "Traceback" not in out + err

    def test_non_utf8_file_exits_one(self, capsys, tmp_path):
        hg = tmp_path / "latin1.hg"
        hg.write_bytes("n 3\ne 0 1 # caf\u00e9\n".encode("latin-1"))
        code, out, err = run_cli(capsys, "check", "--input", str(hg), "--orientation", str(hg))
        assert code == 1 and err.startswith(f"error: {hg}: not UTF-8 text")
        assert "Traceback" not in out + err

    def test_directory_as_file_exits_one(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "check", "--input", str(tmp_path), "--orientation", str(tmp_path)
        )
        assert code == 1 and err.startswith("error: ") and "Traceback" not in out + err
        code, out, err = run_cli(
            capsys, "gen", "--n", "4", "--k", "1", "--out", str(tmp_path)
        )
        assert code == 1 and err.startswith("error: ") and "Traceback" not in out + err

    @pytest.mark.parametrize("token", ["١_0", "1_0", "x"])
    @pytest.mark.parametrize(
        "command, flag",
        [
            ("gen", "--n"),
            ("gen", "--k"),
            ("gen", "--extra-edges"),
            ("gen", "--max-edge-size"),
            ("gen", "--seed"),
            ("orient", "--target-k"),
            ("orient", "--seed"),
            ("oracle", "--k"),
        ],
    )
    def test_integer_options_must_be_ascii_digits(self, capsys, tmp_path, command, flag, token):
        hg = tmp_path / "c.hg"
        hg.write_text("n 12\n" + "".join(f"e {v} {(v + 1) % 12}\n" for v in range(12)))
        argv = {
            "gen": ["gen", "--n=12", "--k=1", "--out", str(tmp_path / "out.hg")],
            "orient": ["orient", "--input", str(hg), "--target-k=1", "--trace-out", str(tmp_path / "t")],
            "oracle": ["oracle", "partition-connected", "--input", str(hg)],
        }[command]
        code, out, err = run_cli(capsys, *argv, f"{flag}={token}")
        assert code == 1 and err.startswith(f"error: {flag}: expected a non-negative integer")
        assert "Traceback" not in out + err
        assert not (tmp_path / "out.hg").exists() and not (tmp_path / "t").exists()

    def test_vertex_in_no_hyperedge_exits_one_before_any_network(self, capsys, tmp_path, monkeypatch):
        hg = tmp_path / "wide.hg"
        hg.write_text("n 2000\ne 0 1\n")
        builds = []
        real = separator.incidence_digraph
        monkeypatch.setattr(separator, "incidence_digraph", lambda *a: builds.append(a) or real(*a))
        code, out, err = run_cli(capsys, "families", "--input", str(hg), "--orientation", str(hg))
        assert code == 1 and err.startswith("error: line 1: the n line declares vertex 2,")
        assert "Traceback" not in out + err and builds == []

    @pytest.mark.parametrize("token", ["١_0", "1_0", "+1", "-1", "１０", "1.0", "x"])
    @pytest.mark.parametrize(
        "operation, flag",
        [
            ("separator", "--sinks"),
            ("separator", "--source"),
            ("safe-source", "--set"),
            ("safe-source", "--vertex"),
        ],
    )
    def test_oracle_vertices_must_be_ascii_digits(self, capsys, tmp_path, operation, flag, token):
        # twelve vertices, so that int() would read '١_0' and '1_0' as vertex 10
        hg, orf = tmp_path / "c.hg", tmp_path / "c.or"
        hg.write_text("n 12\n" + "".join(f"e {v} {(v + 1) % 12}\n" for v in range(12)))
        orf.write_text("".join(f"o {v} {(v + 1) % 12}\n" for v in range(12)))
        if operation == "separator":
            args = {"--source": "0", "--sinks": "10"}
        else:
            args = {"--set": "10", "--vertex": "10"}
        args[flag] = token
        argv = ["oracle", operation, "--input", str(hg), "--orientation", str(orf)]
        code, out, err = run_cli(capsys, *argv, *(f"{key}={value}" for key, value in args.items()))
        assert code == 1 and err.startswith(f"error: {flag}: expected a vertex")
        assert "Traceback" not in out + err

    def test_oracle_vertex_lists_accept_ascii_digits(self, capsys, tmp_path):
        hg, orf = self.write_three_cycle(tmp_path)
        base = ["oracle", "separator", "--input", hg, "--orientation", orf, "--json"]
        code, out, _ = run_cli(capsys, *base, "--source=0", "--sinks=1,,2")
        assert code == 0 and json.loads(out)["minimal"] == [0]
        code, out, err = run_cli(capsys, *base, "--source=0", "--sinks=1,3")
        assert code == 1 and err.startswith("error: ") and "Traceback" not in out + err

    @pytest.mark.parametrize("operation", ["lambda", "families", "separator", "safe-source", "safe-sink"])
    def test_oracle_without_orientation_exits_one(self, capsys, tmp_path, operation):
        hg, _ = self.write_three_cycle(tmp_path)
        code, out, err = run_cli(capsys, "oracle", operation, "--input", hg, "--sinks", "1", "--set", "1")
        assert code == 1 and err == "error: --orientation is required here\n"
        assert "Traceback" not in out + err

    def test_oracle_operations(self, capsys, tmp_path):
        hg, orf = self.write_three_cycle(tmp_path)
        code, out, _ = run_cli(
            capsys, "oracle", "lambda", "--input", hg, "--orientation", orf, "--json"
        )
        assert code == 0 and json.loads(out) == {"lambda": 1}
        code, out, _ = run_cli(
            capsys, "oracle", "partition-connected", "--input", hg, "--k", "2", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["partition_connected"] is False and "witness" in payload
        code, out, _ = run_cli(
            capsys, "oracle", "orientation-exists", "--input", hg, "--k", "1", "--json"
        )
        assert code == 0 and json.loads(out)["orientation_exists"] is True
        code, out, _ = run_cli(
            capsys, "oracle", "separator", "--input", hg, "--orientation", orf,
            "--side", "out", "--source", "0", "--sinks", "1", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == 1 and payload["minimal"] == [0]
        code, out, _ = run_cli(
            capsys, "oracle", "safe-source", "--input", hg, "--orientation", orf,
            "--set", "1", "--vertex", "1", "--json",
        )
        assert code == 0 and json.loads(out) == {"safe": False}
