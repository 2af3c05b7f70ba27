"""The command-line front door: verdicts, exit codes, output formats."""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import re
import subprocess
import sys
import time

import pytest

from piterm import cli, inference, semantics
from piterm.cli import main
from piterm.errors import CertificationFailure, LevelViolation
from piterm.lam import LBase, LTVar, check_stlc, parse_lambda_file, pretty_lambda_type
from piterm.parser import parse_process, parse_type
from piterm.syntax import free_names, fresh

from conftest import FIXTURES, unless_recursion


def run(capsys, *argv) -> tuple[int, str]:
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, out


class TestCheck:
    def test_accepts_annotated_server(self, capsys):
        code, out = run(capsys, "check", FIXTURES / "server.pi")
        assert code == 0
        assert "verdict: Accepted" in out
        assert "weight: 3" in out
        assert "measure: {3, 3}" in out

    def test_restricted_mode_rejects(self, capsys):
        code, out = run(capsys, "check", "--ds", FIXTURES / "server.pi")
        assert code == 1
        assert "Rejected" in out

    def test_missing_file_is_exit_two(self, capsys):
        assert main(["check", str(FIXTURES / "missing.pi")]) == 2

    def test_file_not_utf8_is_exit_two(self, capsys, tmp_path):
        # an input file that is not UTF-8 is an I/O error naming the file,
        # never a traceback
        for name in ("bad.pi", "bad.env", "bad.lam", "sibling.env"):
            (tmp_path / name).write_bytes(b"a<\xff>\n")
        for name in ("ok.pi", "sibling.pi"):
            (tmp_path / name).write_text("a<*>\n")
        for argv, bad in (
            (["check", "bad.pi"], "bad.pi"),
            (["check", "ok.pi", "--env", "bad.env"], "bad.env"),
            (["check", "sibling.pi"], "sibling.env"),
            (["run", "ok.pi", "--certify", "bad.env"], "bad.env"),
            (["infer", "bad.pi"], "bad.pi"),
            (["encode", "bad.lam"], "bad.lam"),
        ):
            code = main([str(tmp_path / a) if "." in a else a for a in argv])
            captured = capsys.readouterr()
            assert (code, captured.out) == (2, ""), argv
            assert captured.err == f"error: {tmp_path / bad}: not UTF-8 (invalid start byte at byte 2)\n", argv

    def test_byte_order_mark_ignored(self, capsys, tmp_path):
        # a UTF-8 file that starts with a byte-order mark reads as the same
        # file without the mark
        sources = {"p.pi": "server.pi", "p.env": "server.env", "p.lam": "compose.lam"}
        for mark, folder in ((b"", "plain"), (b"\xef\xbb\xbf", "marked")):
            (tmp_path / folder).mkdir()
            for name, source in sources.items():
                (tmp_path / folder / name).write_bytes(mark + (FIXTURES / source).read_bytes())
        for argv in (
            ["check", "p.pi"],
            ["check", "--impure", "p.pi", "--env", "p.env"],
            ["run", "p.pi", "--certify", "p.env"],
            ["infer", "p.pi"],
            ["encode", "--infer", "p.lam"],
        ):
            seen = []
            for folder in ("plain", "marked"):
                code = main([str(tmp_path / folder / a) if a.startswith("p.") else a for a in argv])
                captured = capsys.readouterr()
                seen.append((code, captured.out, captured.err))
            assert seen[1] == seen[0], argv
            assert seen[0][0] != 2 and seen[0][2] == "", argv

    def test_marked_file_not_utf8_counts_bytes_from_the_start(self, capsys, tmp_path):
        bad = tmp_path / "bad.pi"
        bad.write_bytes(b"\xef\xbb\xbfa<\xff>\n")
        assert main(["check", str(bad)]) == 2
        assert capsys.readouterr().err == f"error: {bad}: not UTF-8 (invalid start byte at byte 5)\n"

    @pytest.mark.parametrize(
        "mark, newline", [(b"", b"\r\n"), (b"", b"\r"), (b"\xef\xbb\xbf", b"\r\n")], ids=["crlf", "cr", "bom-crlf"]
    )
    def test_line_ends_read_as_newlines(self, capsys, tmp_path, mark, newline):
        # every fixture, its `.env` included, gives the output and exit code of
        # its LF original with `\r\n` or a lone `\r` for line ends, as text
        # mode's universal newlines read them; a comment ends at either
        for folder, head, end in (("lf", b"", b"\n"), ("other", mark, newline)):
            (tmp_path / folder).mkdir()
            for path in FIXTURES.iterdir():
                (tmp_path / folder / path.name).write_bytes(head + path.read_bytes().replace(b"\n", end))
        commands = {".pi": [["check"], ["infer"], ["run"]], ".lam": [["encode"]]}
        for path in sorted(FIXTURES.iterdir()):
            for command in commands.get(path.suffix, []):
                seen = []
                for folder in ("lf", "other"):
                    code = main(command + [str(tmp_path / folder / path.name), "--format=lines"])
                    seen.append((code, capsys.readouterr().out))
                assert seen[1] == seen[0], (command, path.name)
                assert seen[0][1], (command, path.name)

    def test_not_utf8_after_many_bytes_counts_from_the_start(self, capsys, tmp_path):
        bad = tmp_path / "bad.pi"
        text = b"a<*> |\r\n" * 1300  # 10400 bytes
        bad.write_bytes(text + b"\xff")
        assert main(["check", str(bad)]) == 2
        assert capsys.readouterr().err == f"error: {bad}: not UTF-8 (invalid start byte at byte {len(text)})\n"

    def test_lines_format(self, capsys):
        code, out = run(capsys, "check", "--format=lines", FIXTURES / "server.pi")
        assert code == 0
        lines = dict(l.split("=", 1) for l in out.strip().splitlines())
        assert lines["VERDICT"] == "Accepted"
        assert lines["WEIGHT"] == "3"

    def test_explicit_env_flag(self, capsys, tmp_path):
        pi = tmp_path / "x.pi"
        pi.write_text("a<*>\n")
        env = tmp_path / "other.env"
        env.write_text("a : #2[Unit]\n")
        code, out = run(capsys, "check", pi, "--env", env)
        assert code == 0 and "weight: 2" in out

    def test_unbound_rejected(self, capsys, tmp_path):
        pi = tmp_path / "x.pi"
        pi.write_text("a<*>\n")
        code, out = run(capsys, "check", pi, "--format=lines")
        assert code == 1
        assert "CODE=UNB" in out

    def test_impure_flag(self, capsys, tmp_path):
        pi = tmp_path / "x.pi"
        pi.write_text("(new f fun:o0[Unit])(!f().0 | f<>)\n")
        code, out = run(capsys, "check", "--impure", pi)
        assert code == 0

    @pytest.mark.parametrize(
        "argv, isolated, code",
        [
            (["check", "x.pi"], "Unit", "ILL"),
            (["check", "--impure", "x.pi"], "#0[Unit]", "CAP"),
            (["run", "x.pi", "--certify", "x.env"], "#0[Unit]", "CAP"),
        ],
        ids=["check-not-a-channel", "impure-not-output-only", "certify-not-output-only"],
    )
    def test_bad_isolated_entry_rejected(self, capsys, tmp_path, argv, isolated, code):
        (tmp_path / "x.pi").write_text("f<*>\n")
        (tmp_path / "x.env").write_text(f"isolated f : {isolated}\n")
        argv = [tmp_path / a if a.endswith((".pi", ".env")) else a for a in argv]
        exit_code, out = run(capsys, *argv, "--format=lines")
        assert exit_code == 1
        assert "VERDICT=Rejected" in out
        assert f"CODE={code}" in out

    def test_impure_isolated_from_env(self, capsys, tmp_path):
        pi = tmp_path / "x.pi"
        pi.write_text("!f().0 | f<>\n")
        env = tmp_path / "x.env"
        env.write_text("isolated f : o0[Unit]\n")
        code, out = run(capsys, "check", "--impure", pi)
        assert code == 0

    def test_env_type_error_located_in_the_file(self, capsys, tmp_path):
        (tmp_path / "x.pi").write_text("c<>\n")
        (tmp_path / "x.env").write_text("a : Unit\nb : Nat\nc : #x[Unit]\n")
        assert main(["check", str(tmp_path / "x.pi")]) == 2
        err = capsys.readouterr().err
        assert err == "error: [SYN] expected a level after '#' (at line 3, column 6)\n"


class TestInfer:
    def test_relay_with_graph(self, capsys):
        code, out = run(capsys, "infer", FIXTURES / "relay.pi", "--dump-graph")
        assert code == 0
        assert "a : o0[o1[o0[Unit]]]" in out
        assert "b : o0[o0[Unit]]" in out
        assert "c : #1[o0[Unit]]" in out
        assert "NODE son0(c): {son0(c), z}" in out
        assert "EDGE c > b" in out
        assert "levels: a=0, b=0, c=1, son0(a)=1, son0(b)=0, son0(c)=0" in out

    def test_feedback_rejected_with_cycle(self, capsys):
        code, out = run(capsys, "infer", FIXTURES / "feedback.pi", "--format=lines")
        assert code == 1
        assert "CODE=CYC" in out

    def test_nonlocal_rejected(self, capsys):
        code, out = run(capsys, "infer", FIXTURES / "nonlocal.pi", "--format=lines")
        assert code == 1
        assert "CODE=LOC" in out

    def test_ds_equality_mode(self, capsys):
        code, out = run(capsys, "infer", FIXTURES / "server.pi", "--ds-equality")
        assert code == 1
        # the witness is a closed cycle through the merged payload slot
        prefix = "[CYC] level constraints form a cycle through a strict edge: "
        (line,) = [l for l in out.splitlines() if l.startswith(prefix)]
        cycle = line[len(prefix) :].split(" -> ")
        assert len(cycle) >= 3
        assert cycle[0] == cycle[-1]
        assert "son0(a)" in cycle


class TestRun:
    def test_omega_diverges(self, capsys):
        code, out = run(capsys, "run", FIXTURES / "omega.pi")
        assert code == 1
        assert "verdict: Diverges" in out
        assert "divergence cycle" in out

    def test_certified_server(self, capsys):
        code, out = run(
            capsys, "run", FIXTURES / "server.pi", "--certify", FIXTURES / "server.env"
        )
        assert code == 0
        assert "verdict: Terminated" in out
        assert "STEP 0:" in out and "; measure {" in out

    def test_measure_not_decreasing_is_rejected(self, capsys, monkeypatch):
        # where no measure is greater, the first edge fails the certificate
        monkeypatch.setattr(semantics, "multiset_greater", lambda m1, m2: False)
        free: dict = {}
        p = parse_process((FIXTURES / "server.pi").read_text(), free)
        env, _ = cli._load_env(str(FIXTURES / "server.env"), free)
        with pytest.raises(CertificationFailure, match="measure did not decrease"):
            semantics.certified_run(env, p)
        code, out = run(
            capsys, "run", FIXTURES / "server.pi", "--certify", FIXTURES / "server.env", "--format=lines"
        )
        assert code == 1
        assert out.splitlines()[:2] == ["VERDICT=Rejected", "CODE=CERT"]

    def test_empty(self, capsys):
        code, out = run(capsys, "run", FIXTURES / "empty.pi")
        assert code == 0
        assert "steps: 0" in out

    def test_seven_restricted_channels(self, capsys, tmp_path):
        # up to congruence a state only records how many channels have fired
        pi = tmp_path / "restricted7.pi"
        pi.write_text(" | ".join(f"(new c{i})(c{i}<> | c{i}().0 | c{i}().0)" for i in (3, 0, 6, 1, 5, 2, 4)))
        code, out = run(capsys, "run", pi, "--format=lines")
        lines = dict(l.split("=", 1) for l in out.strip().splitlines())
        assert code == 0
        assert (lines["STATES"], lines["STEPS"], lines["DEPTH"]) == ("8", "7", "7")

    def test_bound_flags(self, capsys, tmp_path):
        pi = tmp_path / "chain.pi"
        pi.write_text("a1<> " + "".join(f"| a{i}.a{i+1}<>" for i in range(1, 20)))
        code, out = run(capsys, "run", pi, "--max-depth", 2, "--format=lines")
        assert code == 1
        assert "VERDICT=BoundExceeded" in out

    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param(argv, message, id=" ".join(argv))
            for argv, message in [
                (["run", "omega.pi", "--max-states", "0"], "argument --max-states: must be at least 1, not 0"),
                (["run", "omega.pi", "--max-states", "-2"], "argument --max-states: must be at least 1, not -2"),
                (["run", "omega.pi", "--max-depth", "-1"], "argument --max-depth: must be at least 0, not -1"),
                (["encode", "compose.lam", "--run", "--max-states=0"], "argument --max-states: must be at least 1, not 0"),
                (["encode", "compose.lam", "--run", "--max-depth=-1"], "argument --max-depth: must be at least 0, not -1"),
            ]
        ],
    )
    def test_bound_below_its_least_is_a_usage_error(self, capsys, argv, message):
        # `--max-states 0` answered STATES=1, above its own bound
        with pytest.raises(SystemExit) as exc:
            main([argv[0], str(FIXTURES / argv[1]), *argv[2:]])
        out, err = capsys.readouterr()
        assert exc.value.code == 2
        assert out == ""
        assert message in err

    def test_least_bounds_accepted(self, capsys):
        code, out = run(capsys, "run", FIXTURES / "omega.pi", "--max-states", 1, "--format=lines")
        assert (code, out.splitlines()[:3]) == (1, ["VERDICT=Diverges", "STEPS=1", "STATES=1"])
        code, out = run(capsys, "run", FIXTURES / "omega.pi", "--max-depth", 0, "--format=lines")
        assert (code, out.splitlines()) == (1, ["VERDICT=BoundExceeded", "STEPS=0", "STATES=1", "DEPTH=0"])


class TestEncode:
    def test_infer_accepts_reused_argument(self, capsys):
        code, out = run(capsys, "encode", FIXTURES / "compose.lam", "--infer")
        assert code == 0
        assert "verdict: Accepted" in out

    def test_infer_rejects_discarding(self, capsys):
        code, out = run(capsys, "encode", FIXTURES / "delegate.lam", "--infer", "--format=lines")
        assert code == 1
        assert "CODE=CYC" in out

    def test_run_terminates(self, capsys):
        code, out = run(capsys, "encode", FIXTURES / "delegate.lam", "--run")
        assert code == 0
        assert "verdict: Terminated" in out

    def test_term_without_simple_type_rejected(self, capsys, tmp_path):
        lam = tmp_path / "selfapp.lam"
        lam.write_text("\\y. y y\n")
        code, out = run(capsys, "encode", lam, "--infer", "--format=lines")
        assert code == 1
        assert "VERDICT=Rejected" in out
        assert "CODE=LAM" in out

    def test_plain_encode_prints_process(self, capsys):
        code, out = run(capsys, "encode", FIXTURES / "compose.lam")
        assert code == 0
        assert "!y1(x, q2)" in out  # the translated abstraction server
        assert "q1(f1).r1(z1).f1<z1, p>" in out  # the outermost join


class TestFrontDoor:
    @pytest.mark.parametrize(
        "argv",
        [["check", "--ds", "--impure", "server.pi"], ["encode", "--infer", "--run", "compose.lam"]],
        ids=" ".join,
    )
    def test_conflicting_flags_are_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv[:-1], str(FIXTURES / argv[-1])])
        out, err = capsys.readouterr()
        assert exc.value.code == 2
        assert out == ""
        assert "not allowed with argument" in err

    def test_argument_parser_built_once(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        cli.build_parser.cache_clear()
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        assert main(["check", str(FIXTURES / "server.pi")]) == 0
        assert main(["infer", str(FIXTURES / "relay.pi")]) == 0
        assert built.count("piterm") == 1  # the subcommands' parsers are "piterm check" etc.


def outcome(capsys, argv: list[str]) -> tuple:
    """The exit status, stdout and stderr of `main(argv)`, a usage error or
    help included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# argument lists for the front door, fixture files by name
FRONT_DOOR_CASES = [
    [],
    ["-h"],
    ["--help"],
    ["check", "-h"],
    ["run", "server.pi", "-h"],
    ["check"],
    ["frobnicate", "server.pi"],
    ["chec", "server.pi"],
    ["check", "server.pi", "--bogus"],
    ["check", "server.pi", "-x"],
    ["check", "server.pi", "--he"],
    ["check", "server.pi", "relay.pi"],
    ["check", "--ds", "--impure", "server.pi"],
    ["encode", "--infer", "--run", "compose.lam"],
    ["run", "--max-states", "x", "server.pi"],
    ["check", "server.pi", "--format", "yaml"],
    ["check", "server.pi", "--fo", "lines"],
    ["--format=lines", "check", "server.pi"],
    ["check", "--env", "server.env", "--", "server.pi"],
    ["check", "server.pi"],
    ["check", "--ds", "server.pi", "--format=lines"],
    ["infer", "relay.pi", "--dump-graph", "--ds-equality"],
    ["run", "server.pi", "--certify", "server.env", "--max-depth", "3"],
    ["encode", "compose.lam", "--run", "--max-states=5"],
]


class TestFastPath:
    """`main` parses a call that starts with a subcommand with that
    subcommand's parser, and any other call with the full parser."""

    @pytest.mark.parametrize("argv", FRONT_DOOR_CASES, ids=lambda a: " ".join(a) or "(none)")
    def test_same_as_the_full_parser(self, capsys, monkeypatch, argv):
        argv = [str(FIXTURES / a) if (FIXTURES / a).is_file() else a for a in argv]
        fast = outcome(capsys, argv)
        # with no subcommand parser to hand, every call takes the full parser
        monkeypatch.setattr(cli.build_parser(), "commands", {})
        assert outcome(capsys, argv) == fast

    def test_subcommand_skips_the_full_parser(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the full parser ran")

        monkeypatch.setattr(cli.build_parser(), "parse_args", refuse)
        assert main(["check", str(FIXTURES / "server.pi"), "--format=lines"]) == 0
        assert "VERDICT=Accepted" in capsys.readouterr().out


class TestInternalErrors:
    """A fault of piterm exits 2 with `[INTERNAL]`, never 1 with a verdict."""

    @pytest.mark.parametrize(
        "argv", [["infer", "relay.pi"], ["encode", "--infer", "compose.lam"]], ids=" ".join
    )
    def test_failed_inference_recheck(self, capsys, monkeypatch, argv):
        def refuse(env, p):
            raise LevelViolation("planted refusal")

        monkeypatch.setattr(inference, "check", refuse)
        code = main([*argv[:-1], str(FIXTURES / argv[-1]), "--format=lines"])
        out, err = capsys.readouterr()
        assert code == 2
        assert "VERDICT" not in out
        assert err.startswith("error: [INTERNAL] inference built a typing its checker rejects: [LVL] planted")
        assert "Traceback" not in err

    def test_recursion_overflow_is_internal(self, capsys, monkeypatch):
        def overflow(*args, **kwargs):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(cli, "explore", overflow)
        code = main(["run", str(FIXTURES / "server.pi")])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == "error: [INTERNAL] the input is nested deeper than the recursion limit\n"

    def test_deep_prefix_chain_never_rejected(self, capsys, tmp_path):
        (tmp_path / "deep.pi").write_text("a()." * 2000 + "a<>\n")
        (tmp_path / "deep.env").write_text("a : #1[Unit]\n")
        code = main(["check", str(tmp_path / "deep.pi"), "--format=lines"])
        out, err = capsys.readouterr()
        assert code in (0, 2)
        if code == 0:
            assert "WEIGHT=1" in out.splitlines()
        else:
            assert out == "" and err.startswith("error: [INTERNAL] ")

    def test_run_deep_prefix_chain_terminates(self, capsys, tmp_path):
        # one frame per prefix in the key walk, at the default recursion limit
        (tmp_path / "deep.pi").write_text("".join(f"a{i}(x{i})." for i in range(900)) + "0\n")
        code, out = run(capsys, "run", tmp_path / "deep.pi", "--format=lines")
        assert code == 0
        assert "VERDICT=Terminated" in out.splitlines()

    def test_run_wide_independent_outputs_terminates(self, capsys, tmp_path):
        # the `|` spine is flattened by a loop, and outputs are paired only
        # with receivers on their own subject: no pass over all pairs
        (tmp_path / "wide.pi").write_text(" | ".join(f"a{i}<>" for i in range(10**4)) + "\n")
        started = time.perf_counter()
        code, out = run(capsys, "run", tmp_path / "wide.pi", "--format=lines")
        assert time.perf_counter() - started < 10.0  # about 0.3 s on a 2-CPU host
        assert code == 0
        assert out.splitlines()[:2] == ["VERDICT=Terminated", "STEPS=0"]

    @pytest.mark.parametrize("flags", [[], ["--ds"], ["--impure"]])
    def test_check_wide_spine(self, capsys, tmp_path, flags):
        # the typing walks take the components of a `|` spine off a stack
        (tmp_path / "wide.pi").write_text(" | ".join(["a0<*>"] * 10**4) + "\n")
        (tmp_path / "wide.env").write_text("a0 : #2[Unit]\n")
        started = time.perf_counter()
        code, out = run(capsys, "check", tmp_path / "wide.pi", *flags, "--format=lines")
        assert time.perf_counter() - started < 10.0  # well under 0.5 s on a 2-CPU host
        assert code == 0
        assert out.splitlines()[:2] == ["VERDICT=Accepted", "WEIGHT=2"]

    @pytest.mark.parametrize("flags", [[], ["--ds"], ["--impure"]])
    def test_check_deep_prefix_chain(self, capsys, tmp_path, flags):
        # the typing walks take prefixes, restrictions and replicated inputs
        # off a stack: 10^4 nested binders at the default recursion limit
        chain = "b(x).new r:#1[Unit].!b(y)." * 3334
        (tmp_path / "deep.pi").write_text(f"a<*> | {chain}a<x>\n")
        (tmp_path / "deep.env").write_text("a : #2[Unit]\nb : #3[Unit]\n")
        started = time.perf_counter()
        code, out = run(capsys, "check", tmp_path / "deep.pi", *flags, "--format=lines")
        assert time.perf_counter() - started < 10.0  # well under 1 s on a 2-CPU host
        assert code == 0
        assert out.splitlines()[:2] == ["VERDICT=Accepted", "WEIGHT=2"]

    @pytest.mark.parametrize("flags", [[], ["--ds"], ["--impure"]])
    def test_check_deep_chain_rejects_at_the_innermost_input(self, capsys, tmp_path, flags):
        # the level check of a replicated input runs after its whole body
        (tmp_path / "deep.pi").write_text("b(x)." * 5000 + "!b(y).b<*>\n")
        (tmp_path / "deep.env").write_text("b : #3[Unit]\n")
        code, out = run(capsys, "check", tmp_path / "deep.pi", *flags, "--format=lines")
        assert code == 1
        assert out.splitlines() == ["VERDICT=Rejected", "CODE=LVL"]

    @pytest.mark.parametrize("flags", [[], ["--ds"], ["--impure"]])
    def test_check_deep_chain_rejects_at_the_outermost_input(self, capsys, tmp_path, flags):
        # the replicated input that fails is printed, with its 10^4 prefixes
        # of one binder spelling, as the place of the rejection; in the
        # impure mode the innermost plain input fails first
        (tmp_path / "deep.pi").write_text("!a(x)." + "a(x)." * (10**4 - 1) + "a<x>\n")
        (tmp_path / "deep.env").write_text("a : #0[Unit]\n")
        started = time.perf_counter()
        code, out = run(capsys, "check", tmp_path / "deep.pi", *flags, "--format=lines")
        assert time.perf_counter() - started < 10.0  # well under 1 s on a 2-CPU host
        assert code == 1
        assert out.splitlines() == ["VERDICT=Rejected", "CODE=LVL"]

    @pytest.mark.parametrize("terms", [10**3, 10**4])
    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["check"], ["VERDICT=Accepted", "WEIGHT=0", "MEASURE={0, 0}"]),
            (["run"], ["VERDICT=Terminated", "STEPS=1", "STATES=2", "DEPTH=1"]),
            (["run", "--certify", "sum.env"], ["VERDICT=Terminated", "STEPS=1", "STATES=2", "DEPTH=1"]),
            (["infer"], ["VERDICT=Accepted", "WEIGHT=0", "TYPE.a=#0[Nat]", "TYPE.b=o0[Nat]"]),
        ],
        ids=["check", "run", "run-certify", "infer"],
    )
    def test_long_sum(self, capsys, tmp_path, argv, expected, terms):
        # the value walkers take a sum of 10^3 and 10^4 terms off one stack:
        # its names, type, simple type, serial, arithmetic and printed text
        (tmp_path / "sum.pi").write_text("a<" + "+".join(["1"] * terms) + "> | a(x).b<x + 1>\n")
        (tmp_path / "sum.env").write_text("a : #0[Nat]\nb : #0[Nat]\n")
        argv = [str(tmp_path / a) if a.endswith(".env") else a for a in argv]
        started = time.perf_counter()
        code, out = run(capsys, argv[0], tmp_path / "sum.pi", *argv[1:], "--format=lines")
        assert time.perf_counter() - started < 10.0  # well under 0.5 s on a 2-CPU host
        assert code == 0
        assert out.splitlines()[: len(expected)] == expected
        if "--certify" in argv:
            assert out.splitlines()[4].endswith(f"--> b<{terms} + 1> ; measure {{0, 0}} > {{0}}")

    def test_run_prints_wide_states(self, capsys, tmp_path):
        # the witness prints states of about 10^3 `|` components, each a
        # right component of the one before
        (tmp_path / "grow.pi").write_text("!a(x).(b<x> | a<x>) | a<v> | !b(y).0\n")
        code, out = run(capsys, "run", tmp_path / "grow.pi", "--max-states", 1000, "--format=lines")
        assert code == 1
        assert out.splitlines()[:3] == ["VERDICT=Diverges", "STEPS=1998", "STATES=1000"]

    @pytest.mark.parametrize("flags, cap", [([], "o"), (["--ds"], "#")])
    def test_check_deep_type(self, capsys, tmp_path, flags, cap):
        # declared types are parsed, compared and printed off a stack
        inner = f"{cap}0[" * 1000 + "Unit" + "]" * 1000
        (tmp_path / "deep.pi").write_text("a<b>\n")
        (tmp_path / "deep.env").write_text(f"b : {inner}\na : {cap}0[{inner}]\n")
        code, out = run(capsys, "check", tmp_path / "deep.pi", *flags, "--format=lines")
        assert code == 0
        assert out.splitlines()[:2] == ["VERDICT=Accepted", "WEIGHT=0"]

    def test_infer_deep_prefix_chain(self, capsys, tmp_path):
        # every inference phase and the re-check walk prefix chains without
        # recursion
        (tmp_path / "deep.pi").write_text("".join(f"a{i % 50}(x{i})." for i in range(10**4)) + "0\n")
        started = time.perf_counter()
        code, out = run(capsys, "infer", tmp_path / "deep.pi", "--format=lines")
        assert time.perf_counter() - started < 10.0  # well under 1 s on a 2-CPU host
        assert code == 0
        assert out.splitlines()[:2] == ["VERDICT=Accepted", "WEIGHT=0"]

    def test_infer_wide_spine(self, capsys, tmp_path):
        # every inference phase and the re-check walk the `|` spine without
        # recursion
        (tmp_path / "wide.pi").write_text(" | ".join(["a<b>"] * 10**4) + "\n")
        started = time.perf_counter()
        code, out = run(capsys, "infer", tmp_path / "wide.pi", "--format=lines")
        assert time.perf_counter() - started < 10.0  # well under 1 s on a 2-CPU host
        assert code == 0
        assert out.splitlines()[:2] == ["VERDICT=Accepted", "WEIGHT=0"]

    @pytest.mark.parametrize(
        "text, arrows",
        [("(\\y. " * 1000 + "y" + ")" * 1000, 1000), ("f : sig -> sig\nv : sig\n\n" + "f (" * 1000 + "v" + ")" * 1000, 0)],
        ids=["abstractions", "applications"],
    )
    def test_encode_deep_lambda(self, capsys, tmp_path, text, arrows):
        # the lambda parser, and the walk that types and translates a term,
        # take 10^3 nested abstractions or applications off a stack
        (tmp_path / "deep.lam").write_text(text + "\n")
        started = time.perf_counter()
        code, out = run(capsys, "encode", tmp_path / "deep.lam", "--format=lines")
        assert time.perf_counter() - started < 10.0  # well under 0.5 s on a 2-CPU host
        assert code == 0
        assert out.startswith("PROCESS=new ")
        t = unless_recursion(lambda: check_stlc(*parse_lambda_file(text)))
        assert t != "RecursionError"
        for _ in range(arrows):
            t = t.right
        assert isinstance(t, LTVar if arrows else LBase)

    @pytest.mark.parametrize("arrows", [1000, 10**4])
    @pytest.mark.parametrize("nesting", ["right", "left"])
    def test_encode_deep_header_type(self, capsys, tmp_path, nesting, arrows):
        # the header type parser, `lam._declared` and `pretty_lambda_type`
        # take 10^3 and 10^4 arrows, grouped either way, off a stack
        if nesting == "right":
            ty = "sig -> " * arrows + "sig"
        else:
            ty = "(" * (arrows - 1) + "sig" + " -> sig)" * (arrows - 1) + " -> sig"
        (tmp_path / "deep.lam").write_text(f"f : {ty}\n\nf\n")
        started = time.perf_counter()
        code, out = run(capsys, "encode", tmp_path / "deep.lam", "--format=lines")
        assert time.perf_counter() - started < 10.0  # well under 0.5 s on a 2-CPU host
        assert (code, out) == (0, "PROCESS=p<f>\n")
        printed = unless_recursion(lambda: pretty_lambda_type(parse_lambda_file(f"f : {ty}\n\nf\n")[0]["f"]))
        assert printed == ty


class TestLoadEnv:
    def test_undeclared_and_unused_spellings_ignored(self, tmp_path):
        free: dict = {}
        p = parse_process("a<*> | b(x).x<> | c<>", free)
        env = tmp_path / "p.env"
        env.write_text(
            "a : #1[Unit]\nz : #2[Unit]\nfun g : o1[Unit]\nisolated h : Unit\nfun c : o0[Unit]\nx : Nat\n"
        )
        tenv, ienv = cli._load_env(str(env), free)
        names = {n.display: n for n in free_names(p)}
        assert set(names) == {"a", "b", "c"}
        # `b` is used but undeclared, `z`, `g`, `h` and the bound `x` are unused
        assert tenv.bindings == {names["a"]: parse_type("#1[Unit]"), names["c"]: parse_type("o0[Unit]")}
        assert ienv.gamma == tenv and ienv.functional == {names["c"]} and ienv.isolated is None

    def test_isolated_name_bound(self, tmp_path):
        free: dict = {}
        p = parse_process("!f(x).0 | f<*>", free)
        env = tmp_path / "p.env"
        env.write_text("isolated f : o1[Unit]\n")
        tenv, ienv = cli._load_env(str(env), free)
        (f,) = free_names(p)
        assert tenv.bindings == {} and ienv.isolated == (f, parse_type("o1[Unit]"))


class TestSiblingEnv:
    @pytest.mark.parametrize(
        "name, sibling",
        [("p.pi", "p.env"), ("p", "p.env"), ("a.b.pi", "a.b.env"), (".p.pi", ".p.env"), ("p.", "p..env")],
    )
    def test_suffix_replaced(self, tmp_path, name, sibling):
        assert cli._sibling_env(str(tmp_path / name)) is None
        (tmp_path / sibling).write_text("")
        assert cli._sibling_env(str(tmp_path / name)) == str(tmp_path / sibling)


class TestStartUp:
    """Importing the CLI builds every class itself: no call pays for loading
    `dataclasses`, and with it `inspect`, or `typing`."""

    def test_import_loads_no_dataclasses_inspect_or_typing(self):
        import piterm

        src = os.path.dirname(os.path.dirname(piterm.__file__))
        code = (
            f"import sys; sys.path.insert(0, {src!r}); import piterm.cli; "
            "print(*sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
        )
        # `-S`: no `site`, so nothing but the import itself loads modules
        proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == []


class TestStateBudgetEnvVar:
    CHAIN = "a1<> " + "".join(f"| a{i}.a{i+1}<>" for i in range(1, 20))  # 20 states

    @classmethod
    def run_chain(cls, tmp_path, max_states: str):
        import os
        import subprocess
        import sys

        pi = tmp_path / "chain.pi"
        pi.write_text(cls.CHAIN)
        import piterm

        env = dict(os.environ)
        env["PITERM_MAX_STATES"] = max_states
        # the child imports the same piterm as this test, installed or not
        src = os.path.dirname(os.path.dirname(piterm.__file__))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-m", "piterm.cli", "run", str(pi), "--format=lines"],
            capture_output=True,
            text=True,
            env=env,
        )

    def test_piterm_max_states_env(self, tmp_path):
        proc = self.run_chain(tmp_path, "3")
        assert proc.returncode == 1
        assert "VERDICT=BoundExceeded" in proc.stdout

    def test_read_on_every_call(self, capsys, monkeypatch, tmp_path):
        # one process: the budget set between two calls holds for the second
        pi = tmp_path / "chain.pi"
        pi.write_text(self.CHAIN)
        monkeypatch.delenv("PITERM_MAX_STATES", raising=False)
        code, out = run(capsys, "run", pi, "--format=lines")
        assert code == 0 and "STATES=20" in out.splitlines()
        code, out = run(capsys, "encode", FIXTURES / "compose.lam", "--run", "--format=lines")
        assert code == 0 and "VERDICT=Terminated" in out.splitlines()
        monkeypatch.setenv("PITERM_MAX_STATES", "2")
        code, out = run(capsys, "run", pi, "--format=lines")
        assert code == 1 and {"VERDICT=BoundExceeded", "STATES=2"} <= set(out.splitlines())
        code, out = run(capsys, "encode", FIXTURES / "compose.lam", "--run", "--format=lines")
        assert code == 1 and "VERDICT=BoundExceeded" in out.splitlines()

    def test_bad_piterm_max_states_is_a_usage_error(self, tmp_path):
        proc = self.run_chain(tmp_path, "abc")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "argument --max-states: invalid int value: 'abc'" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("max_states", ["0", "-5"])
    def test_piterm_max_states_below_one_is_a_usage_error(self, tmp_path, max_states):
        proc = self.run_chain(tmp_path, max_states)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert f"argument --max-states: must be at least 1, not {max_states}" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestDeterminism:
    def test_byte_identical_output(self, capsys):
        _, out1 = run(capsys, "infer", FIXTURES / "relay.pi", "--dump-graph", "--format=lines")
        _, out2 = run(capsys, "infer", FIXTURES / "relay.pi", "--dump-graph", "--format=lines")
        assert out1 == out2
        _, out3 = run(capsys, "run", FIXTURES / "server.pi", "--certify", FIXTURES / "server.env")
        _, out4 = run(capsys, "run", FIXTURES / "server.pi", "--certify", FIXTURES / "server.env")
        assert out3 == out4


# ---------------------------------------------------------------------------
# Golden `--format=lines` output of every fixture

PI_COMMANDS = [
    ["check"],
    ["check", "--ds"],
    ["check", "--impure"],
    ["infer", "--dump-graph"],
    ["infer", "--ds-equality"],
    ["run"],
]
LAM_COMMANDS = [["encode", "--infer"], ["encode", "--run"]]
GOLDEN = FIXTURES.parent / "tests" / "golden" / "lines.txt"


def golden_cases() -> list[list[str]]:
    """Command lines, relative to the fixtures directory, in golden-file order."""
    cases = []
    for path in sorted(FIXTURES.iterdir()):
        if path.suffix == ".pi":
            cases += [cmd + [path.name] for cmd in PI_COMMANDS]
            if path.with_suffix(".env").exists():
                cases.append(["run", path.name, "--certify", path.with_suffix(".env").name])
        elif path.suffix == ".lam":
            cases += [cmd + [path.name] for cmd in LAM_COMMANDS]
    return cases


def render_case(case: list[str]) -> str:
    """The golden-file section of one command: header, stdout, exit code."""
    argv = [str(FIXTURES / a) if (FIXTURES / a).is_file() else a for a in case]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv + ["--format=lines"])
    return f"$ piterm {' '.join(case)}\n{buf.getvalue()}exit {code}\n"


def golden_sections() -> dict[str, str]:
    sections = re.split(r"^(?=\$ piterm )", GOLDEN.read_text(encoding="utf-8"), flags=re.M)
    return {s.splitlines()[0]: s for s in sections if s}


class TestGolden:
    """Byte-identical `--format=lines` output against a recorded run.

    `tests/golden/lines.txt` is the concatenation of `render_case` over
    `golden_cases()`; regenerate it only for a deliberate change of output.
    """

    @pytest.mark.parametrize("case", golden_cases(), ids=" ".join)
    def test_lines_output(self, case):
        text = render_case(case)
        assert text == golden_sections()[text.splitlines()[0]]

    def test_every_section_is_a_case(self):
        headers = {f"$ piterm {' '.join(c)}" for c in golden_cases()}
        assert set(golden_sections()) == headers

    @pytest.mark.parametrize("case", golden_cases(), ids=" ".join)
    def test_output_independent_of_addresses(self, case):
        # names hash by identity, that is by address; objects allocated and
        # half freed between two runs move the later runs' names, and so the
        # order of any set of them, which no output may follow
        first = render_case(case)
        junk = [fresh("junk") if i % 3 else object() for i in range(6000)]
        del junk[::2]
        second = render_case(case)
        del junk
        assert second == first
