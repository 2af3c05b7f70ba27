"""The command-line front door: verdicts, exit codes, output formats."""

from __future__ import annotations

import contextlib
import io
import re

import pytest

from piterm.cli import main

from conftest import FIXTURES


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

    def test_impure_isolated_from_env(self, capsys, tmp_path):
        pi = tmp_path / "x.pi"
        pi.write_text("!f().0 | f<>\n")
        env = tmp_path / "x.env"
        env.write_text("isolated f : o0[Unit]\n")
        code, out = run(capsys, "check", "--impure", pi)
        assert code == 0


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

    def test_empty(self, capsys):
        code, out = run(capsys, "run", FIXTURES / "empty.pi")
        assert code == 0
        assert "steps: 0" in out

    def test_bound_flags(self, capsys, tmp_path):
        pi = tmp_path / "chain.pi"
        pi.write_text("a1<> " + "".join(f"| a{i}.a{i+1}<>" for i in range(1, 20)))
        code, out = run(capsys, "run", pi, "--max-depth", 2, "--format=lines")
        assert code == 1
        assert "VERDICT=BoundExceeded" in out


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


class TestStateBudgetEnvVar:
    def test_piterm_max_states_env(self, tmp_path):
        import os
        import subprocess
        import sys

        pi = tmp_path / "chain.pi"
        pi.write_text("a1<> " + "".join(f"| a{i}.a{i+1}<>" for i in range(1, 20)))
        import piterm

        env = dict(os.environ)
        env["PITERM_MAX_STATES"] = "3"
        # the child imports the same piterm as this test, installed or not
        src = os.path.dirname(os.path.dirname(piterm.__file__))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "piterm.cli", "run", str(pi), "--format=lines"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 1
        assert "VERDICT=BoundExceeded" in proc.stdout


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
