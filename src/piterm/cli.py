"""Command-line front door: check, infer, run and encode.

Exit codes: 0 for Accepted/Terminated, 1 for Rejected/Diverges/BoundExceeded,
2 for parse or I/O errors. `--format=lines` emits grep-friendly KEY=VALUE
pairs instead of prose.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .checker import TypeEnv, derive
from .errors import CertificationFailure, IllTyped, IllTypedLambda, ParseError, PiError, SortError
from .impure import ImpureEnv, check_impure
from .inference import DS_EQUALITY, FLEXIBLE, infer
from .lam import encode, parse_lambda_file
from .measure import format_multiset
from .parser import parse_env_file, parse_process
from .semantics import certified_run, explore
from .syntax import ChanT, Name, Process, fresh, free_names, pretty_process, pretty_type

DEFAULT_MAX_STATES = int(os.environ.get("PITERM_MAX_STATES", "100000"))
DEFAULT_MAX_DEPTH = 100000


class _Report:
    """Accumulates output lines in both human and machine form."""

    def __init__(self, fmt: str):
        self.fmt = fmt
        self.pairs: list[tuple[str, str]] = []
        self.prose: list[str] = []

    def add(self, key: str, value, prose: str | None = None) -> None:
        self.pairs.append((key, str(value)))
        self.prose.append(prose if prose is not None else f"{key.lower()}: {value}")

    def say(self, line: str) -> None:
        self.prose.append(line)

    def reject(self, exc: PiError) -> int:
        self.add("VERDICT", "Rejected")
        self.add("CODE", exc.code)
        self.say(exc.render())
        return 1

    def emit(self) -> None:
        if self.fmt == "lines":
            for k, v in self.pairs:
                print(f"{k}={v}")
        else:
            for line in self.prose:
                print(line)


def _load_process(path: str) -> Process:
    text = Path(path).read_text(encoding="utf-8")
    return parse_process(text)


def _load_env(path: str, p: Process) -> tuple[TypeEnv, ImpureEnv]:
    """Bind declared spellings to the matching free names of the process."""
    entries = parse_env_file(Path(path).read_text(encoding="utf-8"))
    by_display: dict[str, Name] = {}
    for n in free_names(p):
        by_display.setdefault(n.display, n)
    gamma: dict[Name, object] = {}
    functional: set[Name] = set()
    isolated = None
    for role, spelling, ty in entries:
        name = by_display.get(spelling)
        if name is None:
            # declarations for names the process does not use are ignored
            continue
        if role == "isolated":
            if not isinstance(ty, ChanT):
                raise IllTyped(f"isolated name {spelling} needs a channel type")
            isolated = (name, ty)
        else:
            gamma[name] = ty
            if role == "fun":
                functional.add(name)
    tenv = TypeEnv(dict(gamma))
    ienv = ImpureEnv(tenv, isolated, frozenset(functional))
    return tenv, ienv


def _sibling_env(path: str) -> str | None:
    candidate = Path(path).with_suffix(".env")
    return str(candidate) if candidate.exists() else None


def _verdict_exit(verdict: str) -> int:
    return 0 if verdict in ("Accepted", "Terminated") else 1


def cmd_check(args, report: _Report) -> int:
    proc = _load_process(args.file)
    env_path = args.env or _sibling_env(args.file)
    tenv, ienv = _load_env(env_path, proc) if env_path else (TypeEnv(), ImpureEnv())
    try:
        if args.impure:
            weight = check_impure(ienv, proc)
            report.add("VERDICT", "Accepted")
            report.add("WEIGHT", weight)
        else:
            typing = derive(tenv, proc, ds=args.ds)
            report.add("VERDICT", "Accepted")
            report.add("WEIGHT", typing.weight)
            m = format_multiset(typing.measure)
            report.add("MEASURE", m, f"measure: {m}")
        return 0
    except (IllTyped, SortError) as exc:
        return report.reject(exc)


def cmd_infer(args, report: _Report) -> int:
    proc = _load_process(args.file)
    mode = DS_EQUALITY if args.ds_equality else FLEXIBLE
    try:
        result = infer(proc, mode)
    except PiError as exc:
        return report.reject(exc)
    report.add("VERDICT", "Accepted")
    report.add("WEIGHT", result.weight)
    for name, ty in result.env.items():
        report.add(f"TYPE.{name.display}", pretty_type(ty), f"{name.display} : {pretty_type(ty)}")
    if args.dump_graph:
        dump = result.graph.dump()
        levels = ", ".join(
            f"{result.graph.display[s]}={lvl}"
            for s, lvl in sorted(result.levels.items(), key=lambda kv: result.graph.display[kv[0]])
        )
        report.add("GRAPH", dump.replace("\n", ";"), dump)
        report.add("LEVELS", levels, f"levels: {levels}")
    return 0


def cmd_run(args, report: _Report) -> int:
    proc = _load_process(args.file)
    if args.certify:
        tenv, _ = _load_env(args.certify, proc)
        try:
            rep = certified_run(tenv, proc, max_states=args.max_states, max_depth=args.max_depth)
        except (IllTyped, SortError, CertificationFailure) as exc:
            return report.reject(exc)
    else:
        rep = explore(proc, max_states=args.max_states, max_depth=args.max_depth)
    report.add("VERDICT", rep.verdict.value)
    report.add("STEPS", rep.steps_explored)
    report.add("STATES", rep.states_explored)
    report.add("DEPTH", rep.max_depth)
    if rep.measure_trace is not None:
        for i, edge in enumerate(rep.measure_trace):
            report.add(f"TRACE.{i}", edge.render(i), edge.render(i))
    if rep.witness:
        report.add("WITNESS", " --> ".join(rep.witness), "divergence cycle:\n  " + "\n  ".join(rep.witness))
    return _verdict_exit(rep.verdict.value)


def cmd_encode(args, report: _Report) -> int:
    decls, term = parse_lambda_file(Path(args.file).read_text(encoding="utf-8"))
    try:
        proc = encode(term, fresh("p"), decls)
    except IllTypedLambda as exc:
        return report.reject(exc)
    report.add("PROCESS", pretty_process(proc), pretty_process(proc))
    if args.infer:
        try:
            result = infer(proc)
        except PiError as exc:
            return report.reject(exc)
        report.add("VERDICT", "Accepted")
        report.add("WEIGHT", result.weight)
        return 0
    if args.run:
        rep = explore(proc, max_states=args.max_states, max_depth=args.max_depth)
        report.add("VERDICT", rep.verdict.value)
        report.add("STEPS", rep.steps_explored)
        return _verdict_exit(rep.verdict.value)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="piterm", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("file")
        sp.add_argument("--format", choices=["text", "lines"], default="text")

    sp = sub.add_parser("check", help="type-check an annotated process")
    common(sp)
    sp.add_argument("--ds", action="store_true", help="full-capability mode without subtyping")
    sp.add_argument("--impure", action="store_true", help="functional/imperative discipline")
    sp.add_argument("--env", help="environment file (defaults to a sibling .env)")

    sp = sub.add_parser("infer", help="infer a typing for a localised process")
    common(sp)
    sp.add_argument("--ds-equality", action="store_true", help="unify levels across every flow")
    sp.add_argument("--dump-graph", action="store_true")

    sp = sub.add_parser("run", help="explore the reduction graph")
    common(sp)
    sp.add_argument("--max-states", type=int, default=DEFAULT_MAX_STATES)
    sp.add_argument("--max-depth", type=int, default=DEFAULT_MAX_DEPTH)
    sp.add_argument("--certify", metavar="ENVFILE", help="certify the measure decrease")

    sp = sub.add_parser("encode", help="translate a lambda term")
    common(sp)
    sp.add_argument("--infer", action="store_true")
    sp.add_argument("--run", action="store_true")
    sp.add_argument("--max-states", type=int, default=DEFAULT_MAX_STATES)
    sp.add_argument("--max-depth", type=int, default=DEFAULT_MAX_DEPTH)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    report = _Report(args.format)
    handler = {
        "check": cmd_check,
        "infer": cmd_infer,
        "run": cmd_run,
        "encode": cmd_encode,
    }[args.command]
    try:
        code = handler(args, report)
    except (OSError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report.emit()
    return code


if __name__ == "__main__":
    sys.exit(main())
