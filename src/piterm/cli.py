"""Command-line front door: check, infer, run and encode.

Exit codes: 0 for Accepted/Terminated, 1 for Rejected/Diverges/BoundExceeded,
2 for parse, I/O and internal errors; an internal error (`[INTERNAL]`, such as
a recursion overflow) is a fault of piterm, never a verdict on the input.
`--format=lines` emits grep-friendly KEY=VALUE pairs instead of prose.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .checker import TypeEnv, derive
from .errors import CertificationFailure, IllTyped, IllTypedLambda, InternalError, ParseError, PiError, SortError
from .impure import ImpureEnv, check_impure
from .inference import DS_EQUALITY, FLEXIBLE, infer
from .lam import encode, parse_lambda_file
from .measure import format_multiset
from .parser import parse_env_file, parse_process
from .semantics import certified_run, explore
from .syntax import ChanT, Name, fresh, pretty_process, pretty_type


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


def _read(path: str) -> str:
    """The UTF-8 text of file `path`, read in one unbuffered call, with text
    mode's universal newlines and less a leading byte-order mark (dropped
    here rather than by `utf-8-sig`, whose error offsets start after it)."""
    try:
        with open(path, "rb", buffering=0) as fh:
            text = fh.readall().decode()
    except UnicodeDecodeError as exc:
        raise OSError(f"{path}: not UTF-8 ({exc.reason} at byte {exc.start})") from None
    text = text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text
    return text.removeprefix("\ufeff")


def _load_env(path: str, names: dict[str, Name]) -> tuple[TypeEnv, ImpureEnv]:
    """Bind declared spellings to the free names of the process, `names` by
    spelling as `parse_process` gives them; declarations for names the
    process does not use are ignored."""
    entries = parse_env_file(_read(path))
    gamma = TypeEnv({names[s]: ty for role, s, ty in entries if role != "isolated" and s in names})
    functional = frozenset(names[s] for role, s, _ in entries if role == "fun" and s in names)
    isolated = None
    for role, spelling, ty in entries:
        if role == "isolated" and spelling in names:
            if not isinstance(ty, ChanT):
                raise IllTyped(f"isolated name {spelling} needs a channel type")
            isolated = (names[spelling], ty)
    return gamma, ImpureEnv(gamma, isolated, functional)


def _sibling_env(path: str) -> str | None:
    """`path` with its suffix, if any, replaced by `.env`, if that file exists."""
    head, name = os.path.split(path)
    dot = name.rfind(".")
    candidate = os.path.join(head, (name[:dot] if 0 < dot < len(name) - 1 else name) + ".env")
    return candidate if os.path.exists(candidate) else None


def _verdict_exit(verdict: str) -> int:
    return 0 if verdict in ("Accepted", "Terminated") else 1


def cmd_check(args, report: _Report) -> int:
    free: dict[str, Name] = {}
    proc = parse_process(_read(args.file), free)
    env_path = args.env or _sibling_env(args.file)
    try:
        tenv, ienv = _load_env(env_path, free) if env_path else (TypeEnv(), ImpureEnv())
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
    proc = parse_process(_read(args.file))
    mode = DS_EQUALITY if args.ds_equality else FLEXIBLE
    try:
        result = infer(proc, mode)
    except PiError as exc:
        return report.reject(exc)
    report.add("VERDICT", "Accepted")
    report.add("WEIGHT", result.weight)
    for name, ty in result.env.items():
        printed = pretty_type(ty)
        report.add(f"TYPE.{name.display}", printed, f"{name.display} : {printed}")
    if args.dump_graph:
        dump = result.graph.dump()
        levels = ", ".join(f"{s}={lvl}" for s, lvl in sorted(result.levels.items()))
        report.add("GRAPH", dump.replace("\n", ";"), dump)
        report.add("LEVELS", levels, f"levels: {levels}")
    return 0


def cmd_run(args, report: _Report) -> int:
    free: dict[str, Name] = {}
    proc = parse_process(_read(args.file), free)
    if args.certify:
        try:
            tenv, _ = _load_env(args.certify, free)
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
            line = edge.render(i)
            report.add(f"TRACE.{i}", line, line)
    if rep.witness:
        report.add("WITNESS", " --> ".join(rep.witness), "divergence cycle:\n  " + "\n  ".join(rep.witness))
    return _verdict_exit(rep.verdict.value)


def cmd_encode(args, report: _Report) -> int:
    decls, term = parse_lambda_file(_read(args.file))
    try:
        proc = encode(term, fresh("p"), decls)
    except IllTypedLambda as exc:
        return report.reject(exc)
    printed = pretty_process(proc)
    report.add("PROCESS", printed, printed)
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


def _at_least(least: int):
    """An argparse `type=` for an integer bound of at least `least`: a value
    below it is a usage error, as is a value that is not an integer."""

    def parse(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, not {value}")
        return value

    parse.__name__ = "int"  # argparse names it in "invalid int value: ..."
    return parse


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="piterm", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    ap.commands = sub.choices  # {name: subparser}, filled by `sub.add_parser`

    def common(sp, handler):
        sp.set_defaults(handler=handler)
        sp.add_argument("file")
        sp.add_argument("--format", choices=["text", "lines"], default="text")

    sp = sub.add_parser("check", help="type-check an annotated process")
    common(sp, cmd_check)
    mode = sp.add_mutually_exclusive_group()
    mode.add_argument("--ds", action="store_true", help="full-capability mode without subtyping")
    mode.add_argument("--impure", action="store_true", help="functional/imperative discipline")
    sp.add_argument("--env", help="environment file (defaults to a sibling .env)")

    sp = sub.add_parser("infer", help="infer a typing for a localised process")
    common(sp, cmd_infer)
    sp.add_argument("--ds-equality", action="store_true", help="unify levels across every flow")
    sp.add_argument("--dump-graph", action="store_true")

    states_bound, depth_bound = _at_least(1), _at_least(0)

    sp = sub.add_parser("run", help="explore the reduction graph")
    common(sp, cmd_run)
    budgets = [sp.add_argument("--max-states", type=states_bound)]
    sp.add_argument("--max-depth", type=depth_bound, default=100000)
    sp.add_argument("--certify", metavar="ENVFILE", help="certify the measure decrease")

    sp = sub.add_parser("encode", help="translate a lambda term")
    common(sp, cmd_encode)
    mode = sp.add_mutually_exclusive_group()
    mode.add_argument("--infer", action="store_true")
    mode.add_argument("--run", action="store_true")
    budgets.append(sp.add_argument("--max-states", type=states_bound))
    sp.add_argument("--max-depth", type=depth_bound, default=100000)
    ap.budgets = budgets  # the `--max-states` actions: `main` sets their default
    return ap


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    ap = build_parser()
    # read on every call; a string default goes through `type=`, so a bad
    # value is a usage error
    budget = os.environ.get("PITERM_MAX_STATES", "100000")
    for action in ap.budgets:
        action.default = budget
    # a subcommand's parser reads the rest as the full parser would hand it
    # over; any other call, and leftovers, go through the full parser, which
    # prints help and usage errors
    sp = ap.commands.get(argv[0]) if argv else None
    if sp is not None:
        args, rest = sp.parse_known_args(argv[1:])
    if sp is None or rest:
        args = ap.parse_args(argv)
    report = _Report(args.format)
    try:
        code = args.handler(args, report)
    except (OSError, ParseError, InternalError, RecursionError) as exc:
        if isinstance(exc, RecursionError):
            exc = InternalError("the input is nested deeper than the recursion limit")
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report.emit()
    return code


if __name__ == "__main__":
    sys.exit(main())
