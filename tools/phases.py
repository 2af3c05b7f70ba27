"""Where a benchmark pass spends its time: one timer per function `cli` calls
and per phase of `infer`.

    python3 tools/phases.py --workload lambda --seed 1 --passes 12 [--inputs N]

In this process, each function that `piterm.cli` calls (the readers, the
typing walks, `infer`, `encode`, `explore`, ...), each phase of
`inference.infer`, and `step` and the cycle search of an exploration are
wrapped in a timer, and unwrapped when the passes are done. The seeded
corpus of the workload (`perfbench/corpus.py`, imported as it is) is written
to a scratch directory, and `cli.main` is called on every input, or with
`--inputs N` on the first N inputs of each family (the part of its name
before the first `/`): one warm pass, then `--passes` timed ones. Each
timer is keyed by the path of wrapped calls above it (`infer/facts` is
`_facts` called from `infer`), so times are inclusive and a child's time
is part of its parent's. For each path the table prints its best ms per
pass over the timed passes and that time as a share of the best pass (the
sum over inputs of `cli.main`'s time). Standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO / "src"), str(REPO / "perfbench")]

import corpus  # noqa: E402

# (module, attribute, label): the functions `cli` calls, the phases of
# `infer`, then the parts of an exploration, each looked up through the
# module that calls it
WRAPPED = [
    ("piterm.cli", "main", "main"),
    ("piterm.cli", "build_parser", "build_parser"),
    ("piterm.cli", "_read", "_read"),
    ("piterm.cli", "_load_env", "_load_env"),
    ("piterm.cli", "parse_env_file", "parse_env_file"),
    ("piterm.cli", "parse_process", "parse_process"),
    ("piterm.cli", "derive", "derive"),
    ("piterm.cli", "check_impure", "check_impure"),
    ("piterm.cli", "format_multiset", "format_multiset"),
    ("piterm.cli", "explore", "explore"),
    ("piterm.cli", "certified_run", "certified_run"),
    ("piterm.cli", "parse_lambda_file", "parse_lambda_file"),
    ("piterm.cli", "encode", "encode"),
    ("piterm.cli", "pretty_process", "pretty_process"),
    ("piterm.cli", "infer", "infer"),
    ("piterm.inference", "_facts", "facts"),
    ("piterm.inference", "_simple_types", "simple_types"),
    ("piterm.inference", "_NameInfo", "numbering"),
    ("piterm.inference", "_extended_constraints", "constraints"),
    ("piterm.inference", "_least_levels", "solving"),
    ("piterm.inference", "_reconstruct", "reconstruction"),
    ("piterm.inference", "check", "recheck"),
    ("piterm.inference", "_project", "projection"),
    ("piterm.semantics", "step", "step"),
    ("piterm.semantics", "_find_cycle", "_find_cycle"),
]


class Timers:
    """Inclusive seconds per call path of wrapped functions, for the pass
    under way."""

    def __init__(self) -> None:
        self.path: list[str] = []
        self.spent: dict[str, float] = {}
        self.first: dict[str, int] = {}  # each path's rank in order of first entry
        self.wrapped: list[tuple] = []  # (module, attribute, the function it held)

    def wrap(self, fn, label: str):
        path, spent, first, clock = self.path, self.spent, self.first, time.perf_counter

        def timed(*args, **kwargs):
            path.append(label)
            key = "/".join(path)
            first.setdefault(key, len(first))
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[key] = spent.get(key, 0.0) + clock() - start
                path.pop()

        timed.__wrapped__ = fn
        return timed

    def install(self) -> None:
        for module, attr, label in WRAPPED:
            mod = importlib.import_module(module)
            self.wrapped.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, self.wrap(getattr(mod, attr), label))

    def uninstall(self) -> None:
        while self.wrapped:
            mod, attr, fn = self.wrapped.pop()
            setattr(mod, attr, fn)


def first_inputs(cases: list, n: int) -> list:
    """The first `n` cases of each family, named by the part before its
    first `/`, in corpus order."""
    taken: dict[str, int] = {}
    kept = []
    for case in cases:
        family = case.family.split("/")[0]
        taken[family] = taken.get(family, 0) + 1
        if taken[family] <= n:
            kept.append(case)
    return kept


def one_pass(main, argvs: list[list[str]]) -> None:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for argv in argvs:
            main(argv)
            sink.seek(0)
            sink.truncate()


def measure(workload: str, seed: int, passes: int, inputs: int = 0) -> tuple[dict[str, float], float, dict[str, int]]:
    """The best seconds per pass of each call path, of the whole pass, and
    the rank of each path in order of first entry; with `inputs`, over the
    first that many inputs of each family."""
    cases = corpus.WORKLOADS[workload](seed).cases
    if inputs:
        cases = first_inputs(cases, inputs)
    timers = Timers()
    timers.install()
    try:
        cli = sys.modules["piterm.cli"]
        with tempfile.TemporaryDirectory(prefix="phases-") as work:
            corpus.write(cases, Path(work))
            argvs = [case.argv(Path(work)) for case in cases]
            one_pass(cli.main, argvs)  # warm: argparse, regular expressions, caches
            best: dict[str, float] = {}
            for _ in range(passes):
                timers.spent.clear()
                one_pass(cli.main, argvs)
                for key, seconds in timers.spent.items():
                    best[key] = min(best.get(key, seconds), seconds)
    finally:
        timers.uninstall()
    return best, best.get("main", 0.0), timers.first


def table(best: dict[str, float], total: float, first: dict[str, int]) -> str:
    """One line per call path, children under their parent, in call order."""

    def rank(key: str) -> list[int]:
        parts = key.split("/")
        return [first["/".join(parts[: i + 1])] for i in range(len(parts))]

    lines = [f"{'function':<40} {'best ms/pass':>12} {'share':>7}"]
    for key in sorted(best, key=rank):
        depth = key.count("/")
        name = "  " * depth + key.rsplit("/", 1)[-1]
        share = 100 * best[key] / total if total else 0.0
        lines.append(f"{name:<40} {1000 * best[key]:>12.2f} {share:>6.1f}%")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(corpus.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--passes", type=int, default=5)
    ap.add_argument("--inputs", type=int, default=0, help="only the first N inputs of each family (0: all)")
    args = ap.parse_args(argv)
    if args.passes < 1:
        ap.error("--passes must be at least 1")
    if args.inputs < 0:
        ap.error("--inputs must be at least 0")
    best, total, first = measure(args.workload, args.seed, args.passes, args.inputs)
    subset = f", first {args.inputs} input(s) per family" if args.inputs else ""
    print(f"{args.workload} seed {args.seed}, best of {args.passes} pass(es), python {sys.version.split()[0]}{subset}")
    print(table(best, total, first))
    return 0


if __name__ == "__main__":
    sys.exit(main())
