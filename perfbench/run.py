"""The piterm benchmark: one workload, in one process, driven by one client.

    python3 perfbench/run.py --workload typecheck --seed 1 --seconds 20 --trace 0

The client is a closed loop: it calls `piterm.cli.main(argv)` in process,
once per generated input file, and sends the next input only when the last
call returned. Every output is checked against the answer known from how its
input was built. With `--trace 0` the run measures the end-to-end metrics;
with `--trace 1` it times each layer from outside (see tracer.py) and adds the
sweep rows of sweeps.py. The last line of standard output is one JSON object.
The program is imported from `src/` next to this directory; without it the
run stops with exit code 1 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import random
import shutil
import signal
import statistics
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import answers  # noqa: E402
import corpus  # noqa: E402
import sweeps  # noqa: E402
import tracer  # noqa: E402

LIMIT_S = 10.0  # per-input time limit; a failed input is charged this much
PROBE_LIMIT_S = 5.0
MIN_SETUPS = 5  # set-ups timed in a run at the least; one follows each timed pass
REFERENCE_S = 0.08  # seconds the reference kernel takes at the reference speed


class InputTimeout(BaseException):
    """Raised by the interval timer inside a call that passed the limit."""


def _expire(signum, frame):
    raise InputTimeout


def _piterm_modules() -> dict:
    return {n: m for n, m in sys.modules.items() if n == "piterm" or n.startswith("piterm.")}


def setup(workload: str, seed: int, work: Path) -> corpus.Corpus:
    """Import piterm afresh, generate the seeded corpus, write the input files."""
    for name in _piterm_modules():
        del sys.modules[name]
    importlib.import_module("piterm.cli")
    built = corpus.WORKLOADS[workload](seed)
    corpus.write(built.cases + built.probes, work)
    return built


class HostSpeed:
    """How slow the machine runs now, against the reference speed.

    The host is shared, and its speed swings by up to a factor of two for
    minutes at a time. So the run times a fixed reference kernel before and
    after everything it times, and divides each timing by the kernel's
    slowness over that interval: the mean of the two kernel times over
    `REFERENCE_S`. The kernel is the benchmark's own generator building one
    round of the `typecheck` corpus of seed 0, pure Python that calls no
    piterm code, so a change to the program cannot move it. Garbage
    collection is off while it runs, so the objects the run holds do not
    slow it either.
    """

    def __init__(self):
        self.last = self._kernel()
        self.factors: list[float] = []

    @staticmethod
    def _kernel() -> float:
        gc.disable()
        try:
            start = time.perf_counter()
            corpus.typecheck(0, rounds=1)
            return time.perf_counter() - start
        finally:
            gc.enable()

    def interval(self) -> float:
        """The slowness since the last call; it is also kept in `factors`."""
        now = self._kernel()
        factor = (self.last + now) / 2 / REFERENCE_S
        self.last = now
        self.factors.append(factor)
        return factor


class SetupClock:
    """Times set-ups spread over the run, so that their median sees the
    machine in the same state as the timed passes do.

    The first set-up writes the inputs the passes read. Each later one writes
    the same files again to a directory of its own, and the modules the
    passes use are put back after it, so every pass runs the same code. The
    files are overwritten, not removed and created again: on an ext4 disk,
    creating 450 files just after removing them took 0.07 to 0.16 s, and
    overwriting them 0.02 to 0.03 s. Collecting garbage is not timed.
    """

    def __init__(self, workload: str, seed: int, work: Path, host: HostSpeed):
        self.workload, self.seed, self.work, self.host = workload, seed, work, host
        self.seconds: list[float] = []  # raw
        self.scaled: list[float] = []  # at the reference speed

    def _timed(self, directory: Path) -> corpus.Corpus:
        gc.collect()
        start = time.perf_counter()
        built = setup(self.workload, self.seed, directory)
        self.seconds.append(time.perf_counter() - start)
        self.scaled.append(self.seconds[-1] / self.host.interval())
        return built

    def first(self) -> tuple[corpus.Corpus, Path]:
        inputs = self.work / "inputs"
        return self._timed(inputs), inputs

    def again(self) -> None:
        kept = _piterm_modules()
        directory = self.work / "setup"
        self._timed(directory)
        for name in _piterm_modules():
            del sys.modules[name]
        sys.modules.update(kept)
        gc.collect()


def call(argv: list[str], limit: float) -> tuple[int, str | None, str, float]:
    """One input: exit code, error code of an escaped exception, stdout, seconds.

    An exception that escapes `cli.main` would end a process with exit code 1,
    so it is reported as exit 1 with the exception's error code.
    """
    cli = sys.modules["piterm.cli"]
    out = io.StringIO()
    raised = None
    start = end = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            try:
                code = cli.main(argv)
            finally:
                end = time.perf_counter()
    except InputTimeout:
        code, raised = 1, "TIMEOUT"
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # noqa: BLE001 - any escape is the program's answer
        code, raised = 1, getattr(exc, "code", type(exc).__name__)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return code, raised, out.getvalue(), end - start


class Loop:
    """Closed-loop passes over the corpus; failures are charged the limit."""

    def __init__(self, cases: list[corpus.Case], work: Path, verifier: answers.Verifier,
                 host: HostSpeed | None = None):
        self.cases, self.work, self.verifier, self.host = cases, work, verifier, host
        self.passes: list[list[float]] = []  # per pass, the seconds of each input
        self.walls: list[float] = []  # per pass, its wall-clock seconds
        self.slowness: list[float] = []  # per pass, the host's slowness (1 without `host`)
        self.charged: list[list[float]] = []  # the same, failures charged the limit
        self.failures: list[tuple[str, str, list[str]]] = []

    def one_pass(self) -> None:
        seconds, charged = [], []
        start = time.perf_counter()
        for case in self.cases:
            code, raised, output, elapsed = call(case.argv(self.work), LIMIT_S)
            problems = self.verifier.verify(case, code, raised, output)
            seconds.append(elapsed)
            charged.append(LIMIT_S if problems else elapsed)
            if problems:
                self.failures.append((case.id, case.family, problems))
        self.walls.append(time.perf_counter() - start)
        self.slowness.append(self.host.interval() if self.host else 1.0)
        self.passes.append(seconds)
        self.charged.append(charged)

    def run_for(self, seconds: float, between=None) -> int:
        """Whole passes until `seconds` have gone by, so every pass has the same
        mix; `between` is called after each pass, within the same time."""
        deadline = time.perf_counter() + seconds
        while not self.passes or time.perf_counter() < deadline:
            self.one_pass()
            if between:
                between()
        return len(self.passes)

    def attempted(self) -> int:
        return sum(map(len, self.passes))

    def per_pass_median(self, stat) -> float:
        """A statistic taken on each pass at the reference speed, then the
        median over the passes, so a pass slowed by other load on the
        machine does not move the result."""
        return statistics.median(stat(p) / f for p, f in zip(self.charged, self.slowness))


def percentile(values: list[float], pct: int) -> float:
    """Nearest-rank percentile: the smallest value with `pct`% of values at or below it."""
    rank = -(-pct * len(values) // 100)
    return sorted(values)[max(rank, 1) - 1]


def peak_memory_mb(cases: list[corpus.Case], work: Path) -> float:
    """The peak of memory the program allocates while it answers one input,
    in MB, averaged over `cases`.

    Python's tracemalloc measures it, so the interpreter and the benchmark's
    own data are left out. Tracing slows a call up to tenfold, so it runs
    after the timed passes and only on the few inputs of
    `corpus.MEMORY_FAMILIES`; their outputs were checked in every pass.
    """
    peaks = []
    tracemalloc.start()
    try:
        for case in cases:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            call(case.argv(work), LIMIT_S)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    return statistics.mean(peaks) / 2**20


def run_probes(probes: list[corpus.Case], work: Path, verifier: answers.Verifier) -> tuple[int, list[str]]:
    """Inputs on which the seed commit answers wrongly, run apart from the
    timed loop so that the timed corpus holds only inputs it answers."""
    lines, failed = [], 0
    for case in probes:
        code, raised, output, seconds = call(case.argv(work), PROBE_LIMIT_S)
        problems = verifier.verify(case, code, raised, output)
        failed += bool(problems)
        verdict = "; ".join(problems) if problems else "correct"
        lines.append(f"probe {case.family}: {verdict} ({seconds * 1000:.1f} ms)")
    return failed, lines


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "piterm" / "__init__.py").is_file():
        print(f"error: the piterm sources are not at {src}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(src))
    signal.signal(signal.SIGALRM, _expire)
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        return run_workload(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_workload(args, work: Path) -> int:
    host = HostSpeed()
    clock = SetupClock(args.workload, args.seed, work, host)
    built, inputs = clock.first()
    cases = list(built.cases)
    random.Random(args.seed).shuffle(cases)
    verifier = answers.Verifier()
    families = Counter(c.family.split("/")[0] for c in cases)
    print(f"workload {args.workload} seed {args.seed}: {len(cases)} inputs per pass, "
          + ", ".join(f"{k} {v}" for k, v in sorted(families.items())))
    print(f"machine: nproc {os.cpu_count()}, python {platform.python_version()}, "
          f"per-input limit {LIMIT_S:g} s")

    warm = Loop(cases, inputs, verifier)
    warm.one_pass()  # checks every answer once; its failures count, its times do not
    loop = Loop(cases, inputs, verifier, None if args.trace else host)
    if args.trace:
        metrics, passes = traced(args, loop, built, inputs, verifier)
    else:
        heavy = [c for c in built.cases if corpus.MEMORY_FAMILIES[args.workload](c.family)]
        passes = loop.run_for(args.seconds, between=clock.again)
        while len(clock.seconds) < MIN_SETUPS:
            clock.again()
        metrics = {
            "setup_s": metric(statistics.median(clock.scaled), "s"),
            "inputs_per_s": metric(statistics.median(len(cases) * f / wall
                                                     for wall, f in zip(loop.walls, loop.slowness)), "1/s"),
            "verdict_p50_ms": metric(loop.per_pass_median(statistics.median) * 1000, "ms"),
            "verdict_p90_ms": metric(loop.per_pass_median(lambda p: percentile(p, 90)) * 1000, "ms"),
            "peak_mem_mb": metric(peak_memory_mb(heavy, inputs), "MB"),
        }
        print(f"{len(clock.seconds)} set-ups: " + ", ".join(f"{s:.3f}" for s in clock.seconds) + " s")
        raw = {"setup_s": statistics.median(clock.seconds),
               "inputs_per_s": statistics.median(len(cases) / wall for wall in loop.walls),
               "verdict_p50_ms": statistics.median(statistics.median(p) for p in loop.charged) * 1000,
               "verdict_p90_ms": statistics.median(percentile(p, 90) for p in loop.charged) * 1000}
        print("unscaled: " + ", ".join(f"{k} {v:.4g}" for k, v in raw.items())
              + f"; host slowness median {statistics.median(host.factors):.3f}, "
              f"range {min(host.factors):.3f} to {max(host.factors):.3f}")
    loop.failures[:0] = warm.failures
    attempted, failed = warm.attempted() + loop.attempted(), len(loop.failures)
    print(f"{passes} passes of {len(cases)} inputs after one warm-up pass: {attempted} attempted, "
          f"{failed} failed, failed_ratio {failed / attempted:.4f}")
    for case_id, family, problems in loop.failures[:10]:
        print(f"FAILED {case_id} {family}: {'; '.join(problems)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def traced(args, loop: Loop, built: corpus.Corpus, work: Path, verifier: answers.Verifier):
    rows = sweeps.rows()
    loop.one_pass()  # untraced, the reference for the tracing overhead
    t = tracer.Tracer()
    t.install()
    try:
        loop.run_for(args.seconds)
    finally:
        t.remove()
    untraced_s, *traced_s = map(sum, loop.passes)
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    t.write(out_dir / f"spans-{args.workload}.tsv")
    probe_failed, lines = run_probes(built.probes, work, verifier)
    for line in lines:
        print(line)
    metrics = {k: metric(v, tracer.LAYER_UNITS[k]) for k, v in tracer.layer_metrics(t, len(traced_s)).items()}
    metrics.update({k: metric(v, "ms") for k, v in rows.items()})
    overhead = statistics.median(traced_s) / untraced_s
    metrics["trace.overhead_ratio"] = metric(overhead, "ratio")
    metrics["probes.failed"] = metric(probe_failed, "count")
    print(f"tracing overhead: {overhead:.3f} times the untraced time of a pass ({untraced_s:.3f} s)")
    return metrics, len(loop.passes)

if __name__ == "__main__":
    sys.exit(main())
