"""The benchmark's own test.

    python3 perfbench/selftest.py

It shows that the answer checker flags a wrong verdict and a wrong weight,
that one seed writes byte-identical input files, that a brief run of every
workload prints each metric of BENCHMARK.json by name with its unit, and that
without the program's sources the benchmark fails without printing a result.
Exits 1 on the first check that does not hold.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import answers  # noqa: E402
import corpus  # noqa: E402
import run  # noqa: E402

WORK = ROOT / ".perfbench_work" / "selftest"


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        sys.exit(1)


def injected_errors_are_flagged() -> None:
    built = corpus.typecheck(7)
    case = next(c for c in built.cases if c.expect.get("VERDICT") == "Accepted")
    run.setup("typecheck", 7, WORK / "inputs")
    code, raised, output, _ = run.call(case.argv(WORK / "inputs"), run.LIMIT_S)
    verifier = answers.Verifier()
    expect(not verifier.verify(case, code, raised, output), f"{case.family}: the true output passes")
    wrong_verdict = output.replace("VERDICT=Accepted", "VERDICT=Rejected")
    expect(bool(verifier.verify(case, code, raised, wrong_verdict)), "a wrong VERDICT is flagged")
    weight = case.expect["WEIGHT"]
    wrong_weight = output.replace(f"WEIGHT={weight}", f"WEIGHT={int(weight) + 1}")
    expect(bool(verifier.verify(case, code, raised, wrong_weight)), "a wrong WEIGHT is flagged")
    expect(bool(verifier.verify(case, 1, raised, output)), "a wrong exit code is flagged")
    rejected = next(c for c in built.cases if c.expect.get("VERDICT") == "Rejected")
    expect(bool(verifier.verify(rejected, 1, "RecursionError", "")),
           "an exception escaping with the expected exit code is flagged")


def same_seed_same_files() -> None:
    for workload, build in corpus.WORKLOADS.items():
        a, b = WORK / f"{workload}-a", WORK / f"{workload}-b"
        for directory in (a, b):
            built = build(11)
            corpus.write(built.cases + built.probes, directory)
        names = sorted(p.name for p in a.iterdir())
        same = names == sorted(p.name for p in b.iterdir()) and all(
            (a / n).read_bytes() == (b / n).read_bytes() for n in names)
        expect(same, f"{workload}: seed 11 writes {len(names)} byte-identical files twice")
        other = build(12)
        expect(any((a / n).read_text() != t for c in other.cases for n, t in c.files.items()),
               f"{workload}: seed 12 writes other files")


def last_json(cwd: Path, *args: str) -> tuple[int, dict | None]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return proc.returncode, None


def every_metric_is_printed() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for workload in (w["name"] for w in spec["workloads"]):
            code, result = last_json(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                                     "--trace", str(trace))
            got = {k: v["unit"] for k, v in (result or {}).get("metrics", {}).items()}
            expect(code == 0 and result is not None and result["correct"] and result["failed"] == 0 and got == want,
                   f"{workload} --trace {trace}: correct, and all {len(want)} {key} metrics with their units")


def fails_without_the_program() -> None:
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, result = last_json(bare, "--workload", "explore", "--seed", "1", "--seconds", "1", "--trace", "0")
    expect(code != 0 and result is None, "without src/ the run exits non-zero and prints no result")


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    signal.signal(signal.SIGALRM, run._expire)
    try:
        injected_errors_are_flagged()
        same_seed_same_files()
        every_metric_is_printed()
        fails_without_the_program()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
