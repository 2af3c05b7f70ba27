"""Alternating benchmark pairs of two commits, each run from a fresh copy.

    python3 tools/pairs.py PARENT CHANGE --workload W[,W...] --seeds 1-5 --seconds 25 [--out BENCH_N.json]

For each seed, `perfbench/run.py` runs once from a fresh `git archive` copy of
each commit, with PYTHONDONTWRITEBYTECODE=1, so that neither side reads
bytecode caches (a tree that holds them reads about half the `setup_s` of one
that does not). The parent runs first for odd seeds, the change for even ones,
one run at a time. The summary is the `workloads` block of a `BENCH_*.json`:
per end-to-end metric of `BENCHMARK.json`, each side's quartiles
(`statistics.quantiles(runs, n=4, method='inclusive')`), the change's median
over the parent's, the parent's interquartile range, the count of pairs in
which the change was better, and the runs. `--workload` takes a
comma-separated list, run one workload after the other, so one command
records a claim and the metrics that must not move. `--out` writes each
workload's block into that file under the workload's name as soon as it is
done, keeping the file's other keys. Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def seed_list(text: str) -> list[int]:
    """`1-5` or `1,3,7` (or both, as `1-3,7`) as a list of seeds."""
    seeds: list[int] = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds += range(int(first), int(last or first) + 1)
    return seeds


def git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(REPO), *args], check=True, capture_output=True).stdout


def fresh_copy(commit: str, into: Path) -> Path:
    """The files of `commit`, as `git archive` has them, in a new directory."""
    into.mkdir(parents=True)
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", commit))) as tar:
        tar.extractall(into, **safe)
    return into


def run_once(copy: Path, workload: str, seed: int, seconds: float) -> dict:
    """The JSON summary that `perfbench/run.py` prints last, run in `copy`."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run(argv, cwd=copy, env=env, check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def quartiles(runs: list[float]) -> dict:
    if len(runs) == 1:
        return dict.fromkeys(("q1", "median", "q3"), runs[0])
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(seeds: list[int], results: dict[str, list[dict]], end_to_end: list[dict]) -> dict:
    """The `workloads` block of one workload from the runs of each side, in
    seed order."""
    block = {
        "seeds": seeds,
        "pairs": len(seeds),
        "every_input_correct": all(r["correct"] for side in SIDES for r in results[side]),
        "inputs_failed": {side: sum(r["failed"] for r in results[side]) for side in SIDES},
        "inputs_attempted": {side: sum(r["attempted"] for r in results[side]) for side in SIDES},
        "metrics": {},
    }
    for spec in end_to_end:
        name, lower = spec["name"], spec["better"] == "lower"
        runs = {side: [r["metrics"][name]["value"] for r in results[side]] for side in SIDES}
        parent, change = quartiles(runs["parent"]), quartiles(runs["change"])
        wins = sum(c < p if lower else c > p for p, c in zip(runs["parent"], runs["change"]))
        block["metrics"][name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "parent": parent,
            "change": change,
            "change_over_parent": change["median"] / parent["median"],
            "parent_iqr": parent["q3"] - parent["q1"],
            "change_wins": f"{wins}/{len(seeds)}",
            "runs": runs,
        }
    return block


def note(workload: str, block: dict) -> str:
    """One line in the manner of a `BENCH_*.json` note."""
    parts = [f"{name} {m['parent']['median']:.4g} -> {m['change']['median']:.4g} "
             f"({m['change_over_parent']:.3f}, change better in {m['change_wins']})"
             for name, m in block["metrics"].items()]
    return f"{workload}, {block['pairs']} pairs: " + "; ".join(parts)


def run_pairs(commits: dict[str, str], workload: str, seeds: list[int], seconds: float) -> dict[str, list[dict]]:
    """Each side's results on `workload`, in seed order, from alternating runs."""
    results: dict[str, list[dict]] = {side: [] for side in SIDES}
    work = Path(tempfile.mkdtemp(prefix="pairs-"))
    try:
        for seed in seeds:
            for side in SIDES if seed % 2 else SIDES[::-1]:
                copy = fresh_copy(commits[side], work / f"{side}-{seed}")
                try:
                    result = run_once(copy, workload, seed, seconds)
                finally:
                    shutil.rmtree(copy)
                results[side].append(result)
                values = ", ".join(f"{k} {v['value']:.4g}" for k, v in result["metrics"].items())
                print(f"{workload} seed {seed} {side}: {values}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return results


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", type=lambda text: text.split(","), required=True,
                    help="one workload, or several as typecheck,explore")
    ap.add_argument("--seeds", type=seed_list, required=True, help="as 1-5, or 1,3,7")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--out", type=Path, help="a BENCH_*.json to write each workload's block into")
    args = ap.parse_args(argv)

    commits = {side: git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
               for side, rev in zip(SIDES, (args.parent, args.change))}
    end_to_end = json.loads(git("show", f"{commits['change']}:BENCHMARK.json"))["end_to_end"]
    for workload in args.workload:
        block = summarize(args.seeds, run_pairs(commits, workload, args.seeds, args.seconds), end_to_end)
        print(note(workload, block), flush=True)
        if args.out:
            data = json.loads(args.out.read_text()) if args.out.exists() else {}
            data.setdefault("workloads", {})[workload] = block
            args.out.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
