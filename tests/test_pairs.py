"""`tools/pairs.py`: seed lists and the summary of alternating benchmark pairs."""

from __future__ import annotations

import importlib.util
import json

import pytest

from conftest import FIXTURES

_spec = importlib.util.spec_from_file_location("pairs", FIXTURES.parent / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

END_TO_END = [{"name": "inputs_per_s", "unit": "1/s", "better": "higher"}, {"name": "setup_s", "unit": "s", "better": "lower"}]


def result(inputs_per_s: float, setup_s: float, failed: int = 0) -> dict:
    metrics = {"inputs_per_s": {"value": inputs_per_s}, "setup_s": {"value": setup_s}}
    return {"correct": failed == 0, "attempted": 100, "failed": failed, "metrics": metrics}


@pytest.mark.parametrize("text, seeds", [("1-5", [1, 2, 3, 4, 5]), ("3", [3]), ("1,4,7", [1, 4, 7]), ("1-2,9", [1, 2, 9])])
def test_seed_list(text, seeds):
    assert pairs.seed_list(text) == seeds


def test_summary_in_the_layout_of_a_bench_file():
    results = {
        "parent": [result(100, 0.30), result(110, 0.20), result(90, 0.25), result(105, 0.22)],
        "change": [result(120, 0.31), result(100, 0.21), result(95, 0.24), result(130, 0.21, failed=1)],
    }
    block = pairs.summarize([1, 2, 3, 4], results, END_TO_END)
    assert block["pairs"] == 4 and block["seeds"] == [1, 2, 3, 4]
    assert block["every_input_correct"] is False
    assert block["inputs_failed"] == {"parent": 0, "change": 1}
    assert block["inputs_attempted"] == {"parent": 400, "change": 400}
    rate = block["metrics"]["inputs_per_s"]
    assert rate["parent"] == {"q1": 97.5, "median": 102.5, "q3": 106.25}
    assert rate["change"]["median"] == 110
    assert rate["change_over_parent"] == pytest.approx(110 / 102.5)
    assert rate["parent_iqr"] == pytest.approx(8.75)
    assert rate["change_wins"] == "3/4"  # higher is better: every pair but seed 2
    assert block["metrics"]["setup_s"]["change_wins"] == "2/4"  # lower is better: seeds 3 and 4
    assert rate["runs"]["change"] == [120, 100, 95, 130]
    assert pairs.note("typecheck", block).startswith("typecheck, 4 pairs: inputs_per_s 102.5 -> 110 (1.073, change better in 3/4); setup_s ")


def test_several_workloads_into_one_file(tmp_path, monkeypatch):
    runs = []

    def run_once(copy, workload, seed, seconds):
        runs.append((workload, seed, copy.name.split("-")[0]))
        return result(100 + seed + (copy.name.startswith("change") and 10), 0.2)

    def git(*args):
        if args[0] == "rev-parse":
            return args[-1].split("^")[0].encode() + b"\n"
        return json.dumps({"end_to_end": END_TO_END}).encode()

    monkeypatch.setattr(pairs, "run_once", run_once)
    monkeypatch.setattr(pairs, "git", git)
    monkeypatch.setattr(pairs, "fresh_copy", lambda commit, into: into.mkdir(parents=True) or into)
    out = tmp_path / "BENCH_0.json"
    out.write_text(json.dumps({"machine": "m", "workloads": {"other": {}}}))
    assert pairs.main(["p", "c", "--workload", "typecheck,explore", "--seeds", "1-2", "--seconds", "1", "--out", str(out)]) == 0
    # each workload's pairs in turn, the parent first for odd seeds
    assert runs == [(w, seed, side) for w in ("typecheck", "explore")
                    for seed, sides in ((1, ("parent", "change")), (2, ("change", "parent"))) for side in sides]
    data = json.loads(out.read_text())
    assert data["machine"] == "m" and list(data["workloads"]) == ["other", "typecheck", "explore"]
    for block in (data["workloads"]["typecheck"], data["workloads"]["explore"]):
        assert block["seeds"] == [1, 2]
        assert block["metrics"]["inputs_per_s"]["runs"] == {"parent": [101, 102], "change": [111, 112]}
        assert block["metrics"]["inputs_per_s"]["change_wins"] == "2/2"
