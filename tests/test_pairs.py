"""`tools/pairs.py`: seed lists and the summary of alternating benchmark pairs."""

from __future__ import annotations

import importlib.util

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
