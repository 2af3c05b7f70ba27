"""`tools/phases.py`: one timed pass of each workload's seeded corpus."""

from __future__ import annotations

import subprocess
import sys

import pytest

from conftest import FIXTURES

TOOL = FIXTURES.parent / "tools" / "phases.py"

# functions each workload's pass calls, by their labels in the table
CALLED = {
    "typecheck": ["main", "_read", "parse_process", "_load_env", "parse_env_file", "derive", "check_impure"],
    "explore": ["main", "parse_process", "explore", "certified_run"],
    "lambda": [
        "main", "encode", "infer", "facts", "simple_types", "numbering", "constraints", "solving",
        "reconstruction", "recheck", "projection",
    ],
}


@pytest.mark.parametrize("workload", sorted(CALLED))
def test_one_pass(workload):
    argv = [sys.executable, str(TOOL), "--workload", workload, "--seed", "1", "--passes", "1"]
    out = subprocess.run(argv, capture_output=True, text=True, check=True, timeout=120).stdout
    head, columns, *rows = out.splitlines()
    assert head.startswith(f"{workload} seed 1, best of 1 pass(es), python ")
    assert columns.split() == ["function", "best", "ms/pass", "share"]
    table = {}
    for row in rows:
        name, ms, share = row.split()
        depth = (len(row) - len(row.lstrip())) // 2
        table.setdefault(name, (depth, float(ms), float(share.rstrip("%"))))
    assert set(CALLED[workload]) <= table.keys()
    assert table["main"][0] == 0 and table["main"][2] == 100.0
    # every other timer runs inside `main`, and a phase of `infer` inside it
    assert all(depth >= 1 and 0 <= ms <= table["main"][1] for name, (depth, ms, _) in table.items() if name != "main")
    if workload == "lambda":
        assert table["solving"][0] == table["infer"][0] + 1
        assert sum(table[p][1] for p in CALLED["lambda"][3:10]) <= table["infer"][1]
