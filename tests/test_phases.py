"""`tools/phases.py`: one timed pass over the first inputs of each family of a
workload's seeded corpus, run in this process."""

from __future__ import annotations

import importlib.util

import pytest

from piterm import cli, inference, semantics

from conftest import FIXTURES

_spec = importlib.util.spec_from_file_location("phases", FIXTURES.parent / "tools" / "phases.py")
phases = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(phases)

# functions each workload's pass calls, by their labels in the table
CALLED = {
    "typecheck": ["main", "_read", "parse_process", "_load_env", "parse_env_file", "derive", "check_impure"],
    "explore": [
        "main", "parse_process", "explore", "certified_run", "step", "canonical", "substitute_many", "_find_cycle",
        "pretty_process", "_weigh",
    ],
    "lambda": [
        "main", "encode", "infer", "facts", "simple_types", "numbering", "constraints", "solving",
        "reconstruction", "recheck", "projection",
    ],
}


@pytest.mark.parametrize("workload", sorted(CALLED))
def test_one_pass(workload, capsys):
    assert phases.main(["--workload", workload, "--seed", "1", "--passes", "1", "--inputs", "2"]) == 0
    head, columns, *rows = capsys.readouterr().out.splitlines()
    assert head.startswith(f"{workload} seed 1, best of 1 pass(es), python ")
    assert head.endswith(", first 2 input(s) per family")
    assert columns.split() == ["function", "best", "ms/pass", "share"]
    table, depths = {}, {}
    for row in rows:
        name, ms, share = row.split()
        depth = (len(row) - len(row.lstrip())) // 2
        table.setdefault(name, (depth, float(ms), float(share.rstrip("%"))))
        depths.setdefault(name, set()).add(depth)
    assert set(CALLED[workload]) <= table.keys()
    assert table["main"][0] == 0 and table["main"][2] == 100.0
    # every other timer runs inside `main`, and a phase of `infer` inside it
    assert all(depth >= 1 and 0 <= ms <= table["main"][1] for name, (depth, ms, _) in table.items() if name != "main")
    if workload == "lambda":
        assert table["solving"][0] == table["infer"][0] + 1
        assert sum(table[p][1] for p in CALLED["lambda"][3:10]) <= table["infer"][1]
    if workload == "explore":
        assert table["step"][0] == table["_find_cycle"][0] == table["explore"][0] + 1
        assert table["substitute_many"][0] == table["step"][0] + 1
        # the root's canonical form is taken by the exploration itself, a successor's by `step`
        assert depths["canonical"] == {table["explore"][0] + 1, table["step"][0] + 1}
        assert "normalize" not in table
        # a certified run's TRACE printing and component typing, each timed under it
        assert table["certified_run"][0] + 1 in depths["pretty_process"] & depths["_weigh"]
    # the timers are gone when the tool returns
    assert not any(hasattr(f, "__wrapped__") for f in (cli.main, cli.explore, inference._reconstruct, semantics.step))


def test_first_inputs_of_each_family():
    cases = phases.corpus.WORKLOADS["explore"](1).cases

    def family(case) -> str:
        return case.family.split("/")[0]

    order = list(dict.fromkeys(map(family, cases)))
    assert order == ["pairs", "restricted", "server", "echo", "replicator", "image"]
    assert phases.first_inputs(cases, 2) == [c for f in order for c in [c for c in cases if family(c) == f][:2]]
