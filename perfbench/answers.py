"""Checks one `--format=lines` output against the answer known for its input.

Fields named in `Case.expect` must read exactly as expected. The rules below
cover what a plain comparison cannot:

- `certified`: one TRACE line per step, each a strict multiset decrease;
- `witness`: WITNESS is a path that ends in a state it already visited;
- `image`: the PROCESS printed by `encode` is alpha-equal to the image the
  benchmark built itself;
- `recheck`: an accepted inference re-checks: `check(env, process) == WEIGHT`
  for the typing `infer` gives on the same input, and `infer` prints that
  typing's TYPE lines;
- `levels`: the printed LEVELS satisfy every printed EDGE of the GRAPH.

The last three call the library, once per input; the answers are kept.
"""

from __future__ import annotations

import re
from collections import Counter

_STEP = re.compile(r"measure \{([\d, ]*)\} > \{([\d, ]*)\}$")
_EDGE = re.compile(r"EDGE (\S+) (>=|>) (\S+)$")


def fields(output: str) -> dict[str, str]:
    out = {}
    for line in output.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            out[key] = value
    return out


def multiset_greater(m1: list[int], m2: list[int]) -> bool:
    """Dershowitz-Manna order on multisets of naturals: whatever m2 has more
    of must be dominated by something m1 has more of."""
    c1, c2 = Counter(m1), Counter(m2)
    more1, more2 = c1 - c2, c2 - c1
    return bool(more1) and all(any(f > e for f in more1) for e in more2)


def _levels(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x.strip()]


class Verifier:
    def __init__(self):
        self.known: dict[tuple[str, str], object] = {}  # (case id, rule) -> library answer
        self.passed: set[tuple] = set()  # outputs already found correct

    def verify(self, case, exit_code: int, raised: str | None, output: str) -> list[str]:
        """Problems found; an empty list means the output is correct."""
        seen = (case.id, exit_code, raised, output)
        if seen in self.passed:
            return []
        problems = self._problems(case, exit_code, raised, output)
        if not problems:
            self.passed.add(seen)
        return problems

    def _problems(self, case, exit_code: int, raised: str | None, output: str) -> list[str]:
        got = fields(output)
        problems = []
        if exit_code != case.expect["exit"]:
            problems.append(f"exit {exit_code}, expected {case.expect['exit']}")
        if raised:
            problems.append(f"raised {raised}")
        for key, want in case.expect.items():
            if key != "exit" and got.get(key) != want:
                problems.append(f"{key}={got.get(key)}, expected {want}")
        if problems:
            return problems
        for rule in case.rules:
            problem = getattr(self, f"_{rule}")(case, got)
            if problem:
                problems.append(f"{rule}: {problem}")
        return problems

    def _certified(self, case, got) -> str | None:
        steps = [v for k, v in got.items() if k.startswith("TRACE.")]
        if str(len(steps)) != got.get("STEPS"):
            return f"{len(steps)} trace lines for STEPS={got.get('STEPS')}"
        for line in steps:
            m = _STEP.search(line)
            if not m or not multiset_greater(_levels(m.group(1)), _levels(m.group(2))):
                return f"no strict decrease in {line!r}"
        return None

    def _witness(self, case, got) -> str | None:
        path = got.get("WITNESS", "").split(" --> ")
        if len(path) < 2 or path[-1] not in path[:-1]:
            return f"WITNESS is not a cycle: {got.get('WITNESS')!r}"
        return None

    def _image(self, case, got) -> str | None:
        from piterm.parser import parse_process
        from piterm.syntax import alpha_key

        key = (case.id, "image")
        if key not in self.known:
            self.known[key] = alpha_key(parse_process(case.image))
        if alpha_key(parse_process(got.get("PROCESS", ""))) != self.known[key]:
            return "PROCESS differs from the image built from the term"
        return None

    def _recheck(self, case, got) -> str | None:
        from piterm.checker import check
        from piterm.inference import DS_EQUALITY, FLEXIBLE, infer
        from piterm.parser import parse_process
        from piterm.syntax import pretty_type

        key = (case.id, "recheck")
        if key not in self.known:
            mode = DS_EQUALITY if "--ds-equality" in case.command else FLEXIBLE
            result = infer(parse_process(case.image), mode)
            types = {f"TYPE.{n.display}": pretty_type(t) for n, t in result.env.items()}
            self.known[key] = (str(check(result.env, result.process)), types)
        weight, types = self.known[key]
        if got.get("WEIGHT") != weight:
            return f"WEIGHT={got.get('WEIGHT')}, the inferred typing checks at {weight}"
        # `encode --infer` prints the weight only
        if case.command[0] == "infer" and types != {k: v for k, v in got.items() if k.startswith("TYPE.")}:
            return "TYPE lines differ from the typing infer returns"
        return None

    def _levels(self, case, got) -> str | None:
        levels = {}
        for item in filter(None, got.get("LEVELS", "").split(", ")):
            name, _, level = item.rpartition("=")
            levels[name] = int(level)
        for item in got.get("GRAPH", "").split(";"):
            if not item.startswith("EDGE "):
                continue
            m = _EDGE.match(item)
            if m is None:
                return f"unreadable {item!r}"
            a, b = levels.get(m.group(1)), levels.get(m.group(3))
            if a is None or b is None or not (a > b if m.group(2) == ">" else a >= b):
                return f"levels {a}, {b} break {item!r}"
        return None
