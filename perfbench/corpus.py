"""The seeded input corpus of each workload, with the answer known for every input.

A `Case` is one call of `piterm.cli.main`: its argument list, the files it
reads and what its `--format=lines` output must say. Every expected value
comes from how the input was built; `answers.py` holds the rules that need
more than a field-by-field comparison.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

import lamgen
import pigen


@dataclass
class Case:
    id: str
    family: str
    command: list[str]  # cli arguments; `{dir}` stands for the input directory
    files: dict[str, str]
    expect: dict  # field -> exact text; "exit" -> exit code
    rules: tuple[str, ...] = ()  # extra checks, see answers.py
    image: str = ""  # the benchmark's own `.pi` image of a lambda term

    def argv(self, directory: Path) -> list[str]:
        return [a.replace("{dir}", str(directory)) for a in self.command]


@dataclass
class Corpus:
    cases: list[Case] = field(default_factory=list)
    probes: list[Case] = field(default_factory=list)  # seed-defect inputs, run apart

    def add(self, family: str, command: list[str], files: dict, expect: dict, **kw) -> Case:
        case = Case(f"c{len(self.cases):03d}", family, command, files, expect, **kw)
        self.cases.append(case)
        return case


def write(cases: list[Case], directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for case in cases:
        for name, text in case.files.items():
            (directory / name).write_text(text, encoding="utf-8")


ACCEPTED = {"exit": 0, "VERDICT": "Accepted"}


def rejected(code: str) -> dict:
    return {"exit": 1, "VERDICT": "Rejected", "CODE": code}


# ---------------------------------------------------------------------------
# typecheck: check, check --ds and check --impure on generated pairs

# (nesting depth, `|` width) of every generated process; the deep and the
# wide ends carry the checker's super-linear cost.
TYPECHECK_GRID = [(1, 1), (2, 4), (3, 16), (4, 2), (6, 6), (8, 1), (8, 3), (12, 2),
                  (16, 1), (16, 4), (24, 1), (32, 2), (48, 1), (64, 1), (2, 48)]
# per grid point and round: nine `check`, three `--ds`, three `--impure`
TYPECHECK_MODES = ["check", "check", "check", "ds", "impure"] * 3
DEFECTS = ["LVL", "CAP", "PAY"]


def typecheck(seed: int, rounds: int = 2) -> Corpus:
    """Two rounds, 30 inputs per grid point, keep the cost of a pass from
    swinging with the seed: with one round, `inputs_per_s` spread by 0.09
    over ten seeds at a steady host speed."""
    rng = random.Random(seed)
    corpus = Corpus()
    index = 0
    for depth, width in TYPECHECK_GRID:
        for mode in TYPECHECK_MODES * rounds:
            gen = pigen.Impure(rng) if mode == "impure" else pigen.Typed(rng, exact=mode == "ds")
            env = gen.pool()
            # one input in nine carries exactly one defect; nine is prime to
            # the cycle of five modes, so every mode gets defects
            defect = DEFECTS[(index // 9) % 3] if index % 9 == 8 else None
            proc, weight, measure = gen.process(env, depth, width, defect)
            name = f"tc{index:03d}"
            files = {f"{name}.pi": pigen.text(proc) + "\n", f"{name}.env": pigen.env_text(env)}
            flags = {"check": [], "ds": ["--ds"], "impure": ["--impure"]}[mode]
            if defect:
                expect = rejected(defect)
            elif mode == "impure":
                expect = {**ACCEPTED, "WEIGHT": str(weight)}
            else:
                expect = {**ACCEPTED, "WEIGHT": str(weight), "MEASURE": pigen.multiset_text(measure)}
            family = f"{mode}{'/' + defect if defect else ''}/depth={depth},width={width}"
            corpus.add(family, ["check", f"{{dir}}/{name}.pi", *flags, "--format=lines"], files, expect)
            index += 1
    # seed defects (ROADMAP item 5): the parser recurses per prefix and the
    # walkers recurse along a `|` chain
    deep = "a0(x)." * 1200 + "a0<x>"
    wide = " | ".join(["a0<*>"] * 2000)
    env = "a0 : #2[Unit]\n"
    for name, text in (("deep1200", deep), ("wide2000", wide)):
        corpus.probes.append(Case(
            name, f"check/{name}", ["check", f"{{dir}}/{name}.pi", "--format=lines"],
            {f"{name}.pi": text + "\n", f"{name}.env": env},
            {**ACCEPTED, "WEIGHT": "2"}))
    return corpus


# ---------------------------------------------------------------------------
# explore: run and run --certify on families with known state spaces


class Names:
    """Distinct seeded spellings, so inputs differ in names and order only."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set[str] = set()

    def __call__(self) -> str:
        while True:
            s = self.rng.choice("abcdeghjklmnpquvw") + str(self.rng.randrange(100))
            if s not in self.used:
                self.used.add(s)
                return s


def _shuffled(rng: random.Random, parts: list[str]) -> str:
    parts = list(parts)
    rng.shuffle(parts)
    return " | ".join(parts)


def _pairs(rng: random.Random, names: Names, k: int) -> list[str]:
    """k independent redexes, each fires once: 2^k states."""
    out = []
    for _ in range(k):
        a = names()
        out += rng.choice([[f"{a}<>", f"{a}().0"], [f"{a}<*>", f"{a}(x).0"], [f"{a}<>", a]])
    return out


# The family sizes of one pass. Most sizes come twice, under other names. A
# server with one plain and one forwarded client comes eight times: about
# half the other inputs cost less, so the 50th percentile falls among copies
# of one input and does not jump between cost groups from seed to seed. With
# it twice, the median sat where costs rise from 3 to 6 ms within ten ranks,
# and `verdict_p50_ms` spread by 0.098 over ten seeds. Seven pairs come six
# times for the same reason: with the largest server they are the only
# inputs between 25 and 60 ms, where the 90th percentile falls. The heaviest
# sizes come once.
# Images stay small: above three nodes the cost of a random term spreads over
# two orders of magnitude.
EXPLORE_PAIRS = (2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 7, 7, 7, 7, 8)
EXPLORE_RESTRICTED = (1, 1, 2, 2, 3, 3, 4, 4, 5, 6)
EXPLORE_SERVERS = [(1, 0), (0, 1), (2, 1), (1, 2), (3, 1)] * 2 + [(1, 1)] * 8 + [(2, 2)]
EXPLORE_ECHOES = [(1, 0), (1, 2), (2, 3), (1, 5)] * 2
EXPLORE_BOUNDS = (5, 10, 15) * 2
EXPLORE_IMAGES = (2, 3) * 6


def explore(seed: int) -> Corpus:
    rng = random.Random(seed)
    corpus = Corpus()

    def run(family: str, text: str, expect: dict, flags=(), files=None, **kw):
        name = f"ex{len(corpus.cases):03d}"
        all_files = {f"{name}.pi": text + "\n", **(files or {})}
        command = ["run", f"{{dir}}/{name}.pi", *flags, "--format=lines"]
        return corpus.add(family, command, all_files, expect, **kw)

    for k in EXPLORE_PAIRS:
        names = Names(rng)
        run(f"pairs/k={k}", _shuffled(rng, _pairs(rng, names, k)),
            {"exit": 0, "VERDICT": "Terminated", "STATES": str(2**k), "STEPS": str(k * 2**k // 2), "DEPTH": str(k)})
    # n restricted channels, each with one message and two receivers: up to
    # congruence a state only records how many have fired, so n+1 states
    for n in EXPLORE_RESTRICTED:
        run(f"restricted/n={n}", _restricted(rng, Names(rng), n),
            {"exit": 0, "VERDICT": "Terminated", "STATES": str(n + 1), "STEPS": str(n), "DEPTH": str(n)})
    for plain, forwarded in EXPLORE_SERVERS:
        text, env = _server(rng, Names(rng), plain, forwarded)
        states = 2**plain * 3**forwarded
        steps = states * plain // 2 + states * 2 * forwarded // 3
        name = f"ex{len(corpus.cases):03d}"
        run(f"server/plain={plain},forwarded={forwarded}", text,
            {"exit": 0, "VERDICT": "Terminated", "STATES": str(states), "STEPS": str(steps),
             "DEPTH": str(plain + 2 * forwarded)},
            flags=["--certify", f"{{dir}}/{name}.env"], files={f"{name}.env": env}, rules=("certified",))
    # echo loops: every state has a self-loop, so the run diverges
    for loops, k in EXPLORE_ECHOES:
        names = Names(rng)
        parts = _pairs(rng, names, k)
        for _ in range(loops):
            e = names()
            parts += [f"!{e}(x).{e}<x>", f"{e}<{names()}>"]
        run(f"echo/loops={loops},k={k}", _shuffled(rng, parts),
            {"exit": 1, "VERDICT": "Diverges", "STATES": str(2**k), "STEPS": str(2**k + k * 2**k // 2),
             "DEPTH": str(k)}, rules=("witness",))
    # a replicator that doubles its message never repeats a state: the
    # states form a chain cut by --max-states
    for bound in EXPLORE_BOUNDS:
        names = Names(rng)
        a, v = names(), names()
        run(f"replicator/max_states={bound}", f"!{a}(x).({a}<x> | {a}<x>) | {a}<{v}>",
            {"exit": 1, "VERDICT": "BoundExceeded", "STATES": str(bound), "STEPS": str(bound - 1),
             "DEPTH": str(bound - 1)}, flags=["--max-states", str(bound)])
    # images of simply-typed terms terminate (the paper's theorem)
    for size in EXPLORE_IMAGES:
        decls, term = lamgen.first_order_term(rng, size)
        name = f"ex{len(corpus.cases):03d}"
        corpus.add(f"image/size={size}", ["encode", f"{{dir}}/{name}.lam", "--run", "--format=lines"],
                   {f"{name}.lam": lamgen.lam_file(decls, term)},
                   {"exit": 0, "VERDICT": "Terminated"}, rules=("image",), image=lamgen.image(term))
    # seed defect (ROADMAP item 2): above six restrictions the canonical
    # order is greedy and not alpha-invariant, so congruent states split
    text = _restricted(rng, Names(rng), 7)
    corpus.probes.append(Case("restricted7", "restricted/n=7", ["run", "{dir}/restricted7.pi", "--format=lines"],
                              {"restricted7.pi": text + "\n"},
                              {"exit": 0, "VERDICT": "Terminated", "STATES": "8", "STEPS": "7", "DEPTH": "7"}))
    return corpus


def _restricted(rng: random.Random, names: Names, n: int) -> str:
    parts = []
    for _ in range(n):
        c = names()
        parts.append(f"(new {c})({c}<> | {c}().0 | {c}().0)")
    return _shuffled(rng, parts)


def _server(rng: random.Random, names: Names, plain: int, forwarded: int) -> tuple[str, str]:
    """`fixtures/server.pi` scaled up: a replicated server on `a` answers each
    client on its own channel; a forwarded client's answer moves on to `q`.
    A plain client has 2 local states and a forwarded one 3, and clients are
    independent, so the run has 2^plain * 3^forwarded states."""
    a, q, t = names(), names(), names()
    parts = [f"!{a}(x).x<{t}>"]
    env = [f"{a} : #3[o2[Unit]]", f"{q} : o1[Unit]", f"{t} : Unit"]
    for i in range(plain + forwarded):
        p = names()
        parts.append(f"{a}<{p}>")
        if i < forwarded:
            parts.append(f"!{p}(z).{q}<z>")
            env.append(f"{p} : #2[Unit]")
        else:
            env.append(f"{p} : o1[Unit]")
    rng.shuffle(env)
    return _shuffled(rng, parts), "\n".join(env) + "\n"


# ---------------------------------------------------------------------------
# lambda: encode --infer and infer on images of simply-typed terms

LAMBDA_SIZES = (4, 8, 12, 16, 24, 32)


def lambda_(seed: int) -> Corpus:
    rng = random.Random(seed)
    corpus = Corpus()

    def encode_infer(family: str, decls, term, expect: dict, rules=("image", "recheck")):
        name = f"lm{len(corpus.cases):03d}"
        return corpus.add(family, ["encode", f"{{dir}}/{name}.lam", "--infer", "--format=lines"],
                          {f"{name}.lam": lamgen.lam_file(decls, term)}, expect,
                          rules=rules, image=lamgen.image(term))

    def infer(family: str, text: str, flags: list[str], expect: dict, rules=()):
        name = f"lm{len(corpus.cases):03d}"
        return corpus.add(family, ["infer", f"{{dir}}/{name}.pi", *flags, "--format=lines"],
                          {f"{name}.pi": text + "\n"}, expect, rules=rules, image=text)

    for size in LAMBDA_SIZES:
        for _ in range(6):
            decls, term = lamgen.first_order_term(rng, size)
            image = lamgen.image(term)
            encode_infer(f"first-order/encode/size={size}", decls, term, dict(ACCEPTED))
            infer(f"first-order/infer-graph/size={size}", image, ["--dump-graph"], dict(ACCEPTED),
                  rules=("recheck", "levels"))
            infer(f"first-order/infer-ds/size={size}", image, ["--ds-equality"], dict(ACCEPTED),
                  rules=("recheck",))
    for size in (4, 8, 16) * 3:
        decls, term = lamgen.reused_argument_term(rng, size)
        image = lamgen.image(term)
        encode_infer(f"reused-arg/encode/size={size}", decls, term, dict(ACCEPTED))
        infer(f"reused-arg/infer-ds/size={size}", image, ["--ds-equality"], rejected("CYC"))
    for size in (12, 16, 24) * 3:
        decls, term = lamgen.discarding_term(rng, size)
        image = lamgen.image(term)
        encode_infer(f"discarding/encode/size={size}", decls, term, rejected("CYC"), rules=("image",))
        infer(f"discarding/infer-graph/size={size}", image, ["--dump-graph"], rejected("CYC"))
    # a received name used as an input subject puts the process outside the
    # localised fragment
    for size in (4, 8, 16) * 3:
        decls, term = lamgen.first_order_term(rng, size)
        image = lamgen.image(term)
        names = Names(rng)
        c, d = names(), names()
        text = f"{image} | {c}(x).x(y).0 | {c}<{d}>"
        infer(f"non-local/infer/size={size}", text, [], rejected("LOC"))
        infer(f"non-local/infer-ds/size={size}", text, ["--ds-equality"], rejected("LOC"))
    # seed defect (ROADMAP item 5): inference recurses along a `|` chain
    wide = " | ".join(["a<b>"] * 2000)
    corpus.probes.append(Case("infer-wide2000", "infer/wide2000", ["infer", "{dir}/infer-wide2000.pi", "--format=lines"],
                              {"infer-wide2000.pi": wide + "\n"}, {**ACCEPTED, "WEIGHT": "0"}))
    # seed defect (ROADMAP item 5): `encode` lets the simple-type error of a
    # term with no simple type escape `cli.main` as a traceback, where it
    # should reject the term with code LAM
    for size in (4, 8, 16):
        decls, term = lamgen.ill_typed_term(rng, size)
        name = f"ill-typed{size}"
        corpus.probes.append(Case(name, f"ill-typed/encode/size={size}",
                                  ["encode", f"{{dir}}/{name}.lam", "--infer", "--format=lines"],
                                  {f"{name}.lam": lamgen.lam_file(decls, term)}, rejected("LAM")))
    return corpus


WORKLOADS = {"typecheck": typecheck, "explore": explore, "lambda": lambda_}

# The inputs whose memory a run measures: the largest sizes, so that every
# seed measures inputs built alike. The peak of a `typecheck` input varies by
# about a quarter with the seed, so the 60 inputs of the deep end (depth 48)
# and the wide end (width 48) are taken; the 7 plain `check` inputs of depth
# 64 alone spread by 0.15 over ten seeds. Depth 64 would double the time
# that tracing takes.
MEMORY_FAMILIES = {
    "typecheck": lambda family: family.endswith(("/depth=48,width=1", "/depth=2,width=48")),
    "explore": lambda family: family in ("pairs/k=7", "pairs/k=8"),
    "lambda": lambda family: family.startswith("first-order/") and family.endswith("/size=32"),
}
