"""Sweep rows: one layer function timed on inputs of growing size.

Each row is named `<layer>.<fn>.<dim>_<size>.ms` and is the median of a few
untraced calls. The inputs are fixed, not drawn from the run's seed, so rows
compare across runs. They include the single-run baselines of ROADMAP item 1:
`check` at depth 50/100/200, `normalize` with 5 and 6 restrictions, `explore`
on the discarding image and on 10 independent pairs.
"""

from __future__ import annotations

import random
import statistics
import time

import lamgen

REPEATS = 3
DEPTHS = (50, 100, 200)
WIDTHS = (100, 200, 400, 800)
RESTRICTIONS = (1, 2, 3, 4, 5, 6)
PAIRS = (4, 6, 8, 10)
LAMBDA_SIZES = (8, 16, 32, 64)
# (\u. ((\v. (u v)) (\y. (u t)))) (\x. (x a)), as in fixtures/delegate.lam
DISCARDING = ("app",
              ("lam", "u", ("app", ("lam", "v", ("app", ("var", "u"), ("var", "v"))),
                            ("lam", "y", ("app", ("var", "u"), ("var", "t"))))),
              ("lam", "x", ("app", ("var", "x"), ("var", "a"))))


def _ms(fn, arg) -> float:
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn(*arg)
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1000


def rows() -> dict[str, float]:
    from piterm.checker import TypeEnv, check
    from piterm.inference import infer
    from piterm.parser import parse_process, parse_type
    from piterm.semantics import explore, normalize
    from piterm.syntax import free_names

    def typed(text: str):
        p = parse_process(text)
        return TypeEnv({n: parse_type("#1[Unit]") for n in free_names(p)}), p

    out = {}
    for d in DEPTHS:
        out[f"checker.check.depth_{d}.ms"] = _ms(check, typed("a(x)." * d + "a<x>"))
    for w in WIDTHS:
        out[f"checker.check.width_{w}.ms"] = _ms(check, typed(" | ".join(["a(x).a<x>"] * w)))
    for n in RESTRICTIONS:
        text = " | ".join(f"(new c{i})(c{i}<> | c{i}().0 | c{i}().0)" for i in range(n))
        out[f"semantics.normalize.res_{n}.ms"] = _ms(normalize, (parse_process(text),))
    for k in PAIRS:
        text = " | ".join(f"a{i}<> | a{i}().0" for i in range(k))
        out[f"semantics.explore.pairs_{k}.ms"] = _ms(explore, (parse_process(text),))
    out["semantics.explore.image_discarding.ms"] = _ms(explore, (parse_process(lamgen.image(DISCARDING)),))
    rng = random.Random(0)
    for s in LAMBDA_SIZES:
        _, term = lamgen.first_order_term(rng, s)
        out[f"inference.infer.lam_size_{s}.ms"] = _ms(infer, (parse_process(lamgen.image(term)),))
    return out

