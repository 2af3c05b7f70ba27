"""Type-directed generation of annotated `.pi`/`.env` pairs with known answers.

The generator keeps its own small AST, type order and printer, apart from the
program, and tracks for every process the least weight and the measure the
paper's rules give it. A mutation plants one defect whose error code is
known. Processes are tuples:

    ("nil",)  ("par", [P, ...])  ("out", a, [v, ...])
    ("in", a, [x, ...], P)  ("rep", a, [x, ...], P)  ("new", c, T, fun, P)

and types are ("Unit",), ("Nat",) or (cap, level, (T, ...)) with cap one of
"#", "i", "o".
"""

from __future__ import annotations

import random

UNIT = ("Unit",)
NAT = ("Nat",)
BINDERS = "xyzk"
RESTRICTED = "cdrs"


def is_chan(t) -> bool:
    return len(t) == 3


def type_text(t) -> str:
    if not is_chan(t):
        return t[0]
    return f"{t[0]}{t[1]}[{', '.join(type_text(p) for p in t[2])}]"


def subtype(s, u) -> bool:
    """s <= u: `i` is covariant and may raise the level, `o` is contravariant
    and may lower it, `#` is invariant."""
    if not (is_chan(s) and is_chan(u)):
        return s == u
    if len(s[2]) != len(u[2]):
        return False
    if u[0] == "i":
        return s[0] in "#i" and s[1] >= u[1] and all(map(subtype, s[2], u[2]))
    if u[0] == "o":
        return s[0] in "#o" and s[1] <= u[1] and all(map(subtype, u[2], s[2]))
    return s == u


def text(p) -> str:
    """Concrete syntax; prefixes bind tighter than `|`."""
    kind = p[0]
    if kind == "nil":
        return "0"
    if kind == "par":
        return " | ".join(_term(q) for q in p[1])
    if kind == "out":
        return f"{p[1]}<{', '.join(p[2])}>"
    if kind in ("in", "rep"):
        bang = "!" if kind == "rep" else ""
        return f"{bang}{p[1]}({', '.join(p[2])}).{_term(p[3])}"
    ann = f":{type_text(p[2])}" + (" fun" if p[3] else "")
    return f"new {p[1]}{ann}.{_term(p[4])}"


def _term(p) -> str:
    return f"({text(p)})" if p[0] == "par" else text(p)


def env_text(env: dict) -> str:
    return "".join(f"{name} : {type_text(t)}\n" for name, t in env.items())


def multiset_text(levels: list[int]) -> str:
    return "{" + ", ".join(str(k) for k in sorted(levels, reverse=True)) + "}"


class Typed:
    """Generator for `check` (exact=False) and `check --ds` (exact=True).

    `chain` returns (process, weight, measure): the weight is the least
    weight under the checker's rules and the measure lists the levels of
    the outputs not under a replication.
    """

    def __init__(self, rng: random.Random, exact: bool, max_level: int = 4):
        self.rng = rng
        self.exact = exact
        self.max_level = max_level
        self.pending = None  # the defect the next leaf becomes, if any

    def pool(self) -> dict:
        rng, top = self.rng, self.max_level
        lv = lambda lo=0: rng.randint(lo, top)  # noqa: E731
        env = {
            "a0": ("#", lv(1), (UNIT,)),
            "a1": ("#", lv(), (NAT,)),
            "t0": UNIT,
            "a4": ("i", lv(), (UNIT,)),  # input only: used by the capability mutation
        }
        if self.exact:
            env["a2"] = ("#", lv(), (("#", 1, (UNIT,)),))
            env["a3"] = ("#", 1, (UNIT,))
        else:
            env["a2"] = ("#", lv(), (("o", lv(), (UNIT,)),))
            env["a3"] = ("o", lv(), (UNIT,))
            env["a5"] = ("#", lv(), (("i", lv(), (NAT,)),))
            env["a6"] = ("#", lv(), (UNIT, NAT))
        return env

    def chan_type(self):
        rng = self.rng
        payload = rng.choice([(UNIT,), (NAT,), (UNIT,), (("#", rng.randint(0, self.max_level), (UNIT,)),)])
        return ("#", rng.randint(0, self.max_level), payload)

    def value(self, env: dict, want):
        rng = self.rng
        if want == UNIT:
            return rng.choice(["*"] + [n for n, t in env.items() if t == UNIT])
        if want == NAT:
            k = rng.randrange(4)
            return f"{k}+{rng.randrange(3)}*{rng.randrange(3)}" if rng.random() < 0.3 else str(k)
        fits = [n for n, t in env.items() if (t == want if self.exact else subtype(t, want))]
        return rng.choice(fits) if fits else None

    def output(self, env: dict, caps: str):
        """An output on some channel of `env` whose capability is in `caps`."""
        chans = [(n, t) for n, t in env.items() if is_chan(t) and t[0] in caps]
        self.rng.shuffle(chans)
        for n, t in chans:
            values = [self.value(env, want) for want in t[2]]
            if None not in values:
                return ("out", n, values), t[1]
        return None, 0

    def binders(self, env: dict, t) -> tuple[list[str], dict]:
        names = [self.rng.choice(BINDERS) for _ in t[2]]
        for i in range(1, len(names)):
            while names[i] in names[:i]:
                names[i] = self.rng.choice(BINDERS)
        inner = dict(env)
        inner.update(zip(names, t[2]))
        return names, inner

    def chain(self, env: dict, depth: int):
        rng = self.rng
        send_caps, recv_caps = ("#", "#") if self.exact else ("#o", "#i")
        if depth <= 0 and self.pending:
            kind, self.pending = self.pending, None
            return self.defect(env, kind), 0, []
        if depth <= 0:
            out, level = self.output(env, send_caps)
            if out is None or rng.random() < 0.1:
                return ("nil",), 0, []
            return out, level, [level]
        roll = rng.random()
        if roll < 0.2:
            name, ann = rng.choice(RESTRICTED), self.chan_type()
            body, w, meas = self.chain({**env, name: ann}, depth - 1)
            return ("new", name, ann, False, body), w, meas
        receivable = [(n, t) for n, t in env.items() if is_chan(t) and t[0] in recv_caps]
        subj, t = rng.choice(receivable)
        names, inner = self.binders(env, t)
        body, w, meas = self.chain(inner, depth - 1)
        if t[1] > w and rng.random() < 0.4:
            prefix, w, meas = ("rep", subj, names, body), 0, []
        else:
            prefix = ("in", subj, names, body)
        if roll < 0.4:
            out, level = self.output(env, send_caps)
            if out is not None:
                return ("par", [out, prefix]), max(level, w), [level] + meas
        return prefix, w, meas

    def process(self, env: dict, depth: int, width: int, defect: str | None = None):
        """`width` chains of `depth` prefixes in parallel; a `defect` ends the
        last chain, so the checker meets it after everything else."""
        parts = [self.chain(env, depth) for _ in range(width - 1)]
        self.pending = defect
        parts.append(self.chain(env, depth))
        proc = parts[0][0] if width == 1 else ("par", [p for p, _, _ in parts])
        return proc, max(w for _, w, _ in parts), [lv for _, _, m in parts for lv in m]

    def defect(self, env: dict, kind: str):
        """One ill-typed leaf whose rejection code is `kind`."""
        if kind == "CAP":
            return ("out", "a4", ["*"])
        if kind == "PAY":
            return ("out", "a0", ["*", "*"])
        # LVL: a replicated input whose level does not dominate its body
        out, level = self.output(env, "#")
        return ("new", "e0", ("#", level, (UNIT,)), False, ("rep", "e0", [], out))


class Impure(Typed):
    """Generator for `check --impure`: inputs on imperative names need a level
    strictly above their body and weigh nothing; a functional restriction
    hosts one replicated server on its isolated name."""

    def __init__(self, rng: random.Random, max_level: int = 4):
        super().__init__(rng, exact=False, max_level=max_level)

    def pool(self) -> dict:
        rng, top = self.rng, self.max_level
        return {
            "a0": ("#", rng.randint(1, top), (UNIT,)),
            "a1": ("#", rng.randint(0, top), (NAT,)),
            "a2": ("#", rng.randint(1, top), (UNIT, NAT)),
            "a3": ("o", rng.randint(0, top), (UNIT,)),
            "a4": ("i", rng.randint(0, top), (UNIT,)),
            "t0": UNIT,
        }

    def chain(self, env: dict, depth: int):
        rng = self.rng
        if depth <= 0 and self.pending:
            kind, self.pending = self.pending, None
            return self.defect(env, kind), 0, []
        if depth <= 0:
            out, level = self.output(env, "#o")
            if out is None or rng.random() < 0.1:
                return ("nil",), 0, []
            return out, level, []
        roll = rng.random()
        if roll < 0.15:
            name, ann = rng.choice(RESTRICTED), self.chan_type()
            body, w, _ = self.chain({**env, name: ann}, depth - 1)
            return ("new", name, ann, False, body), w, []
        if roll < 0.3:
            # new f:oL[Unit] fun.(!f(x).B | f<*>), with B not using f
            name = rng.choice(RESTRICTED)
            names, inner = self.binders({n: t for n, t in env.items() if n != name}, ("o", 0, (UNIT,)))
            body, w, _ = self.chain(inner, depth - 1)
            level = w + rng.randint(0, 1)
            server = ("par", [("rep", name, names, body), ("out", name, ["*"])])
            return ("new", name, ("o", level, (UNIT,)), True, server), level, []
        # an input on an imperative name; if its level does not dominate the
        # body, a fresh restricted subject with the same payload replaces it
        recv = [(n, t) for n, t in env.items() if is_chan(t) and t[0] == "#"]
        subj, t = rng.choice(recv)
        names, inner = self.binders(env, t)
        body, w, _ = self.chain(inner, depth - 1)
        prefix = ("rep" if rng.random() < 0.4 else "in", subj, names, body)
        if t[1] <= w:
            ann = ("#", w + 1, t[2])
            prefix = ("new", "g0", ann, False, (prefix[0], "g0", names, body))
        if roll < 0.5:
            out, level = self.output(env, "#o")
            if out is not None:
                return ("par", [out, prefix]), level, []
        return prefix, 0, []

    def defect(self, env: dict, kind: str):
        if kind == "LVL":
            out, level = self.output(env, "#")
            return ("new", "e0", ("#", level, (UNIT,)), False, ("in", "e0", [], out))
        return super().defect(env, kind)
