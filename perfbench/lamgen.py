"""Seeded simply-typed lambda terms, and their call-by-value images as `.pi` text.

Terms are tuples: ("var", x), ("lam", x, body), ("app", fn, arg). Types are
"sig", "tau" or ("->", left, right). The encoder here is written apart from
`piterm.lam.encode` so that the benchmark can check the program's image
against an image it built itself.
"""

from __future__ import annotations

import random

SIG, TAU = "sig", "tau"


def arrow(*types):
    out = types[-1]
    for t in reversed(types[:-1]):
        out = ("->", t, out)
    return out


def type_text(t) -> str:
    if isinstance(t, str):
        return t
    left = type_text(t[1])
    if not isinstance(t[1], str):
        left = f"({left})"
    return f"{left} -> {type_text(t[2])}"


def term_text(m) -> str:
    if m[0] == "var":
        return m[1]
    if m[0] == "lam":
        return f"\\{m[1]}. {term_text(m[2])}"
    fn, arg = term_text(m[1]), term_text(m[2])
    if m[1][0] == "lam":
        fn = f"({fn})"
    if m[2][0] in ("app", "lam"):
        arg = f"({arg})"
    return f"{fn} {arg}"


def lam_file(decls: dict, m) -> str:
    head = "".join(f"{name} : {type_text(t)}\n" for name, t in decls.items())
    return f"{head}\n{term_text(m)}\n"


# First-order free variables: every argument position has a base type.
FIRST_ORDER = {
    "v": SIG,
    "w": TAU,
    "g": arrow(SIG, TAU),
    "h": arrow(TAU, SIG),
    "m": arrow(SIG, SIG, TAU),
    "n": arrow(TAU, TAU),
}


class TermGen:
    """Type-directed generation of first-order terms.

    Every binder has a base type and every application has a base-typed
    argument, so no abstraction is ever passed as an argument. On this class
    the encoding is accepted by `infer` in both level modes.
    """

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.count = 0

    def fresh(self, stem: str) -> str:
        self.count += 1
        return f"{stem}{self.count}"

    def term(self, ctx: list, ty, size: int):
        rng = self.rng
        if size <= 1:
            vars_ = [x for x, t in ctx if t == ty]
            if vars_:
                return ("var", rng.choice(vars_))
        if not isinstance(ty, str) and (size <= 2 or rng.random() < 0.3):
            x = self.fresh("x")
            return ("lam", x, self.term(ctx + [(x, ty[1])], ty[2], size - 1))
        if size <= 2:
            fns = [(x, t) for x, t in ctx if not isinstance(t, str) and t[2] == ty]
            if fns:
                x, t = rng.choice(fns)
                return ("app", ("var", x), self.term(ctx, t[1], 1))
            vars_ = [x for x, t in ctx if t == ty]
            return ("var", rng.choice(vars_))
        arg_ty = rng.choice((SIG, TAU))
        left = rng.randint(1, size - 2)
        if rng.random() < 0.4:
            # a beta-redex whose bound variable is used or dropped at random
            x = self.fresh("x")
            body = self.term(ctx + [(x, arg_ty)], ty, left)
            return ("app", ("lam", x, body), self.term(ctx, arg_ty, size - 1 - left))
        fn = self.term(ctx, ("->", arg_ty, ty), left)
        return ("app", fn, self.term(ctx, arg_ty, size - 1 - left))


def first_order_term(rng: random.Random, size: int):
    """A first-order term of about `size` nodes, with its declarations."""
    gen = TermGen(rng)
    ty = rng.choice((SIG, TAU, arrow(SIG, TAU)))
    ctx = list(FIRST_ORDER.items())
    return dict(FIRST_ORDER), gen.term(ctx, ty, size)


def reused_argument_term(rng: random.Random, size: int):
    """`k (\\x. k g (g M)) N`: a function handed an abstraction that calls it
    and calls the function it is also handed.

    Flexible levels accept the image; ds-equality levels reject it with a
    cyclic constraint, as for the term `f (\\x. f u (u v))`.
    """
    gen = TermGen(rng)
    decls = dict(FIRST_ORDER)
    decls["k"] = arrow(arrow(SIG, TAU), TAU, TAU)
    x = gen.fresh("x")
    ctx = list(FIRST_ORDER.items()) + [(x, SIG)]
    inner = ("app", ("var", "g"), gen.term(ctx, SIG, max(1, size // 2)))
    body = ("app", ("app", ("var", "k"), ("var", "g")), inner)
    fn = ("app", ("var", "k"), ("lam", x, body))
    return decls, ("app", fn, gen.term(list(FIRST_ORDER.items()), TAU, max(1, size // 2)))


def discarding_term(rng: random.Random, size: int):
    """The discarding pattern `(\\u. (\\v. u v) (\\y. u t)) (\\x. x a)`, renamed,
    with its base argument grown to about `size` nodes. Rejected by `infer`
    with a cyclic level constraint."""
    gen = TermGen(rng)
    u, v, y, x = (gen.fresh(s) for s in ("u", "d", "y", "e"))
    decls = dict(FIRST_ORDER)
    decls["t"] = arrow(SIG, TAU)
    a = gen.term(list(FIRST_ORDER.items()), SIG, max(1, size - 12))
    inner = ("app", ("lam", v, ("app", ("var", u), ("var", v))), ("lam", y, ("app", ("var", u), ("var", "t"))))
    return decls, ("app", ("lam", u, inner), ("lam", x, ("app", ("var", x), a)))


def ill_typed_term(rng: random.Random, size: int):
    """A first-order term with a self-application `(\\s. s s)` placed inside:
    no simple type exists, whatever the context."""
    decls, m = first_order_term(rng, max(3, size))
    gen = TermGen(rng)
    s = gen.fresh("s")
    selfapp = ("lam", s, ("app", ("var", s), ("var", s)))
    return decls, ("app", selfapp, m)


# ---------------------------------------------------------------------------
# The parallel call-by-value image, as `.pi` text


class Encoder:
    """[x]p = p<x>;  [\\x.M]p = new y.(!y(x, q).[M]q | p<y>);
    [M N]p = new q.new r.([M]q | ([N]r | q(f).r(z).f<z, p>))."""

    def __init__(self):
        self.count = 0

    def fresh(self, stem: str) -> str:
        self.count += 1
        return f"{stem}_{self.count}"

    def go(self, m, dest: str) -> str:
        if m[0] == "var":
            return f"{dest}<{m[1]}>"
        if m[0] == "lam":
            y, q = self.fresh("y"), self.fresh("q")
            return f"new {y}.(!{y}({m[1]}, {q}).{self.go(m[2], q)} | {dest}<{y}>)"
        q, r, f, z = (self.fresh(s) for s in ("q", "r", "f", "z"))
        fn, arg = self.go(m[1], q), self.go(m[2], r)
        return f"new {q}.new {r}.({fn} | ({arg} | {q}({f}).{r}({z}).{f}<{z}, {dest}>))"


def image(m, dest: str = "p") -> str:
    """The image of `m` on result channel `dest`."""
    return Encoder().go(m, dest)
