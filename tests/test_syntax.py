"""Parsing, printing, free names, substitution and the binder discipline."""

from __future__ import annotations

import random

import pytest

from piterm.errors import ParseError, SortError
from piterm.parser import parse_process, parse_type
from piterm.syntax import (
    NAT,
    UNIT,
    Add,
    ChanT,
    In,
    Mul,
    NatLit,
    NameRef,
    Nil,
    Out,
    Par,
    Process,
    RepIn,
    Res,
    Star,
    alpha_equal,
    free_names,
    fresh,
    pretty_process,
    pretty_type,
    substitute,
)

from conftest import well_scoped


def free_displays(p: Process) -> set[str]:
    return {n.display for n in free_names(p)}


class TestParseProcess:
    def test_single_output(self):
        p = parse_process("a<*>")
        assert isinstance(p, Out)
        assert p.payload == (Star(),)

    def test_four_component_parallel(self):
        p = parse_process("!a(x).x<t> | a<p> | a<q> | !p(z).q<z>")
        comps = []

        def collect(q):
            if isinstance(q, Par):
                collect(q.left)
                collect(q.right)
            else:
                comps.append(q)

        collect(p)
        assert len(comps) == 4
        assert isinstance(comps[0], RepIn) and isinstance(comps[3], RepIn)
        assert isinstance(comps[1], Out) and isinstance(comps[2], Out)
        assert free_displays(p) == {"a", "p", "q", "t"}

    def test_annotated_restriction(self):
        p = parse_process("new a:#1[Unit]. a().0")
        assert isinstance(p, Res)
        assert p.annotation == ChanT("#", 1, (UNIT,))
        assert not p.functional
        assert isinstance(p.body, In)
        assert p.body.binders == ()
        assert isinstance(p.body.body, Nil)
        assert p.body.subject == p.name

    def test_functional_marker_both_orders(self):
        p = parse_process("new f fun:o0[Unit]. 0")
        q = parse_process("new f:o0[Unit] fun. 0")
        assert p.functional and q.functional
        assert p.annotation == q.annotation == ChanT("o", 0, (UNIT,))

    def test_paren_restriction_form(self):
        p = parse_process("(new u)(!u(x).x<*> | u<v>)")
        assert isinstance(p, Res)
        assert isinstance(p.body, Par)

    def test_restriction_binds_tighter_than_par(self):
        p = parse_process("new a:#1[Unit]. a<> | b<>")
        assert isinstance(p, Par)
        assert isinstance(p.left, Res)

    def test_unit_abbreviations(self):
        p = parse_process("a | a<> | !b.c<>")
        comps = [p.left.left, p.left.right, p.right]
        assert isinstance(comps[0], In) and comps[0].binders == ()
        assert isinstance(comps[1], Out) and comps[1].payload == ()
        assert isinstance(comps[2], RepIn) and comps[2].binders == ()

    def test_arithmetic_values(self):
        p = parse_process("f1<m+1, s> | r<n*n>")
        out = p.left
        assert out.payload[0] == Add(NameRef(out.payload[0].left.name), NatLit(1))

    def test_comments(self):
        p = parse_process("-- leading note\na<*> -- trailing\n| b<*>")
        assert isinstance(p, Par)

    def test_shadowing_rebinds_innermost(self):
        p = parse_process("new a:#1[Unit]. new a:#2[Unit]. a<>")
        inner = p.body
        assert inner.body.subject == inner.name
        assert inner.body.subject != p.name

    @pytest.mark.parametrize(
        "bad",
        ["a<", "new a", "a(x", "!", "a<*> |", "(a<*>", "new a:#[Unit].0", "a<*> b<*>"],
    )
    def test_syntax_errors(self, bad):
        with pytest.raises(ParseError):
            parse_process(bad)

    def test_binder_freshness(self):
        p = parse_process("a(x).x<> | b(x).x<>")
        xs = [p.left.binders[0], p.right.binders[0]]
        assert xs[0] != xs[1]
        assert well_scoped(p)


class TestParseType:
    def test_nested_channel(self):
        assert parse_type("#3[o2[Unit]]") == ChanT("#", 3, (ChanT("o", 2, (UNIT,)),))

    def test_unit(self):
        assert parse_type("Unit") == UNIT

    def test_polyadic(self):
        assert parse_type("o0[Nat, o1[Nat]]") == ChanT("o", 0, (NAT, ChanT("o", 1, (NAT,))))

    @pytest.mark.parametrize("text", ["Unit", "Nat", "#0[Unit]", "i4[Nat, #2[o1[Unit]]]"])
    def test_roundtrip(self, text):
        assert pretty_type(parse_type(text)) == text

    def test_bad_type(self):
        with pytest.raises(ParseError):
            parse_type("chan[Unit]")


class TestFreeNames:
    def test_output(self):
        p = parse_process("a<b>")
        assert free_displays(p) == {"a", "b"}

    def test_restriction_binds(self):
        p = parse_process("new a:#1[Unit]. a<*>")
        assert free_names(p) == set()

    def test_input_binds(self):
        p = parse_process("a(x).x<t>")
        assert free_displays(p) == {"a", "t"}

    def test_matches_structural_recursion(self, rng):
        # oracle: direct recursion over the tree, collecting and removing
        def oracle(q, bound):
            if isinstance(q, Nil):
                return set()
            if isinstance(q, Par):
                return oracle(q.left, bound) | oracle(q.right, bound)
            if isinstance(q, Out):
                names = {q.subject}
                for v in q.payload:
                    stack = [v]
                    while stack:
                        u = stack.pop()
                        if isinstance(u, NameRef):
                            names.add(u.name)
                        elif isinstance(u, (Add, Mul)):
                            stack += [u.left, u.right]
                return {n for n in names if n not in bound}
            if isinstance(q, (In, RepIn)):
                inner = oracle(q.body, bound | set(q.binders))
                return ({q.subject} - bound) | inner
            if isinstance(q, Res):
                return oracle(q.body, bound | {q.name})
            raise AssertionError

        for _ in range(50):
            p = random_ast(rng, 4)
            assert free_names(p) == oracle(p, set())


def random_ast(rng: random.Random, depth: int, scope=None) -> Process:
    scope = scope or []
    if depth <= 0:
        return Nil()
    roll = rng.random()
    pool = scope + [fresh(rng.choice("abc"))]
    subj = rng.choice(pool)

    def value():
        r = rng.random()
        if r < 0.3:
            return Star()
        if r < 0.5:
            return NatLit(rng.randrange(5))
        if r < 0.6:
            return Add(NatLit(1), NatLit(2))
        return NameRef(rng.choice(pool))

    if roll < 0.2:
        return Nil()
    if roll < 0.45:
        return Out(subj, tuple(value() for _ in range(rng.randrange(3))))
    if roll < 0.65:
        binders = tuple(fresh(rng.choice("xyz")) for _ in range(rng.randrange(3)))
        cls = In if rng.random() < 0.6 else RepIn
        return cls(subj, binders, random_ast(rng, depth - 1, scope + list(binders)))
    if roll < 0.8:
        name = fresh(rng.choice("uvw"))
        ann = ChanT("#", rng.randrange(3), (UNIT,)) if rng.random() < 0.6 else None
        return Res(name, ann, rng.random() < 0.2, random_ast(rng, depth - 1, scope + [name]))
    return Par(random_ast(rng, depth - 1, scope), random_ast(rng, depth - 1, scope))


class TestPrinting:
    def test_parse_pretty_roundtrip_generated(self, rng):
        for _ in range(300):
            p = random_ast(rng, 4)
            printed = pretty_process(p)
            again = parse_process(printed)
            assert alpha_equal(p, again), printed

    def test_display_collision_renamed(self):
        # two binders spelled the same must not capture each other in print
        x = fresh("b")
        inner = Res(fresh("b"), None, False, Out(x, (NameRef(fresh("b")),)))
        # ensure reparse keeps the structure
        p = Res(x, None, False, inner)
        assert alpha_equal(p, parse_process(pretty_process(p)))


class TestSubstitute:
    def test_subject(self):
        p = parse_process("x<t>")
        x = next(n for n in free_names(p) if n.display == "x")
        b = fresh("b")
        q = substitute(p, x, NameRef(b))
        assert isinstance(q, Out) and q.subject == b

    def test_capture_avoided(self):
        p = parse_process("new b:#1[Unit]. x<b>")
        x = next(n for n in free_names(p) if n.display == "x")
        b_free = fresh("b")
        q = substitute(p, x, NameRef(b_free))
        assert isinstance(q, Res)
        assert q.body.subject == b_free
        assert q.body.payload[0].name == q.name
        assert q.name != b_free
        assert well_scoped(q)

    def test_under_replication(self):
        p = parse_process("!a(y).x<y>")
        x = next(n for n in free_names(p) if n.display == "x")
        q = substitute(p, x, NameRef(fresh("q")))
        assert q.body.subject.display == "q"
        assert q.body.payload[0].name == q.binders[0]

    def test_sort_error_on_subject(self):
        p = parse_process("x<t>")
        x = next(n for n in free_names(p) if n.display == "x")
        with pytest.raises(SortError):
            substitute(p, x, Add(NatLit(1), NatLit(2)))

    def test_free_names_shrink(self, rng):
        for _ in range(100):
            p = random_ast(rng, 4)
            fns = sorted(free_names(p), key=lambda n: n.id)
            if not fns:
                continue
            x = rng.choice(fns)
            v = NameRef(fresh("w"))
            q = substitute(p, x, v)
            assert well_scoped(q)
            allowed = (free_names(p) - {x}) | {v.name}
            assert free_names(q) <= allowed
