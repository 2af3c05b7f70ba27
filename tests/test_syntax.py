"""Parsing, printing, free names, substitution and the binder discipline."""

from __future__ import annotations

import gc
import random
import re
from pathlib import Path

import pytest

from piterm.errors import ParseError, SortError
from piterm.parser import parse_env_file, parse_process, parse_type
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
    alpha_key,
    free_names,
    fresh,
    pretty_process,
    pretty_type,
    substitute_many,
)

from conftest import assert_golden, well_scoped


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

    def test_total_on_nesting_depth(self):
        links = "a(x).new r.(new s)!x(y).(new t."
        p = parse_process(links * 2000 + "x<y>" + ")" * 2000)
        depth, q = 0, p
        while not isinstance(q, Out):
            if isinstance(q, In):
                x = q.binders[0]
            elif isinstance(q, RepIn):
                assert q.subject == x
                y = q.binders[0]
            q, depth = q.body, depth + 1
        assert depth == 10_000
        assert q.subject == x and q.payload == (NameRef(y),)

    def test_total_on_width(self):
        p = parse_process(" | ".join(["a<>"] * 10_000))
        width = 1
        while isinstance(p, Par):
            assert isinstance(p.right, Out)
            p, width = p.left, width + 1
        assert width == 10_000 and isinstance(p, Out)

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


def cyclic_garbage(fn, *args):
    """`fn(*args)`, and the count of objects it left that only the cyclic collector frees."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        result = fn(*args)
        return result, gc.collect()
    finally:
        if enabled:
            gc.enable()


class TestPrinting:
    def test_parse_pretty_roundtrip_generated(self, rng):
        for _ in range(300):
            p = random_ast(rng, 4)
            printed = pretty_process(p)
            again = parse_process(printed)
            assert alpha_key(p) == alpha_key(again), printed

    def test_display_collision_renamed(self):
        # two binders spelled the same must not capture each other in print
        x = fresh("b")
        inner = Res(fresh("b"), None, False, Out(x, (NameRef(fresh("b")),)))
        # ensure reparse keeps the structure
        p = Res(x, None, False, inner)
        assert alpha_key(p) == alpha_key(parse_process(pretty_process(p)))

    def test_printing_leaves_no_cyclic_garbage(self):
        p = parse_process("new r:#1[Nat].(!a(x, y).(x<y + 1 * 2> | r<y>) | a(x).b<x>) | c<(1 + 2) * 3>")
        printed, garbage = cyclic_garbage(pretty_process, p)
        assert garbage == 0
        assert printed == "new r:#1[Nat].(!a(x, y).(x<y + 1 * 2> | r<y>) | a(x1).b<x1>) | c<(1 + 2) * 3>"


class TestSubstitute:
    def test_subject(self):
        p = parse_process("x<t>")
        x = next(n for n in free_names(p) if n.display == "x")
        b = fresh("b")
        q = substitute_many(p, {x: NameRef(b)})
        assert isinstance(q, Out) and q.subject == b

    def test_capture_avoided(self):
        p = parse_process("new b:#1[Unit]. x<b>")
        x = next(n for n in free_names(p) if n.display == "x")
        b_free = fresh("b")
        q = substitute_many(p, {x: NameRef(b_free)})
        assert isinstance(q, Res)
        assert q.body.subject == b_free
        assert q.body.payload[0].name == q.name
        assert q.name != b_free
        assert well_scoped(q)

    def test_under_replication(self):
        p = parse_process("!a(y).x<y>")
        x = next(n for n in free_names(p) if n.display == "x")
        q = substitute_many(p, {x: NameRef(fresh("q"))})
        assert q.body.subject.display == "q"
        assert q.body.payload[0].name == q.binders[0]

    def test_leaves_no_cyclic_garbage(self):
        p = parse_process("!a(y).(new r)(x<y> | r(z).x<z + 1>)")
        x = next(n for n in free_names(p) if n.display == "x")
        q, garbage = cyclic_garbage(substitute_many, p, {x: NameRef(fresh("q"))})
        assert garbage == 0
        assert pretty_process(q) == "!a(y).new r.(q<y> | r(z).q<z + 1>)"

    def test_sort_error_on_subject(self):
        p = parse_process("x<t>")
        x = next(n for n in free_names(p) if n.display == "x")
        with pytest.raises(SortError):
            substitute_many(p, {x: Add(NatLit(1), NatLit(2))})

    def test_free_names_shrink(self, rng):
        for _ in range(100):
            p = random_ast(rng, 4)
            fns = sorted(free_names(p), key=lambda n: n.id)
            if not fns:
                continue
            x = rng.choice(fns)
            v = NameRef(fresh("w"))
            q = substitute_many(p, {x: v})
            assert well_scoped(q)
            allowed = (free_names(p) - {x}) | {v.name}
            assert free_names(q) <= allowed


@pytest.mark.parametrize("brk", ["\r", "\x0c", "\x85", "\u2028"])
def test_env_file_lines_end_at_newline_only(brk):
    with pytest.raises(ParseError) as exc:
        parse_env_file(f"a : Unit{brk}b : Nat\nc : Nat")
    assert (exc.value.message, exc.value.line) == ("unexpected trailing input 'b'", 1)
    assert [e[1] for e in parse_env_file(f"a : Unit -- note{brk}b : Nat\nc : Nat")] == ["a", "c"]


# ---------------------------------------------------------------------------
# Golden record of the parser's outcomes: the rendered `ParseError` (message,
# line, column) or, on success, the AST with name ids counted from the first
# id the parse issued, so that it also pins the order of `fresh()` calls.
# Regenerate it (only for a deliberate change of output) with
#   PYTHONPATH=src:tests python -c "import test_syntax as t; t.write_golden()"

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SYNTAX_GOLDEN = Path(__file__).resolve().parent / "golden" / "syntax_errors.txt"

_TOKEN_END = re.compile(r"--[^\n]*|\s+|([A-Za-z_][A-Za-z0-9_']*|\d+|.)")

MORE_PROCESSES = [
    # characters the scanner rejects
    "\u00e9",
    "a<\u00e9>",
    "caf\u00e9<>",
    "-",
    "a<> - b<>",
    "a<> -",
    "'a",
    "a<'b>",
    "a<1'>",
    "@",
    "a@b",
    "a<b'> | b'<>",
    "a<\u0663>",
    "a<>\u00a0| b<>",
    # layout: tabs, CRLF line ends, comments
    "a(x).\tx<*>\t|\t@",
    "\ta<\t",
    "a<>\r\n| b<\r\n",
    "a<>\r\n|\r\n\tb(x).x<\u00e9>",
    "-- only a comment",
    "a<> -- trailing comment",
    "a<> |\n-- comment at end of input",
    "a<> |\n-- comment\n\n",
    # unclosed parentheses and types without a level
    "(a<> | b<>",
    "(new a.a<> | b<>",
    "(new a (a<> | b<>) | c<>",
    "((a<>)",
    "new a:#[Unit].0",
    "new a:#",
    "new a : #x[Unit]. 0",
    "new a : i[Unit].0",
    "new a : o1[].0",
    "new a : o1[Unit,].0",
    "new a : chan[Unit].0",
    # other errors
    "(",
    "(new",
    "(new a",
    "(new a)",
    "(new a b",
    "new a b",
    "new fun",
    "a(x,",
    "a(x y)",
    "a(new)",
    "a<b c>",
    "a<> )",
    "a<>>",
    "a<+>",
    "!0",
    "|",
    "",
    # accepted forms
    "(new a)(a<>)",
    "(new a.a<> | b<> | c<>)",
    "(new a (a<> | b<>) | c<>)",
    "(new a:#1[Unit] fun)(a<>)",
    "new a fun : o0[Unit]. a<>",
    "new a : i2[Nat, #0[Unit]] (a<> | a(x, y).0)",
    "a(x,x).x<>",
    "a(x).(new x)(x<>) | x<>",
    "a<1+2*3, (b), *, b*(2+c)>",
    "!a.b<>",
    "a.b.c",
    "0 | 0",
    "((a<>))",
    "new a.new b.(a<b> | b<a>)",
    "x<y> | y(x).x<y> | !x(y).y(x).(x<y> | y<x>)",
    "new a. a(a). a<a>",
]

ENV_FILES = [
    "a : Unit\nb : Nat\nc : #x[Unit]\n",
    "a : Unit\n\nfun c : i1[Nat\n",
    "a : Unit\n-- note\nisolated c :  o1[Unit] junk -- comment\n",
    "a : Unit\nb : Nat\n\tc\t:\t#1[Unit, \u00e9]\n",
    "a : Unit\r\nb : Nat\r\nc : #1[Unit\r\n",
    "a : Unit\nb : Nat\nc : #1[Unit   -- comment\n",
    "a : Unit\nb : Nat\nc : \n",
    "a : Unit\nb : Nat\nc Unit\n",
    "a : Unit\nb : Nat\n9c : Unit\n",
    "a : #3[o2[Unit]]\nfun p : #2[Unit]\nisolated q : o1[Unit] -- ok\n",
]


def syntax_cases() -> list[tuple[str, str]]:
    """(kind, text): every `fixtures/*.pi` cut after each token, then the
    inputs above; kind is `process` or `env`."""
    cases = []
    for path in sorted(FIXTURES.glob("*.pi")):
        text = path.read_text(encoding="utf-8")
        cuts = [m.end() for m in _TOKEN_END.finditer(text) if m.group(1)]
        cases += [("process", text[:end]) for end in cuts] + [("process", text)]
    cases += [("process", text) for text in MORE_PROCESSES]
    cases += [("env", text) for text in ENV_FILES]
    return cases


def syntax_line(kind: str, text: str) -> str:
    base = fresh("_").id
    try:
        result = parse_process(text) if kind == "process" else parse_env_file(text)
    except ParseError as exc:
        outcome = exc.render()
    else:
        outcome = "ok " + re.sub(r"#(\d+)", lambda m: f"#{int(m.group(1)) - base}", repr(result))
    return f"{kind}\t{text!r}\t{outcome}"


def syntax_text() -> str:
    return "".join(syntax_line(kind, text) + "\n" for kind, text in syntax_cases())


def write_golden() -> None:
    SYNTAX_GOLDEN.write_text(syntax_text(), encoding="utf-8")


class TestSyntaxGolden:
    def test_parse_outcomes_unchanged(self):
        assert_golden(SYNTAX_GOLDEN, syntax_text())
