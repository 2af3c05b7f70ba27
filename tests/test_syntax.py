"""Parsing, printing, free names, substitution and the binder discipline."""

from __future__ import annotations

import ast
import copy
import dataclasses
import gc
import inspect
import io
import pickle
import random
import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from piterm import inference
from piterm.checker import TypeEnv, subtype, value_type
from piterm.errors import ParseError, PiError, SortError
from piterm.lam import LAbs, LambdaTerm, LambdaType, LApp, LArrow, LBase, LTVar, LVar, _LamParser
from piterm.parser import _Parser, parse_env_file, parse_process, parse_type
from piterm.semantics import NormalProcess
from piterm.syntax import (
    NAT,
    NIL,
    UNIT,
    Add,
    ChanT,
    FrozenInstanceError,
    In,
    Mul,
    Name,
    NatLit,
    NameRef,
    NatT,
    Nil,
    Out,
    Par,
    Process,
    RepIn,
    Res,
    Star,
    Type,
    UnitT,
    Value,
    _serial_value,
    _subst_value,
    alpha_key,
    bind,
    eval_value,
    free_names,
    fresh,
    pretty_process,
    pretty_type,
    pretty_value,
    substitute_many,
    unbind,
    value_names,
)

from conftest import (
    OLD_TOKEN_RES,
    assert_golden,
    gen_type,
    old_error,
    old_scan,
    simple_types,
    unless_recursion,
    well_scoped,
)


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
        p = unless_recursion(parse_process, links * 2000 + "x<y>" + ")" * 2000)
        assert p != "RecursionError"
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

    @pytest.mark.parametrize("text", ["#1 Unit", "i1 Unit"])
    def test_capability_without_payload(self, text):
        with pytest.raises(ParseError, match=r"expected '\['"):
            parse_type(text)


class TestName:
    """Every name comes from `fresh`, so a name equals itself alone."""

    def test_fresh_names_differ(self):
        assert fresh("a") != fresh("a")
        assert len({fresh("a"), fresh("a")}) == 2

    def test_own_key_and_member(self):
        a, b = fresh("a"), fresh("a")
        assert a == a and {a: 1}[a] == 1 and a in {a}
        assert b not in {a: 1} and b not in {a}

    def test_repr(self):
        n = fresh("chan")
        assert repr(n) == f"chan#{n.id}"

    def test_slots_only(self):
        n = fresh("a")
        with pytest.raises(AttributeError):
            n.foo = 1
        assert not hasattr(n, "__dict__")

    def test_made_by_fresh_only(self):
        assert not dataclasses.is_dataclass(Name)
        with pytest.raises(TypeError):
            Name(1, "a")


def node_classes(*bases: type) -> list[type]:
    """Every subclass of `bases`, at any depth, that its module names. The
    class that `syntax.node` replaces by a slotted copy stays among
    `__subclasses__` until the collector frees it."""
    found = []
    todo = list(bases)
    while todo:
        for sub in todo.pop().__subclasses__():
            if getattr(sys.modules[sub.__module__], sub.__qualname__, None) is sub:
                found.append(sub)
            todo.append(sub)
    return found


def round_trip(obj):
    """`obj` through `pickle`, each `Name` in it kept by reference: names
    compare by identity, so a new one would never be equal."""
    names: list[Name] = []

    class Pickler(pickle.Pickler):
        def persistent_id(self, x):
            if isinstance(x, Name):
                names.append(x)
                return len(names) - 1
            return None

    class Unpickler(pickle.Unpickler):
        def persistent_load(self, pid):
            return names[pid]

    buf = io.BytesIO()
    Pickler(buf).dump(obj)
    buf.seek(0)
    return Unpickler(buf).load()


class TestNodes:
    """AST nodes are made by `syntax.node`: frozen records of their fields
    with slots, one allocation without a `__dict__`, equal by their field
    tuples and hashed alike when equal, with a `repr` that names the
    fields, a constructor that takes them, and state methods that `copy`
    and `pickle` use."""

    A = fresh("a")

    # one literal per node class, with its repr; a class added without slots
    # or without a literal here fails
    LITERALS = {
        UnitT: ((), "UnitT()"),
        NatT: ((), "NatT()"),
        ChanT: (("#", 1, (UNIT,)), "ChanT(cap='#', level=1, payload=(UnitT(),))"),
        Star: ((), "Star()"),
        NameRef: ((A,), f"NameRef(name=a#{A.id})"),
        NatLit: ((3,), "NatLit(value=3)"),
        Add: ((NatLit(1), Star()), "Add(left=NatLit(value=1), right=Star())"),
        Mul: ((NatLit(1), Star()), "Mul(left=NatLit(value=1), right=Star())"),
        Nil: ((), "Nil()"),
        Par: ((NIL, NIL), "Par(left=Nil(), right=Nil())"),
        Out: ((A, ()), f"Out(subject=a#{A.id}, payload=())"),
        In: ((A, (A,), NIL), f"In(subject=a#{A.id}, binders=(a#{A.id},), body=Nil())"),
        RepIn: ((A, (), NIL), f"RepIn(subject=a#{A.id}, binders=(), body=Nil())"),
        Res: (
            (A, NAT, True, NIL),
            f"Res(name=a#{A.id}, annotation=NatT(), functional=True, body=Nil())",
        ),
        LVar: (("x",), "LVar(name='x')"),
        LAbs: (("x", LVar("x")), "LAbs(var='x', body=LVar(name='x'))"),
        LApp: ((LVar("f"), LVar("x")), "LApp(fn=LVar(name='f'), arg=LVar(name='x'))"),
        LBase: (("o",), "LBase(name='o')"),
        LArrow: ((LBase("o"), LTVar(2)), "LArrow(left=LBase(name='o'), right=LTVar(id=2))"),
        LTVar: ((2,), "LTVar(id=2)"),
        NormalProcess: (
            ((), (Out(A, ()),), ("new[]", "s")),
            f"NormalProcess(restrictions=(), components=(Out(subject=a#{A.id}, payload=()),), "
            "sig=('new[]', 's'))",
        ),
    }

    CLASSES = node_classes(Process, Value, Type, LambdaTerm, LambdaType) + [NormalProcess]

    def test_every_class_has_a_literal(self):
        assert set(self.CLASSES) == set(self.LITERALS)

    @pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
    def test_node(self, cls):
        args, text = self.LITERALS[cls]
        node = cls(*args)
        assert not hasattr(node, "__dict__")
        assert cls.__match_args__ == tuple(cls.__annotations__)
        for name in cls.__match_args__:
            with pytest.raises(FrozenInstanceError):
                setattr(node, name, None)
        twin = cls(*args)
        assert twin is not node
        assert twin == node and hash(twin) == hash(node)
        assert repr(node) == text

    @pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
    def test_constructor_takes_the_fields(self, cls):
        args, _ = self.LITERALS[cls]
        names = list(cls.__match_args__)
        assert list(inspect.signature(cls).parameters) == names
        assert cls(**dict(zip(names, args))) == cls(*args)

    @pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
    def test_declared_without_init(self, cls):
        # `syntax.node` alone makes the constructor
        (body,) = ast.parse(inspect.getsource(cls)).body
        assert "__init__" not in [f.name for f in body.body if isinstance(f, ast.FunctionDef)]

    @pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
    def test_frozen_for_any_attribute(self, cls):
        args, _ = self.LITERALS[cls]
        node = cls(*args)
        with pytest.raises(FrozenInstanceError, match="cannot assign to field 'foo'"):
            node.foo = 1
        for name in cls.__match_args__:
            with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{name}'"):
                delattr(node, name)
        assert cls(*args) == node

    @pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
    def test_copy_and_pickle(self, cls):
        args, _ = self.LITERALS[cls]
        node = cls(*args)
        keep_name = {id(self.A): self.A}  # a deep copy of a name is another name
        for twin in (copy.copy(node), copy.deepcopy(node, keep_name), round_trip(node)):
            assert type(twin) is cls and twin is not node
            assert twin == node

    def test_frozen_error_is_an_attribute_error(self):
        assert issubclass(FrozenInstanceError, AttributeError)

    def test_invariants_still_asserted(self):
        with pytest.raises(AssertionError):
            ChanT("x", 0, (UNIT,))
        with pytest.raises(AssertionError):
            NatLit(-1)

    def test_parser_shares_nil(self):
        p = parse_process("0 | a | b(x) | c().0 | (new d)(0)")
        nils = []
        todo = [p]
        while todo:
            q = todo.pop()
            if isinstance(q, Par):
                todo += (q.left, q.right)
            elif isinstance(q, (In, Res)):
                todo.append(q.body)
            else:
                nils.append(q)
        assert len(nils) == 5 and all(q is NIL for q in nils)


def recursive_repr(x) -> str:
    """The `repr` a node had when it printed its fields with `!r`, recursing."""
    if isinstance(x, tuple):
        return "(" + ", ".join(map(recursive_repr, x)) + ("," if len(x) == 1 else "") + ")"
    if hasattr(type(x), "__match_args__"):
        fields = (f"{n}={recursive_repr(getattr(x, n))}" for n in x.__match_args__)
        return f"{type(x).__qualname__}({', '.join(fields)})"
    return repr(x)


def rebuilt(x):
    """A copy of `x` with every tuple and node made again, every leaf shared."""
    if isinstance(x, tuple):
        return tuple(map(rebuilt, x))
    if hasattr(type(x), "__match_args__"):
        return type(x)(*(rebuilt(getattr(x, n)) for n in x.__match_args__))
    return x


class TestDeepNodes:
    """`==`, `hash` and `repr` walk nested nodes and tuples off one stack:
    at the default recursion limit they return on terms, processes and types
    nested 10^4 deep, and at any depth `==` and `repr` give what the field
    tuples give, and equal nodes hash equal."""

    DEPTH = 10**4

    @staticmethod
    def chain(names: list[Name], last: str) -> Process:
        p = Out(fresh(last), ())
        for a in reversed(names):
            p = In(a, (a,), p)
        return p

    def deep_twins(self):
        """(x, an equal copy of x, one that differs at the innermost leaf)"""
        n = self.DEPTH
        term = "(\\y. " * n + "{}" + ")" * n
        yield (_LamParser(term.format("y")).parse_term(), _LamParser(term.format("y")).parse_term(),
               _LamParser(term.format("z")).parse_term())
        names = [fresh(f"a{i}") for i in range(n)]
        p = self.chain(names, "b")
        yield p, rebuilt_deep(p), self.chain(names, "c")
        ty = "#1[" * n + "{}" + "]" * n
        yield parse_type(ty.format("Unit")), parse_type(ty.format("Unit")), parse_type(ty.format("Nat"))

    def compared(self, x, twin, other) -> list[bool]:
        text = repr(x)
        return [
            x == twin and x is not twin and not x != twin,
            x != other and not x == other,
            hash(x) == hash(twin),
            text == repr(twin) and text != repr(other),
            text.startswith(f"{type(x).__qualname__}(") and len(text) > 10 * self.DEPTH,
        ]

    def test_deep_at_the_default_recursion_limit(self):
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            got = unless_recursion(lambda: [self.compared(*twins) for twins in self.deep_twins()])
        finally:
            sys.setrecursionlimit(limit)
        assert got == [[True] * 5] * 3

    def test_as_the_field_tuples(self, rng):
        for _ in range(200):
            for x in (random_ast(rng, rng.randrange(1, 6)), gen_type(rng, rng.randrange(1, 5))):
                assert repr(x) == recursive_repr(x)
                assert x == rebuilt(x) and hash(rebuilt(x)) == hash(x)

    def test_mixed_fields(self):
        a = fresh("a")
        assert Out(a, (NatLit(1),)) != Out(a, (Star(),))
        assert Out(a, (NatLit(1),)) != Out(a, (NatLit(1), NatLit(1)))
        assert Out(a, ()) != Out(fresh("a"), ())
        assert NatLit(True) == NatLit(1) and hash(NatLit(True)) == hash(NatLit(1))  # as `(True,) == (1,)`
        assert (Nil() == NIL) and (Nil() != Star()) and Nil().__eq__(()) is NotImplemented


def rebuilt_deep(p: Process) -> Process:
    """A copy of a chain of inputs, made again innermost first without recursing."""
    chain = []
    while isinstance(p, In):
        chain.append(p)
        p = p.body
    p = Out(p.subject, p.payload)
    for q in reversed(chain):
        p = In(q.subject, q.binders, p)
    return p


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


# Process texts over three spellings, so that binders shadow one another
# and free names share spellings with bound ones.
_SPELLINGS = st.sampled_from(["a", "b", "x"])
_VALUES = st.one_of(_SPELLINGS, st.sampled_from(["*", "1", "x + 1", "(b * 2)"]))
_BINDERS = st.lists(_SPELLINGS, max_size=2).map(", ".join)
_LEAVES = st.one_of(
    st.just("0"),
    _SPELLINGS,
    st.builds(lambda s, vs: f"{s}<{', '.join(vs)}>", _SPELLINGS, st.lists(_VALUES, max_size=2)),
)
_PROCESS_TEXTS = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.builds(lambda p, q: f"({p} | {q})", inner, inner),
        st.builds(lambda s, bs, p: f"{s}({bs}).{p}", _SPELLINGS, _BINDERS, inner),
        st.builds(lambda s, bs, p: f"!{s}({bs}).{p}", _SPELLINGS, _BINDERS, inner),
        st.builds(lambda s, p: f"new {s}:#1[Unit].{p}", _SPELLINGS, inner),
        st.builds(lambda s, p, q: f"(new {s})({p} | {q})", _SPELLINGS, inner, inner),
        st.builds(lambda s, p, q: f"(new {s}.{p} | {q})", _SPELLINGS, inner, inner),
        st.builds(lambda s, p, q: f"new {s} ({p} | {q})", _SPELLINGS, inner, inner),
    ),
    max_leaves=12,
)


def assert_free_map(text: str) -> None:
    """The map `parse_process` fills is the process's free names by spelling."""
    free: dict = {}
    p = parse_process(text, free)
    assert free == {n.display: n for n in free_names(p)}, text


class TestFreeNameMap:
    def test_fixtures(self):
        for path in sorted(FIXTURES.glob("*.pi")):
            assert_free_map(path.read_text(encoding="utf-8"))

    def test_golden_inputs(self):
        from test_checker import typing_pairs

        texts = [src for _, src, _ in typing_pairs()]
        for kind, text in syntax_cases():
            if kind == "process":
                try:
                    parse_process(text)
                except ParseError:
                    continue
                texts.append(text)
        assert len(texts) > 400
        for text in texts:
            assert_free_map(text)

    def test_shadowing_and_reused_spellings(self):
        for text in ["x<> | a(x).x<> | x<>", "a(x).x<> | x<>", "a(x, x).x<x>", "!x(x).x<x> | new x.x<>",
                     "(new a.a<a> | a<>)", "b(a).(new a)(a<b> | b<a>) | a<b>", "a(b).(new a.0 | b<a>)"]:
            assert_free_map(text)

    @settings(max_examples=400, deadline=None, database=None, derandomize=True)
    @given(_PROCESS_TEXTS)
    def test_generated(self, text):
        assert_free_map(text)

    def test_map_untouched_by_a_failed_parse(self):
        free: dict = {}
        with pytest.raises(ParseError):
            parse_process("a<b> | c(", free)
        assert free == {}


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


class TestScopes:
    """`bind` and `unbind`, the package's one pair of scope functions."""

    def test_nested_on_one_key_restore_in_reverse_order(self):
        scope = {"x": "free"}
        outer = bind(scope, [("x", "outer")])
        inner = bind(scope, [("x", "inner"), ("x", "innermost")])  # `a(x, x)` binds x twice
        assert scope == {"x": "innermost"}
        unbind(scope, inner)
        assert scope == {"x": "outer"}
        unbind(scope, outer)
        assert scope == {"x": "free"}

    def test_absent_key_leaves_the_scope(self):
        scope = {"y": 1}
        saved = bind(scope, [("x", 2), ("y", 3)])
        unbind(scope, saved)
        assert scope == {"y": 1}

    @pytest.mark.parametrize("earlier", [0, "", False, ()])
    def test_falsy_earlier_value_comes_back(self, earlier):
        # `lam`'s `TermStore` numbers its first node 0
        scope = {"x": earlier}
        unbind(scope, bind(scope, [("x", 5)]))
        assert list(scope) == ["x"] and scope["x"] is earlier


@pytest.mark.parametrize("brk", ["\r", "\x0c", "\x85", "\u2028"])
def test_env_file_lines_end_at_newline_only(brk):
    with pytest.raises(ParseError) as exc:
        parse_env_file(f"a : Unit{brk}b : Nat\nc : Nat")
    assert (exc.value.message, exc.value.line) == ("unexpected trailing input 'b'", 1)
    assert [e[1] for e in parse_env_file(f"a : Unit -- note{brk}b : Nat\nc : Nat")] == ["a", "c"]


@pytest.mark.parametrize(
    "text, outcome",
    [
        ("fun\tc : #1[Unit]", ("fun", "c")),
        ("isolated\tq : o1[Unit]", ("isolated", "q")),
        ("fun c : Unit", ("fun", "c")),
        ("funny c : Unit", "bad name 'funny c'"),
        ("fun: Unit", ("imp", "fun")),
        ("fun : Unit", "bad name ''"),
    ],
)
def test_env_file_role_marker(text, outcome):
    # a role marker is a whole word ended by any blank: tabs are blanks here
    # as everywhere else in the line
    try:
        got = parse_env_file(text)[0][:2]
    except ParseError as exc:
        got = exc.message
    assert got == outcome


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


# ---------------------------------------------------------------------------
# The scanner against the one it replaced (`conftest.old_scan`): on every
# fixture, every text of the two parse goldens and seeded random texts with
# random spans, both grammars give the same tokens and the same location for
# an error at each token, or the same `ParseError`.

GRAMMARS = [(_Parser, OLD_TOKEN_RES["process"]), (_LamParser, OLD_TOKEN_RES["lambda"])]

# token characters of both grammars, comments, characters neither has, and
# whitespace, Unicode's included
SCAN_PIECES = [
    *"ab_x0719<>()[].:,|!*+#\\'-é\u0663",
    "new", "fun", "o1", "Unit", "x'", "12", "--", "-- c ", "->",
    *"\t \n\r\x0b\x0c\x1c\x85\u00a0\u2028\u3000",
]


def scan_outcome(cls, text: str, pos: int, endpos: int, line: int):
    try:
        p = cls(text, pos, endpos, line)
    except ParseError as exc:
        return exc.message, exc.line, exc.col
    return p.tokens, [(e.line, e.col) for e in (p.error("m", i) for i in range(len(p.tokens)))]


def old_scan_outcome(cls, token_re, text: str, pos: int, endpos: int, line: int):
    got = old_scan(token_re, cls.ONE_CHAR_TOKENS, text, pos, endpos, line)
    if isinstance(got, ParseError):
        return got.message, got.line, got.col
    errors = (old_error(token_re, text, pos, endpos, line, "m", i) for i in range(len(got)))
    return got, [(e.line, e.col) for e in errors]


def golden_texts() -> list[str]:
    texts = [path.read_text(encoding="utf-8") for path in sorted(FIXTURES.iterdir())]
    for golden in (SYNTAX_GOLDEN, SYNTAX_GOLDEN.with_name("lam_errors.txt")):
        texts += [ast.literal_eval(line.split("\t")[1]) for line in golden.read_text(encoding="utf-8").splitlines()]
    return texts


class TestScannerAgainstTheOldOne:
    @pytest.mark.parametrize("cls, token_re", GRAMMARS, ids=["process", "lambda"])
    def test_fixtures_and_golden_texts(self, cls, token_re):
        texts = golden_texts()
        assert len(texts) > 400
        for text in texts:
            case = (text, 0, len(text), 1)
            assert scan_outcome(cls, *case) == old_scan_outcome(cls, token_re, *case), text

    @pytest.mark.parametrize("cls, token_re", GRAMMARS, ids=["process", "lambda"])
    def test_random_texts_and_spans(self, cls, token_re, rng):
        for _ in range(5000):
            text = "".join(rng.choices(SCAN_PIECES, k=rng.randrange(25)))
            pos = rng.randint(0, len(text))
            endpos = rng.randint(pos, len(text))
            line = rng.randint(1, 3)
            case = (text, pos, endpos, line)
            assert scan_outcome(cls, *case) == old_scan_outcome(cls, token_re, *case), case


# ---------------------------------------------------------------------------
# The value walkers against the recursive ones they replaced, kept here as
# oracles: on random sums and products of names, literals and stars, the
# folds off one stack give the same names, arithmetic, substitution, serial,
# printed text, least type and simple types, errors included; and each
# answers a sum of 10^4 terms at the default recursion limit.


def old_value_names(v):
    if isinstance(v, NameRef):
        return {v.name}
    if isinstance(v, (Add, Mul)):
        return old_value_names(v.left) | old_value_names(v.right)
    return set()


def old_eval_value(v):
    if isinstance(v, Add):
        left, right = old_eval_value(v.left), old_eval_value(v.right)
        if isinstance(left, NatLit) and isinstance(right, NatLit):
            return NatLit(left.value + right.value)
        return Add(left, right)
    if isinstance(v, Mul):
        left, right = old_eval_value(v.left), old_eval_value(v.right)
        if isinstance(left, NatLit) and isinstance(right, NatLit):
            return NatLit(left.value * right.value)
        return Mul(left, right)
    return v


def old_subst_value(v, mapping):
    if isinstance(v, NameRef):
        return mapping.get(v.name.id, v)
    if isinstance(v, Add):
        return Add(old_subst_value(v.left, mapping), old_subst_value(v.right, mapping))
    if isinstance(v, Mul):
        return Mul(old_subst_value(v.left, mapping), old_subst_value(v.right, mapping))
    return v


def old_serial_value(v, env):
    if isinstance(v, Star):
        return "*"
    if isinstance(v, NatLit):
        return str(v.value)
    if isinstance(v, NameRef):
        return env.get(v.name.id, f"f:{v.name.display}")
    if isinstance(v, Add):
        return f"(+ {old_serial_value(v.left, env)} {old_serial_value(v.right, env)})"
    return f"(* {old_serial_value(v.left, env)} {old_serial_value(v.right, env)})"


def old_pretty_value(u, names, prec=0):
    if isinstance(u, Star):
        return "*"
    if isinstance(u, NatLit):
        return str(u.value)
    if isinstance(u, NameRef):
        return names.get(u.name.id, u.name.display)
    if isinstance(u, Add):
        s = f"{old_pretty_value(u.left, names, 1)} + {old_pretty_value(u.right, names, 1)}"
        return f"({s})" if prec > 1 else s
    s = f"{old_pretty_value(u.left, names, 2)} * {old_pretty_value(u.right, names, 2)}"
    return f"({s})" if prec > 2 else s


def old_value_type(env, v):
    if isinstance(v, Star):
        return UNIT
    if isinstance(v, NatLit):
        return NAT
    if isinstance(v, NameRef):
        return env.get(v.name)
    for side in (v.left, v.right):
        ty = old_value_type(env, side)
        if not subtype(ty, NAT):
            raise SortError(f"arithmetic over a non-Nat value of type {pretty_type(ty)}", where=old_pretty_value(v, {}))
    return NAT


def old_value_node(st, var, v):
    if isinstance(v, NameRef):
        return var(v.name)
    if isinstance(v, Star):
        return 0
    if isinstance(v, NatLit):
        return 1
    st.unify(old_value_node(st, var, v.left), 1)
    st.unify(old_value_node(st, var, v.right), 1)
    return 1


def random_value(rng: random.Random, depth: int, pool: list[Name]) -> Value:
    if depth <= 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.15:
            return Star()
        return NatLit(rng.randrange(4)) if roll < 0.55 else NameRef(rng.choice(pool))
    cls = Add if rng.random() < 0.5 else Mul
    return cls(random_value(rng, depth - 1, pool), random_value(rng, depth - 1, pool))


def outcome(fn, *args):
    """What `fn(*args)` gives, or the text of the error it raises."""
    try:
        return fn(*args)
    except PiError as exc:
        return f"{type(exc).__name__}: {exc.render()}"


def simple_typing(p: Process):
    return sorted((n.id, t) for n, t in simple_types(p).items())


class TestValueWalkers:
    def test_against_the_recursive_walkers(self, rng, monkeypatch):
        a, b, c, d = (fresh(s) for s in "abcd")
        pool = [a, b, c]
        # `a` is a number, `b` a channel and `c` unbound
        env = TypeEnv({a: NAT, b: ChanT("#", 1, (UNIT,))})
        mapping = {a.id: NatLit(3), b.id: NameRef(d)}
        labels = {a.id: "b0", c.id: "c1"}
        for _ in range(1000):
            v, w = random_value(rng, 5, pool), random_value(rng, 3, pool)
            assert value_names(v) == old_value_names(v)
            assert eval_value(v) == old_eval_value(v)
            assert eval_value(_subst_value(v, mapping)) == old_eval_value(old_subst_value(v, mapping))
            assert _serial_value(v, labels) == old_serial_value(v, labels)
            assert pretty_value(v) == old_pretty_value(v, {})
            assert pretty_value(v, labels) == old_pretty_value(v, labels)
            assert outcome(value_type, env, v) == outcome(old_value_type, env, v)
            p = Par(Out(c, (v,)), Out(b, (w, v)))
            new = outcome(simple_typing, p)
            with monkeypatch.context() as m:
                m.setattr(inference, "_value_node", old_value_node)
                assert new == outcome(simple_typing, p)

    def test_a_sum_of_10_4_terms(self):
        a, b = fresh("a"), fresh("b")
        v = NatLit(1)
        for i in range(1, 10**4):
            v = (Add if i % 100 else Mul)(v, NameRef(a) if i == 5000 else NatLit(1))
        got = unless_recursion(lambda: [
            value_names(v),
            eval_value(_subst_value(v, {a.id: NatLit(1)})).__class__,
            _serial_value(v, {}).count("("),
            pretty_value(v).count("1"),
            value_type(TypeEnv({a: NAT}), v),
            simple_types(Out(b, (v,))),
        ])
        assert got == [{a}, NatLit, 10**4 - 1, 10**4 - 1, NAT, {a: "Nat", b: "ch[Nat]"}]
