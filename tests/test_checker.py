"""Subtyping (against a closure oracle), value typing and the two checkers."""

from __future__ import annotations

import importlib.util
import random
import tempfile
from itertools import product
from pathlib import Path

import pytest

from piterm import checker, syntax
from piterm.checker import TypeEnv, check, derive, subtype, value_type
from piterm.cli import _load_env, main
from piterm.errors import (
    CapabilityError,
    IllTyped,
    LevelViolation,
    MissingAnnotation,
    PayloadMismatch,
    PiError,
    SortError,
    UnboundName,
)
from piterm.impure import ImpureEnv, check_impure
from piterm.inference import DS_EQUALITY, FLEXIBLE
from piterm.measure import format_multiset, measure
from piterm.parser import parse_process, parse_type
from piterm.syntax import NAT, UNIT, Add, ChanT, In, Mul, NatLit, NameRef, Nil, Out, Res, Star, Type, fresh

from conftest import (
    FIXTURES,
    assert_golden,
    count_calls,
    env_for,
    gen_type,
    sample_subtype,
    sample_supertype,
    typed_instance,
    unless_recursion,
)
from test_inference import GOLDEN as INFER_GOLDEN
from test_inference import golden_line, golden_processes
from test_syntax import random_ast


# ---------------------------------------------------------------------------
# Closure oracle: reflexive-transitive closure of the one-step rules over an
# enumerated universe. The universe is a full product of caps and levels, so
# every intermediate of an in-universe derivation is itself in-universe.


def enumerate_universe(bases: list[Type], levels: int, arities: tuple[int, ...], depth: int) -> list[Type]:
    layers = [list(bases)]
    for _ in range(depth - 1):
        prev = [t for layer in layers for t in layer]
        nxt = []
        for cap in "#io":
            for level in range(levels + 1):
                for arity in arities:
                    for payload in product(prev, repeat=arity):
                        nxt.append(ChanT(cap, level, payload))
        layers.append(nxt)
    return list(dict.fromkeys(t for layer in layers for t in layer))


def closure_oracle(universe: list[Type]) -> list[int]:
    """Per type of `universe`, the bitmask of the indices of its supertypes."""
    index = {t: i for i, t in enumerate(universe)}
    n = len(universe)
    rel = [0] * n  # bitmask per source
    for i in range(n):
        rel[i] |= 1 << i
    chans = [(i, t) for i, t in enumerate(universe) if isinstance(t, ChanT)]
    kids = {i: [index[a] for a in t.payload] for i, t in chans}  # payloads by index
    alike: dict[tuple[str, int], list[tuple[int, ChanT]]] = {}  # by capability and arity
    for i, t in chans:
        alike.setdefault((t.cap, len(t.payload)), []).append((i, t))
    # capability axioms
    for i, t in chans:
        if t.cap == "#":
            for cap in "io":
                j = index.get(ChanT(cap, t.level, t.payload))
                if j is not None:
                    rel[i] |= 1 << j
    changed = True
    while changed:
        changed = False
        # congruence rules for i and o
        for i, s in chans:
            for j, u in alike[s.cap, len(s.payload)]:
                if rel[i] >> j & 1:
                    continue
                if s.cap == "i" and s.level >= u.level:
                    if all(rel[a] >> b & 1 for a, b in zip(kids[i], kids[j])):
                        rel[i] |= 1 << j
                        changed = True
                elif s.cap == "o" and s.level <= u.level:
                    if all(rel[b] >> a & 1 for a, b in zip(kids[i], kids[j])):
                        rel[i] |= 1 << j
                        changed = True
        # transitivity via bitmask propagation
        for i in range(n):
            acc = rel[i]
            mask = acc
            while mask:
                j = (mask & -mask).bit_length() - 1
                mask &= mask - 1
                acc |= rel[j]
            if acc != rel[i]:
                rel[i] = acc
                changed = True
    return rel


def assert_matches_oracle(universe: list[Type]) -> None:
    """`subtype` against the closure oracle on every pair of `universe`,
    once as is and once with the right-hand type replaced by an equal,
    separate copy: on a reflexive pair `subtype` answers by identity, and the
    copy makes it walk the structure."""
    rows = closure_oracle(universe)
    copies = [parse_type(syntax.pretty_type(u)) for u in universe]
    assert all(c == u and c is not u for c, u in zip(copies, universe) if isinstance(u, ChanT))
    for s, row in zip(universe, rows):
        for j, (u, c) in enumerate(zip(universe, copies)):
            want = row >> j & 1 == 1
            assert subtype(s, u) == want, f"{s} <= {u}"
            assert subtype(s, c) == want, f"{s} <= copy of {u}"


class TestSubtype:
    def test_reflexive_examples(self):
        t = parse_type("#2[Unit]")
        assert subtype(t, t)

    def test_sharp_coerces_and_levels_move(self):
        assert subtype(parse_type("#2[Unit]"), parse_type("o3[Unit]"))
        assert not subtype(parse_type("o3[Unit]"), parse_type("o1[Unit]"))
        assert subtype(parse_type("i3[Unit]"), parse_type("i1[Unit]"))

    def test_sharp_is_invariant(self):
        assert not subtype(parse_type("#1[Unit]"), parse_type("#2[Unit]"))
        assert not subtype(parse_type("o1[Unit]"), parse_type("#1[Unit]"))

    def test_payload_variance(self):
        # carried types are covariant under i, contravariant under o
        assert subtype(parse_type("i0[i2[Unit]]"), parse_type("i0[i1[Unit]]"))
        assert subtype(parse_type("o0[o2[Unit]]"), parse_type("o0[o1[Unit]]"))
        assert not subtype(parse_type("o0[o1[Unit]]"), parse_type("o0[o2[Unit]]"))

    def test_oracle_levels_axis(self):
        # full product universe at depth 2 with all five levels
        universe = enumerate_universe([UNIT, NAT], levels=4, arities=(1, 2), depth=2)
        assert len(universe) == 92
        assert_matches_oracle(universe)

    def test_oracle_depth_axis(self):
        # monadic universe at depth 3 with all five levels
        universe = enumerate_universe([UNIT], levels=4, arities=(1,), depth=3)
        assert len(universe) == 241
        assert_matches_oracle(universe)

    def test_oracle_arity_axis(self):
        # dyadic payloads at depth 3, levels capped to keep the closure small
        universe = enumerate_universe([UNIT], levels=1, arities=(1, 2), depth=3)
        assert_matches_oracle(universe)

    def test_preorder_properties(self, rng):
        universe = enumerate_universe([UNIT, NAT], levels=3, arities=(1,), depth=2)
        for t in universe:
            assert subtype(t, t)
        for _ in range(4000):
            a, b, c = (rng.choice(universe) for _ in range(3))
            if subtype(a, b) and subtype(b, c):
                assert subtype(a, c)

    def test_identical_types_answer_at_once(self):
        # one object is its own subtype without a walk: a structural walk
        # of this type would run out of frames
        t = UNIT
        for _ in range(3000):
            t = ChanT("o", 1, (t,))
        assert subtype(t, t)

    def test_sampler_agrees(self, rng):
        from conftest import gen_type

        for _ in range(300):
            t = gen_type(rng, 3)
            assert subtype(sample_subtype(rng, t), t)
            assert subtype(t, sample_supertype(rng, t))


class TestValueType:
    def test_name_lookup(self):
        a = fresh("a")
        env = TypeEnv({a: parse_type("#1[Unit]")})
        assert value_type(env, NameRef(a)) == parse_type("#1[Unit]")

    def test_literal_arithmetic(self):
        assert value_type(TypeEnv(), Add(NatLit(3), NatLit(4))) == NAT

    def test_nat_is_shared(self):
        # literals and arithmetic type at the one `NAT`
        assert value_type(TypeEnv(), NatLit(3)) is NAT
        assert value_type(TypeEnv(), Mul(NatLit(3), Add(NatLit(1), NatLit(2)))) is NAT

    def test_square(self):
        n = fresh("n")
        env = TypeEnv({n: NAT})
        assert value_type(env, Mul(NameRef(n), NameRef(n))) == NAT

    def test_star(self):
        assert value_type(TypeEnv(), Star()) == UNIT

    def test_unbound(self):
        with pytest.raises(UnboundName):
            value_type(TypeEnv(), NameRef(fresh("a")))

    def test_arithmetic_over_channel(self):
        a = fresh("a")
        env = TypeEnv({a: parse_type("#1[Unit]")})
        with pytest.raises(SortError):
            value_type(env, Add(NameRef(a), NatLit(1)))


def server_instance():
    p = parse_process("!a(x).x<t> | a<p> | a<q> | !p(z).q<z>")
    env = env_for(
        p,
        {
            "a": parse_type("#3[o2[Unit]]"),
            "p": parse_type("#2[Unit]"),
            "q": parse_type("o1[Unit]"),
            "t": parse_type("Unit"),
        },
    )
    return env, p


class TestCheck:
    def test_nil(self):
        assert check(TypeEnv(), parse_process("0")) == 0

    def test_server_with_coerced_client(self):
        env, p = server_instance()
        assert check(env, p) == 3

    def test_self_feeding_replication_rejected_at_every_level(self):
        for k in range(5):
            p = parse_process("!a(x).a<x>")
            env = env_for(p, {"a": ChanT("#", k, (ChanT("o", k, (UNIT,)),))})
            with pytest.raises(LevelViolation):
                check(env, p)

    def test_missing_annotation(self):
        with pytest.raises(MissingAnnotation):
            check(TypeEnv(), parse_process("new a. a<>"))

    def test_unbound_free_name(self):
        with pytest.raises(UnboundName):
            check(TypeEnv(), parse_process("a<*>"))

    def test_output_needs_output_capability(self):
        p = parse_process("a<*>")
        env = env_for(p, {"a": parse_type("i1[Unit]")})
        with pytest.raises(CapabilityError):
            check(env, p)

    def test_input_needs_input_capability(self):
        p = parse_process("a(x).0")
        env = env_for(p, {"a": parse_type("o1[Unit]")})
        with pytest.raises(CapabilityError):
            check(env, p)

    def test_payload_arity(self):
        p = parse_process("a<*,*>")
        env = env_for(p, {"a": parse_type("#1[Unit]")})
        with pytest.raises(PayloadMismatch):
            check(env, p)

    def test_payload_subtype_failure(self):
        p = parse_process("a<b>")
        env = env_for(p, {"a": parse_type("#1[o0[Unit]]"), "b": parse_type("o2[Unit]")})
        with pytest.raises(PayloadMismatch):
            check(env, p)

    def test_unit_abbreviations_check(self):
        p = parse_process("a<> | a")
        env = env_for(p, {"a": parse_type("#2[Unit]")})
        assert check(env, p) == 2

    def test_error_codes_stable(self):
        cases = [
            ("a<*>", {"a": "i1[Unit]"}, "CAP"),
            ("a<*,*>", {"a": "#1[Unit]"}, "PAY"),
            ("!a(x).a<x>", {"a": "#1[o1[Unit]]"}, "LVL"),
            ("a<*>", {}, "UNB"),
            ("new a. 0 | a<*>", {"a": "#1[Unit]"}, "ANN"),
        ]
        for src, env_decl, code in cases:
            p = parse_process(src)
            env = env_for(p, {k: parse_type(v) for k, v in env_decl.items()})
            with pytest.raises(IllTyped) as exc:
                check(env, p)
            assert exc.value.code == code

    def test_weight_is_max_of_components(self):
        p = parse_process("a<> | b<>")
        env = env_for(p, {"a": parse_type("#2[Unit]"), "b": parse_type("#4[Unit]")})
        assert check(env, p) == 4

    def test_plain_input_passes_body_weight_through(self):
        p = parse_process("a(x).b<>")
        env = env_for(p, {"a": parse_type("#1[Unit]"), "b": parse_type("#4[Unit]")})
        assert check(env, p) == 4

    def test_restriction_passes_weight_through(self):
        p = parse_process("new a:#3[Unit]. a<>")
        assert check(TypeEnv(), p) == 3

    @pytest.mark.parametrize("mode", ["default", "ds", "impure"])
    def test_name_bound_twice_refused(self, mode):
        # the parser freshens every binder: only a library-built process
        # binds one name twice, by two nested inputs or two restrictions
        a, x, r = fresh("a"), fresh("x"), fresh("r")
        ty = ChanT("#", 1, (UNIT,))
        env = TypeEnv({a: ty})
        typings = {
            "default": lambda p: derive(env, p),
            "ds": lambda p: derive(env, p, ds=True),
            "impure": lambda p: check_impure(ImpureEnv(env), p),
        }
        twice = {"x": In(a, (x,), In(a, (x,), Nil())), "r": Res(r, ty, False, Res(r, ty, False, Nil()))}
        for name, p in twice.items():
            with pytest.raises(UnboundName, match=f"name '{name}' is already bound"):
                typings[mode](p)

    def test_narrowing(self, rng):
        # replacing a hypothesis by a subtype keeps typability, weight <=
        for _ in range(120):
            env, p, w = typed_instance(rng, fuel=6)
            names = [n for n, _ in env.items()]
            if not names:
                continue
            x = rng.choice(names)
            lowered = dict(env.bindings)
            lowered[x] = sample_subtype(rng, lowered[x])
            assert check(TypeEnv(lowered), p) <= w


class TestLazyLocations:
    """An accepted process is never printed; a rejection still says where."""

    def test_accepted_process_is_not_printed(self, monkeypatch):
        env, p = server_instance()
        ds = parse_process("new a:#1[Unit].(!a.0 | a<> | a<*>)")
        printed = count_calls(monkeypatch, syntax.pretty_process)
        assert check(env, p) == 3
        assert measure(env, p) == (3, 3)
        assert check_impure(ImpureEnv(env), p) == 3
        assert derive(TypeEnv(), ds, ds=True).weight == 1
        assert printed == []

    def test_rejection_renders_the_offending_prefix(self):
        p = parse_process("b<> | a(x).x<*>")
        env = env_for(p, {"a": parse_type("#1[i0[Unit]]"), "b": parse_type("#0[Unit]")})
        with pytest.raises(CapabilityError) as exc:
            check(env, p)
        assert exc.value.where == "x<*>"


class TestOneScope:
    """A typing walk copies the caller's environment once, binds in place and
    undoes on scope exit, so the caller's environment never changes."""

    @pytest.mark.parametrize("depth", [10, 500])
    def test_one_copy_of_the_environment_per_call(self, monkeypatch, depth):
        links = ["a(x).", "new r:#2[Unit].", "!a(y)."]
        chain = "".join(links[i % 3] for i in range(depth)) + "b<*>"
        p = parse_process(chain)
        q = parse_process(f"new f:o2[Unit] fun.(!f(w).{chain} | f<*>)")
        env = env_for(p, {"a": parse_type("#2[Unit]"), "b": parse_type("#1[Unit]")})
        ienv = ImpureEnv(env_for(q, {"a": parse_type("#2[Unit]"), "b": parse_type("#1[Unit]")}))
        copies = count_calls(monkeypatch, TypeEnv)
        for run in (lambda: derive(env, p), lambda: derive(env, p, ds=True), lambda: check_impure(ienv, q)):
            copies.clear()
            assert unless_recursion(run) != "RecursionError"
            assert len(copies) == 1

    def test_caller_environment_unchanged(self, rng):
        outcomes = set()
        for i in range(300):
            p = random_ast(rng, 5)
            decls = {s: gen_type(rng, 2, 3) for s in "abcuvw"}
            env = env_for(p, decls)
            free = sorted(syntax.free_names(p) - set(env.bindings), key=lambda n: n.id)
            isolated = (free[0], ChanT("o", rng.randrange(3), (UNIT,))) if free and i % 2 else None
            ienv = ImpureEnv(env, isolated, frozenset(n for n in env.bindings if n.display == "a"))
            before = (dict(env.bindings), ienv.isolated, ienv.functional)
            for run in (lambda: derive(env, p), lambda: derive(env, p, ds=True), lambda: check_impure(ienv, p)):
                first, second = self.outcome(run), self.outcome(run)
                assert first == second
                assert (dict(env.bindings), ienv.isolated, ienv.functional) == before
                outcomes.add(first[0])
        assert outcomes == {"accepted", "rejected"}

    def test_sibling_scopes_do_not_leak(self):
        # the same Name bound in two sibling components (built by hand: the
        # parser freshens every binder) is bound in each in turn
        a, f, x = fresh("a"), fresh("f"), fresh("x")
        p = syntax.par(
            Res(f, parse_type("o1[Unit]"), True, Out(f, ())),
            Res(f, parse_type("#1[Unit]"), False, In(f, (x,), Nil())),
            In(a, (x,), Nil()),
        )
        env = TypeEnv({a: parse_type("#1[Unit]")})
        assert derive(env, p).weight == 1
        assert check_impure(ImpureEnv(env), p) == 1

    @staticmethod
    def outcome(run) -> tuple[str, str]:
        try:
            return "accepted", repr(run())
        except PiError as exc:
            return "rejected", exc.render()


class TestCheckDs:
    def test_accepts_sharp_only(self):
        p = parse_process("a<*>")
        env = env_for(p, {"a": parse_type("#1[Unit]")})
        assert derive(env, p, ds=True).weight == 1

    def test_rejects_level_coercion(self):
        env, p = server_instance()
        with pytest.raises(IllTyped):
            derive(env, p, ds=True)

    def test_mutual_recursion_rejected_at_all_small_levels(self):
        for ka, kb in product(range(5), repeat=2):
            p = parse_process("!a(x).b<x> | !b(y).a<y>")
            env = env_for(
                p,
                {
                    "a": ChanT("#", ka, (ChanT("#", kb, (UNIT,)),)),
                    "b": ChanT("#", kb, (ChanT("#", ka, (UNIT,)),)),
                },
            )
            with pytest.raises(IllTyped):
                derive(env, p, ds=True)

    def test_everything_ds_accepts_check_accepts(self, rng):
        for _ in range(150):
            env, p, w = typed_instance(rng, fuel=6, exact=True)
            assert derive(env, p, ds=True).weight == w
            assert check(env, p) <= w


# ---------------------------------------------------------------------------
# Golden record of typing: the rendered outcome of `derive`, `derive(ds=True)`
# and `check_impure` (weight and measure, or the error) on `.pi`/`.env` pairs,
# with the environment loaded as the CLI loads it. The pairs are hand-written,
# the fixtures, fixed-seed `random_ast` processes under random declarations,
# and fixed-seed `perfbench/pigen.py` processes (loaded read-only) with no,
# one or two planted defects. The record ends with `alpha_key` of fixed-seed
# `random_ast` processes and of their `substitute_many` images. Regenerate it
# (only for a deliberate change of output) with
#   PYTHONPATH=src:tests python -c "import test_checker as t; t.write_typing_golden()"

TYPING_GOLDEN = Path(__file__).resolve().parent / "golden" / "typing.txt"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TYPING_SEED = 10
TYPING_GRID = [(1, 1), (2, 3), (3, 2), (4, 1), (6, 2), (8, 1)]  # (depth, width)
TYPING_ROUNDS = 3
TYPING_SAMPLES = 200
PIGEN_DEFECTS = ["LVL", "CAP", "PAY"]
TYPING_CASES = [
    ("a<*>", "a : #1[Unit]"),
    ("a<*>", "a : i1[Unit]"),
    ("new a. a<>", ""),
    ("c(x).!f(y).x<y> | c<f> | f<v>", "c : #1[o0[o0[Unit]]]\nfun f : o0[o0[Unit]]\nv : o0[Unit]"),
    ("!f(x).b<x> | f<*>", "isolated f : o1[Unit]\nb : #1[Unit]"),
    ("!f(x).b<x> | !f(y).0 | f<*>", "isolated f : o0[Unit]\nb : #1[Unit]"),
    ("!f(x).f<x>", "isolated f : o1[Unit]"),
    ("f(x).0 | f<*>", "isolated f : o1[Unit]"),
    ("a(x).!f(y).0 | f<*>", "isolated f : o1[Unit]\na : #2[Unit]"),
    ("a(x).f<*> | a<*>", "isolated f : o1[Unit]\na : #2[Unit]"),
    ("f<*> | g<*>", "isolated f : o0[Unit]\nisolated g : o1[Unit]"),
    ("f<*> | g<*>", "isolated f : o0[Unit]\nisolated g : o1[Unit]\nisolated f : o2[Unit]"),
    ("f<*>", "isolated f : Unit"),
    ("f<*>", "isolated f : #0[Unit]"),
    ("f<*>", "isolated f : o0[Unit]\nf : #0[Unit]"),
    ("f<*>", "fun f : o0[Unit]\nf : o1[Unit]"),
    ("(new f fun:o0[Unit])(!f(x).0 | !f(y).0 | f<*>)", ""),
    ("(new f fun:o0[o0[Unit]])(!f(x).f<x>)", ""),
    ("(new f fun:o1[Unit])(!f().b<*> | f<>)", "b : #1[Unit]"),
    ("(new f fun:o0[Unit])(!f().b<*>)", "b : #1[Unit]"),
    ("(new f fun:#1[Unit])(0)", ""),
    ("(new f fun:o0[Unit])((new g fun:o0[Unit])(!g().f<> | g<>))", ""),
    ("(new f fun:o0[Unit])((new g fun:o0[Unit])(!f().0 | g<>))", ""),
    ("new f:o1[Unit] fun.(!f(x).new g:o1[Unit] fun.(!g(y).0 | g<*>) | f<*>)", ""),
    ("new f:o1[Unit] fun.(!f(x).new g:o1[Unit] fun.(!g(y).f<*> | g<*>) | f<*>)", ""),
    ("new f:o1[Unit] fun.(a(x).!f(y).0 | f<*>)", "a : #2[Unit]"),
    ("new c:o1[Unit].(!c(x).0)", ""),
    ("a(x, y).0", "a : #1[Nat]"),
    ("a.0", "a : #1[Nat]"),
    ("a<1, 2>", "a : #1[Nat]"),
    ("a<b + 1>", "a : #1[Nat]\nb : #0[Unit]"),
    ("!a(x).b<x> | !b(y).a<y>", "a : #1[#1[Unit]]\nb : #1[#1[Unit]]"),
    ("a(x).x<*> | a<q>", "a : #3[o2[Unit]]\nq : o1[Unit]"),
]


def _load_perfbench(name: str):
    """A module of `perfbench/`, loaded read-only under its own name."""
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def typing_pairs() -> list[tuple[str, str, str]]:
    """(label, process text, env text), in golden-file order."""
    pairs = [("hand", src, env) for src, env in TYPING_CASES]
    for pi in sorted(FIXTURES.glob("*.pi")):
        env = pi.with_suffix(".env")
        pairs.append((f"fixture/{pi.stem}", pi.read_text(), env.read_text() if env.exists() else ""))
    rng = random.Random(TYPING_SEED)
    for _ in range(TYPING_SAMPLES // 2):
        src = syntax.pretty_process(random_ast(rng, 5))
        decls = []
        for spelling in "abc":
            role = rng.choice(["", "", "", "fun ", "isolated "])
            decls.append(f"{role}{spelling} : {syntax.pretty_type(gen_type(rng, 2, 3))}")
        pairs.append(("ast", src, "\n".join(decls)))
    pigen = _load_perfbench("pigen")
    modes = ["check", "ds", "impure"]
    for depth, width in TYPING_GRID * TYPING_ROUNDS:
        for mode, defect in product(modes, [None, *PIGEN_DEFECTS]):
            gen = pigen.Impure(rng) if mode == "impure" else pigen.Typed(rng, exact=mode == "ds")
            env = gen.pool()
            proc = gen.process(env, depth, width, defect)[0]
            label = f"pigen/{mode}/{defect or 'ok'}/{depth},{width}"
            pairs.append((label, pigen.text(proc), pigen.env_text(env)))
    for mode, first, second in product(modes, PIGEN_DEFECTS, PIGEN_DEFECTS):
        # two defects in different components: the one met first wins
        gen = pigen.Impure(rng) if mode == "impure" else pigen.Typed(rng, exact=mode == "ds")
        env = gen.pool()
        parts = [gen.process(env, 3, 2, kind)[0] for kind in (first, second)]
        label = f"pigen/{mode}/{first}+{second}"
        pairs.append((label, pigen.text(("par", parts)), pigen.env_text(env)))
    return pairs


def typing_line(label: str, src: str, env_src: str, tmp: Path) -> str:
    free: dict = {}
    p = parse_process(src, free)
    path = tmp / "case.env"
    path.write_text(env_src, encoding="utf-8")
    head = f"{label}\t{' '.join(src.split())}\t{'; '.join(env_src.splitlines())}"
    try:
        tenv, ienv = _load_env(str(path), free)
    except PiError as exc:
        return f"{head}\tLOAD {exc.render()}"
    outcomes = []
    for mode, run in (
        ("check", lambda: derive(tenv, p)),
        ("ds", lambda: derive(tenv, p, ds=True)),
        ("impure", lambda: check_impure(ienv, p)),
    ):
        try:
            got = run()
        except PiError as exc:
            outcomes.append(f"{mode} {exc.render()}")
            continue
        if mode == "impure":
            outcomes.append(f"{mode} WEIGHT {got}")
        else:
            outcomes.append(f"{mode} WEIGHT {got.weight} MEASURE {format_multiset(got.measure)}")
    return "\t".join([head, *outcomes])


def alpha_lines() -> list[str]:
    """`alpha_key` of fixed-seed `random_ast` processes and of their images
    under a `substitute_many` of their free names, in creation order."""
    rng = random.Random(TYPING_SEED + 1)
    lines = []
    for _ in range(TYPING_SAMPLES):
        p = random_ast(rng, rng.randrange(3, 7))
        mapping = {}
        for n in sorted(syntax.free_names(p), key=lambda n: n.id):
            pick = rng.random()
            if pick < 0.4:
                mapping[n] = NameRef(fresh(rng.choice("mn")))
            elif pick < 0.6:
                mapping[n] = rng.choice([Star(), NatLit(2), NameRef(n)])
        try:
            image = syntax.alpha_key(syntax.substitute_many(p, mapping))
        except PiError as exc:
            image = exc.render()
        lines.append(f"alpha\t{syntax.alpha_key(p)}\t{image}")
    return lines


def typing_text() -> str:
    with tempfile.TemporaryDirectory() as tmp:
        lines = [typing_line(*pair, Path(tmp)) for pair in typing_pairs()]
    return "".join(line + "\n" for line in lines + alpha_lines())


def write_typing_golden() -> None:
    TYPING_GOLDEN.write_text(typing_text(), encoding="utf-8")


class TestTypingGolden:
    def test_typing_outcomes_unchanged(self):
        assert_golden(TYPING_GOLDEN, typing_text())


# The typing walk tests each rule in place and calls a renderer only to build
# the error of a test that failed. With every renderer made to raise, the
# accepted outcomes are unchanged: those of `typing.txt` in its three modes,
# those of `infer.txt`, whose re-check runs the walk, and `run --certify` on
# the server fixture. The rejections reach the renderers.

RENDERERS = ("_subject_error", "_payload_error")


def renderers_raise(monkeypatch) -> None:
    def render(*args):
        raise IllTyped("a renderer was called")

    for name in RENDERERS:
        monkeypatch.setattr(checker, name, render)


class TestAcceptedPathRendersNothing:
    def test_typing_golden(self, monkeypatch):
        golden = TYPING_GOLDEN.read_text(encoding="utf-8").splitlines()
        renderers_raise(monkeypatch)
        got = typing_text().splitlines()
        assert len(got) == len(golden)
        accepted = rendered = 0
        for mine, theirs in zip(got, golden):
            for field, want in zip(mine.split("\t"), theirs.split("\t")):
                if " WEIGHT " in want:
                    assert field == want
                    accepted += 1
                rendered += field != want and "renderer was called" in field
        assert accepted > 200 and rendered > 500

    def test_infer_golden(self, monkeypatch):
        golden = INFER_GOLDEN.read_text(encoding="utf-8").splitlines()
        renderers_raise(monkeypatch)
        got = [golden_line(q, mode) for q in golden_processes() for mode in (FLEXIBLE, DS_EQUALITY)]
        accepted = [(mine, theirs) for mine, theirs in zip(got, golden) if "\tWEIGHT " in theirs]
        assert len(got) == len(golden) and len(accepted) > 300
        assert all(mine == theirs for mine, theirs in accepted)

    def test_certified_run(self, monkeypatch, capsys):
        argv = ["run", str(FIXTURES / "server.pi"), "--certify", str(FIXTURES / "server.env")]
        assert main(argv) == 0
        want = capsys.readouterr().out
        renderers_raise(monkeypatch)
        assert main(argv) == 0
        assert capsys.readouterr().out == want


# The benchmark's tracer patches the functions its `TRACED` table names, and
# skips a name that is gone, whose per-layer metrics then read 0. These six
# were deleted, folded into other functions or (`lam.check_stlc`, called by
# the tests alone) moved into `tests/conftest.py` before the tracer followed.
TRACER_STALE = {
    ("checker", "check_ds"),
    ("inference", "infer_simple"),
    ("inference", "locality_check"),
    ("inference", "build_graph"),
    ("inference", "reconstruct"),
    ("lam", "check_stlc"),
}


class TestTracerReach:
    def test_traced_functions_resolve(self):
        # moving a traced function, such as `impure.check_impure`, fails
        # here instead of silently zeroing its metrics
        traced = {(module, function) for module, function, *_ in _load_perfbench("tracer").TRACED}
        live = {
            (module, function)
            for module, function in traced
            if callable(getattr(importlib.import_module(f"piterm.{module}"), function, None))
        }
        assert live == traced - TRACER_STALE
        assert TRACER_STALE <= traced
