"""Subtyping (against a closure oracle), value typing and the two checkers."""

from __future__ import annotations

from itertools import product

import pytest

from piterm import syntax
from piterm.checker import TypeEnv, check, check_ds, env_for, subtype, value_type
from piterm.errors import (
    CapabilityError,
    IllTyped,
    LevelViolation,
    MissingAnnotation,
    PayloadMismatch,
    SortError,
    UnboundName,
)
from piterm.impure import ImpureEnv, check_impure
from piterm.measure import measure
from piterm.parser import parse_process, parse_type
from piterm.syntax import NAT, UNIT, Add, ChanT, Mul, NatLit, NameRef, Star, Type, fresh

from conftest import count_calls, sample_subtype, sample_supertype, typed_instance


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


def closure_oracle(universe: list[Type]) -> set[tuple[int, int]]:
    index = {t: i for i, t in enumerate(universe)}
    n = len(universe)
    rel = [0] * n  # bitmask per source
    for i in range(n):
        rel[i] |= 1 << i
    chans = [(i, t) for i, t in enumerate(universe) if isinstance(t, ChanT)]
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
            for j, u in chans:
                if rel[i] >> j & 1:
                    continue
                if s.cap != u.cap or len(s.payload) != len(u.payload):
                    continue
                if s.cap == "i" and s.level >= u.level:
                    if all(
                        rel[index[a]] >> index[b] & 1
                        for a, b in zip(s.payload, u.payload)
                    ):
                        rel[i] |= 1 << j
                        changed = True
                elif s.cap == "o" and s.level <= u.level:
                    if all(
                        rel[index[b]] >> index[a] & 1
                        for a, b in zip(s.payload, u.payload)
                    ):
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
    return {(i, j) for i in range(n) for j in range(n) if rel[i] >> j & 1}


def assert_matches_oracle(universe: list[Type]) -> None:
    oracle = closure_oracle(universe)
    for i, s in enumerate(universe):
        for j, u in enumerate(universe):
            assert subtype(s, u) == ((i, j) in oracle), f"{s} <= {u}"


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
        assert check_ds(TypeEnv(), ds) == 1
        assert printed == []

    def test_rejection_renders_the_offending_prefix(self):
        p = parse_process("b<> | a(x).x<*>")
        env = env_for(p, {"a": parse_type("#1[i0[Unit]]"), "b": parse_type("#0[Unit]")})
        with pytest.raises(CapabilityError) as exc:
            check(env, p)
        assert exc.value.where == "x<*>"


class TestCheckDs:
    def test_accepts_sharp_only(self):
        p = parse_process("a<*>")
        env = env_for(p, {"a": parse_type("#1[Unit]")})
        assert check_ds(env, p) == 1

    def test_rejects_level_coercion(self):
        env, p = server_instance()
        with pytest.raises(IllTyped):
            check_ds(env, p)

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
                check_ds(env, p)

    def test_everything_ds_accepts_check_accepts(self, rng):
        for _ in range(150):
            env, p, w = typed_instance(rng, fuel=6, exact=True)
            assert check_ds(env, p) == w
            assert check(env, p) <= w
