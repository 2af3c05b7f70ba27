"""The termination measure and the multiset order, against brute-force oracles."""

from __future__ import annotations

from itertools import combinations_with_replacement

import pytest

from piterm.checker import TypeEnv
from piterm.errors import CapabilityError, LevelViolation
from piterm.measure import as_multiset, multiset_greater, measure
from piterm.parser import parse_process, parse_type
from piterm.syntax import ChanT, In, Nil, Out, Par, RepIn, Res

from conftest import env_for, multiset_geq, multiset_greater_oracle


def all_multisets(max_element: int, max_size: int):
    for size in range(max_size + 1):
        yield from combinations_with_replacement(range(max_element + 1), size)


class TestMultisetGreater:
    def test_single_dominates_many_smaller(self):
        assert multiset_greater((3,), (2, 2, 1))

    def test_removal_is_a_decrease(self):
        assert multiset_greater((2, 2), (2,))

    def test_irreflexive_example(self):
        assert not multiset_greater((2,), (2,))

    def test_mixed_residues(self):
        assert multiset_greater((3, 1), (3, 0, 0))

    def test_against_decomposition_oracle_exhaustive(self):
        universe = [as_multiset(m) for m in all_multisets(5, 5)]
        assert len(universe) == 462
        for m1 in universe:
            for m2 in universe:
                assert multiset_greater(m1, m2) == multiset_greater_oracle(m1, m2), (m1, m2)

    def test_strict_order_small_universe(self):
        # irreflexive + transitive on a finite universe rules out any
        # infinite descending chain inside it
        universe = [as_multiset(m) for m in all_multisets(4, 4)]
        assert len(universe) == 126
        for m in universe:
            assert not multiset_greater(m, m)
        rel = {
            (i, j)
            for i, a in enumerate(universe)
            for j, b in enumerate(universe)
            if multiset_greater(a, b)
        }
        succ = {}
        for i, j in rel:
            succ.setdefault(i, set()).add(j)
        for i, js in succ.items():
            for j in js:
                for k in succ.get(j, ()):
                    assert (i, k) in rel

    def test_irreflexive_large_universe(self):
        for m in all_multisets(8, 8):
            assert not multiset_greater(m, m)

    def test_transitive_sampled_large(self, rng):
        universe = [as_multiset(m) for m in all_multisets(8, 8)]
        for _ in range(30000):
            a, b, c = (rng.choice(universe) for _ in range(3))
            if multiset_greater(a, b) and multiset_greater(b, c):
                assert multiset_greater(a, c)

    def test_geq(self):
        assert multiset_geq((2, 1), (2, 1))
        assert multiset_geq((3,), (2,))
        assert not multiset_geq((2,), (3,))


class TestMeasure:
    def test_two_outputs_one_input(self):
        p = parse_process("a<*> | a<*> | a().0")
        env = env_for(p, {"a": parse_type("#2[Unit]")})
        assert measure(env, p) == (2, 2)

    def test_replicated_body_excluded(self):
        p = parse_process("!a(x).x<t>")
        env = env_for(p, {"a": parse_type("#3[o2[Unit]]"), "t": parse_type("Unit")})
        assert measure(env, p) == ()

    def test_server_example(self):
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
        assert measure(env, p) == (3, 3)

    def test_matches_structural_fold(self, rng):
        # oracle: fold the tree directly, carrying declared levels
        from conftest import typed_instance

        def fold(q, levels):
            if isinstance(q, Nil):
                return []
            if isinstance(q, Par):
                return fold(q.left, levels) + fold(q.right, levels)
            if isinstance(q, Out):
                return [levels[q.subject]]
            if isinstance(q, RepIn):
                return []
            if isinstance(q, In):
                chan = levels["__env__"].get(q.subject)
                inner = dict(levels)
                for b, t in zip(q.binders, chan.payload):
                    inner[b] = t.level if isinstance(t, ChanT) else -1
                    inner["__env__"] = TypeEnv({**inner["__env__"].bindings, b: t})
                return fold(q.body, inner)
            if isinstance(q, Res):
                inner = dict(levels)
                inner[q.name] = q.annotation.level if isinstance(q.annotation, ChanT) else -1
                inner["__env__"] = TypeEnv({**inner["__env__"].bindings, q.name: q.annotation})
                return fold(q.body, inner)
            raise AssertionError

        for _ in range(100):
            env, p, _ = typed_instance(rng, fuel=6)
            seed = {n: (t.level if isinstance(t, ChanT) else -1) for n, t in env.items()}
            seed["__env__"] = env
            assert measure(env, p) == as_multiset(fold(p, seed))

    def test_reads_declared_levels_not_subsumed(self):
        # the output on q weighs q's declared level even though checking
        # coerces q upward
        p = parse_process("a<q>")
        env = env_for(p, {"a": parse_type("#3[o2[Unit]]"), "q": parse_type("o1[Unit]")})
        assert measure(env, p) == (3,)

    def test_under_plain_input_counted(self):
        p = parse_process("a(x).b<>")
        env = env_for(p, {"a": parse_type("#1[Unit]"), "b": parse_type("#4[Unit]")})
        assert measure(env, p) == (4,)

    def test_defined_on_well_typed_processes_only(self):
        # the measure comes out of the typing walk, so it rejects what check rejects
        p = parse_process("!a(x).a<x>")
        env = env_for(p, {"a": parse_type("#1[o1[Unit]]")})
        with pytest.raises(LevelViolation):
            measure(env, p)
        p = parse_process("a<*>")
        with pytest.raises(CapabilityError):
            measure(env_for(p, {"a": parse_type("i1[Unit]")}), p)
