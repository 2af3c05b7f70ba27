"""The functional/imperative discipline checker."""

from __future__ import annotations

from itertools import permutations, product

import pytest

from piterm.checker import TypeEnv, check, env_for
from piterm.errors import (
    CapabilityError,
    FunctionalInputNotIsolated,
    IllTyped,
    LevelViolation,
    PiError,
)
from piterm.impure import ImpureEnv, check_impure
from piterm.parser import parse_process, parse_type
from piterm.semantics import Verdict, explore, normalize, step
from piterm.syntax import Res, free_names, par


def impure_env(p, gamma_decl, isolated=None, functional=()):
    names = {n.display: n for n in free_names(p)}
    gamma = {}
    fun = set()
    for spelling, ty in gamma_decl.items():
        if spelling in names:
            gamma[names[spelling]] = parse_type(ty)
            if spelling in functional:
                fun.add(names[spelling])
    iso = None
    if isolated is not None:
        spelling, ty = isolated
        iso = (names[spelling], parse_type(ty))
    return ImpureEnv(TypeEnv(gamma), iso, frozenset(fun))


@pytest.mark.parametrize(
    "src, decl, code",
    [
        ("a<*>", {"a": "Nat"}, "CAP"),  # non-channel output subject
        ("a(x).0", {"a": "o1[Unit]"}, "CAP"),  # output-only input subject
        ("!a(x).0", {"a": "o1[Unit]"}, "CAP"),
        ("a.0", {"a": "#1[Nat]"}, "PAY"),  # elided input on a non-Unit channel
        ("a(x, y).0", {"a": "#1[Nat]"}, "PAY"),  # binder count
        ("a<1, 2>", {"a": "#1[Nat]"}, "PAY"),  # value count
        ("a<*>", {"a": "#1[Nat]"}, "PAY"),  # a value that does not fit
    ],
)
def test_shared_rules_reject_with_the_checker_codes(src, decl, code):
    p = parse_process(src)
    with pytest.raises(IllTyped) as exc:
        check_impure(impure_env(p, decl), p)
    assert exc.value.code == code


class TestFunctionalDiscipline:
    def test_divergent_nested_definition_rejected(self):
        # a replicated input on a functional name under an input prefix
        p = parse_process("c(x).!f(y).x<y> | c<f> | f<v>")
        env = impure_env(
            p,
            {"c": "#1[o0[o0[Unit]]]", "f": "o0[o0[Unit]]", "v": "o0[Unit]"},
            functional=("f",),
        )
        with pytest.raises(FunctionalInputNotIsolated):
            check_impure(env, p)

    def test_several_replicated_inputs_on_isolated_name(self):
        p = parse_process("(new f fun:o0[Unit])(!f(x).0 | !f(y).0 | f<*>)")
        assert check_impure(ImpureEnv(), p) == 0

    def test_isolated_name_unusable_in_own_body(self):
        p = parse_process("(new f fun:o0[o0[Unit]])(!f(x).f<x>)")
        with pytest.raises(PiError):
            check_impure(ImpureEnv(), p)

    def test_functional_level_bound_non_strict(self):
        # body weight equals the isolated level: accepted
        p = parse_process("(new f fun:o1[Unit])(!f().b<*> | f<>)")
        env = impure_env(p, {"b": "#1[Unit]"})
        assert check_impure(env, p) == 1  # the request f<> itself weighs 1

    def test_functional_level_bound_still_bounds(self):
        p = parse_process("(new f fun:o0[Unit])(!f().b<*>)")
        env = impure_env(p, {"b": "#1[Unit]"})
        with pytest.raises(LevelViolation):
            check_impure(env, p)

    def test_functional_restriction_needs_output_annotation(self):
        p = parse_process("(new f fun:#1[Unit])(0)")
        with pytest.raises(CapabilityError):
            check_impure(ImpureEnv(), p)

    def test_restriction_swap_retypes(self):
        # the previously isolated name stays usable in output
        p = parse_process("(new f fun:o0[Unit])((new g fun:o0[Unit])(!g().f<> | g<>))")
        assert check_impure(ImpureEnv(), p) == 0


class TestImperativeDiscipline:
    def test_plain_input_needs_strict_level(self):
        p = parse_process("c(x).b<*>")
        env = impure_env(p, {"c": "#1[Unit]", "b": "#1[Unit]"})
        with pytest.raises(LevelViolation):
            check_impure(env, p)
        env2 = impure_env(p, {"c": "#2[Unit]", "b": "#1[Unit]"})
        assert check_impure(env2, p) == 0

    def test_plain_input_weight_resets_to_zero(self):
        p = parse_process("c(x).b<*> | d<*>")
        env = impure_env(p, {"c": "#2[Unit]", "b": "#1[Unit]", "d": "#1[Unit]"})
        assert check_impure(env, p) == 1  # only the top-level output counts

    def test_replicated_imperative_input(self):
        p = parse_process("!c(x).b<*>")
        env = impure_env(p, {"c": "#2[Unit]", "b": "#1[Unit]"})
        assert check_impure(env, p) == 0
        env2 = impure_env(p, {"c": "#1[Unit]", "b": "#1[Unit]"})
        with pytest.raises(LevelViolation):
            check_impure(env2, p)

    def test_imperative_restriction_needs_sharp(self):
        p = parse_process("(new c:o1[Unit])(0)")
        with pytest.raises(CapabilityError):
            check_impure(ImpureEnv(), p)

    def test_output_on_isolated_name(self):
        p = parse_process("f<*>")
        env = impure_env(p, {}, isolated=("f", "o2[Unit]"))
        assert check_impure(env, p) == 2


class TestMixedExample:
    """The mixed functional/imperative process: its core is typable once the
    affected names are functional, and the printed strict bound on imperative
    inputs rejects the full version under every assignment."""

    CORE = "(new u fun:o{ku}[o{j}[Unit]])(!u(x).x<*> | (new v fun:o{kv}[Unit])(!v().u<t> | u<v>))"
    FULL = (
        "(new u fun:o{ku}[o{j}[Unit]])(!u(x).x<*> | "
        "(new v fun:o{kv}[Unit])(!v().u<t> | u<v> | c(y).u<c>))"
    )

    def test_core_typable_with_functional_names(self):
        p = parse_process(self.CORE.format(ku=0, j=0, kv=0))
        env = impure_env(p, {"t": "o0[Unit]"})
        assert check_impure(env, p) == 0

    def test_core_rejected_by_plain_checker(self):
        # with every name imperative the level constraints are circular
        for k, n, m in product(range(3), repeat=3):
            src = f"(new u:#{k}[o{n}[Unit]])(!u(x).x<*> | (new v:#{m}[Unit])(!v().u<t> | u<v>))"
            p = parse_process(src)
            env = env_for(p, {"t": parse_type("o0[Unit]")})
            with pytest.raises(IllTyped):
                check(env, p)

    def test_full_version_sweep(self):
        # exhaustive small-level sweep: no assignment satisfies the printed
        # rules once the imperative client c(y).u<c> is added
        accepted = []
        for ku, j, kv, nc in product(range(4), repeat=4):
            p = parse_process(self.FULL.format(ku=ku, j=j, kv=kv))
            env = impure_env(p, {"t": "o0[Unit]", "c": f"#{nc}[Unit]"})
            try:
                check_impure(env, p)
                accepted.append((ku, j, kv, nc))
            except PiError:
                pass
        assert accepted == []


class TestSubjectReduction:
    """Typability is preserved along reduction up to a congruent rearrangement
    with functional restrictions hoisted first."""

    CORPUS = [
        ("(new f fun:o0[Unit])(!f().0 | f<>)", {}),
        ("(new f fun:o1[Unit])(!f().b<*> | f<> | f<>)", {"b": "#1[Unit]"}),
        ("(new c:#1[Unit])(c().0 | c<>)", {}),
        (
            "(new f fun:o0[Unit])((new c:#1[o0[Unit]])(c(x).x<> | c<f> | !f().0))",
            {},
        ),
        ("(new f fun:o0[Unit])(!f().0 | (new g fun:o0[Unit])(!g().f<> | g<>))", {}),
    ]

    @staticmethod
    def congruent_weights(env: ImpureEnv, proc) -> list[int]:
        """Weights of congruent rearrangements that typecheck.

        For every restriction order, each restriction is sunk to the smallest
        parallel group that mentions its name; functional definitions often
        need that narrowing because hoisting them flat changes which name is
        isolated where.
        """
        n = normalize(proc)
        weights = []
        orders = set(permutations(range(len(n.restrictions)))) if n.restrictions else {()}
        for order in orders:
            items = list(n.components)
            for idx in reversed(order):
                name, ann, functional = n.restrictions[idx]
                users = [c for c in items if name in free_names(c)]
                rest = [c for c in items if name not in free_names(c)]
                items = rest + [Res(name, ann, functional, par(*users))]
            try:
                weights.append(check_impure(env, par(*items)))
            except PiError:
                continue
        return weights

    def test_preserved_up_to_congruence(self):
        for src, gamma in self.CORPUS:
            p = parse_process(src)
            env = impure_env(p, gamma)
            w = check_impure(env, p)
            frontier = [p]
            seen = set()
            while frontier:
                current = frontier.pop()
                for succ in step(current):
                    if succ.key in seen:
                        continue
                    seen.add(succ.key)
                    weights = self.congruent_weights(env, succ.rebuild())
                    assert weights, f"{src}: successor lost typability"
                    assert min(weights) <= w
                    frontier.append(succ.rebuild())

    def test_certified_termination(self):
        for src, gamma in self.CORPUS:
            p = parse_process(src)
            env = impure_env(p, gamma)
            check_impure(env, p)
            report = explore(p, 10000, 10000)
            assert report.verdict is Verdict.TERMINATED
