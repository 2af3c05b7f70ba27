"""Normalization, reduction, exploration and measure certification."""

from __future__ import annotations

import pytest

from piterm import checker
from piterm.checker import TypeEnv, env_for
from piterm.measure import multiset_greater
from piterm.parser import parse_process, parse_type
from piterm.semantics import (
    Verdict,
    certified_run,
    congruent,
    explore,
    normalize,
    step,
)
from piterm.syntax import In, Out, Res, pretty_process

from conftest import count_calls, typed_instance


class TestNormalize:
    def test_drops_nil(self):
        n = normalize(parse_process("0 | a<*>"))
        assert n.restrictions == ()
        assert len(n.components) == 1
        assert isinstance(n.components[0], Out)

    def test_scope_extrusion(self):
        n = normalize(parse_process("a<*> | new b:#1[Unit]. b().0"))
        assert [r[0].display for r in n.restrictions] == ["b"]
        kinds = sorted(type(c).__name__ for c in n.components)
        assert kinds == ["In", "Out"]

    def test_associativity(self):
        assert congruent(parse_process("(a<*>|b<*>)|c<*>"), parse_process("a<*>|(b<*>|c<*>)"))

    def test_commutativity(self):
        assert congruent(parse_process("a<*> | b<*>"), parse_process("b<*> | a<*>"))

    def test_unused_restriction_dropped(self):
        assert congruent(parse_process("new a:#1[Unit]. b<*>"), parse_process("b<*>"))

    def test_restriction_swap(self):
        p = parse_process("new a:#1[Unit]. new b:#2[Unit]. (a<> | b<>)")
        q = parse_process("new b:#2[Unit]. new a:#1[Unit]. (a<> | b<>)")
        assert congruent(p, q)

    def test_alpha_invariance(self):
        assert congruent(parse_process("new a:#1[Unit]. a<>"), parse_process("new c:#1[Unit]. c<>"))

    def test_annotations_distinguish(self):
        assert not congruent(
            parse_process("new a:#1[Unit]. a<>"), parse_process("new a:#2[Unit]. a<>")
        )

    def test_different_processes_distinguished(self):
        assert not congruent(parse_process("a<*>"), parse_process("b<*>"))
        assert not congruent(parse_process("a(x).0"), parse_process("!a(x).0"))

    def test_normalizes_under_prefixes(self):
        p = parse_process("a(x).(0 | (b<> | 0))")
        q = parse_process("a(x).b<>")
        assert congruent(p, q)

    def test_symmetric_components(self):
        p = parse_process("new a:#1[o0[Unit]]. new b:#1[o0[Unit]]. (a<c> | b<c>)")
        q = parse_process("new b:#1[o0[Unit]]. new a:#1[o0[Unit]]. (b<c> | a<c>)")
        assert congruent(p, q)


class TestStep:
    def succs(self, src: str) -> list[str]:
        return [pretty_process(s.rebuild()) for s in step(parse_process(src))]

    def test_plain_communication(self):
        assert self.succs("a(x).x<t> | a<v>") == ["v<t>"]

    def test_replicated_communication(self):
        out = self.succs("!a(x).b<x> | a<v>")
        assert out == ["b<v> | !a(x).b<x>"]

    def test_no_redex(self):
        assert self.succs("a<*> | b<*>") == []
        assert self.succs("a(x).0 | b<*>") == []

    def test_unit_abbreviation_fires(self):
        assert self.succs("a<> | a.b<>") == ["b<>"]
        assert self.succs("a<*> | a().b<>") == ["b<>"]

    def test_arity_mismatch_is_stuck(self):
        assert self.succs("a<v,w> | a(x).x<>") == []

    def test_arithmetic_evaluated_at_send(self):
        out = self.succs("a<1+2> | a(n).b<n*2>")
        assert out == ["b<3 * 2>"]
        out2 = step(step(parse_process("a<1+2> | a(n).b<n*2> | b(m).c<m+m>"))[0])
        assert [pretty_process(s.rebuild()) for s in out2] == ["c<6 + 6>"]

    def test_ill_sorted_substitution_skipped(self):
        # star cannot become an output subject
        assert self.succs("a<*> | a(x).x<t>") == []

    def test_multiple_redexes(self):
        out = self.succs("a<> | a.b<> | a.c<>")
        assert len(out) == 2

    def test_scope_extrusion_after_fire(self):
        out = step(parse_process("a(x).(new b:#1[Unit]. x<b>) | a<v>"))
        assert len(out) == 1
        succ = out[0]
        assert [r[0].display for r in succ.restrictions] == ["b"]

    def test_commutes_with_congruence(self, rng):
        for _ in range(60):
            env, p, _ = typed_instance(rng, fuel=6)
            n = normalize(p)
            # rebuild with shuffled component order: still congruent
            shuffled = list(n.components)
            rng.shuffle(shuffled)
            from piterm.syntax import par

            q = par(*shuffled)
            for name, ann, functional in reversed(n.restrictions):
                q = Res(name, ann, functional, q)
            assert congruent(p, q)
            assert {s.key for s in step(p)} == {s.key for s in step(q)}


class TestExplore:
    def test_single_step_terminates(self):
        r = explore(parse_process("a(x).x<t> | a<v>"), 100, 100)
        assert r.verdict is Verdict.TERMINATED
        assert r.steps_explored == 1

    def test_replicated_echo_diverges(self):
        r = explore(parse_process("!a(x).a<x> | a<v>"), 100, 100)
        assert r.verdict is Verdict.DIVERGES
        assert r.witness is not None
        assert len(r.witness) >= 2
        assert r.witness[0] == r.witness[-1]

    def test_two_phase_loop_detected(self):
        r = explore(parse_process("!a(x).b<x> | !b(y).a<y> | a<v>"), 100, 100)
        assert r.verdict is Verdict.DIVERGES

    def test_nil_terminates_immediately(self):
        r = explore(parse_process("0"), 10, 10)
        assert r.verdict is Verdict.TERMINATED
        assert r.steps_explored == 0

    def test_bound_exceeded_reported(self):
        # an unfolding chain longer than the state budget
        src = "a1<> " + "".join(f"| a{i}.a{i+1}<>" for i in range(1, 30))
        r = explore(parse_process(src), max_states=5, max_depth=100)
        assert r.verdict is Verdict.BOUND_EXCEEDED
        r2 = explore(parse_process(src), max_states=100, max_depth=3)
        assert r2.verdict is Verdict.BOUND_EXCEEDED
        r3 = explore(parse_process(src), max_states=100, max_depth=100)
        assert r3.verdict is Verdict.TERMINATED

    def test_deterministic_reports(self):
        src = "a<> | a.b<> | a.c<> | b.0 | c.0"
        r1 = explore(parse_process(src), 100, 100)
        r2 = explore(parse_process(src), 100, 100)
        assert (r1.verdict, r1.steps_explored, r1.states_explored) == (
            r2.verdict,
            r2.steps_explored,
            r2.states_explored,
        )


class TestExploreFuzz:
    def test_untyped_fuzz_never_crashes(self, rng):
        from test_syntax import random_ast

        for _ in range(250):
            p = random_ast(rng, 4)
            r1 = explore(p, max_states=300, max_depth=300)
            r2 = explore(p, max_states=300, max_depth=300)
            assert (r1.verdict, r1.steps_explored, r1.states_explored, r1.max_depth) == (
                r2.verdict,
                r2.steps_explored,
                r2.states_explored,
                r2.max_depth,
            )
            if r1.verdict is Verdict.DIVERGES:
                assert r1.witness and r1.witness[0] == r1.witness[-1]


class TestCertifiedRun:
    def server(self):
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

    def test_server_certifies(self):
        env, p = self.server()
        r = certified_run(env, p, 1000, 1000)
        assert r.verdict is Verdict.TERMINATED
        assert r.measure_trace
        for edge in r.measure_trace:
            assert multiset_greater(edge.src_measure, edge.dst_measure)

    def test_one_typing_walk_per_state(self, monkeypatch):
        env, p = self.server()
        walks = count_calls(monkeypatch, checker.derive)
        r = certified_run(env, p, 1000, 1000)
        assert r.states_explored > 1
        # one walk per reached state, plus the precondition check of the start
        assert len(walks) == r.states_explored + 1

    def test_unit_race_trace(self):
        p = parse_process("a<*> | a<*> | a().0")
        env = env_for(p, {"a": parse_type("#2[Unit]")})
        r = certified_run(env, p, 100, 100)
        assert r.verdict is Verdict.TERMINATED
        assert [(e.src_measure, e.dst_measure) for e in r.measure_trace] == [((2, 2), (2,))]

    def test_nil(self):
        r = certified_run(TypeEnv(), parse_process("0"), 10, 10)
        assert r.verdict is Verdict.TERMINATED
        assert r.steps_explored == 0

    def test_untyped_start_rejected(self):
        from piterm.errors import IllTyped

        with pytest.raises(IllTyped):
            certified_run(TypeEnv(), parse_process("a<*>"), 10, 10)

    def test_trace_lines_render(self):
        env, p = self.server()
        r = certified_run(env, p, 1000, 1000)
        line = r.measure_trace[0].render(0)
        assert line.startswith("STEP 0: ")
        assert " --> " in line and "; measure {" in line
