"""Normalization, reduction, exploration and measure certification."""

from __future__ import annotations

import contextlib
import gc
import io
import random
import tempfile
import time
import tracemalloc
from pathlib import Path

import pytest

from piterm import checker, semantics
from piterm.checker import TypeEnv
from piterm.errors import CertificationFailure, PiError
from piterm.inference import infer
from piterm.measure import measure, multiset_greater
from piterm.parser import parse_process, parse_type
from piterm.semantics import (
    Verdict,
    certified_run,
    explore,
    normalize,
    step,
)
from piterm.syntax import (
    NIL,
    UNIT,
    ChanT,
    In,
    Name,
    NameRef,
    Out,
    Par,
    Process,
    RepIn,
    Res,
    alpha_key,
    free_names,
    fresh,
    par,
    pretty_process,
    pretty_type,
)

from conftest import FIXTURES, assert_golden, count_calls, env_for, oracle_key, scope_parts, typed_instance
from test_syntax import cyclic_garbage, random_ast


def congruent(p: Process, q: Process) -> bool:
    return normalize(p).key == normalize(q).key


def scoped_process(rng: random.Random, pool: list[Name], top: int, body_res: int, depth: int) -> Process:
    """`top` restrictions over a few components drawn from them and `pool`;
    prefix bodies are scopes of their own, with up to `body_res` restrictions,
    and use the enclosing restricted names too."""
    own = [fresh("r") for _ in range(top)]
    names = pool + own
    comps: list[Process] = []
    for _ in range(rng.randint(1, max(2, top + 1))):
        subject = rng.choice(names)
        if depth > 0 and rng.random() < 0.5:
            binders = tuple(fresh("x") for _ in range(rng.randint(0, 1)))
            inner = rng.randint(0, body_res)
            body = scoped_process(rng, names + list(binders), inner, body_res, depth - 1)
            comps.append(rng.choice([In, RepIn])(subject, binders, body))
        else:
            payload = tuple(NameRef(rng.choice(names)) for _ in range(rng.randint(0, 2)))
            comps.append(Out(subject, payload))
    p = par(*comps)
    for name in reversed(own):
        ann = rng.choice([None, None, ChanT("#", 1, (UNIT,))])
        p = Res(name, ann, False, p)
    return p


def edges_process(rng: random.Random, free: Name, n: int, m: int) -> Process:
    """`n` restricted names joined by `m` edges `x<y>`, some of them inside the
    bodies of replicated inputs on `free`: regular shapes, rich in names that
    look alike without being exchangeable."""
    names = [fresh("r") for _ in range(n)]
    comps: list[Process] = []
    for _ in range(m):
        edge = Out(rng.choice(names), (NameRef(rng.choice(names)),))
        roll = rng.random()
        if roll < 0.6:
            comps.append(edge)
        else:
            z = fresh("z")
            body = par(edge, Out(z, (NameRef(edge.subject),))) if roll < 0.8 else edge
            comps.append(RepIn(free, (z,), body))
    p = par(*comps)
    for name in names:
        p = Res(name, None, False, p)
    return p


def congruent_variant(rng: random.Random, p: Process) -> Process:
    """A congruent copy of `p`: in every scope the restrictions and components
    are shuffled, some restrictions are sunk onto the components that use
    them, and every bound name is renamed with a new spelling."""

    def rename(n: Name, ren: dict[int, Name]) -> Name:
        return ren.get(n.id, n)

    def component(c: Process, ren: dict[int, Name]) -> Process:
        if isinstance(c, Out):
            payload = tuple(NameRef(rename(v.name, ren)) if isinstance(v, NameRef) else v for v in c.payload)
            return Out(rename(c.subject, ren), payload)
        inner = dict(ren)
        binders = tuple(fresh(rng.choice("xyzuvw")) for _ in c.binders)
        inner.update({b.id: nb for b, nb in zip(c.binders, binders)})
        return type(c)(rename(c.subject, ren), binders, scope(c.body, inner))

    def bracket(items: list[Process]) -> Process:
        if not items:
            return NIL
        if len(items) == 1:
            return Par(items[0], NIL) if rng.random() < 0.2 else items[0]
        cut = rng.randint(1, len(items) - 1)
        return Par(bracket(items[:cut]), bracket(items[cut:]))

    def scope(q: Process, ren: dict[int, Name]) -> Process:
        res, comps = scope_parts(q)
        ren = dict(ren)
        for r in res:
            ren[r.name.id] = fresh(rng.choice(["r", "s", "t", "r0", "r1"]))
        items = [component(c, ren) for c in comps]
        rng.shuffle(items)
        rng.shuffle(res)
        for r in res:
            name = ren[r.name.id]
            if rng.random() < 0.5:
                users = [c for c in items if name in free_names(c)]
                items = [c for c in items if name not in free_names(c)] + [Res(name, r.annotation, r.functional, bracket(users))]
            else:
                items = [Res(name, r.annotation, r.functional, bracket(items))]
        rng.shuffle(items)
        return bracket(items)

    return scope(p, {})


def count_restrictions(p: Process) -> int:
    if isinstance(p, Par):
        return count_restrictions(p.left) + count_restrictions(p.right)
    if isinstance(p, (In, RepIn)):
        return count_restrictions(p.body)
    if isinstance(p, Res):
        return 1 + count_restrictions(p.body)
    return 0


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

    def test_body_ordered_under_enclosing_labels(self):
        # the body's components used to be sorted by the spelling of r0 and
        # r1 before their labels were known, so the swapped copy split
        p = parse_process("(new r1)((new r0)(b(x).r1<x> | !r1(y).(r0<b> | r1<r1>) | b<>))")
        q = parse_process("(new r0)((new r1)(b(x).r0<x> | !r0(y).(r1<b> | r0<r0>) | b<>))")
        assert congruent(p, q)

    def test_restricted_search_leaves_no_cyclic_garbage(self):
        # the shape of the `restricted/*` benchmark family: tied clusters
        p = parse_process("(new c)(c<> | c().0 | c().0) | (new d)(d<> | d().0 | d().0) | (new e)(e<> | e().0 | e().0)")
        n, garbage = cyclic_garbage(normalize, p)
        assert garbage == 0
        assert len(n.restrictions) == 3

    def test_ring_is_not_a_line(self):
        ring = parse_process("(new a)(new b)(new c)(a<b> | b<c> | c<a>)")
        assert congruent(ring, parse_process("(new c)(new a)(new b)(b<c> | a<b> | c<a>)"))
        assert not congruent(ring, parse_process("(new a)(new b)(new c)(a<b> | b<c> | c<c>)"))
        assert not congruent(ring, parse_process("(new a)(new b)(a<b> | b<a>) | (new c)(c<c>)"))


class TestExactness:
    def test_alpha_renamed_shuffles_congruent(self):
        rng = random.Random(5)
        a, b = fresh("a"), fresh("b")
        for top in range(1, 13):
            for _ in range(10):
                p = scoped_process(rng, [a, b], top, 2, 2)
                assert congruent(p, congruent_variant(rng, p)), pretty_process(p)
            for _ in range(20):
                p = edges_process(rng, a, top, rng.randint(top, 2 * top))
                assert congruent(p, congruent_variant(rng, p)), pretty_process(p)

    def test_keys_agree_with_brute_force(self):
        rng = random.Random(11)
        a = fresh("a")
        procs: list[Process] = []
        while len(procs) < 900:
            p = scoped_process(rng, [a], rng.randint(0, 3), 1, 2)
            if count_restrictions(p) <= 5:
                procs += [p, congruent_variant(rng, p)]
        for n in range(2, 6):
            for _ in range(60):
                p = edges_process(rng, a, n, rng.randint(n - 1, 2 * n))
                procs += [p, congruent_variant(rng, p)]
        pairs = {(normalize(p).key, oracle_key(p)) for p in procs}
        keys = {k for k, _ in pairs}
        oracle = {o for _, o in pairs}
        # equal keys exactly when the oracle's are equal
        assert len(keys) == len(oracle) == len(pairs)
        assert len(pairs) < len(procs) // 2

    def test_one_symmetric_cluster_of_twelve(self):
        n = 12
        inner = "!a(x).(" + " | ".join(f"r{i}<>" for i in range(n)) + ")"
        comps = " | ".join([inner] + [f"r{i}().0" for i in range(n)])
        text = "".join(f"(new r{i})(" for i in range(n)) + comps + ")" * n
        started = time.perf_counter()
        normalize(parse_process(text))
        # 12! leaves would take hours; the exchanges of two names prune them all
        assert time.perf_counter() - started < 2.0

    def test_twelve_independent_channels(self):
        text = " | ".join(f"(new c{i})(c{i}<> | c{i}().0 | c{i}().0)" for i in range(12))
        started = time.perf_counter()
        n = normalize(parse_process(text))
        assert time.perf_counter() - started < 0.5
        assert len(n.restrictions) == 12


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

    def test_names_spelled_alike_are_not_copies(self):
        # two free names print alike, so their outputs serialise alike, but
        # only one of them has a receiver
        a1, a2 = fresh("a"), fresh("a")
        state = normalize(par(Out(a1, ()), Out(a2, ()), In(a1, (), NIL)))
        assert [s.key for s in step(state)] == [s.key for s in step_by_rebuilding(state)] == ["new[];(out f:a [])"]

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


def step_by_rebuilding(np: semantics.NormalProcess) -> list[semantics.NormalProcess]:
    """`step` without a component store: every successor is rebuilt around the
    fired body and normalized whole."""
    succs = {}
    for i, sender in enumerate(np.components):
        if not isinstance(sender, Out):
            continue
        for j, receiver in enumerate(np.components):
            if i == j or not isinstance(receiver, (In, RepIn)) or receiver.subject != sender.subject:
                continue
            body = semantics._fire(sender, receiver)
            if body is None:
                continue
            rest = [c for k, c in enumerate(np.components) if k not in (i, j)]
            if isinstance(receiver, RepIn):
                rest.append(receiver)
            succ = normalize(semantics._wrap(np.restrictions, rest + [body]))
            succs[succ.key] = succ
    return [succs[k] for k in sorted(succs)]


class TestIncrementalStep:
    STATES = 40  # states reached per process, breadth first; nearly all reach fewer

    def processes(self) -> list[Process]:
        rng = random.Random(23)
        procs = [parse_process(pi.read_text()) for pi in sorted(FIXTURES.glob("*.pi"))]
        procs += [random_ast(rng, rng.randrange(3, 7)) for _ in range(200)]
        a, b = fresh("a"), fresh("b")
        procs += [scoped_process(rng, [a, b], rng.randint(0, 4), 2, 2) for _ in range(60)]
        procs += [typed_instance(rng, fuel=rng.randrange(6, 13))[1] for _ in range(150)]
        # runs of congruent components, binders spelled apart so that the copy kept shows in print
        procs += [parse_process(src) for src in self.COPIES]
        procs += [par(p, p) for p in (typed_instance(rng, fuel=rng.randrange(6, 13))[1] for _ in range(40))]
        return procs

    COPIES = [
        "a<v> | a<v> | a(x).x<> | a(y).y<> | !v(z).0",
        "a<v> | a<w> | a<v> | a(x).x<> | !a(u).u<> | a(y).y<> | !a(u1).u1<> | v(z).0 | w().0",
        "(new c)(c<v> | c<v> | c(x).x<> | c(y).y<>) | v().0 | v().0",
        "a<> | a<> | a().(new r)(r<> | r().b<>) | a().(new s)(s<> | s().b<>) | b().0 | b().0",
        "!a(x).(a<x> | a<x>) | a<v> | a(y).b<y> | a(z).b<z>",
    ]

    def test_successors_equal_rebuilt_ones(self):
        for p in self.processes():
            canon = semantics._Canon()  # one store for every state of the run, as in `explore`
            root = normalize(p)
            queue, seen = [root], {root.key}
            for state in queue:
                got = step(state, canon)
                want = step_by_rebuilding(state)
                assert [s.key for s in got] == [s.key for s in want], pretty_process(state.rebuild())
                assert [pretty_process(s.rebuild()) for s in got] == [pretty_process(s.rebuild()) for s in want]
                for succ in got:
                    again = normalize(succ.rebuild())
                    assert (again.key, again.sig, again.components) == (succ.key, succ.sig, succ.components)
                    if succ.key not in seen and len(seen) < self.STATES:
                        seen.add(succ.key)
                        queue.append(succ)

    def test_restriction_free_run_canonicalises_the_root_only(self, monkeypatch):
        src = " | ".join(f"a{k}<> | a{k}().0" for k in range(8))
        canonical = count_calls(monkeypatch, semantics._canonical)
        r = explore(parse_process(src), 1000, 1000)
        assert (r.verdict, r.states_explored) == (Verdict.TERMINATED, 2**8)
        assert len(canonical) == 1

    def test_step_kills_a_top_level_restriction(self):
        state = normalize(parse_process("(new c)(c<> | c().0)"))
        assert len(state.restrictions) == 1
        (succ,) = step(state)
        assert (succ.restrictions, succ.components, succ.key) == ((), (), "new[];")
        assert [s.key for s in step_by_rebuilding(state)] == [succ.key]

    def test_step_keeps_the_components_that_did_not_fire(self):
        state = normalize(parse_process("(new c)(c<> | c().d<c> | !e(x).x<> | e<c>)"))
        for succ in step(state):
            assert {id(c) for c in state.components} & {id(c) for c in succ.components}


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

    @pytest.mark.parametrize("max_states,max_depth", [(0, 10), (-3, 10), (10, -1)])
    def test_bound_below_its_least_raises(self, monkeypatch, max_states, max_depth):
        # such bounds answered Diverges from 1 state, or BoundExceeded after 0 steps
        p = parse_process((FIXTURES / "omega.pi").read_text())
        normalized = count_calls(monkeypatch, semantics.normalize)
        with pytest.raises(ValueError, match="max_states must be at least 1|max_depth must be at least 0"):
            explore(p, max_states, max_depth)
        assert normalized == []

    def test_least_bounds_accepted(self):
        r = explore(parse_process((FIXTURES / "omega.pi").read_text()), 1, 0)
        assert (r.verdict, r.states_explored, r.steps_explored) == (Verdict.BOUND_EXCEEDED, 1, 0)

    def test_one_normalize_per_successor(self, monkeypatch):
        # prefix bodies with restrictions and several components are ordered
        # inside the one key walk, not by canonicalising them on their own
        p = parse_process(
            "!a(x).(new r)(new s)(r<x> | s<x> | r(y).s(z).b<y>) | a<c> | a<d> | !b(w).(new t)(t<w> | t(u).0)"
        )
        normalized = count_calls(monkeypatch, semantics._canonical)
        fired = []
        fire = semantics._Canon.fire

        def counted_fire(canon, sender, receiver):
            # the store's `fire` gives a successor's body however often `_fire` runs
            body = fire(canon, sender, receiver)
            if body is not None:
                fired.append(body)
            return body

        monkeypatch.setattr(semantics._Canon, "fire", counted_fire)
        r = explore(p, 1000, 1000)
        assert r.verdict is Verdict.TERMINATED and r.states_explored > 5
        assert len(normalized) == 1 + len(fired)

    def test_congruent_senders_fire_once(self):
        # each state holds one more copy of a<v>; firing every copy took 3 s to 200 states
        p = parse_process("!a(x).(a<x> | a<x>) | a<v>")
        start = time.perf_counter()
        r = explore(p, 200, 1000)
        assert (r.verdict, r.states_explored, r.steps_explored) == (Verdict.BOUND_EXCEEDED, 200, 199)
        assert time.perf_counter() - start < 0.5

    def test_deterministic_reports(self):
        src = "a<> | a.b<> | a.c<> | b.0 | c.0"
        r1 = explore(parse_process(src), 100, 100)
        r2 = explore(parse_process(src), 100, 100)
        assert (r1.verdict, r1.steps_explored, r1.states_explored) == (
            r2.verdict,
            r2.steps_explored,
            r2.states_explored,
        )


class TestStateStore:
    """States are stored as tuples of shared serials, numbered breadth first."""

    @staticmethod
    def bytes_per_state(k: int) -> float:
        """The `tracemalloc` peak of `explore` on k independent pairs, with
        the cyclic collector paused, over the states it stores."""
        p = parse_process(" | ".join(f"a{i}<> | a{i}().0" for i in range(k)))
        explore(p, 2**k, 2**k)  # one-off allocations (interned text, caches) go to this run
        enabled = gc.isenabled()
        gc.disable()
        # a full collection also empties the free lists of tuples, lists and
        # dicts, whose reuse `tracemalloc` would not see
        gc.collect()
        tracemalloc.start()
        try:
            r = explore(p, 2**k, 2**k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            if enabled:
                gc.enable()
        assert (r.verdict, r.states_explored) == (Verdict.TERMINATED, 2**k)
        return peak / r.states_explored

    def test_bytes_per_state(self):
        # a state holds references to its components' serials, not a joined
        # key and a copy of it per table: 525 and 536 B/state, against 1202
        # and 1491 B/state when every state kept its key text
        at8, at10 = self.bytes_per_state(8), self.bytes_per_state(10)
        assert at8 <= 700
        assert at10 <= 1.15 * at8

    def test_runs_build_no_key_text(self, monkeypatch):
        reads = []
        key = semantics.NormalProcess.key

        def counted(np):
            reads.append(np)
            return key.fget(np)

        monkeypatch.setattr(semantics.NormalProcess, "key", property(counted))
        for pi in sorted(FIXTURES.glob("*.pi")):
            explore(parse_process(pi.read_text()), 500, 500)
        explore(parse_process(" | ".join(f"a{i}<> | a{i}().0" for i in range(6))), 100, 100)
        env, p = TestCertifiedRun().server()
        assert certified_run(env, p, 1000, 1000).verdict is Verdict.TERMINATED
        assert reads == []
        normalize(p).key  # the counter counts
        assert len(reads) == 1

    # six independent redexes in the three shapes of the benchmark's pairs
    PAIRS_6 = "a0<> | a0().0 | a1<*> | a1(x).0 | a2<> | a2 | a3<> | a3().0 | a4<*> | a4(y).0 | a5<> | a5"

    def test_a_state_reached_again_is_the_stored_object(self, monkeypatch):
        made = []  # every state object of the run, kept so that no id is reused
        real = semantics.step

        def recorded(state, canon=None):
            succs = real(state, canon)
            made.extend(succs if made else [state, *succs])
            for succ in succs:
                n = canon.index.get(succ.sig)
                assert n is None or succ is canon.states[n]
            return succs

        monkeypatch.setattr(semantics, "step", recorded)
        r = explore(parse_process(self.PAIRS_6), 100, 100)
        assert (r.verdict, r.states_explored, r.steps_explored) == (Verdict.TERMINATED, 2**6, 6 * 2**6 // 2)
        # each of the 129 edges to a state reached before gives the stored object
        assert len(made) == 1 + r.steps_explored
        assert len({id(s) for s in made}) == r.states_explored

    def test_cycle_search_only_after_an_edge_back(self, monkeypatch):
        # with every edge one level deeper, no path repeats a state
        searched = count_calls(monkeypatch, semantics._find_cycle)
        fixtures = [pi for pi in sorted(FIXTURES.glob("*.pi")) if pi.stem != "omega"]
        reports = [explore(parse_process(pi.read_text()), 500, 500) for pi in fixtures]
        reports.append(explore(parse_process(self.PAIRS_6), 100, 100))
        reports.append(certified_run(*TestCertifiedRun().server(), 1000, 1000))
        assert len(reports) == 7 and {r.verdict for r in reports} == {Verdict.TERMINATED}
        replicator = explore(parse_process("!a(x).(a<x> | a<x>) | a<v>"), 15, 100)
        assert (replicator.verdict, replicator.states_explored) == (Verdict.BOUND_EXCEEDED, 15)
        assert searched == []
        echo = explore(parse_process("!e(x).e<x> | e<v> | a<> | a().0"), 100, 100)
        assert (echo.verdict, echo.witness) == (Verdict.DIVERGES, ["a().0 | (a<> | (e<v> | !e(x).e<x>))"] * 2)
        assert len(searched) == 1


class TestExploreFuzz:
    def test_untyped_fuzz_never_crashes(self, rng):
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

    @pytest.mark.parametrize("max_states,max_depth", [(0, 1000), (1000, -1)])
    def test_bound_below_its_least_raises_before_the_typing(self, monkeypatch, max_states, max_depth):
        # the start process is ill typed: the bounds are checked first
        p = parse_process("a<*>")
        env = env_for(p, {"a": parse_type("#1[o1[Unit]]")})
        with pytest.raises(PiError):
            certified_run(env, p, 1000, 1000)
        walks = count_calls(monkeypatch, checker.derive)
        with pytest.raises(ValueError):
            certified_run(env, p, max_states, max_depth)
        assert walks == []

    def recorded_steps(self, monkeypatch) -> list:
        """Each state `step` is called on, in order, with its successors."""
        steps = []
        real = semantics.step

        def recorded(state, canon=None):
            succs = real(state, canon)
            steps.append((state, succs))
            return succs

        monkeypatch.setattr(semantics, "step", recorded)
        return steps

    def test_one_typing_walk_per_state(self, monkeypatch):
        env, p = self.server()
        steps = self.recorded_steps(monkeypatch)
        walks = count_calls(monkeypatch, checker._weigh)
        r = certified_run(env, p, 1000, 1000)
        assert r.states_explored > 1 and len(steps) == r.states_explored
        # the precondition check of the start, then one walk per distinct
        # component of the reached states, each on that component alone
        components = {id(c): c for state, _ in steps for c in state.components}
        assert walks[0][1] is p
        typed = [args[1] for args in walks[1:]]
        assert len(typed) == len(components) and {id(c) for c in typed} == set(components)

    def test_each_stored_state_printed_once(self, monkeypatch):
        env, p = self.server()
        steps = self.recorded_steps(monkeypatch)
        prints = count_calls(monkeypatch, semantics.pretty_process)
        r = certified_run(env, p, 1000, 1000)
        assert r.steps_explored > r.states_explored > 1
        # every state once, plus the destination of each edge to a state
        # reached before that holds other objects than the stored state, or
        # in another order (the root has an edge, and no bound cut the run)
        def objects(state) -> list[int]:
            return [id(x) for x in (*state.restrictions, *state.components)]

        stored = {state.sig: state for state, _ in steps}
        reprints = sum(objects(succ) != objects(stored[succ.sig]) for _, succs in steps for succ in succs)
        assert len(prints) == r.states_explored + reprints
        revisits = r.steps_explored - (r.states_explored - 1)
        assert 0 < reprints < revisits

    def test_measures_equal_those_of_the_printed_states(self, monkeypatch):
        # on every edge, the measures a run keeps by components are those of
        # the edge's printed states, read back and typed whole
        runs, instances = [], []
        sources = [pi.read_text() for pi in sorted(FIXTURES.glob("*.pi"))] + self.RESTRICTED
        for src in sources:
            with contextlib.suppress(PiError):  # not typable, so not certifiable
                typed = infer(parse_process(src))
                runs.append((typed.env, typed.process))
        rng = random.Random(26)
        while len(instances) < 200:
            env, p, _ = typed_instance(rng, fuel=rng.randrange(6, 13))
            spellings = [n.display for n in env.bindings]
            # an edge names free names by spelling, as an environment file does
            if len(set(spellings)) == len(spellings):
                instances.append((env, p))
        runs += instances
        whole = count_calls(monkeypatch, semantics.measure)
        edges = restricted = 0
        for env, p in runs:
            types = {n.display: t for n, t in env.bindings.items()}
            for edge in certified_run(env, p, 200, 200).measure_trace:
                for text, kept in ((edge.src, edge.src_measure), (edge.dst, edge.dst_measure)):
                    q = parse_process(text)
                    assert kept == measure(env_for(q, types), q), text
                edges += 1
                restricted += edge.src.startswith("new ")
        assert whole == []  # no state was measured whole
        assert edges > 350 and restricted > 100

    # restrictions hoisted from fired bodies, so states hold fresh restricted names
    RESTRICTED = [
        "!f1(n,r).r<n*n> | !f2(m,r).(new s)(f1<m+1,s> | s(x).r<x+1>)"
        " | !g(p,x,r).(new s)(p<x,s> | s(y).p<y,r>) | g<f1,4,t1> | g<f2,5,t2>",
        "(new c)(c<> | c().0 | c().0) | (new d)(d<> | d().0 | d().0) | (new e)(e<> | e().e<> | e().0)",
        "!a(x).(new r)(r<x> | r(y).b<y>) | a<v> | a<w> | !b(z).z<>",
    ]

    def test_shared_sender_objects_match_the_parsed_twin(self):
        # a library-built process may hold one sender object twice, so that a
        # redex fires again from a successor; firing a body that restricts a
        # name, or binds one, must still give the states of the parsed twin
        a, b, c, d, r, y = (fresh(s) for s in "abcdry")
        restricted = Res(r, ChanT("#", 0, (UNIT,)), False, Par(Out(r, ()), In(r, (), NIL)))
        binding = Par(In(c, (y,), Out(d, (NameRef(y),))), Out(c, (NameRef(b),)))
        types = {"a": "#2[Unit]", "b": "#0[Unit]", "c": "#1[#0[Unit]]", "d": "#1[#0[Unit]]"}
        for body, twin in [
            (restricted, "a<> | a<> | !a().(new r:#0[Unit])(r<> | r().0)"),
            (binding, "a<> | a<> | !a().(c(y).d<y> | c<b>)"),
        ]:
            sender = Out(a, ())
            built, parsed = Par(Par(sender, sender), RepIn(a, (), body)), parse_process(twin)
            reports = [explore(built, 100, 100), explore(parsed, 100, 100)]
            for q in (built, parsed):
                env = env_for(q, {k: parse_type(t) for k, t in types.items()})
                reports.append(certified_run(env, q, 100, 100))
            got = [(rep.verdict, rep.states_explored, rep.steps_explored, rep.max_depth) for rep in reports]
            assert got[0] == got[1] == got[2] == got[3] and got[0][0] is Verdict.TERMINATED, twin
            assert [e.render(0) for e in reports[2].measure_trace] == [e.render(0) for e in reports[3].measure_trace]

    def test_state_reached_again_prints_itself(self):
        # both paths reach one state, which each spells with its tied
        # components in its own order
        p = parse_process("x<> | x().d().(b<> | c<>) | y<> | y().d().(c<> | b<>)")
        types = {"x": "#2[Unit]", "y": "#2[Unit]", "d": "#1[Unit]", "b": "#0[Unit]", "c": "#0[Unit]"}
        env = env_for(p, {n: parse_type(t) for n, t in types.items()})
        r = certified_run(env, p, 100, 100)
        assert [e.dst for e in r.measure_trace[2:]] == [
            "d().(c<> | b<>) | d().(b<> | c<>)",
            "d().(b<> | c<>) | d().(c<> | b<>)",
        ]

    def test_unit_race_trace(self):
        p = parse_process("a<*> | a<*> | a().0")
        env = env_for(p, {"a": parse_type("#2[Unit]")})
        r = certified_run(env, p, 100, 100)
        assert r.verdict is Verdict.TERMINATED
        assert [(e.src_measure, e.dst_measure) for e in r.measure_trace] == [((2, 2), (2,))]

    def test_state_not_measured_by_components_is_measured_whole(self, monkeypatch):
        # an unannotated top-level restriction ends the measuring by
        # components: that state is refused, and a later one is typed whole
        free: dict = {}
        refused = normalize(parse_process("new r.(r<> | b<>)", free))
        typable = normalize(parse_process("b<> | b<>", free))
        env = TypeEnv({free["b"]: parse_type("#1[Unit]")})
        whole = count_calls(monkeypatch, semantics.measure)
        measures = semantics._Measures(env)
        with pytest.raises(CertificationFailure, match="reachable state is not typable"):
            measures.of(refused)
        assert measures.of(typable) == (1, 1)
        assert len(whole) == 2

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


# ---------------------------------------------------------------------------
# Golden record of canonical keys: `normalize(p).key` of the `.pi` fixtures and
# of fixed-seed `random_ast`, `scoped_process`, `edges_process` and
# `typed_instance` processes, each followed by the `step` successors of the
# states reached from it, breadth first, up to `KEYS_STATES` states.
# Regenerate it (only for a deliberate change of output) with
#   PYTHONPATH=src:tests python -c "import test_semantics as t; t.write_keys_golden()"

KEYS_GOLDEN = Path(__file__).resolve().parent / "golden" / "keys.txt"
KEYS_SEED = 12
KEYS_STATES = 12


def keys_processes() -> list[tuple[str, Process]]:
    """(label, process), in golden-file order."""
    procs = [(f"fixture/{pi.stem}", parse_process(pi.read_text())) for pi in sorted(FIXTURES.glob("*.pi"))]
    rng = random.Random(KEYS_SEED)
    procs += [("ast", random_ast(rng, rng.randrange(3, 7))) for _ in range(200)]
    a, b = fresh("a"), fresh("b")
    procs += [("scoped", scoped_process(rng, [a, b], rng.randint(0, 4), 2, 2)) for _ in range(60)]
    for n in range(2, 6):
        procs += [("edges", edges_process(rng, a, n, rng.randint(n - 1, 2 * n))) for _ in range(10)]
    procs += [("typed", typed_instance(rng, fuel=rng.randrange(6, 13))[1]) for _ in range(150)]
    return procs


def keys_text() -> str:
    lines = []
    for label, p in keys_processes():
        root = normalize(p)
        lines.append(f"{label}\t{root.key}")
        queue, seen = [root], {root.key}
        for state in queue:
            for succ in step(state):
                lines.append(f"  step\t{succ.key}")
                if succ.key not in seen and len(seen) < KEYS_STATES:
                    seen.add(succ.key)
                    queue.append(succ)
    return "".join(line + "\n" for line in lines)


def write_keys_golden() -> None:
    KEYS_GOLDEN.write_text(keys_text(), encoding="utf-8")


class TestKeysGolden:
    def test_keys_unchanged(self):
        assert_golden(KEYS_GOLDEN, keys_text())


class TestReachedComponentsAreNormal:
    def test_flatten_keeps_every_reached_component(self):
        # `step` splits a fired body with `_scope` and flattens nothing, which
        # holds because every component of a state reached from a root is
        # already its own `_flatten`, at every depth
        for _, p in keys_processes():
            root = normalize(p)
            queue, seen = [root], {root.sig}
            for state in queue:
                for c in state.components:
                    flat = semantics._wrap(*semantics._flatten(semantics._Canon(), c))
                    assert alpha_key(flat) == alpha_key(c), pretty_process(c)
                for succ in step(state):
                    if succ.sig not in seen and len(seen) < KEYS_STATES:
                        seen.add(succ.sig)
                        queue.append(succ)


class TestSigOrder:
    def test_sig_order_is_key_order(self):
        # on the processes behind keys.txt: `step`'s successors come sorted
        # by key text, and over every state reached, distinct `sig`s have
        # distinct keys and sort as their keys do
        key_of: dict[tuple[str, ...], str] = {}
        for _, p in keys_processes():
            root = normalize(p)
            key_of[root.sig] = root.key
            queue, seen = [root], {root.sig}
            for state in queue:
                succs = step(state)
                keys = [succ.key for succ in succs]
                assert keys == sorted(set(keys))
                for succ in succs:
                    key_of[succ.sig] = succ.key
                    if succ.sig not in seen and len(seen) < KEYS_STATES:
                        seen.add(succ.sig)
                        queue.append(succ)
        assert len(set(key_of.values())) == len(key_of) > 400
        assert [key_of[sig] for sig in sorted(key_of)] == sorted(key_of.values())


# ---------------------------------------------------------------------------
# Golden record of `piterm run --format=lines`, with `--certify` where a typing
# is known: fixed-seed `random_ast`, `scoped_process` and `typed_instance`
# processes, and pairs, echo and replicator shapes, each with its full TRACE
# and WITNESS. It pins which copy of congruent components a stored state keeps
# and prints. Regenerate it (only for a deliberate change of output) with
#   PYTHONPATH=src:tests python -c "import test_semantics as t; t.write_runs_golden()"

RUNS_GOLDEN = Path(__file__).resolve().parent / "golden" / "runs.txt"
RUNS_SEED = 14
RUNS_STATES = 40


def runs_cases() -> list[tuple[str, str, str | None]]:
    """(label, process text, environment text or None), in golden-file order."""
    rng = random.Random(RUNS_SEED)
    cases: list[tuple[str, str, str | None]] = []
    # three side by side, so that their free names meet in redexes once printed
    cases += [("ast", pretty_process(par(*(random_ast(rng, 4) for _ in range(3)))), None) for _ in range(60)]
    a, b = fresh("a"), fresh("b")
    cases += [("scoped", pretty_process(scoped_process(rng, [a, b], rng.randint(0, 4), 2, 2)), None) for _ in range(30)]
    for _ in range(60):
        env, p, _ = typed_instance(rng, fuel=rng.randrange(8, 17))
        free = sorted(free_names(p), key=lambda n: n.display)
        spellings = [n.display for n in free]
        # a typing is known only when the printed spellings keep free names apart
        known = len(set(spellings)) == len(spellings)
        decls = "".join(f"{n.display} : {pretty_type(env.bindings[n])}\n" for n in free) if known else None
        cases.append(("typed", pretty_process(p), decls))
        # beside a copy of itself: every component has a congruent twin
        cases.append(("typed twice", pretty_process(par(p, p)), decls))
    pairs = " | ".join(f"a{k}<> | a{k}().0" for k in range(1, 5))
    cases.append(("pairs", pairs, "".join(f"a{k} : #1[Unit]\n" for k in range(1, 5))))
    cases.append(("pairs", "a<v> | a<v> | a(x).x<> | a(y).y<> | !v(z).0", None))
    cases.append(("pairs", "a<> | a<> | a<> | a().0 | a().0 | b<> | b<*> | b(x).0", None))
    cases.append(("echo", "!e(x).e<x> | e<v> | a<> | a().0", None))
    cases.append(("echo", "!e(x).e<x> | e<v> | e<v> | !f(y).f<y> | f<w>", None))
    cases.append(("replicator", "!a(x).(a<x> | a<x>) | a<v>", None))
    cases.append(("replicator", "!a(x).(a<x> | b<x>) | a<v> | b(y).0 | b(z).0", None))
    cases.append(("server", (FIXTURES / "server.pi").read_text(), (FIXTURES / "server.env").read_text()))
    return cases


def runs_text(directory: Path) -> str:
    from piterm.cli import main

    sections = []
    for n, (label, text, decls) in enumerate(runs_cases()):
        pi = directory / f"run{n:03d}.pi"
        pi.write_text(text + "\n", encoding="utf-8")
        argv = ["run", str(pi), "--max-states", str(RUNS_STATES), "--format=lines"]
        if decls is not None:
            env = directory / f"run{n:03d}.env"
            env.write_text(decls, encoding="utf-8")
            argv += ["--certify", str(env)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        source = text.strip().replace("\n", " ")
        sections.append(f"$ {label}{' --certify' if decls is not None else ''}: {source}\n{out.getvalue()}exit {code}\n")
    return "".join(sections)


def write_runs_golden() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        RUNS_GOLDEN.write_text(runs_text(Path(tmp)), encoding="utf-8")


class TestRunsGolden:
    def test_runs_unchanged(self, tmp_path):
        assert_golden(RUNS_GOLDEN, runs_text(tmp_path))
