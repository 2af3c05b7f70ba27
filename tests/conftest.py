"""Shared generators and helpers for the test suite."""

from __future__ import annotations

import random
import re
import sys
from collections import Counter
from itertools import islice, permutations, product
from pathlib import Path

import pytest

from piterm.checker import TypeEnv, check, subtype
from piterm.errors import ParseError
from piterm.inference import _facts, _pretty_node, _simple_types
from piterm.lam import LAbs, LambdaTerm, LambdaType, LApp, LVar, _make_lambda, _walk
from piterm.measure import Multiset, multiset_greater
from piterm.syntax import (
    NAT,
    UNIT,
    Add,
    ChanT,
    In,
    Mul,
    Name,
    NatLit,
    NameRef,
    Nil,
    Out,
    Par,
    Process,
    RepIn,
    Res,
    Star,
    Type,
    Value,
    _serial_node,
    free_names,
    fresh,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240811)


def count_calls(monkeypatch, fn) -> list:
    """Wrap `fn` wherever a piterm module holds it; the list gets one entry per call."""
    calls: list = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "piterm" or name.startswith("piterm."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def unless_recursion(fn, *args):
    """`fn(*args)`, or the text "RecursionError" if it raised one. A deep
    test asserts on what this returns, so that a walker that regresses into
    recursion fails outside the deep frames: pytest reports an error raised
    through them by comparing the locals of the repeated frames, and on
    deep nodes that runs for minutes."""
    try:
        return fn(*args)
    except RecursionError:
        return "RecursionError"


def within_frames(frames: int, fn, *args):
    """`fn(*args)` with the recursion limit `frames` frames above the
    caller's own depth, then the limit as it was."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + frames)
    try:
        return fn(*args)
    finally:
        sys.setrecursionlimit(limit)


def check_stlc(delta: dict[str, LambdaType], m: LambdaTerm) -> LambdaType:
    """Principal simple type of `m`, resolved off the term store of the walk
    that `encode` runs; free variables missing from `delta` get fresh type
    variables shared across all their occurrences."""
    st, t, _ = _walk(m, fresh("p"), delta)
    return st.resolve(t, _make_lambda)


def assert_golden(path: Path, text: str) -> None:
    """`text` must equal the golden file at `path`: every line, then the line
    count. A failure names the first line that differs."""
    expected = path.read_text(encoding="utf-8").splitlines()
    got = text.splitlines()
    for i, (g, e) in enumerate(zip(got, expected), start=1):
        assert g == e, f"{path.name} line {i} differs\n  got:    {g}\n  golden: {e}"
    assert len(got) == len(expected), f"{path.name}: {len(got)} lines, the golden has {len(expected)}"


def env_for(p: Process, declarations: dict[str, Type]) -> TypeEnv:
    """An environment for the free names of `p` from spelling-keyed types."""
    by_display: dict[str, Name] = {}
    for n in free_names(p):
        by_display.setdefault(n.display, n)
    return TypeEnv({by_display[s]: ty for s, ty in declarations.items() if s in by_display})


def simple_types(p: Process, make=_pretty_node) -> dict[Name, object]:
    """The most general simple typing of `p`, each name's type resolved off
    the term store by `make(kind, label, args)`; printed by default."""
    typing = _simple_types(_facts(p))
    return {n: typing.store.resolve(v, make) for n, v in typing.var.items()}


def pretty_lambda(m: LambdaTerm) -> str:
    """A lambda term in the concrete syntax `lam.parse_lambda_term` reads."""
    if isinstance(m, LVar):
        return m.name
    if isinstance(m, LAbs):
        return f"\\{m.var}. {pretty_lambda(m.body)}"
    if isinstance(m, LApp):
        fn = pretty_lambda(m.fn)
        if isinstance(m.fn, LAbs):
            fn = f"({fn})"
        arg = pretty_lambda(m.arg)
        if isinstance(m.arg, (LApp, LAbs)):
            arg = f"({arg})"
        return f"{fn} {arg}"
    raise TypeError(f"not a lambda term: {m!r}")


# ---------------------------------------------------------------------------
# Random types


def gen_type(rng: random.Random, depth: int, max_level: int = 4) -> Type:
    if depth <= 0 or rng.random() < 0.25:
        return rng.choice([UNIT, UNIT, NAT])
    cap = rng.choice(["#", "#", "o", "i"])
    level = rng.randrange(max_level + 1)
    arity = rng.choice([1, 1, 1, 2])
    return ChanT(cap, level, tuple(gen_type(rng, depth - 1, max_level) for _ in range(arity)))


def sample_subtype(rng: random.Random, t: Type) -> Type:
    """Some type <= t."""
    if not isinstance(t, ChanT):
        return t
    if t.cap == "#":
        return t
    if t.cap == "o":
        if rng.random() < 0.5:
            level = rng.randrange(t.level + 1)
            payload = tuple(sample_supertype(rng, p) for p in t.payload)
            cap = rng.choice(["o", "#"])
            return ChanT(cap, level, payload)
        return t
    # input capability: subtypes raise the level and shrink the payload
    if rng.random() < 0.5:
        level = t.level + rng.randrange(3)
        payload = tuple(sample_subtype(rng, p) for p in t.payload)
        cap = rng.choice(["i", "#"])
        return ChanT(cap, level, payload)
    return t


def sample_supertype(rng: random.Random, t: Type) -> Type:
    """Some type >= t."""
    if not isinstance(t, ChanT):
        return t
    if t.cap == "#":
        pick = rng.random()
        if pick < 0.34:
            return t
        if pick < 0.67:
            level = t.level + rng.randrange(3)
            payload = tuple(sample_subtype(rng, p) for p in t.payload)
            return ChanT("o", level, payload)
        level = rng.randrange(t.level + 1)
        payload = tuple(sample_supertype(rng, p) for p in t.payload)
        return ChanT("i", level, payload)
    if t.cap == "o":
        level = t.level + rng.randrange(3)
        payload = tuple(sample_subtype(rng, p) for p in t.payload)
        return ChanT("o", level, payload)
    level = rng.randrange(t.level + 1)
    payload = tuple(sample_supertype(rng, p) for p in t.payload)
    return ChanT("i", level, payload)


# ---------------------------------------------------------------------------
# Type-directed generation of well-typed processes


def _pick_value(rng: random.Random, env: dict[Name, Type], want: Type, exact: bool) -> Value | None:
    if isinstance(want, UNIT.__class__):
        candidates: list[Value] = [Star()]
        for n, t in env.items():
            if t == UNIT:
                candidates.append(NameRef(n))
        return rng.choice(candidates)
    if want == NAT:
        k = rng.randrange(4)
        if rng.random() < 0.3:
            return Add(NatLit(k), Mul(NatLit(rng.randrange(3)), NatLit(rng.randrange(3))))
        return NatLit(k)
    fits = [
        n
        for n, t in env.items()
        if (t == want if exact else subtype(t, want))
    ]
    if not fits:
        return None
    return NameRef(rng.choice(fits))


def gen_typed_process(
    rng: random.Random,
    env: dict[Name, Type],
    fuel: int,
    exact: bool = False,
    max_level: int = 4,
) -> tuple[Process, int]:
    """A process well typed under `env`, along with its least weight.

    With `exact=True` payload values match the expected type syntactically and
    generated annotations use the full capability only, so the result is also
    accepted by the restricted checker.
    """
    if fuel <= 0:
        return Nil(), 0

    def make_output(n: Name, t: ChanT) -> Out | None:
        values = []
        for want in t.payload:
            v = _pick_value(rng, env, want, exact)
            if v is None:
                return None
            values.append(v)
        return Out(n, tuple(values))

    roll = rng.random()
    if roll < 0.22:
        # rendezvous: an output racing a matching input, so reductions happen
        chans = [(n, t) for n, t in env.items() if isinstance(t, ChanT) and t.cap == "#"]
        rng.shuffle(chans)
        for n, t in chans:
            out = make_output(n, t)
            if out is None:
                continue
            binders = tuple(fresh(rng.choice("xyzuvw")) for _ in t.payload)
            inner = dict(env)
            for b, bt in zip(binders, t.payload):
                inner[b] = bt
            body, w = gen_typed_process(rng, inner, fuel - 2, exact, max_level)
            if rng.random() < 0.5 and t.level > w:
                return Par(out, RepIn(n, binders, body)), t.level
            return Par(out, In(n, binders, body)), max(t.level, w)
        return Nil(), 0
    if roll < 0.38:
        sendable = [
            (n, t)
            for n, t in env.items()
            if isinstance(t, ChanT) and (t.cap == "#" if exact else t.cap in ("#", "o"))
        ]
        rng.shuffle(sendable)
        for n, t in sendable:
            out = make_output(n, t)
            if out is not None:
                return out, t.level
        return Nil(), 0
    if roll < 0.58:
        receivable = [
            (n, t)
            for n, t in env.items()
            if isinstance(t, ChanT) and (t.cap == "#" if exact else t.cap in ("#", "i"))
        ]
        if not receivable:
            return Nil(), 0
        n, t = rng.choice(receivable)
        binders = tuple(fresh(rng.choice("xyzuvw")) for _ in t.payload)
        inner = dict(env)
        for b, bt in zip(binders, t.payload):
            inner[b] = bt
        body, w = gen_typed_process(rng, inner, fuel - 1, exact, max_level)
        if rng.random() < 0.5 and t.level > w:
            return RepIn(n, binders, body), 0
        return In(n, binders, body), w
    if roll < 0.72:
        name = fresh(rng.choice("abcdrs"))
        if exact:
            ann = ChanT("#", rng.randrange(max_level + 1), (rng.choice([UNIT, NAT]),))
        else:
            ann = gen_type(rng, 2, max_level)
            if not isinstance(ann, ChanT):
                ann = ChanT("#", rng.randrange(max_level + 1), (UNIT,))
        inner = dict(env)
        inner[name] = ann
        body, w = gen_typed_process(rng, inner, fuel - 1, exact, max_level)
        return Res(name, ann, False, body), w
    if roll < 0.92:
        left, w1 = gen_typed_process(rng, env, fuel // 2, exact, max_level)
        right, w2 = gen_typed_process(rng, env, fuel // 2, exact, max_level)
        return Par(left, right), max(w1, w2)
    return Nil(), 0


def gen_env_pool(rng: random.Random, exact: bool = False, max_level: int = 4) -> dict[Name, Type]:
    """A few channels to seed generation, biased towards usable shapes."""
    pool: dict[Name, Type] = {}
    pool[fresh("a")] = ChanT("#", rng.randrange(1, max_level + 1), (UNIT,))
    pool[fresh("b")] = ChanT("#", rng.randrange(max_level + 1), (NAT,))
    pool[fresh("t")] = UNIT
    if exact:
        pool[fresh("c")] = ChanT("#", rng.randrange(max_level + 1), (ChanT("#", 1, (UNIT,)),))
        pool[fresh("d")] = ChanT("#", 1, (UNIT,))
    else:
        pool[fresh("c")] = ChanT(
            "#", rng.randrange(max_level + 1), (ChanT("o", rng.randrange(max_level + 1), (UNIT,)),)
        )
        for _ in range(2):
            t = gen_type(rng, 3, max_level)
            if isinstance(t, ChanT):
                pool[fresh(rng.choice("defg"))] = t
    return pool


def typed_instance(rng: random.Random, fuel: int = 7, exact: bool = False) -> tuple[TypeEnv, Process, int]:
    """Generate, then cross-check the tracked weight against the checker."""
    pool = gen_env_pool(rng, exact)
    p, w = gen_typed_process(rng, pool, fuel, exact)
    env = TypeEnv(dict(pool))
    assert check(env, p) == w
    return env, p, w


# ---------------------------------------------------------------------------
# Reference oracles


def multiset_geq(m1: Multiset, m2: Multiset) -> bool:
    return Counter(m1) == Counter(m2) or multiset_greater(m1, m2)


def multiset_greater_oracle(m1: Multiset, m2: Multiset) -> bool:
    """Brute-force reference: search all decompositions m1 = N + N2, m2 = N + N1
    with N a maximal common part, then compare the residues elementwise."""
    c1, c2 = Counter(m1), Counter(m2)
    elements = sorted(set(c1) | set(c2))
    ranges = [range(min(c1[e], c2[e]) + 1) for e in elements]
    best: list[Counter] = []
    best_size = -1
    for counts in product(*ranges):
        n = Counter({e: k for e, k in zip(elements, counts) if k})
        if sum(n.values()) > best_size:
            best = [n]
            best_size = sum(n.values())
        elif sum(n.values()) == best_size:
            best.append(n)
    # the maximal common part is unique (pointwise minimum), but we derive it
    # by search: keep only candidates not dominated by another candidate
    maximal = [
        n
        for n in best
        if not any(m != n and all(m[e] >= n[e] for e in elements) for m in best)
    ]
    results = set()
    for n in maximal:
        n2 = c1 - n
        n1 = c2 - n
        ok = bool(n2) and all(
            any(e1 < e2 for e2 in n2.elements()) for e1 in n1.elements()
        )
        results.add(ok)
    assert len(results) == 1
    return results.pop()


def bound_names(p: Process) -> list[Name]:
    """All binder occurrences, in traversal order (with duplicates if any)."""
    out: list[Name] = []

    def walk(q: Process) -> None:
        if isinstance(q, Par):
            walk(q.left)
            walk(q.right)
        elif isinstance(q, (In, RepIn)):
            out.extend(q.binders)
            walk(q.body)
        elif isinstance(q, Res):
            out.append(q.name)
            walk(q.body)

    walk(p)
    return out


def well_scoped(p: Process) -> bool:
    """Check the bound-name uniqueness discipline."""
    bound = bound_names(p)
    ids = [n.id for n in bound]
    if len(set(ids)) != len(ids):
        return False
    return not (set(ids) & {n.id for n in free_names(p)})


# ---------------------------------------------------------------------------
# Brute-force congruence oracle


def scope_parts(p: Process) -> tuple[list[Res], list[Process]]:
    """Restrictions (the `Res` nodes, bodies ignored) and components of one
    scope, prefix bodies left as they are; unused restrictions are dropped."""
    if isinstance(p, Nil):
        return [], []
    if isinstance(p, Par):
        r1, c1 = scope_parts(p.left)
        r2, c2 = scope_parts(p.right)
        return r1 + r2, c1 + c2
    if isinstance(p, Res):
        res, comps = scope_parts(p.body)
        return ([p] if p.name in free_names(p.body) else []) + res, comps
    return [], [p]


def _oracle_head(r: Res) -> str:
    ann = "_" if r.annotation is None else repr(r.annotation)
    return f"new {'fun' if r.functional else 'imp'} {ann}"


def _oracle_comp(c: Process, env: dict[int, str], counter: int) -> tuple[str, int]:
    if isinstance(c, Out):
        return _serial_node(env, c, ()), counter
    env = dict(env)
    for b in c.binders:
        env[b.id] = f"b{counter}"
        counter += 1
    body, counter = _oracle_body(c.body, env, counter)
    tag = "rep" if isinstance(c, RepIn) else "in"
    return f"({tag} {env.get(c.subject.id, 'f:' + c.subject.display)} /{len(c.binders)} {body})", counter


def _oracle_body(p: Process, env: dict[int, str], counter: int) -> tuple[str, int]:
    """The least serial over every restriction order and component order."""
    res, comps = scope_parts(p)
    best = None
    for order in permutations(res):
        inner = dict(env)
        for pos, r in enumerate(order):
            inner[r.name.id] = f"b{counter + pos}"
        head = "".join(f"({_oracle_head(r)} " for r in order)
        for arrangement in permutations(comps):
            parts, at = [], counter + len(res)
            for c in arrangement:
                s, at = _oracle_comp(c, inner, at)
                parts.append(s)
            text = head + "(| " + " ".join(parts) + ")" + ")" * len(res)
            if best is None or text < best[0]:
                best = (text, at)
    return best if best is not None else ("0", counter)


def oracle_key(p: Process) -> str:
    """Canonical key by brute force: the least serial over every order of the
    restrictions of every scope and every order of the components of every
    prefix body. Equal keys exactly for congruent processes; factorial, so
    for at most about five restrictions."""
    res, comps = scope_parts(p)
    best = None
    for order in permutations(res):
        env = {r.name.id: f"v{pos}" for pos, r in enumerate(order)}
        serials = sorted(_oracle_comp(c, env, 0)[0] for c in comps)
        text = ",".join(_oracle_head(r) for r in order) + ";" + "|".join(serials)
        if best is None or text < best:
            best = text
    return best if best is not None else ";"


# ---------------------------------------------------------------------------
# The scanner `parser._Parser` had before it matched tokens only: whitespace
# and comments matched with an empty group, `filter` dropped them, and a set
# of the tokens found any one-character token the grammar does not have. An
# oracle for the scanner's tokens and for the locations of its errors.

OLD_TOKEN_RES = {
    "process": re.compile(r"\s+|--[^\n]*|([A-Za-z_][A-Za-z0-9_']*|\d+|[<>()\[\].:,|!*+#]|.)"),
    "lambda": re.compile(r"\s+|--[^\n]*|([A-Za-z_][A-Za-z0-9_']*|->|[\\().:]|.)"),
}


def old_error(token_re, text: str, pos: int, endpos: int, line: int, message: str, index: int) -> ParseError:
    """The earlier scanner's `ParseError` at token `index` of `text[pos:endpos]`."""
    starts = (m.start() for m in token_re.finditer(text, pos, endpos) if m.group(1))
    offset = next(islice(starts, index, None), endpos)
    return ParseError(message, line + text.count("\n", 0, offset), offset - text.rfind("\n", 0, offset))


def old_scan(token_re, ok: frozenset, text: str, pos: int, endpos: int, line: int) -> list[str] | ParseError:
    """The tokens of `text[pos:endpos]` with the empty end sentinel, as the
    earlier scanner made them, or the error it raised for a character that is
    not a token, one-character tokens `ok`."""
    tokens = list(filter(None, token_re.findall(text, pos, endpos)))
    bad = [t for t in set(tokens) if len(t) == 1 and t not in ok and not (t.isdecimal() and "0" in ok)]
    if bad:
        i = min(map(tokens.index, bad))
        return old_error(token_re, text, pos, endpos, line, f"unexpected character {tokens[i]!r}", i)
    return tokens + [""]
