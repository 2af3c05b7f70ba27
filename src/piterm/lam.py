"""Simply-typed lambda-calculus front end and the parallel call-by-value
encoding into the localised pi-calculus.

The grammar runs on the process parser's scanner (`parser._Parser`), with
its own token regex and one-character tokens; errors are located at the
line and column of the file.

An abstraction becomes a replicated server on a fresh name, a variable is
returned on its continuation channel, and an application evaluates both
sides in parallel before joining them:

    [x]p      = p<x>
    [\\x.M]p   = new y.(!y(x,q).[M]q | p<y>)
    [M N]p    = new q.new r.([M]q | [N]r | q(f).r(z).f<z,p>)
"""

from __future__ import annotations

import re

from .errors import IllTypedLambda, ParseError
from .inference import ARROW, BASE, VAR, Mismatch, TermStore
from .parser import _NAME_START, _Parser
from .syntax import In, Name, NameRef, Out, Par, Process, RepIn, Res, bind, fresh, node, unbind


class LambdaTerm:
    __slots__ = ()


@node
class LVar(LambdaTerm):
    name: str


@node
class LAbs(LambdaTerm):
    var: str
    body: LambdaTerm


@node
class LApp(LambdaTerm):
    fn: LambdaTerm
    arg: LambdaTerm


class LambdaType:
    __slots__ = ()


@node
class LBase(LambdaType):
    name: str


@node
class LArrow(LambdaType):
    left: LambdaType
    right: LambdaType


@node
class LTVar(LambdaType):
    id: int


def pretty_lambda_type(t: LambdaType) -> str:
    if isinstance(t, LBase):
        return t.name
    if isinstance(t, LTVar):
        return f"'{t.id}"
    if isinstance(t, LArrow):
        left = pretty_lambda_type(t.left)
        if isinstance(t.left, LArrow):
            left = f"({left})"
        return f"{left} -> {pretty_lambda_type(t.right)}"
    raise TypeError(f"not a lambda type: {t!r}")


# ---------------------------------------------------------------------------
# Parsing


class _LamParser(_Parser):
    """The lambda grammar on the process parser's scanner."""

    TOKEN_RE = re.compile(r"\s+|--[^\n]*|([A-Za-z_][A-Za-z0-9_']*|->|[\\().:]|.)")
    ONE_CHAR_TOKENS = _NAME_START | frozenset("\\().:")

    def parse_type(self) -> LambdaType:
        left = self._type_atom()
        if self.peek() == "->":
            self.pos += 1
            return LArrow(left, self.parse_type())
        return left

    def _type_atom(self) -> LambdaType:
        tok = self.next()
        if tok == "(":
            t = self.parse_type()
            self.expect(")")
            return t
        if tok[:1] in _NAME_START:
            return LBase(tok)
        raise self.error(f"expected a type, found {tok or 'end of input'!r}", self.pos - 1)

    def parse_term(self) -> LambdaTerm:
        if self.peek() == "\\":
            self.pos += 1
            if self.peek()[:1] not in _NAME_START:
                raise self.fail("expected a variable after '\\'")
            var = self.next()
            self.expect(".")
            return LAbs(var, self.parse_term())
        out = self._term_atom()
        while self.peek()[:1] in _NAME_START or self.peek() in ("(", "\\"):
            if self.peek() == "\\":
                return LApp(out, self.parse_term())
            out = LApp(out, self._term_atom())
        return out

    def _term_atom(self) -> LambdaTerm:
        tok = self.next()
        if tok == "(":
            t = self.parse_term()
            self.expect(")")
            return t
        if tok[:1] in _NAME_START:
            return LVar(tok)
        raise self.error(f"expected a term, found {tok or 'end of input'!r}", self.pos - 1)


def parse_lambda_term(text: str, line: int = 1) -> LambdaTerm:
    """Parse a term whose text starts on line `line` of its file."""
    p = _LamParser(text, line=line)
    m = p.parse_term()
    p.finish()
    return m


_DECL_RE = re.compile(r"^\s*([A-Za-z_][A-Za-z0-9_']*)\s*:(.*)$")  # a header line `name : type`


def parse_lambda_file(text: str) -> tuple[dict[str, LambdaType], LambdaTerm]:
    """Header lines `name : type` declare free variables; the rest is the term.
    Both are read in place: an error is located at the file's line and column."""
    decls: dict[str, LambdaType] = {}
    lines = text.split("\n")
    body_from = 0
    for i, raw in enumerate(lines):
        stripped = raw.split("--", 1)[0]
        if not stripped.strip():
            body_from = i + 1
            continue
        m = _DECL_RE.match(stripped)
        if m:
            p = _LamParser(raw, m.start(2), len(stripped.rstrip()), i + 1)
            decls[m.group(1)] = p.parse_type()
            if p.peek():
                raise p.fail("trailing input after type")
            body_from = i + 1
        else:
            break
    term_text = "\n".join(lines[body_from:]).rstrip()
    if not term_text:
        raise ParseError("missing term", len(lines), 1)
    return decls, parse_lambda_term(term_text, body_from + 1)


# ---------------------------------------------------------------------------
# Simple typing


def _make_lambda(kind: int, label, args: tuple) -> LambdaType:
    if kind == VAR:
        return LTVar(label)
    if kind == ARROW:
        return LArrow(*args)
    return LBase(label)


def _declared(st: TermStore, t: LambdaType) -> int:
    if isinstance(t, LArrow):
        return st.node(ARROW, (_declared(st, t.left), _declared(st, t.right)))
    if isinstance(t, LBase):
        return st.node(BASE, (), t.name)
    raise TypeError(f"not a declared lambda type: {t!r}")


def _stlc(st: TermStore, free_ctx: dict[str, int], term: LambdaTerm, bound: dict[str, int]) -> int:
    """`bound` maps the variables bound around `term` and comes back unchanged."""
    if isinstance(term, LVar):
        if term.name in bound:
            return bound[term.name]
        if term.name not in free_ctx:
            free_ctx[term.name] = st.fresh()
        return free_ctx[term.name]
    if isinstance(term, LAbs):
        a = st.fresh()
        saved = bind(bound, [(term.var, a)])
        r = _stlc(st, free_ctx, term.body, bound)
        unbind(bound, saved)
        return st.node(ARROW, (a, r))
    if isinstance(term, LApp):
        tf = _stlc(st, free_ctx, term.fn, bound)
        ta = _stlc(st, free_ctx, term.arg, bound)
        res = st.fresh()
        st.unify(tf, st.node(ARROW, (ta, res)))
        return res
    raise TypeError(f"not a lambda term: {term!r}")


def check_stlc(delta: dict[str, LambdaType], m: LambdaTerm) -> LambdaType:
    """Principal simple type of `m`; free variables missing from `delta` get
    fresh type variables shared across all their occurrences. The unification
    runs on an `inference.TermStore`."""
    st = TermStore()
    free_ctx = {x: _declared(st, t) for x, t in delta.items()}
    try:
        return st.resolve(_stlc(st, free_ctx, m, {}), _make_lambda)
    except Mismatch as e:
        if e.occurs:
            raise IllTypedLambda("occurs check failed: recursive type required") from None
        a, b = (pretty_lambda_type(st.resolve(t, _make_lambda)) for t in (e.a, e.b))
        raise IllTypedLambda(f"cannot unify {a} with {b}") from None


# ---------------------------------------------------------------------------
# The encoding


def encode(m: LambdaTerm, p: Name, delta: dict[str, LambdaType] | None = None) -> Process:
    """Parallel call-by-value image of `m` with result channel `p`.

    The simple-type gate runs first; fresh channel names are numbered
    deterministically per call so output is stable.
    """
    check_stlc(delta or {}, m)
    return _encode(m, p, {}, ({"y": 0, "q": 0, "r": 0, "f": 0, "z": 0}, {}))


def _numbered(counters: dict[str, int], prefix: str) -> Name:
    counters[prefix] += 1
    return fresh(f"{prefix}{counters[prefix]}")


def _encode(term: LambdaTerm, dest: Name, scope: dict[str, Name], state: tuple[dict, dict]) -> Process:
    """`scope` maps the bound variables and comes back unchanged; `state`
    holds the counters of the fresh channel names and the names of the free
    variables, per `encode`."""
    counters, frees = state
    if isinstance(term, LVar):
        name = scope.get(term.name)
        if name is None:
            name = frees.get(term.name)
            if name is None:
                name = frees[term.name] = fresh(term.name)
        return Out(dest, (NameRef(name),))
    if isinstance(term, LAbs):
        y = _numbered(counters, "y")
        q = _numbered(counters, "q")
        x = fresh(term.var)
        saved = bind(scope, [(term.var, x)])
        server = RepIn(y, (x, q), _encode(term.body, q, scope, state))
        unbind(scope, saved)
        return Res(y, None, False, Par(server, Out(dest, (NameRef(y),))))
    if isinstance(term, LApp):
        q = _numbered(counters, "q")
        r = _numbered(counters, "r")
        f = _numbered(counters, "f")
        z = _numbered(counters, "z")
        join = In(q, (f,), In(r, (z,), Out(f, (NameRef(z), NameRef(dest)))))
        body = Par(_encode(term.fn, q, scope, state), Par(_encode(term.arg, r, scope, state), join))
        return Res(q, None, False, Res(r, None, False, body))
    raise TypeError(f"not a lambda term: {term!r}")
