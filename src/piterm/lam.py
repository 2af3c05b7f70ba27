"""Simply-typed lambda-calculus front end and the parallel call-by-value
encoding into the localised pi-calculus.

The grammar runs on the process parser's scanner (`parser._Parser`), with
its own token regex, one-character tokens and clean-span match; errors are
located at the line and column of the file. One walk types a term and
translates it; the type and term parsers, the walk and the type printer
take nesting off a stack.

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
from .parser import _NAME_START, _clean, _Parser
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
    """The text of `t`, written left to right off one stack of what is still
    to print, types and literal pieces: nesting does not recurse."""
    out: list[str] = []
    todo: list = [t]
    while todo:
        t = todo.pop()
        if isinstance(t, LArrow):
            todo += (t.right, ") -> ", t.left, "(") if isinstance(t.left, LArrow) else (t.right, " -> ", t.left)
        elif isinstance(t, LBase):
            out.append(t.name)
        elif isinstance(t, LTVar):
            out.append(f"'{t.id}")
        elif type(t) is str and todo:  # a piece; the last item popped is never one
            out.append(t)
        else:
            raise TypeError(f"not a lambda type: {t!r}")
    return "".join(out)


# ---------------------------------------------------------------------------
# Parsing


class _LamParser(_Parser):
    """The lambda grammar on the process parser's scanner."""

    TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_']*|->|--[^\n]*|\S")
    ONE_CHAR_TOKENS = _NAME_START | frozenset("\\().:")
    CLEAN_RE = _clean(frozenset("\\().:"), r"[A-Za-z_][A-Za-z0-9_']*(?![A-Za-z0-9_'])", "->")

    def parse_type(self) -> LambdaType:
        """A type, read off one stack of what encloses the atom being read: an
        open `(`, as None, or the left side of an arrow whose right side the
        atom starts. Arrows group to the right; nesting does not recurse."""
        enclosing: list[LambdaType | None] = []
        while True:
            tok = self.next()
            if tok == "(":
                enclosing.append(None)
                continue
            if tok[:1] not in _NAME_START:
                raise self.error(f"expected a type, found {tok or 'end of input'!r}", self.pos - 1)
            t: LambdaType = LBase(tok)
            while self.peek() != "->":  # `t` is an atom; the type it ends closes
                while enclosing and enclosing[-1] is not None:
                    t = LArrow(enclosing.pop(), t)
                if not enclosing:
                    return t
                self.expect(")")
                enclosing.pop()
            self.pos += 1
            enclosing.append(t)

    def parse_term(self) -> LambdaTerm:
        """A term, read off one stack of what encloses the application being
        read: an abstraction `\\x.`, by its variable, or an open `(`, each with
        the application it continues, if any. Nesting does not recurse."""
        enclosing: list[tuple[str, LambdaTerm | None]] = []
        out: LambdaTerm | None = None
        while True:
            tok = self.next()
            if tok == "\\":
                if self.peek()[:1] not in _NAME_START:
                    raise self.fail("expected a variable after '\\'")
                enclosing.append((self.next(), out))
                self.expect(".")
                out = None
            elif tok == "(":
                enclosing.append((tok, out))
                out = None
            elif tok[:1] not in _NAME_START:
                raise self.error(f"expected a term, found {tok or 'end of input'!r}", self.pos - 1)
            else:
                t: LambdaTerm = LVar(tok)
                while True:  # `t` is the next atom of the application `out`
                    out = t if out is None else LApp(out, t)
                    tok = self.peek()
                    if tok[:1] in _NAME_START or tok in ("(", "\\"):
                        break
                    # the application ends, and each abstraction around it up to an open `(`
                    while enclosing and enclosing[-1][0] != "(":
                        var, before = enclosing.pop()
                        t = LAbs(var, out)
                        out = t if before is None else LApp(before, t)
                    if not enclosing:
                        return out
                    self.expect(")")
                    t, out = out, enclosing.pop()[1]


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
# Simple typing and the encoding, in one walk


def _make_lambda(kind: int, label, args: tuple) -> LambdaType:
    if kind == VAR:
        return LTVar(label)
    if kind == ARROW:
        return LArrow(*args)
    return LBase(label)


def _declared(st: TermStore, t: LambdaType) -> int:
    """The node of `st` for the declared type `t`, its sides made first, off
    one stack of the types to make, each paired with whether its sides are
    made: nesting does not recurse."""
    done: list[int] = []
    todo: list[tuple[LambdaType, bool]] = [(t, False)]
    while todo:
        t, sides_made = todo.pop()
        if sides_made:
            right = done.pop()
            done.append(st.node(ARROW, (done.pop(), right)))
        elif isinstance(t, LArrow):
            todo += ((t, True), (t.right, False), (t.left, False))
        elif isinstance(t, LBase):
            done.append(st.node(BASE, (), t.name))
        else:
            raise TypeError(f"not a declared lambda type: {t!r}")
    return done.pop()


def _walk(m: LambdaTerm, p: Name, delta: dict[str, LambdaType]) -> tuple[TermStore, int, Process]:
    """The simple type of `m`, a node of the `inference.TermStore` it is
    unified on, and the image of `m` on `p`, from one walk; a type error
    raises `IllTypedLambda`. A variable in scope maps to its binder and type
    variable; a free one gets its name and its declared or fresh type at its
    first occurrence. Channel names are numbered per prefix, per call.

    Nesting does not recurse: a stack holds the subterms still to walk, each
    with its result channel, and the ends of the abstractions and
    applications entered, each with its names; the finished subterms leave
    their image and type on a second stack."""
    st = TermStore()
    declared = {x: _declared(st, t) for x, t in delta.items()}
    scope: dict[str, tuple[Name, int]] = {}
    frees: dict[str, tuple[Name, int]] = {}
    counters = dict.fromkeys("yqrfz", 0)

    def numbered(prefix: str) -> Name:
        counters[prefix] += 1
        return fresh(f"{prefix}{counters[prefix]}")

    done: list[tuple[Process, int]] = []
    todo: list = [(m, p, None)]
    try:
        while todo:
            term, dest, names = todo.pop()
            if names is not None:  # the end of `term`: its body or both its sides are done
                if isinstance(term, LAbs):
                    y, q, x, a, saved = names
                    unbind(scope, saved)
                    body, r = done.pop()
                    image = Res(y, None, False, Par(RepIn(y, (x, q), body), Out(dest, (NameRef(y),))))
                    done.append((image, st.node(ARROW, (a, r))))
                else:
                    q, r, f, z = names
                    (fn, tf), (arg, ta) = done[-2:]
                    del done[-2:]
                    res = st.fresh()
                    st.unify(tf, st.node(ARROW, (ta, res)))
                    join = In(q, (f,), In(r, (z,), Out(f, (NameRef(z), NameRef(dest)))))
                    done.append((Res(q, None, False, Res(r, None, False, Par(fn, Par(arg, join)))), res))
            elif isinstance(term, LVar):
                var = scope.get(term.name) or frees.get(term.name)
                if var is None:
                    t = declared[term.name] if term.name in declared else st.fresh()
                    var = frees[term.name] = (fresh(term.name), t)
                done.append((Out(dest, (NameRef(var[0]),)), var[1]))
            elif isinstance(term, LAbs):
                y, q, x, a = numbered("y"), numbered("q"), fresh(term.var), st.fresh()
                todo.append((term, dest, (y, q, x, a, bind(scope, [(term.var, (x, a))]))))
                todo.append((term.body, q, None))
            elif isinstance(term, LApp):
                q, r, f, z = (numbered(c) for c in "qrfz")
                todo += [(term, dest, (q, r, f, z)), (term.arg, r, None), (term.fn, q, None)]
            else:
                raise TypeError(f"not a lambda term: {term!r}")
    except Mismatch as e:
        if e.occurs:
            raise IllTypedLambda("occurs check failed: recursive type required") from None
        a, b = (pretty_lambda_type(st.resolve(t, _make_lambda)) for t in (e.a, e.b))
        raise IllTypedLambda(f"cannot unify {a} with {b}") from None
    ((image, t),) = done
    return st, t, image


def check_stlc(delta: dict[str, LambdaType], m: LambdaTerm) -> LambdaType:
    """Principal simple type of `m`; free variables missing from `delta` get
    fresh type variables shared across all their occurrences."""
    st, t, _ = _walk(m, fresh("p"), delta)
    return st.resolve(t, _make_lambda)


def encode(m: LambdaTerm, p: Name, delta: dict[str, LambdaType] | None = None) -> Process:
    """Parallel call-by-value image of `m` with result channel `p`; an
    ill-typed `m` has none."""
    return _walk(m, p, delta or {})[2]
