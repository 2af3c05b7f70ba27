"""Concrete syntax for processes, types and environment files.

Process grammar, with `--` comments to end of line:

    P ::= 0 | P | P | a<v,...> | a(x,...).P | !a(x,...).P
        | new a[:T][ fun].P | (new a[:T][ fun])(P) | (P)
    v ::= * | a | n | v+v | v*v | (v)
    T ::= Unit | Nat | #k[T,...] | ik[T,...] | ok[T,...]

`a` and `a<>` abbreviate a discarded unit input / a unit message; prefixes
and restrictions bind tighter than `|`.
"""

from __future__ import annotations

import re
from itertools import islice

from .errors import ParseError
from .syntax import (
    IN,
    NAT,
    NIL,
    OUT,
    SHARP,
    STAR,
    UNIT,
    Add,
    ChanT,
    In,
    Mul,
    Name,
    NatLit,
    NameRef,
    Out,
    Par,
    Process,
    RepIn,
    Res,
    Type,
    Value,
    bind,
    fresh,
    unbind,
)

# One `findall` scans a text into its tokens and comments: a name, a digit run,
# a comment, or any other character as a one-character token.
_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_']*|\d+|--[^\n]*|\S")

_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_ONE_CHAR_TOKENS = _NAME_START | frozenset("0123456789<>()[].:,|!*+#")


def _clean(chars: frozenset[str], *tokens: str) -> re.Pattern:
    """A full match of a span of whitespace, `chars` and tokens that the
    patterns `tokens` match in one way only; it reads nothing outside the
    span, unlike a lookbehind. No match: some character may be stray."""
    return re.compile("(?:%s[\\s%s])*" % ("".join(t + "|" for t in tokens), re.escape("".join(sorted(chars)))))


KEYWORDS = {"new", "fun"}


class _Parser:
    """Recursive descent on the token strings of `text[pos:endpos]` and an empty
    end sentinel. Locations, from line `line` on, are worked out on error only.

    A subclass brings another grammar: its scanner `TOKEN_RE`, which matches
    exactly the tokens and `--` comments, as `_TOKEN_RE` does; its
    `ONE_CHAR_TOKENS`, where the digit 0 makes any decimal digit a token, as
    `\\d+` scans one; and `CLEAN_RE`, a `_clean` of one-character tokens and
    of tokens it reads whole, which fully matches only spans without strays."""

    TOKEN_RE = _TOKEN_RE
    ONE_CHAR_TOKENS = _ONE_CHAR_TOKENS
    CLEAN_RE = _clean(_ONE_CHAR_TOKENS)

    def __init__(self, text: str, pos: int = 0, endpos: int | None = None, line: int = 1):
        self.text = text
        self.line = line
        self.span = span = (pos, len(text) if endpos is None else endpos)
        self.tokens = tokens = self.TOKEN_RE.findall(text, *span)
        if text.find("--", *span) >= 0:
            self.tokens = tokens = [t for t in tokens if t[:2] != "--"]
        if not self.CLEAN_RE.fullmatch(text, *span):  # else the span is whitespace and tokens only
            ok = self.ONE_CHAR_TOKENS
            bad = [t for t in set(tokens) if len(t) == 1 and t not in ok and not (t.isdecimal() and "0" in ok)]
            if bad:
                i = min(map(tokens.index, bad))
                raise self.error(f"unexpected character {tokens[i]!r}", i)
        tokens.append("")
        self.pos = 0
        # Spellings in scope, free names included: a binder's undo restores
        # whatever its spelling meant before it. After a whole process, it
        # holds exactly the process's free names.
        self.scope: dict[str, Name] = {}

    def error(self, message: str, index: int) -> ParseError:
        """A `ParseError` located at token `index`, found by scanning again."""
        starts = (m.start() for m in self.TOKEN_RE.finditer(self.text, *self.span) if m[0][:2] != "--")
        offset = next(islice(starts, index, None), self.span[1])
        line = self.line + self.text.count("\n", 0, offset)
        return ParseError(message, line, offset - self.text.rfind("\n", 0, offset))

    def peek(self) -> str:
        return self.tokens[self.pos]

    def next(self) -> str:
        self.pos += 1
        return self.tokens[self.pos - 1]

    def expect(self, text: str) -> None:
        self.pos += 1
        if self.tokens[self.pos - 1] != text:
            raise self.missing(text, self.pos - 1)

    def missing(self, text: str, index: int) -> ParseError:
        """`text` was expected at token `index`."""
        tok = self.tokens[index]
        return self.error(f"expected {text!r}, found {tok or 'end of input'!r}", index)

    def fail(self, message: str) -> ParseError:
        return self.error(message, self.pos)

    def finish(self) -> None:
        if self.peek():
            raise self.fail(f"unexpected trailing input {self.peek()!r}")

    def take_name_text(self) -> str:
        tok = self.next()
        if tok[:1] not in _NAME_START or tok in KEYWORDS:
            raise self.error(f"expected a name, found {tok or 'end of input'!r}", self.pos - 1)
        return tok

    # -- names and scoping -------------------------------------------------

    def resolve(self, spelling: str) -> Name:
        name = self.scope.get(spelling)
        if name is None:
            name = self.scope[spelling] = fresh(spelling)
        return name

    # -- types --------------------------------------------------------------

    def parse_type(self) -> Type:
        """A type, read off one stack of the channel types still open (their
        capability, level and payload so far): type depth does not recurse."""
        toks = self.tokens
        open_: list[tuple[str, int, list[Type]]] = []
        while True:
            i = self.pos
            tok = toks[i]
            if tok == "Unit" or tok == "Nat":
                self.pos = i + 1
                t = UNIT if tok == "Unit" else NAT
            else:
                if tok == "#":
                    level = toks[i + 1]
                    self.pos = i + 2
                    if not level[:1].isdecimal():
                        raise self.error("expected a level after '#'", i + 1)
                    open_.append((SHARP, int(level), []))
                else:  # `i3` or `o0`: a name token, so `isdecimal` means ASCII digits
                    if not (tok[:1] in "io" and tok[1:].isdecimal()):
                        raise self.error(f"expected a type, found {tok or 'end of input'!r}", i)
                    self.pos = i + 1
                    open_.append((IN if tok[0] == "i" else OUT, int(tok[1:]), []))
                if toks[self.pos] != "[":
                    raise self.missing("[", self.pos)
                self.pos += 1
                continue
            while open_:  # `t` ends a payload entry: a `,` starts the next
                open_[-1][2].append(t)
                if toks[self.pos] == ",":
                    self.pos += 1
                    break
                if toks[self.pos] != "]":
                    raise self.missing("]", self.pos)
                self.pos += 1
                cap, level, payload = open_.pop()
                t = ChanT(cap, level, tuple(payload))
            else:
                return t

    # -- values ---------------------------------------------------------------

    def parse_value(self) -> Value:
        left = self._mul()
        while self.peek() == "+":
            self.pos += 1
            left = Add(left, self._mul())
        return left

    def _mul(self) -> Value:
        left = self._value_atom()
        while self.peek() == "*":
            self.pos += 1
            left = Mul(left, self._value_atom())
        return left

    def _value_atom(self) -> Value:
        tok = self.peek()
        if tok == "*":
            self.pos += 1
            return STAR
        if tok[:1].isdecimal():
            self.pos += 1
            return NatLit(int(tok))
        if tok == "(":
            self.pos += 1
            v = self.parse_value()
            self.expect(")")
            return v
        if tok[:1] in _NAME_START and tok not in KEYWORDS:
            self.pos += 1
            return NameRef(self.resolve(tok))
        raise self.fail(f"expected a value, found {tok or 'end of input'!r}")

    # -- processes ------------------------------------------------------------

    def parse_process(self) -> Process:
        left = self.parse_term()
        toks = self.tokens
        while toks[self.pos] == "|":
            self.pos += 1
            left = Par(left, self.parse_term())
        return left

    def parse_term(self) -> Process:
        """A chain of prefixes and restrictions, then the term that ends it.

        A loop reads the links as frames (node class, fields before the body,
        undo of the binders, whether a `(new a.P | ...)` group closes after
        it), wrapped around the end term innermost first: no recursion. A
        frame's undo is what `unbind` takes: a restriction's is `bind`'s
        saved list, an input's the same (spelling, earlier name) pairs made
        inline, or None when it binds nothing. The tokens are read through
        locals and the index `i`, which `self.pos` takes over only around a
        call into another rule."""
        toks, scope = self.tokens, self.scope
        i = self.pos
        frames: list[tuple[type, tuple, list | None, bool]] = []
        while True:
            tok = toks[i]
            if tok == "0":
                i += 1
                proc: Process = NIL
                break
            if tok == "(":
                if toks[i + 1] != "new":
                    self.pos = i + 1
                    proc = self.parse_process()
                    i = self.pos
                    if toks[i] != ")":
                        raise self.missing(")", i)
                    i += 1
                    break
                self.pos = i + 2
                fields, saved = self._restriction_head()
                i = self.pos
                if toks[i] in (")", "."):
                    # (new a)P, or (new a.P | ...) closed after the frame
                    frames.append((Res, fields, saved, toks[i] == "."))
                    i += 1
                    continue
                if toks[i] != "(":
                    raise self.error("expected '.', ')' or '(' in restriction", i)
                proc = self._close_group(Res(*fields, self._group(saved)))
                i = self.pos
                break
            if tok == "new":
                self.pos = i + 1
                fields, saved = self._restriction_head()
                i = self.pos
                if toks[i] == ".":
                    i += 1
                    frames.append((Res, fields, saved, False))
                    continue
                if toks[i] != "(":
                    raise self.error("expected '.' or '(' after restriction", i)
                proc = Res(*fields, self._group(saved))
                i = self.pos
                break
            if tok == "!":
                cls: type = RepIn
                tok = toks[i + 1]
                if tok[:1] not in _NAME_START or tok in KEYWORDS:
                    raise self.error(f"expected a name, found {tok or 'end of input'!r}", i + 1)
                i += 2
            elif tok[:1] in _NAME_START and tok not in KEYWORDS:
                cls = In
                i += 1
            else:
                raise self.error(f"expected a process, found {tok or 'end of input'!r}", i)
            subj = scope.get(tok)
            if subj is None:
                subj = scope[tok] = fresh(tok)
            after = toks[i]
            if cls is In and after != "(" and after != ".":
                if after != "<":
                    # bare name: discarded unit input with nil continuation
                    proc = In(subj, (), NIL)
                    break
                i += 1
                payload: list[Value] = []
                if toks[i] != ">":
                    while True:
                        tok = toks[i]
                        if tok[:1] in _NAME_START and tok not in KEYWORDS and toks[i + 1] in (",", ">"):
                            # a lone name, read in place
                            name = scope.get(tok)
                            if name is None:
                                name = scope[tok] = fresh(tok)
                            payload.append(NameRef(name))
                            i += 1
                        else:
                            self.pos = i
                            payload.append(self.parse_value())
                            i = self.pos
                        if toks[i] != ",":
                            break
                        i += 1
                if toks[i] != ">":
                    raise self.missing(">", i)
                i += 1
                proc = Out(subj, tuple(payload))
                break
            spellings: list[str] = []
            if toks[i] == "(":
                i += 1
                if toks[i] != ")":
                    while True:
                        tok = toks[i]
                        if tok[:1] not in _NAME_START or tok in KEYWORDS:
                            raise self.error(f"expected a name, found {tok or 'end of input'!r}", i)
                        spellings.append(tok)
                        i += 1
                        if toks[i] != ",":
                            break
                        i += 1
                if toks[i] != ")":
                    raise self.missing(")", i)
                i += 1
            if toks[i] != ".":
                proc = cls(subj, tuple([fresh(s) for s in spellings]), NIL)
                break
            i += 1
            if not spellings:
                frames.append((cls, (subj, ()), None, False))
                continue
            binders = []
            saved = []  # `bind`'s saved list, made in the loop that makes the binders
            for s in spellings:
                b = fresh(s)
                binders.append(b)
                saved.append((s, scope.get(s)))
                scope[s] = b
            frames.append((cls, (subj, tuple(binders)), saved, False))
        self.pos = i
        for cls, fields, undo, closes in reversed(frames):
            if undo is not None:
                unbind(scope, undo)
            proc = cls(*fields, proc)
            if closes:
                proc = self._close_group(proc)
        return proc

    def _restriction_head(self) -> tuple[tuple, list[tuple]]:
        """`a[:T][ fun]` after `new`: the fields of the `Res` before its body,
        and `bind`'s saved list of `a`, whose binder is now in scope."""
        spelling = self.take_name_text()
        annotation, functional = self._res_modifiers()
        binder = fresh(spelling)
        return (binder, annotation, functional), bind(self.scope, [(spelling, binder)])

    def _group(self, saved: list[tuple]) -> Process:
        """`(P)` as the body of a restriction, whose binder `unbind(saved)`
        takes out of scope."""
        self.pos += 1
        body = self.parse_process()
        self.expect(")")
        unbind(self.scope, saved)
        return body

    def _close_group(self, proc: Process) -> Process:
        """The rest of `(new a.P | Q ...)` after its first component `proc`."""
        while self.peek() == "|":
            self.pos += 1
            proc = Par(proc, self.parse_term())
        self.expect(")")
        return proc

    def _res_modifiers(self) -> tuple[Type | None, bool]:
        toks = self.tokens
        annotation: Type | None = None
        functional = False
        while True:
            tok = toks[self.pos]
            if tok == ":" and annotation is None:
                self.pos += 1
                annotation = self.parse_type()
            elif tok == "fun" and not functional:
                self.pos += 1
                functional = True
            else:
                return annotation, functional


def parse_process(text: str, free: dict[str, Name] | None = None) -> Process:
    """Parse a process; all binders come out globally fresh. A dict passed as
    `free` gets the process's free names, keyed by spelling."""
    p = _Parser(text)
    proc = p.parse_process()
    p.finish()
    if free is not None:
        free.update(p.scope)
    return proc


def parse_type(text: str) -> Type:
    p = _Parser(text)
    t = p.parse_type()
    p.finish()
    return t


_SPELLING = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")


def parse_env_file(text: str) -> list[tuple[str, str, Type]]:
    """Parse `name : type` lines; a leading `fun` or `isolated` sets the role.

    Returns (role, spelling, type) triples with role in {imp, fun, isolated}.
    Each type is read in place, so an error is located in its line.
    """
    entries: list[tuple[str, str, Type]] = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        body = raw.split("--", 1)[0]
        line = body.strip()
        if not line:
            continue
        role = "imp"
        marker = line.split(None, 1)
        if len(marker) == 2 and marker[0] in ("isolated", "fun"):
            role, line = marker
        if ":" not in line:
            raise ParseError("expected 'name : type'", lineno, 1)
        spelling = line.split(":", 1)[0].strip()
        if not _SPELLING.fullmatch(spelling):
            raise ParseError(f"bad name {spelling!r}", lineno, 1)
        p = _Parser(raw, raw.index(":") + 1, len(body.rstrip()), lineno)
        ty = p.parse_type()
        p.finish()
        entries.append((role, spelling, ty))
    return entries
