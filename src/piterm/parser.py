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
    Nil,
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

# One `findall` scans a text: whitespace and comments give an empty group, a
# token its text, any other character a one-character token `_Parser` rejects.
_TOKEN_RE = re.compile(r"\s+|--[^\n]*|([A-Za-z_][A-Za-z0-9_']*|\d+|[<>()\[\].:,|!*+#]|.)")

_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_ONE_CHAR_TOKENS = _NAME_START | frozenset("0123456789<>()[].:,|!*+#")

KEYWORDS = {"new", "fun"}

_CAP_NAME = re.compile(r"^([io])(\d+)$")


class _Parser:
    """Recursive descent on the token strings of `text[pos:endpos]` and an empty
    end sentinel. Locations, from line `line` on, are worked out on error only.

    A subclass brings another grammar: its scanner `TOKEN_RE`, with one group
    as in `_TOKEN_RE`, and its `ONE_CHAR_TOKENS`. Where these hold the digit
    0, any decimal digit is a token, as `\\d+` scans one."""

    TOKEN_RE = _TOKEN_RE
    ONE_CHAR_TOKENS = _ONE_CHAR_TOKENS

    def __init__(self, text: str, pos: int = 0, endpos: int | None = None, line: int = 1):
        self.text = text
        self.span = (pos, len(text) if endpos is None else endpos)
        self.line = line
        self.tokens = list(filter(None, self.TOKEN_RE.findall(text, *self.span)))
        ok = self.ONE_CHAR_TOKENS
        bad = [t for t in set(self.tokens) if len(t) == 1 and t not in ok and not (t.isdecimal() and "0" in ok)]
        if bad:
            i = min(map(self.tokens.index, bad))
            raise self.error(f"unexpected character {self.tokens[i]!r}", i)
        self.tokens.append("")
        self.pos = 0
        # Spellings in scope, free names included: a binder's undo restores
        # whatever its spelling meant before it.
        self.scope: dict[str, Name] = {}

    def error(self, message: str, index: int) -> ParseError:
        """A `ParseError` located at token `index`, found by scanning again."""
        starts = (m.start() for m in self.TOKEN_RE.finditer(self.text, *self.span) if m.group(1))
        offset = next(islice(starts, index, None), self.span[1])
        line = self.line + self.text.count("\n", 0, offset)
        return ParseError(message, line, offset - self.text.rfind("\n", 0, offset))

    def peek(self) -> str:
        return self.tokens[self.pos]

    def next(self) -> str:
        self.pos += 1
        return self.tokens[self.pos - 1]

    def expect(self, text: str) -> None:
        tok = self.next()
        if tok != text:
            raise self.error(f"expected {text!r}, found {tok or 'end of input'!r}", self.pos - 1)

    def fail(self, message: str) -> ParseError:
        return self.error(message, self.pos)

    def finish(self) -> None:
        if self.peek():
            raise self.fail(f"unexpected trailing input {self.peek()!r}")

    def at_name(self) -> bool:
        tok = self.peek()
        return tok[:1] in _NAME_START and tok not in KEYWORDS

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
        tok = self.peek()
        if tok == "Unit":
            self.pos += 1
            return UNIT
        if tok == "Nat":
            self.pos += 1
            return NAT
        if tok == "#":
            level = self.tokens[self.pos + 1]
            self.pos += 2
            if not level[:1].isdecimal():
                raise self.error("expected a level after '#'", self.pos - 1)
            return self._chan(SHARP, int(level))
        m = _CAP_NAME.match(tok)
        if m:
            self.pos += 1
            cap = IN if m.group(1) == "i" else OUT
            return self._chan(cap, int(m.group(2)))
        raise self.fail(f"expected a type, found {tok or 'end of input'!r}")

    def _chan(self, cap: str, level: int) -> Type:
        self.expect("[")
        payload = [self.parse_type()]
        while self.peek() == ",":
            self.pos += 1
            payload.append(self.parse_type())
        self.expect("]")
        return ChanT(cap, level, tuple(payload))

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
        if self.at_name():
            return NameRef(self.resolve(self.take_name_text()))
        raise self.fail(f"expected a value, found {tok or 'end of input'!r}")

    # -- processes ------------------------------------------------------------

    def parse_process(self) -> Process:
        left = self.parse_term()
        while self.peek() == "|":
            self.pos += 1
            left = Par(left, self.parse_term())
        return left

    def parse_term(self) -> Process:
        """A chain of prefixes and restrictions, then the term that ends it.

        A loop reads the links as frames (node class, fields before the body,
        undo of the binders, whether a `(new a.P | ...)` group closes after
        it), wrapped around the end term innermost first: no recursion."""
        frames: list[tuple[type, tuple, list, bool]] = []
        while True:
            tok = self.peek()
            if tok == "0":
                self.pos += 1
                proc: Process = Nil()
                break
            if tok == "(" and self.tokens[self.pos + 1] == "new":
                self.pos += 2
                fields, saved = self._restriction_head()
                if self.peek() in (")", "."):
                    # (new a)P, or (new a.P | ...) closed after the frame
                    frames.append((Res, fields, saved, self.next() == "."))
                    continue
                if self.peek() != "(":
                    raise self.fail("expected '.', ')' or '(' in restriction")
                proc = self._close_group(Res(*fields, self._group(saved)))
                break
            if tok == "(":
                self.pos += 1
                proc = self.parse_process()
                self.expect(")")
                break
            if tok == "new":
                self.pos += 1
                fields, saved = self._restriction_head()
                if self.peek() == ".":
                    self.pos += 1
                    frames.append((Res, fields, saved, False))
                    continue
                if self.peek() != "(":
                    raise self.fail("expected '.' or '(' after restriction")
                proc = Res(*fields, self._group(saved))
                break
            if tok == "!":
                self.pos += 1
                cls: type = RepIn
                spelling = self.take_name_text()
            elif self.at_name():
                self.pos += 1
                cls, spelling = In, tok
                if self.peek() == "<":
                    proc = self._output_tail(self.resolve(spelling))
                    break
            else:
                raise self.fail(f"expected a process, found {tok or 'end of input'!r}")
            subj = self.resolve(spelling)
            if cls is In and self.peek() not in ("(", "."):
                # bare name: discarded unit input with nil continuation
                proc = In(subj, (), Nil())
                break
            spellings = self._binder_spellings()
            binders = tuple(fresh(s) for s in spellings)
            if self.peek() != ".":
                proc = cls(subj, binders, Nil())
                break
            self.pos += 1
            frames.append((cls, (subj, binders), bind(self.scope, zip(spellings, binders)), False))
        for cls, fields, saved, closes in reversed(frames):
            unbind(self.scope, saved)
            proc = cls(*fields, proc)
            if closes:
                proc = self._close_group(proc)
        return proc

    def _output_tail(self, subj: Name) -> Process:
        self.expect("<")
        payload: list[Value] = []
        if self.peek() != ">":
            payload.append(self.parse_value())
            while self.peek() == ",":
                self.pos += 1
                payload.append(self.parse_value())
        self.expect(">")
        return Out(subj, tuple(payload))

    def _binder_spellings(self) -> list[str]:
        spellings: list[str] = []
        if self.peek() == "(":
            self.pos += 1
            if self.peek() != ")":
                spellings.append(self.take_name_text())
                while self.peek() == ",":
                    self.pos += 1
                    spellings.append(self.take_name_text())
            self.expect(")")
        return spellings

    def _restriction_head(self) -> tuple[tuple, list]:
        """`a[:T][ fun]` after `new`: the fields of the `Res` before its body,
        and the undo of its binder, already in scope."""
        spelling = self.take_name_text()
        annotation, functional = self._res_modifiers()
        binder = fresh(spelling)
        return (binder, annotation, functional), bind(self.scope, [(spelling, binder)])

    def _group(self, saved: list) -> Process:
        """`(P)` as the body of a restriction, whose binder `saved` undoes."""
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
        annotation: Type | None = None
        functional = False
        while True:
            tok = self.peek()
            if tok == ":" and annotation is None:
                self.pos += 1
                annotation = self.parse_type()
            elif tok == "fun" and not functional:
                self.pos += 1
                functional = True
            else:
                return annotation, functional


def parse_process(text: str) -> Process:
    """Parse a process; all binders come out globally fresh."""
    p = _Parser(text)
    proc = p.parse_process()
    p.finish()
    return proc


def parse_type(text: str) -> Type:
    p = _Parser(text)
    t = p.parse_type()
    p.finish()
    return t


def parse_env_file(text: str) -> list[tuple[str, str, Type]]:
    """Parse `name : type` lines; a leading `fun` or `isolated` sets the role.

    Returns (role, spelling, type) triples with role in {imp, fun, isolated}.
    """
    entries: list[tuple[str, str, Type]] = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        body = raw.split("--", 1)[0]
        line = body.strip()
        if not line:
            continue
        role = "imp"
        for marker in ("isolated", "fun"):
            if line.startswith(marker + " "):
                role = marker
                line = line[len(marker) :].strip()
                break
        if ":" not in line:
            raise ParseError("expected 'name : type'", lineno, 1)
        spelling = line.split(":", 1)[0].strip()
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_']*", spelling):
            raise ParseError(f"bad name {spelling!r}", lineno, 1)
        # the type is read in place, so an error is located in the raw line
        p = _Parser(raw, raw.index(":") + 1, len(body.rstrip()), lineno)
        ty = p.parse_type()
        p.finish()
        entries.append((role, spelling, ty))
    return entries
