"""Process, value and type syntax for the asynchronous polyadic pi-calculus.

Names carry globally unique integer ids; binders are freshened at parse time
and again after every substitution, so every AST in circulation keeps all
bound names pairwise distinct and disjoint from its free names.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import SortError

_ids = itertools.count(1)


@dataclass(frozen=True)
class Name:
    id: int
    display: str = field(compare=False)

    def __repr__(self) -> str:
        return f"{self.display}#{self.id}"


def fresh(display: str) -> Name:
    return Name(next(_ids), display)


# ---------------------------------------------------------------------------
# Types

SHARP = "#"
IN = "i"
OUT = "o"


class Type:
    pass


@dataclass(frozen=True)
class UnitT(Type):
    pass


@dataclass(frozen=True)
class NatT(Type):
    pass


@dataclass(frozen=True)
class ChanT(Type):
    cap: str  # one of SHARP, IN, OUT
    level: int
    payload: tuple[Type, ...]

    def __post_init__(self):
        assert self.cap in (SHARP, IN, OUT)
        assert self.level >= 0
        assert len(self.payload) >= 1


@dataclass(frozen=True)
class TyVar(Type):
    """Placeholder used only inside inference, never in checker input."""

    id: int


UNIT = UnitT()
NAT = NatT()


def pretty_type(t: Type) -> str:
    if isinstance(t, UnitT):
        return "Unit"
    if isinstance(t, NatT):
        return "Nat"
    if isinstance(t, ChanT):
        inner = ", ".join(pretty_type(p) for p in t.payload)
        return f"{t.cap}{t.level}[{inner}]"
    if isinstance(t, TyVar):
        return f"?{t.id}"
    raise TypeError(f"not a type: {t!r}")


# ---------------------------------------------------------------------------
# Values


class Value:
    pass


@dataclass(frozen=True)
class Star(Value):
    pass


@dataclass(frozen=True)
class NameRef(Value):
    name: Name


@dataclass(frozen=True)
class NatLit(Value):
    value: int

    def __post_init__(self):
        assert self.value >= 0


@dataclass(frozen=True)
class Add(Value):
    left: Value
    right: Value


@dataclass(frozen=True)
class Mul(Value):
    left: Value
    right: Value


STAR = Star()


# ---------------------------------------------------------------------------
# Processes


class Process:
    pass


@dataclass(frozen=True)
class Nil(Process):
    pass


@dataclass(frozen=True)
class Par(Process):
    left: Process
    right: Process


@dataclass(frozen=True)
class Out(Process):
    subject: Name
    payload: tuple[Value, ...]  # empty tuple abbreviates a unit message


@dataclass(frozen=True)
class In(Process):
    subject: Name
    binders: tuple[Name, ...]  # empty tuple abbreviates a discarded unit input
    body: Process


@dataclass(frozen=True)
class RepIn(Process):
    subject: Name
    binders: tuple[Name, ...]
    body: Process


@dataclass(frozen=True)
class Res(Process):
    name: Name
    annotation: Type | None
    functional: bool
    body: Process


NIL = Nil()


def par(*ps: Process) -> Process:
    """Right-associated parallel composition convenience constructor."""
    items = [p for p in ps if not isinstance(p, Nil)]
    if not items:
        return NIL
    out = items[-1]
    for p in reversed(items[:-1]):
        out = Par(p, out)
    return out


# ---------------------------------------------------------------------------
# Free names and values


def value_names(v: Value) -> set[Name]:
    if isinstance(v, NameRef):
        return {v.name}
    if isinstance(v, (Add, Mul)):
        return value_names(v.left) | value_names(v.right)
    return set()


def free_names(p: Process) -> set[Name]:
    if isinstance(p, Nil):
        return set()
    if isinstance(p, Par):
        return free_names(p.left) | free_names(p.right)
    if isinstance(p, Out):
        out = {p.subject}
        for v in p.payload:
            out |= value_names(v)
        return out
    if isinstance(p, (In, RepIn)):
        return {p.subject} | (free_names(p.body) - set(p.binders))
    if isinstance(p, Res):
        return free_names(p.body) - {p.name}
    raise TypeError(f"not a process: {p!r}")


# ---------------------------------------------------------------------------
# Substitution


def eval_value(v: Value) -> Value:
    """Fold closed Nat arithmetic; leave names, star and open sums alone."""
    if isinstance(v, Add):
        left, right = eval_value(v.left), eval_value(v.right)
        if isinstance(left, NatLit) and isinstance(right, NatLit):
            return NatLit(left.value + right.value)
        return Add(left, right)
    if isinstance(v, Mul):
        left, right = eval_value(v.left), eval_value(v.right)
        if isinstance(left, NatLit) and isinstance(right, NatLit):
            return NatLit(left.value * right.value)
        return Mul(left, right)
    return v


def _subst_value(v: Value, mapping: dict[int, Value]) -> Value:
    if isinstance(v, NameRef):
        return mapping.get(v.name.id, v)
    if isinstance(v, Add):
        return Add(_subst_value(v.left, mapping), _subst_value(v.right, mapping))
    if isinstance(v, Mul):
        return Mul(_subst_value(v.left, mapping), _subst_value(v.right, mapping))
    return v


def _subst_subject(n: Name, mapping: dict[int, Value]) -> Name:
    v = mapping.get(n.id)
    if v is None:
        return n
    if isinstance(v, NameRef):
        return v.name
    raise SortError(
        f"cannot use value {pretty_value(v)} as a communication subject",
        where=n.display,
    )


def substitute_many(p: Process, mapping: dict[Name, Value]) -> Process:
    """Simultaneous capture-avoiding substitution; the result is re-freshened."""
    vmap = {n.id: v for n, v in mapping.items()}

    def walk(q: Process, ren: dict[int, Value]) -> Process:
        if isinstance(q, Nil):
            return q
        if isinstance(q, Par):
            return Par(walk(q.left, ren), walk(q.right, ren))
        if isinstance(q, Out):
            return Out(
                _subst_subject(q.subject, ren),
                tuple(_subst_value(v, ren) for v in q.payload),
            )
        if isinstance(q, (In, RepIn)):
            subj = _subst_subject(q.subject, ren)
            ren2 = dict(ren)
            fresh_binders = []
            for b in q.binders:
                nb = fresh(b.display)
                ren2[b.id] = NameRef(nb)
                fresh_binders.append(nb)
            body = walk(q.body, ren2)
            cls = In if isinstance(q, In) else RepIn
            return cls(subj, tuple(fresh_binders), body)
        if isinstance(q, Res):
            nb = fresh(q.name.display)
            ren2 = dict(ren)
            ren2[q.name.id] = NameRef(nb)
            return Res(nb, q.annotation, q.functional, walk(q.body, ren2))
        raise TypeError(f"not a process: {q!r}")

    return walk(p, vmap)


def substitute(p: Process, x: Name, v: Value) -> Process:
    return substitute_many(p, {x: v})


# ---------------------------------------------------------------------------
# Structure-preserving alpha-canonical serialization (no reordering)


def _serial_value(v: Value, env: dict[int, str]) -> str:
    if isinstance(v, Star):
        return "*"
    if isinstance(v, NatLit):
        return str(v.value)
    if isinstance(v, NameRef):
        return env.get(v.name.id, f"f:{v.name.display}")
    if isinstance(v, Add):
        return f"(+ {_serial_value(v.left, env)} {_serial_value(v.right, env)})"
    if isinstance(v, Mul):
        return f"(* {_serial_value(v.left, env)} {_serial_value(v.right, env)})"
    raise TypeError(f"not a value: {v!r}")


def _serial(p: Process, env: dict[int, str], counter: list[int]) -> str:
    if isinstance(p, Nil):
        return "0"
    if isinstance(p, Par):
        return f"(| {_serial(p.left, env, counter)} {_serial(p.right, env, counter)})"
    if isinstance(p, Out):
        subj = env.get(p.subject.id, f"f:{p.subject.display}")
        args = " ".join(_serial_value(v, env) for v in p.payload)
        return f"(out {subj} [{args}])"
    if isinstance(p, (In, RepIn)):
        tag = "rep" if isinstance(p, RepIn) else "in"
        subj = env.get(p.subject.id, f"f:{p.subject.display}")
        env2 = dict(env)
        for b in p.binders:
            env2[b.id] = f"b{counter[0]}"
            counter[0] += 1
        return f"({tag} {subj} /{len(p.binders)} {_serial(p.body, env2, counter)})"
    if isinstance(p, Res):
        env2 = dict(env)
        env2[p.name.id] = f"b{counter[0]}"
        counter[0] += 1
        ann = pretty_type(p.annotation) if p.annotation is not None else "_"
        kind = "fun" if p.functional else "imp"
        return f"(new {kind} {ann} {_serial(p.body, env2, counter)})"
    raise TypeError(f"not a process: {p!r}")


def alpha_key(p: Process) -> str:
    """Serialization that identifies processes exactly up to alpha-renaming."""
    return _serial(p, {}, [0])


def alpha_equal(p: Process, q: Process) -> bool:
    return alpha_key(p) == alpha_key(q)


# ---------------------------------------------------------------------------
# Pretty printing (re-parseable concrete syntax)


def pretty_value(v: Value, names: dict[int, str] | None = None) -> str:
    names = names or {}

    def go(u: Value, prec: int) -> str:
        if isinstance(u, Star):
            return "*"
        if isinstance(u, NatLit):
            return str(u.value)
        if isinstance(u, NameRef):
            return names.get(u.name.id, u.name.display)
        if isinstance(u, Add):
            s = f"{go(u.left, 1)} + {go(u.right, 1)}"
            return f"({s})" if prec > 1 else s
        if isinstance(u, Mul):
            s = f"{go(u.left, 2)} * {go(u.right, 2)}"
            return f"({s})" if prec > 2 else s
        raise TypeError(f"not a value: {u!r}")

    return go(v, 0)


def pretty_process(p: Process) -> str:
    """Print with binder spellings disambiguated so reparsing is alpha-faithful."""
    used = {n.display for n in free_names(p)}
    names: dict[int, str] = {}

    def pick(display: str) -> str:
        if display not in used:
            used.add(display)
            return display
        i = 1
        while f"{display}{i}" in used:
            i += 1
        used.add(f"{display}{i}")
        return f"{display}{i}"

    def name_of(n: Name) -> str:
        return names.get(n.id, n.display)

    def prefix_body(body: Process) -> str:
        inner = go(body, top=False)
        return inner

    def go(q: Process, top: bool) -> str:
        if isinstance(q, Nil):
            return "0"
        if isinstance(q, Par):
            # left-associated chains print flat; a right Par keeps its parens
            s = f"{go(q.left, top=True)} | {go(q.right, top=False)}"
            return s if top else f"({s})"
        if isinstance(q, Out):
            args = ", ".join(pretty_value(v, names) for v in q.payload)
            return f"{name_of(q.subject)}<{args}>"
        if isinstance(q, (In, RepIn)):
            bang = "!" if isinstance(q, RepIn) else ""
            for b in q.binders:
                names[b.id] = pick(b.display)
            params = ", ".join(name_of(b) for b in q.binders)
            head = f"{bang}{name_of(q.subject)}({params})"
            return f"{head}.{prefix_body(q.body)}"
        if isinstance(q, Res):
            names[q.name.id] = pick(q.name.display)
            ann = f":{pretty_type(q.annotation)}" if q.annotation is not None else ""
            kind = " fun" if q.functional else ""
            return f"new {name_of(q.name)}{ann}{kind}.{prefix_body(q.body)}"
        raise TypeError(f"not a process: {q!r}")

    return go(p, top=True)
