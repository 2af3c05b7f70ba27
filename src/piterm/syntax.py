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
# Scopes: since every binder is fresh, a walk keeps one map per scope and
# undoes each binding on scope exit instead of copying the map per binder.


def bind(scope: dict, pairs) -> list[tuple]:
    """Map each key of `pairs` to its value in `scope`; returns what `unbind` needs."""
    saved = []
    for key, value in pairs:
        saved.append((key, scope.get(key)))
        scope[key] = value
    return saved


def unbind(scope: dict, saved: list[tuple]) -> None:
    """Undo a `bind`: every key gets back its earlier value, or leaves `scope`."""
    for key, old in reversed(saved):
        if old is None:
            del scope[key]
        else:
            scope[key] = old


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
    """The names used less the names bound, since every binder is fresh;
    walked with a stack, so neither width nor depth recurses."""
    used: set[Name] = set()
    bound: set[Name] = set()
    todo = [p]
    while todo:
        q = todo.pop()
        if isinstance(q, Par):
            todo += (q.left, q.right)
        elif isinstance(q, Out):
            used.add(q.subject)
            for v in q.payload:
                used |= value_names(v)
        elif isinstance(q, (In, RepIn)):
            used.add(q.subject)
            bound.update(q.binders)
            todo.append(q.body)
        elif isinstance(q, Res):
            bound.add(q.name)
            todo.append(q.body)
        elif not isinstance(q, Nil):
            raise TypeError(f"not a process: {q!r}")
    return used - bound


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
    return _substitute(p, {n.id: v for n, v in mapping.items()})


def _substitute(q: Process, ren: dict[int, Value]) -> Process:
    """`ren` maps the ids of the names replaced so far and comes back unchanged."""
    if isinstance(q, Nil):
        return q
    if isinstance(q, Par):
        return Par(_substitute(q.left, ren), _substitute(q.right, ren))
    if isinstance(q, Out):
        return Out(
            _subst_subject(q.subject, ren),
            tuple(_subst_value(v, ren) for v in q.payload),
        )
    if isinstance(q, (In, RepIn)):
        subj = _subst_subject(q.subject, ren)
        binders = tuple(fresh(b.display) for b in q.binders)
        saved = bind(ren, [(b.id, NameRef(nb)) for b, nb in zip(q.binders, binders)])
        body = _substitute(q.body, ren)
        unbind(ren, saved)
        return type(q)(subj, binders, body)
    if isinstance(q, Res):
        nb = fresh(q.name.display)
        saved = bind(ren, [(q.name.id, NameRef(nb))])
        body = _substitute(q.body, ren)
        unbind(ren, saved)
        return Res(nb, q.annotation, q.functional, body)
    raise TypeError(f"not a process: {q!r}")


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
    """`env` labels the names bound around `p` and comes back unchanged."""
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
        base = counter[0]
        counter[0] += len(p.binders)
        saved = bind(env, [(b.id, f"b{base + i}") for i, b in enumerate(p.binders)])
        body = _serial(p.body, env, counter)
        unbind(env, saved)
        return f"({tag} {subj} /{len(p.binders)} {body})"
    if isinstance(p, Res):
        saved = bind(env, [(p.name.id, f"b{counter[0]}")])
        counter[0] += 1
        ann = pretty_type(p.annotation) if p.annotation is not None else "_"
        kind = "fun" if p.functional else "imp"
        body = _serial(p.body, env, counter)
        unbind(env, saved)
        return f"(new {kind} {ann} {body})"
    raise TypeError(f"not a process: {p!r}")


def alpha_key(p: Process) -> str:
    """Serialization that identifies processes exactly up to alpha-renaming."""
    return _serial(p, {}, [0])


# ---------------------------------------------------------------------------
# Pretty printing (re-parseable concrete syntax)


def pretty_value(v: Value, names: dict[int, str] | None = None) -> str:
    return _pretty_value(v, names or {}, 0)


def _pretty_value(u: Value, names: dict[int, str], prec: int) -> str:
    if isinstance(u, Star):
        return "*"
    if isinstance(u, NatLit):
        return str(u.value)
    if isinstance(u, NameRef):
        return names.get(u.name.id, u.name.display)
    if isinstance(u, Add):
        s = f"{_pretty_value(u.left, names, 1)} + {_pretty_value(u.right, names, 1)}"
        return f"({s})" if prec > 1 else s
    if isinstance(u, Mul):
        s = f"{_pretty_value(u.left, names, 2)} * {_pretty_value(u.right, names, 2)}"
        return f"({s})" if prec > 2 else s
    raise TypeError(f"not a value: {u!r}")


def pretty_process(p: Process) -> str:
    """Print with binder spellings disambiguated so reparsing is alpha-faithful."""
    return _pretty(p, True, {}, {n.display for n in free_names(p)})


def _pick(display: str, used: set[str]) -> str:
    """`display`, or the first `display1`, `display2`, ... not in `used`; now used."""
    spelling = display
    i = 0
    while spelling in used:
        i += 1
        spelling = f"{display}{i}"
    used.add(spelling)
    return spelling


def _pretty(q: Process, top: bool, names: dict[int, str], used: set[str]) -> str:
    """`names` spells the binders met so far; `used` holds every spelling taken."""
    if isinstance(q, Nil):
        return "0"
    if isinstance(q, Par):
        # left-associated chains print flat; a right Par keeps its parens
        s = f"{_pretty(q.left, True, names, used)} | {_pretty(q.right, False, names, used)}"
        return s if top else f"({s})"
    if isinstance(q, Out):
        args = ", ".join(_pretty_value(v, names, 0) for v in q.payload)
        return f"{names.get(q.subject.id, q.subject.display)}<{args}>"
    if isinstance(q, (In, RepIn)):
        bang = "!" if isinstance(q, RepIn) else ""
        for b in q.binders:
            names[b.id] = _pick(b.display, used)
        params = ", ".join(names[b.id] for b in q.binders)
        head = f"{bang}{names.get(q.subject.id, q.subject.display)}({params})"
        return f"{head}.{_pretty(q.body, False, names, used)}"
    if isinstance(q, Res):
        names[q.name.id] = _pick(q.name.display, used)
        ann = f":{pretty_type(q.annotation)}" if q.annotation is not None else ""
        kind = " fun" if q.functional else ""
        return f"new {names[q.name.id]}{ann}{kind}.{_pretty(q.body, False, names, used)}"
    raise TypeError(f"not a process: {q!r}")
