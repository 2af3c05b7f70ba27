"""Process, value and type syntax for the asynchronous polyadic pi-calculus.

Names carry globally unique integer ids; binders are freshened at parse time
and again after every substitution, so every AST in circulation keeps all
bound names pairwise distinct and disjoint from its free names. Every `Name`
comes from `fresh` and none is copied, so one id means one object: names
compare and hash by identity.
"""

from __future__ import annotations

import itertools
from functools import partial

from .errors import SortError

_ids = itertools.count(1)


class Name:
    """A name: its unique `id` and the spelling it `display`s; made by `fresh`
    only, and equal to itself alone."""

    __slots__ = ("id", "display")

    def __repr__(self) -> str:
        return f"{self.display}#{self.id}"


def fresh(display: str) -> Name:
    n = object.__new__(Name)
    n.id = next(_ids)
    n.display = display
    return n


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
# Nodes


class FrozenInstanceError(AttributeError):
    """Raised on assigning or deleting an attribute of a node."""


def node(cls: type) -> type:
    """Make `cls` a node: a frozen record of its annotated fields, built as
    a copy of `cls` with `__slots__`, so one allocation without a `__dict__`
    when its bases have empty slots. Its fields, in order, are its
    `__match_args__`, and one `exec` makes its `__init__`, by position or
    keyword: it stores each field through the field's slot descriptor
    (`Cls.field.__set__`, bound once the class is made), then runs
    `__post_init__`, if any. `__eq__` compares two nodes of one class and
    `__hash__` hashes one, each by its preorder of nested tuples and nodes,
    which `_flat` lists off one stack; `__repr__` reads
    `Cls(field=value, ...)`, off one stack too. Assigning or deleting any
    attribute raises `FrozenInstanceError`; `__getstate__`/`__setstate__`
    keep `copy` and `pickle` working."""
    names = tuple(cls.__dict__.get("__annotations__", ()))
    init = [f"_set_{n}(self, {n})" for n in names]
    if hasattr(cls, "__post_init__"):
        init.append("self.__post_init__()")
    source = f"def __init__({', '.join(['self', *names])}):\n    " + ("\n    ".join(init) or "pass")
    ns = {k: v for k, v in cls.__dict__.items() if k not in ("__dict__", "__weakref__")}
    setters = {"__name__": cls.__module__}
    exec(source, setters, ns)
    ns["__init__"].__qualname__ = f"{cls.__qualname__}.__init__"
    ns.update(__slots__=names, __match_args__=names, __qualname__=cls.__qualname__,
              __setattr__=_frozen_setattr, __delattr__=_frozen_delattr,
              __getstate__=_node_getstate, __setstate__=_node_setstate,
              __eq__=_node_eq, __hash__=_node_hash, __repr__=_node_repr)
    made = type(cls)(cls.__name__, cls.__bases__, ns)
    setters.update((f"_set_{n}", getattr(made, n).__set__) for n in names)
    return made


def _frozen_setattr(self, name: str, value) -> None:
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name: str) -> None:
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _node_getstate(self) -> list:
    return [getattr(self, n) for n in self.__match_args__]


def _node_setstate(self, state: list) -> None:
    for n, value in zip(self.__match_args__, state):
        object.__setattr__(self, n, value)


def _parts(x) -> list | tuple | None:
    """The items of a tuple or the fields of a node, which the node methods
    walk into; None for anything else."""
    if x.__class__ is tuple:
        return x
    return _node_getstate(x) if getattr(x.__class__, "__getstate__", None) is _node_getstate else None


def _flat(x) -> list:
    """The preorder of `x` off one stack: each tuple or node as its class
    and its length, then its items; any other object as itself."""
    out = []
    todo = [x]
    while todo:
        x = todo.pop()
        items = _parts(x)
        if items is None:
            out.append(x)
        else:
            out += (x.__class__, len(items))
            todo += reversed(items)
    return out


def _node_eq(self, other):
    """Equal preorders, so equal field tuples, for two nodes of one class."""
    if other.__class__ is not self.__class__:
        return NotImplemented
    return self is other or _flat(self) == _flat(other)


def _node_hash(self) -> int:
    """The hash of the preorder, so equal nodes hash equal at any depth."""
    return hash(tuple(_flat(self)))


def _node_repr(self) -> str:
    """`Cls(field=value, ...)`, left to right off one stack of the text still
    to write and the tuples and nodes still to print."""
    out: list[str] = []
    todo: list = [self]
    while todo:
        x = todo.pop()
        items = None if x.__class__ is str else _parts(x)
        if items is None:
            out.append(x)
            continue
        plain = x.__class__ is tuple
        out.append("(" if plain else x.__class__.__qualname__ + "(")
        todo.append(",)" if plain and len(items) == 1 else ")")
        for i in range(len(items) - 1, -1, -1):
            item = items[i]
            shown = item if _parts(item) is not None else repr(item)
            todo += (shown, "" if plain else x.__match_args__[i] + "=", ", " if i else "")
    return "".join(out)


# ---------------------------------------------------------------------------
# Types

SHARP = "#"
IN = "i"
OUT = "o"


class Type:
    __slots__ = ()


@node
class UnitT(Type):
    pass


@node
class NatT(Type):
    pass


@node
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


_CLOSE, _COMMA = object(), object()  # the text `pretty_type` stacks between types


def pretty_type(t: Type) -> str:
    """The printed type, left to right off one stack: type depth does not
    recurse."""
    out: list[str] = []
    todo: list = [t]
    while todo:
        t = todo.pop()
        if t is _CLOSE:
            out.append("]")
        elif t is _COMMA:
            out.append(", ")
        elif isinstance(t, ChanT):
            out.append(f"{t.cap}{t.level}[")
            todo.append(_CLOSE)
            payload = t.payload
            for i in range(len(payload) - 1, 0, -1):
                todo += (payload[i], _COMMA)
            todo.append(payload[0])
        elif isinstance(t, UnitT):
            out.append("Unit")
        elif isinstance(t, NatT):
            out.append("Nat")
        else:
            raise TypeError(f"not a type: {t!r}")
    return "".join(out)


# ---------------------------------------------------------------------------
# Values


class Value:
    __slots__ = ()


@node
class Star(Value):
    pass


@node
class NameRef(Value):
    name: Name


@node
class NatLit(Value):
    value: int

    def __post_init__(self):
        assert self.value >= 0


@node
class Add(Value):
    left: Value
    right: Value


@node
class Mul(Value):
    left: Value
    right: Value


STAR = Star()


# ---------------------------------------------------------------------------
# Processes


class Process:
    __slots__ = ()


@node
class Nil(Process):
    pass


@node
class Par(Process):
    left: Process
    right: Process


@node
class Out(Process):
    subject: Name
    payload: tuple[Value, ...]  # empty tuple abbreviates a unit message


@node
class In(Process):
    subject: Name
    binders: tuple[Name, ...]  # empty tuple abbreviates a discarded unit input
    body: Process


@node
class RepIn(Process):
    subject: Name
    binders: tuple[Name, ...]
    body: Process


@node
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


def fold_process(p: Process, leave, scope: dict | None = None, label=None):
    """`p` folded bottom-up off one stack: `leave(q, parts)` of each node `q`,
    left to right, with what its parts gave (none for an output or `0`). With
    `scope`, each binder of a prefix or restriction is bound in it, by id, to
    `label(binder)` on the way down, in preorder, and unbound after `leave`."""
    if p.__class__ is Out or p.__class__ is Nil:
        return leave(p, ())
    done: list = []
    todo: list = [p]
    while todo:
        q = todo.pop()
        cls = q.__class__
        if cls is tuple:  # a node whose parts are done, and what binding its binders saved
            q, saved = q
            if q.__class__ is Par:
                right = done.pop()
                done[-1] = leave(q, (done[-1], right))
            else:
                done[-1] = leave(q, (done[-1],))
            if saved:
                unbind(scope, saved)
        elif cls is Out or cls is Nil:
            done.append(leave(q, ()))
        elif cls is Par:
            todo += ((q, None), q.right, q.left)
        elif cls is In or cls is RepIn or cls is Res:
            binders = (q.name,) if cls is Res else q.binders
            todo += ((q, None if scope is None else bind(scope, [(b.id, label(b)) for b in binders])), q.body)
        else:
            raise TypeError(f"not a process: {q!r}")
    return done[0]


# ---------------------------------------------------------------------------
# Free names and values


def fold_value(v: Value, leaf, join):
    """`v` folded bottom-up off one stack: `leaf(u)` of each operand `u` that
    is no sum or product, left to right, and `join(u, left, right)` of each
    sum or product on what its operands gave."""
    done: list = []
    todo: list = [v]
    while todo:
        u = todo.pop()
        if u.__class__ is tuple:  # a sum or product whose operands are done
            right = done.pop()
            done[-1] = join(u[0], done[-1], right)
        elif u.__class__ is Add or u.__class__ is Mul:
            todo += ((u,), u.right, u.left)
        else:
            done.append(leaf(u))
    return done[0]


def value_operands(v: Value):
    """Each operand of the sum or product `v` that is no sum or product, left
    to right and off one stack, with the sum or product it is an operand of."""
    todo = [(v.right, v), (v.left, v)]
    while todo:
        u, whole = todo.pop()
        if u.__class__ is Add or u.__class__ is Mul:
            todo += ((u.right, u), (u.left, u))
        else:
            yield u, whole


def value_names(v: Value) -> set[Name]:
    if v.__class__ is NameRef:
        return {v.name}
    if v.__class__ is not Add and v.__class__ is not Mul:
        return set()
    return {u.name for u, _ in value_operands(v) if u.__class__ is NameRef}


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
    if v.__class__ is not Add and v.__class__ is not Mul:
        return v
    return fold_value(v, eval_value, _eval_join)


def _eval_join(u: Value, left: Value, right: Value) -> Value:
    if left.__class__ is NatLit and right.__class__ is NatLit:
        return NatLit(left.value + right.value if u.__class__ is Add else left.value * right.value)
    return u.__class__(left, right)


def _subst_value(v: Value, mapping: dict[int, Value]) -> Value:
    if v.__class__ is NameRef:
        return mapping.get(v.name.id, v)
    if v.__class__ is not Add and v.__class__ is not Mul:
        return v
    return fold_value(v, lambda u: _subst_value(u, mapping), lambda u, left, right: u.__class__(left, right))


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
    """Simultaneous capture-avoiding substitution, folded: the result is
    re-freshened, each binder bound in preorder to a fresh copy in `ren`."""
    ren = {n.id: v for n, v in mapping.items()}

    def leave(q: Process, parts: tuple) -> Process:
        cls = q.__class__
        if cls is Out:
            return Out(_subst_subject(q.subject, ren), tuple([_subst_value(v, ren) for v in q.payload]))
        if cls is Par or cls is Nil:
            return Par(*parts) if parts else q
        if cls is Res:
            return Res(ren[q.name.id].name, q.annotation, q.functional, parts[0])
        return cls(_subst_subject(q.subject, ren), tuple([ren[b.id].name for b in q.binders]), parts[0])

    return fold_process(p, leave, ren, lambda b: NameRef(fresh(b.display)))


# ---------------------------------------------------------------------------
# Structure-preserving alpha-canonical serialization (no reordering)


def _serial_value(v: Value, env: dict[int, str]) -> str:
    cls = v.__class__
    if cls is Star:
        return "*"
    if cls is NatLit:
        return str(v.value)
    if cls is NameRef:
        return env.get(v.name.id, f"f:{v.name.display}")
    if cls is Add or cls is Mul:
        return fold_value(v, lambda u: _serial_value(u, env), lambda u, a, b: f"({'+*'[u.__class__ is Mul]} {a} {b})")
    raise TypeError(f"not a value: {v!r}")


def _label(counter: list[int], binder: Name) -> str:
    """The label of the next binder, `b<n>` of the running counter."""
    counter[0] += 1
    return f"b{counter[0] - 1}"


def _serial_node(env: dict[int, str], q: Process, parts: tuple) -> str:
    """The serial of `q` from the serials of its `parts`."""
    cls = q.__class__
    if cls is Out:
        args = " ".join([_serial_value(v, env) for v in q.payload])
        return f"(out {env.get(q.subject.id, f'f:{q.subject.display}')} [{args}])"
    if cls is In or cls is RepIn:
        tag = "rep" if cls is RepIn else "in"
        return f"({tag} {env.get(q.subject.id, f'f:{q.subject.display}')} /{len(q.binders)} {parts[0]})"
    if cls is Par:
        return f"(| {parts[0]} {parts[1]})"
    if cls is Nil:
        return "0"
    ann = pretty_type(q.annotation) if q.annotation is not None else "_"
    return f"(new {'fun' if q.functional else 'imp'} {ann} {parts[0]})"


def alpha_key(p: Process) -> str:
    """Serialization that identifies processes exactly up to alpha-renaming:
    folded, each binder labelled `b<n>` in preorder."""
    env: dict[int, str] = {}
    return fold_process(p, partial(_serial_node, env), env, partial(_label, [0]))


# ---------------------------------------------------------------------------
# Pretty printing (re-parseable concrete syntax)


def pretty_value(u: Value, names: dict[int, str] | None = None) -> str:
    cls = u.__class__
    if cls is Star:
        return "*"
    if cls is NatLit:
        return str(u.value)
    if cls is NameRef:
        return names.get(u.name.id, u.name.display) if names else u.name.display
    if cls is Add or cls is Mul:
        return fold_value(u, lambda w: pretty_value(w, names), _pretty_join)
    raise TypeError(f"not a value: {u!r}")


def _pretty_join(u: Value, left: str, right: str) -> str:
    """A sum or a product printed; only a sum inside a product is bracketed."""
    if u.__class__ is Add:
        return f"{left} + {right}"
    if u.left.__class__ is Add:
        left = f"({left})"
    if u.right.__class__ is Add:
        right = f"({right})"
    return f"{left} * {right}"


def pretty_process(p: Process) -> str:
    """Print with binder spellings disambiguated so reparsing is alpha-faithful.

    The text is written left to right off one stack of what is still to
    print, processes and literal pieces, so neither `|` width nor prefix
    depth recurses. A left-associated `|` chain prints flat; a `|` that is
    a right component or a body keeps its parentheses."""
    names: dict[int, str] = {}  # the spelling of each binder met so far
    used = {n.display: 1 for n in free_names(p)}  # every spelling taken, see `_pick`
    out: list[str] = []
    todo: list = [p]
    while todo:
        q = todo.pop()
        while True:  # down the left of a `|` or into a binder's body
            cls = type(q)  # node classes are final: the commonest tested first
            if cls is Out:
                args = ", ".join(pretty_value(v, names) for v in q.payload)
                out.append(f"{names.get(q.subject.id, q.subject.display)}<{args}>")
                break
            if cls is str:
                out.append(q)
                break
            if cls is Par:
                r = q.right
                todo += (")", r, " | (") if type(r) is Par else (r, " | ")
                q = q.left
                continue
            if cls is Nil:
                out.append("0")
                break
            if cls is In or cls is RepIn:
                for b in q.binders:
                    names[b.id] = _pick(b.display, used)
                params = ", ".join([names[b.id] for b in q.binders])
                bang = "!" if cls is RepIn else ""
                out.append(f"{bang}{names.get(q.subject.id, q.subject.display)}({params}).")
            elif cls is Res:
                names[q.name.id] = _pick(q.name.display, used)
                ann = f":{pretty_type(q.annotation)}" if q.annotation is not None else ""
                kind = " fun" if q.functional else ""
                out.append(f"new {names[q.name.id]}{ann}{kind}.")
            else:
                raise TypeError(f"not a process: {q!r}")
            q = q.body
            if type(q) is Par:
                out.append("(")
                todo.append(")")
    return "".join(out)


def _pick(display: str, used: dict[str, int]) -> str:
    """`display`, or the first `display1`, `display2`, ... not in `used`; now used.

    `used` maps each spelling taken to the least suffix its search may still
    find free: spellings are never released, so each search goes on where the
    last one on the same display stopped, and n equal binders cost O(n)."""
    if display not in used:
        used[display] = 1
        return display
    i = used[display]
    while f"{display}{i}" in used:
        i += 1
    used[display] = i + 1
    spelling = f"{display}{i}"
    used[spelling] = 1
    return spelling
