"""Level-based capability type checker.

`check` returns the least derivable weight of a process: outputs weigh the
declared level of their subject, replicated inputs demand a subject level
strictly above the weight of their body, parallel composition takes the
maximum. `derive(..., ds=True)` is the restricted mode with full-capability
channels only and syntactic payload equality instead of subtyping.

One walk (`derive`) yields the termination measure, the multiset of the
levels of the outputs not under replication, and reads the weight off it:
its greatest level, or 0. `measure` is therefore defined on well-typed
processes only. The walk copies the caller's environment once, binds every
binder in place and deletes it on scope exit. Each rule is tested in place,
and a helper only renders a rejection. The same walk is the impure checker's
(`impure.check_impure`): its impure mode changes only the input, restriction
and scope-end rules.
"""

from __future__ import annotations

from .errors import (
    CapabilityError,
    FunctionalInputNotIsolated,
    IllTyped,
    LevelViolation,
    MissingAnnotation,
    PayloadMismatch,
    SortError,
    UnboundName,
)
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
    NatT,
    Nil,
    Out,
    Par,
    Process,
    RepIn,
    Res,
    Star,
    Type,
    UnitT,
    Value,
    node,
    pretty_process,
    pretty_type,
    pretty_value,
    value_operands,
)


class TypeEnv:
    """Finite map from names to types; binding an already-bound name is an
    error. Two environments are equal when their bindings are."""

    __slots__ = ("bindings",)

    def __init__(self, bindings: dict[Name, Type] | None = None):
        self.bindings = {} if bindings is None else bindings

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return self.bindings == other.bindings
        return NotImplemented

    def get(self, name: Name) -> Type:
        try:
            return self.bindings[name]
        except KeyError:
            raise UnboundName(f"name {name.display!r} is not in the environment") from None

    def __contains__(self, name: Name) -> bool:
        return name in self.bindings

    def items(self) -> list[tuple[Name, Type]]:
        return sorted(self.bindings.items(), key=lambda kv: (kv[0].display, kv[0].id))


# ---------------------------------------------------------------------------
# Subtyping


def subtype(s: Type, u: Type) -> bool:
    """Decide s <= u for the capability-and-level subtype order.

    The order is reflexive, so one object answers for itself at once: the
    types of an inferred typing are shared, each distinct one built once,
    and its re-check compares most of them by identity alone."""
    return s is u or _compare(s, u, False)


def _compare(s: Type, u: Type, exact: bool) -> bool:
    """s <= u, or s == u when `exact`. The payload pairs still to compare
    wait on one stack, each with its own `exact`, so type depth does not
    recurse: an input payload is covariant, an output payload contravariant,
    and a `#` payload, like every pair under it, must be equal."""
    todo = [(s, u, exact)]
    while todo:
        s, u, exact = todo.pop()
        if s is u:
            continue
        if not isinstance(s, ChanT):
            if type(s) is type(u) and isinstance(s, (UnitT, NatT)):
                continue
            return False
        if not isinstance(u, ChanT) or len(s.payload) != len(u.payload):
            return False
        cap = u.cap
        if exact or cap == SHARP:
            if s.cap != cap or s.level != u.level:
                return False
            todo += [(a, b, True) for a, b in zip(s.payload, u.payload)]
        elif cap == IN:
            if s.cap == OUT or s.level < u.level:
                return False
            todo += [(a, b, False) for a, b in zip(s.payload, u.payload)]
        else:
            if s.cap == IN or s.level > u.level:
                return False
            todo += [(b, a, False) for a, b in zip(s.payload, u.payload)]
    return True


# ---------------------------------------------------------------------------
# Value typing


def value_type(env: TypeEnv, v: Value) -> Type:
    """Least type of a value: names at their declared type, arithmetic at Nat."""
    if isinstance(v, Star):
        return UNIT
    if isinstance(v, NatLit):
        return NAT
    if isinstance(v, NameRef):
        return env.get(v.name)
    if isinstance(v, (Add, Mul)):
        for side, whole in value_operands(v):
            ty = value_type(env, side)
            if not subtype(ty, NAT):
                raise SortError(
                    f"arithmetic over a non-Nat value of type {pretty_type(ty)}",
                    where=pretty_value(whole),
                )
        return NAT
    raise TypeError(f"not a value: {v!r}")


# ---------------------------------------------------------------------------
# Process checking: the typing rules, one walk for weight and measure
#
# `_weigh` tests each rule in place. Only a failed test calls a renderer,
# which builds the rule's error with the offending node printed by
# `pretty_process`: an accepted process is never printed. An unbound name
# raises at once, from `TypeEnv.get`.


def _subject_error(env: TypeEnv, p: Out | In | RepIn, want_cap: str, ds: bool) -> IllTyped:
    """The subject of `p` lacks `want_cap`, or with `ds` the full capability."""
    ty = env.get(p.subject)
    if not isinstance(ty, ChanT):
        why = " has non-channel type "
    elif ds:
        why = " must carry the full capability, has "
    else:
        why = f": no {'output' if want_cap == OUT else 'input'} capability in "
    return CapabilityError(p.subject.display + why + pretty_type(ty), where=pretty_process(p))


def _payload_error(env: TypeEnv, p: Out | In | RepIn, chan: ChanT, ds: bool) -> PayloadMismatch:
    """The first misfit of the values `p` sends, or of its binders, with the
    payload of `chan`: in number, then in type."""
    sends = isinstance(p, Out)
    have = p.payload or (STAR,) if sends else p.binders
    why = f"{p.subject.display} expects {len(chan.payload)} {'value' if sends else 'binder'}(s), got {len(have)}"
    if not have:  # a discarded unit input: the channel must carry a single Unit
        why = f"{p.subject.display} carries {pretty_type(chan)}, cannot elide a non-unit message"
    elif sends and len(have) == len(chan.payload):
        for v, want in zip(have, chan.payload):
            got = value_type(env, v)
            if got is not want and not _compare(got, want, ds):
                why = f"value {pretty_value(v)} : {pretty_type(got)} does not fit {pretty_type(want)}"
                break
    return PayloadMismatch(why, where=pretty_process(p))


def _weigh(
    env: TypeEnv,
    p: Process,
    levels: list[int],
    ds: bool = False,
    functional: set[Name] | None = None,
    isolated: Name | None = None,
) -> None:
    """Type `p` under `env`; appends each output subject's declared level to
    `levels`, or to the list of its nearest enclosing checked input, which is
    checked against that list once its body is done.

    Each rule tests in place, in order: the subject's binding, channel and
    capability; the payload's arity; each value's type, fitting by identity
    first; the binders, unless already bound; a restriction's annotation.
    Only a failed test calls a renderer, to build its error.

    With `functional`, the names known functional, the impure mode, where
    `isolated` is the name isolated, if any. It changes three rules:
    - every input is checked, not only a replicated one; a replicated input
      on the isolated name is its defining input, typed with the name hidden
      and a non-strict bound; an input on another functional name is refused;
    - a restriction's annotation must be `o` for `fun`, `#` otherwise, and a
      `fun` restriction isolates its name in its body;
    - a restriction's scope end drops its name from `functional`.

    Neither `|` width nor prefix depth recurses: the walk goes down the left
    component of each `|` and into each binder's body in place, and leaves
    on a stack what comes after: a right component with the name isolated
    there and the list its outputs go to, or the end of a binder's scope,
    with the names it bound, the node and, for a checked input, what its
    level check needs. Components go left to right, and a scope ends after
    its body, so the first error raised is the one a recursive walk
    raises."""
    bindings = env.bindings
    todo: list = [(p, isolated, levels)]
    while todo:
        q, iso, out = todo.pop()
        if q.__class__ is tuple:
            # the end of a binder's scope: `q` holds the names it bound, and
            # the binder stands where a component's isolated name does
            for name in q:
                del bindings[name]
            node = iso
            if out is None:
                if functional is not None:
                    functional.discard(node.name)  # a restriction's name
                continue
            chan, defining, inner = out
            w = max(inner, default=0)
            if defining:
                bindings[node.subject] = chan
                if not chan.level >= w:
                    raise LevelViolation(
                        f"functional input on {node.subject.display}: level {chan.level} "
                        f"below body weight {w}",
                        where=pretty_process(node),
                    )
            elif not chan.level > w:
                kind = "replicated input" if isinstance(node, RepIn) else "input"
                raise LevelViolation(
                    f"{kind} on {node.subject.display}: level {chan.level} "
                    f"does not dominate body weight {w}",
                    where=pretty_process(node),
                )
            continue
        while True:  # down the left of a `|` or into a binder's body
            cls = q.__class__
            if cls is Out:
                chan = bindings.get(q.subject)
                if chan.__class__ is not ChanT or chan.cap != SHARP and (ds or chan.cap != OUT):
                    raise _subject_error(env, q, OUT, ds)
                values = q.payload or (STAR,)
                if len(values) != len(chan.payload):
                    raise _payload_error(env, q, chan, ds)
                for v, want in zip(values, chan.payload):
                    got = bindings.get(v.name) if v.__class__ is NameRef else value_type(env, v)
                    if got is not want and (got is None or not _compare(got, want, ds)):
                        raise _payload_error(env, q, chan, ds)
                out.append(chan.level)
                break
            if cls is Par:
                todo.append((q.right, iso, out))
                q = q.left
            elif cls is In or cls is RepIn:
                defining = q.subject is iso and cls is RepIn
                if defining:
                    chan = bindings.pop(iso)  # hidden from its defining body
                elif functional and q.subject in functional:
                    raise FunctionalInputNotIsolated(
                        f"input on functional name {q.subject.display} outside its defining scope",
                        where=pretty_process(q),
                    )
                else:
                    chan = bindings.get(q.subject)
                    if chan.__class__ is not ChanT or chan.cap != SHARP and (ds or chan.cap != IN):
                        raise _subject_error(env, q, IN, ds)
                binders = q.binders
                if len(binders) != len(chan.payload) if binders else chan.payload != (UNIT,):
                    raise _payload_error(env, q, chan, ds)
                for name, ty in zip(binders, chan.payload):
                    if name in bindings:
                        raise UnboundName(f"name {name.display!r} is already bound")
                    bindings[name] = ty
                if functional is None and cls is In:
                    todo.append((binders, q, None))  # binds only
                else:
                    inner: list[int] = []
                    todo.append((binders, q, (chan, defining, inner)))
                    iso, out = None, inner
                q = q.body
            elif cls is Res:
                ty = q.annotation
                if ty is None:
                    raise MissingAnnotation(
                        f"restriction on {q.name.display} lacks a type annotation",
                        where=pretty_process(q),
                    )
                impure = functional is not None
                if impure and not (isinstance(ty, ChanT) and ty.cap == (OUT if q.functional else SHARP)):
                    kind, need = ("functional", "an o-type") if q.functional else ("imperative", "a full-capability")
                    raise CapabilityError(
                        f"{kind} restriction on {q.name.display} needs {need} annotation, has {pretty_type(ty)}",
                        where=pretty_process(q),
                    )
                if q.name in bindings:
                    raise UnboundName(f"name {q.name.display!r} is already bound")
                bindings[q.name] = ty
                todo.append(((q.name,), q, None))
                if impure and q.functional:
                    functional.add(q.name)
                    iso = q.name
                q = q.body
            elif cls is Nil:
                break
            else:
                raise TypeError(f"not a process: {q!r}")


Multiset = tuple[int, ...]


def as_multiset(values) -> Multiset:
    return tuple(sorted(values, reverse=True))


@node
class Derivation:
    """What one typing walk yields.

    `weight` is the least derivable weight. `measure` is the termination
    measure: the multiset of the declared levels of the outputs not under
    replication, read off the environment and the restriction annotations,
    never via subtyping.
    """

    weight: int
    measure: Multiset


def derive(env: TypeEnv, p: Process, ds: bool = False) -> Derivation:
    """Type `p` under `env` in one walk; raises IllTyped otherwise.

    With `ds`, the restricted mode: full-capability channels only and
    syntactic payload equality instead of subtyping.
    """
    levels: list[int] = []
    _weigh(TypeEnv(dict(env.bindings)), p, levels, ds)
    return Derivation(max(levels, default=0), as_multiset(levels))


def check(env: TypeEnv, p: Process) -> int:
    """Least weight derivable for `p` under `env`; raises IllTyped otherwise."""
    return derive(env, p).weight


def measure(env: TypeEnv, p: Process) -> Multiset:
    """Multiset of levels of the outputs of `p` not under replication.

    Defined on well-typed processes only: raises IllTyped otherwise.
    """
    return derive(env, p).measure
