"""Level-based capability type checker.

`check` returns the least derivable weight of a process: outputs weigh the
declared level of their subject, replicated inputs demand a subject level
strictly above the weight of their body, parallel composition takes the
maximum. `check_ds` is the restricted mode with full-capability channels
only and syntactic payload equality instead of subtyping.

One walk (`derive`) yields both the weight and the termination measure, the
multiset of the levels of the outputs not under replication; `measure` is
therefore defined on well-typed processes only. The impure checker reuses
the subject-capability and payload rules below.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (
    CapabilityError,
    LevelViolation,
    MissingAnnotation,
    PayloadMismatch,
    SortError,
    UnboundName,
)
from .syntax import (
    IN,
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
    free_names,
    pretty_process,
    pretty_type,
    pretty_value,
)


@dataclass(frozen=True)
class TypeEnv:
    """Finite map from names to types; binding an already-bound name is an error."""

    bindings: dict[Name, Type] = field(default_factory=dict)

    def get(self, name: Name) -> Type:
        try:
            return self.bindings[name]
        except KeyError:
            raise UnboundName(f"name {name.display!r} is not in the environment") from None

    def __contains__(self, name: Name) -> bool:
        return name in self.bindings

    def bind(self, name: Name, ty: Type) -> TypeEnv:
        if name in self.bindings:
            raise UnboundName(f"name {name.display!r} is already bound")
        new = dict(self.bindings)
        new[name] = ty
        return TypeEnv(new)

    def bind_all(self, pairs: list[tuple[Name, Type]]) -> TypeEnv:
        env = self
        for name, ty in pairs:
            env = env.bind(name, ty)
        return env

    def items(self) -> list[tuple[Name, Type]]:
        return sorted(self.bindings.items(), key=lambda kv: (kv[0].display, kv[0].id))


def env_for(p: Process, declarations: dict[str, Type]) -> TypeEnv:
    """Build an environment for the free names of `p` from spelling-keyed types."""
    by_display: dict[str, Name] = {}
    for n in free_names(p):
        by_display.setdefault(n.display, n)
    bindings = {}
    for spelling, ty in declarations.items():
        if spelling in by_display:
            bindings[by_display[spelling]] = ty
    return TypeEnv(bindings)


# ---------------------------------------------------------------------------
# Subtyping


def subtype(s: Type, u: Type) -> bool:
    """Decide s <= u for the capability-and-level subtype order."""
    if isinstance(s, UnitT) and isinstance(u, UnitT):
        return True
    if isinstance(s, NatT) and isinstance(u, NatT):
        return True
    if isinstance(s, ChanT) and isinstance(u, ChanT):
        if len(s.payload) != len(u.payload):
            return False
        if u.cap == IN:
            return (
                s.cap in (SHARP, IN)
                and s.level >= u.level
                and all(subtype(a, b) for a, b in zip(s.payload, u.payload))
            )
        if u.cap == OUT:
            return (
                s.cap in (SHARP, OUT)
                and s.level <= u.level
                and all(subtype(b, a) for a, b in zip(s.payload, u.payload))
            )
        return s.cap == SHARP and s.level == u.level and s.payload == u.payload
    return False


# ---------------------------------------------------------------------------
# Value typing


def value_type(env: TypeEnv, v: Value) -> Type:
    """Least type of a value: names at their declared type, arithmetic at Nat."""
    if isinstance(v, Star):
        return UNIT
    if isinstance(v, NatLit):
        return NatT()
    if isinstance(v, NameRef):
        return env.get(v.name)
    if isinstance(v, (Add, Mul)):
        for side in (v.left, v.right):
            ty = value_type(env, side)
            if not subtype(ty, NatT()):
                raise SortError(
                    f"arithmetic over a non-Nat value of type {pretty_type(ty)}",
                    where=pretty_value(v),
                )
        return NatT()
    raise TypeError(f"not a value: {v!r}")


# ---------------------------------------------------------------------------
# Process checking: the typing rules, one walk for weight and measure
#
# Every rule receives the offending node and renders it with `pretty_process`
# only when it raises: an accepted process is never printed.


def subject_chan(env: TypeEnv, p: Out | In | RepIn, want_cap: str, ds: bool = False) -> ChanT:
    """Channel type of the subject of `p`, which must grant `want_cap`."""
    ty = env.get(p.subject)
    if not isinstance(ty, ChanT):
        raise CapabilityError(
            f"{p.subject.display} has non-channel type {pretty_type(ty)}",
            where=pretty_process(p),
        )
    if ds:
        if ty.cap != SHARP:
            raise CapabilityError(
                f"{p.subject.display} must carry the full capability, has {pretty_type(ty)}",
                where=pretty_process(p),
            )
        return ty
    if ty.cap not in (SHARP, want_cap):
        kind = "output" if want_cap == OUT else "input"
        raise CapabilityError(
            f"{p.subject.display}: no {kind} capability in {pretty_type(ty)}",
            where=pretty_process(p),
        )
    return ty


def check_values(env: TypeEnv, p: Out, chan: ChanT, ds: bool = False) -> None:
    """The values sent by `p` match the payload of `chan` in number and type."""
    values = p.payload if p.payload else (STAR,)
    if len(values) != len(chan.payload):
        raise PayloadMismatch(
            f"{p.subject.display} expects {len(chan.payload)} value(s), got {len(values)}",
            where=pretty_process(p),
        )
    for v, want in zip(values, chan.payload):
        got = value_type(env, v)
        if not (got == want if ds else subtype(got, want)):
            raise PayloadMismatch(
                f"value {pretty_value(v)} : {pretty_type(got)} does not fit {pretty_type(want)}",
                where=pretty_process(p),
            )


def bind_payload(env: TypeEnv, p: In | RepIn, chan: ChanT) -> TypeEnv:
    """`env` extended with the binders of `p` at the payload types of `chan`."""
    if not p.binders:
        # discarded unit input: the channel must carry a single Unit
        if chan.payload != (UNIT,):
            raise PayloadMismatch(
                f"{p.subject.display} carries {pretty_type(chan)}, "
                "cannot elide a non-unit message",
                where=pretty_process(p),
            )
        return env
    if len(p.binders) != len(chan.payload):
        raise PayloadMismatch(
            f"{p.subject.display} expects {len(chan.payload)} binder(s), got {len(p.binders)}",
            where=pretty_process(p),
        )
    return env.bind_all(list(zip(p.binders, chan.payload)))


def annotation(p: Res) -> Type:
    """The declared type of a restriction, which must be present."""
    if p.annotation is None:
        raise MissingAnnotation(
            f"restriction on {p.name.display} lacks a type annotation",
            where=pretty_process(p),
        )
    return p.annotation


def _weigh(env: TypeEnv, p: Process, ds: bool, levels: list[int] | None) -> int:
    """Least weight of `p`; appends to `levels` the declared level of every
    output subject not under replication (`levels` is None under one)."""
    if isinstance(p, Nil):
        return 0
    if isinstance(p, Par):
        return max(_weigh(env, p.left, ds, levels), _weigh(env, p.right, ds, levels))
    if isinstance(p, Out):
        chan = subject_chan(env, p, OUT, ds)
        check_values(env, p, chan, ds)
        if levels is not None:
            levels.append(chan.level)
        return chan.level
    if isinstance(p, In):
        chan = subject_chan(env, p, IN, ds)
        return _weigh(bind_payload(env, p, chan), p.body, ds, levels)
    if isinstance(p, RepIn):
        chan = subject_chan(env, p, IN, ds)
        w = _weigh(bind_payload(env, p, chan), p.body, ds, None)
        if not chan.level > w:
            raise LevelViolation(
                f"replicated input on {p.subject.display}: level {chan.level} "
                f"does not dominate body weight {w}",
                where=pretty_process(p),
            )
        return 0
    if isinstance(p, Res):
        return _weigh(env.bind(p.name, annotation(p)), p.body, ds, levels)
    raise TypeError(f"not a process: {p!r}")


Multiset = tuple[int, ...]


def as_multiset(values) -> Multiset:
    return tuple(sorted(values, reverse=True))


@dataclass(frozen=True)
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
    weight = _weigh(env, p, ds, levels)
    return Derivation(weight, as_multiset(levels))


def check(env: TypeEnv, p: Process) -> int:
    """Least weight derivable for `p` under `env`; raises IllTyped otherwise."""
    return derive(env, p).weight


def check_ds(env: TypeEnv, p: Process) -> int:
    """Checker variant with full capabilities only and no subtyping."""
    return derive(env, p, ds=True).weight


def measure(env: TypeEnv, p: Process) -> Multiset:
    """Multiset of levels of the outputs of `p` not under replication.

    Defined on well-typed processes only: raises IllTyped otherwise.
    """
    return derive(env, p).measure
