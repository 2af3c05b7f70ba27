"""Checker for the functional/imperative calculus.

The environment isolates at most one functional name: only that name may
host replicated inputs typed with the relaxed, non-strict level bound.
Entering any input body demotes the isolated name to an output-only binding;
a functional restriction swaps the isolated name, an imperative restriction
extends the ordinary part with a full-capability type. Inputs on imperative
names, replicated or not, need a subject level strictly above the body
weight and contribute weight zero.

The isolation and level rules are this module's own; subject capabilities,
payload arity, unit elision, value fit and restriction annotations follow
the checker's rules (`checker.subject_chan`, `check_values`, `bind_payload`,
`annotation`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .checker import TypeEnv, annotation, bind_payload, check_values, subject_chan
from .errors import (
    CapabilityError,
    FunctionalInputNotIsolated,
    LevelViolation,
    UnboundName,
)
from .syntax import (
    IN,
    OUT,
    SHARP,
    ChanT,
    In,
    Name,
    Nil,
    Out,
    Par,
    Process,
    RepIn,
    Res,
    pretty_process,
    pretty_type,
)


@dataclass(frozen=True)
class ImpureEnv:
    """gamma plus an optional isolated functional name (None plays the dummy)."""

    gamma: TypeEnv = field(default_factory=TypeEnv)
    isolated: tuple[Name, ChanT] | None = None
    functional: frozenset[Name] = frozenset()  # gamma names known functional

    def __post_init__(self):
        if self.isolated is not None:
            name, ty = self.isolated
            if name in self.gamma:
                raise UnboundName(f"isolated name {name.display!r} also bound in gamma")
            if ty.cap != OUT:
                raise CapabilityError(
                    f"isolated name {name.display!r} needs an output-only type, "
                    f"has {pretty_type(ty)}"
                )

    def value_env(self) -> TypeEnv:
        """gamma extended with the isolated name at its output-only type."""
        if self.isolated is None:
            return self.gamma
        name, ty = self.isolated
        return self.gamma.bind(name, ty)

    def demoted(self) -> ImpureEnv:
        """Move the isolated name into gamma; used for every input body."""
        if self.isolated is None:
            return self
        name, ty = self.isolated
        return ImpureEnv(
            self.gamma.bind(name, ty), None, self.functional | {name}
        )

    def is_functional(self, n: Name) -> bool:
        if self.isolated is not None and self.isolated[0] == n:
            return True
        return n in self.functional


def check_impure(env: ImpureEnv, p: Process) -> int:
    """Least weight of `p` in the impure discipline; raises IllTyped otherwise."""
    if isinstance(p, Nil):
        return 0
    if isinstance(p, Par):
        return max(check_impure(env, p.left), check_impure(env, p.right))
    if isinstance(p, Out):
        venv = env.value_env()
        chan = subject_chan(venv, p, OUT)
        check_values(venv, p, chan)
        return chan.level
    if isinstance(p, RepIn) and env.isolated is not None and p.subject == env.isolated[0]:
        name, ty = env.isolated
        gamma = bind_payload(env.gamma, p, ty)
        # the defining body may not use f at all: keep it flagged but unbound
        w = check_impure(ImpureEnv(gamma, None, env.functional | {name}), p.body)
        if not ty.level >= w:
            raise LevelViolation(
                f"functional input on {name.display}: level {ty.level} "
                f"below body weight {w}",
                where=pretty_process(p),
            )
        return 0
    if isinstance(p, (In, RepIn)):
        if env.is_functional(p.subject):
            raise FunctionalInputNotIsolated(
                f"input on functional name {p.subject.display} outside its defining scope",
                where=pretty_process(p),
            )
        chan = subject_chan(env.gamma, p, IN)
        inner = env.demoted()
        w = check_impure(replace(inner, gamma=bind_payload(inner.gamma, p, chan)), p.body)
        if not chan.level > w:
            kind = "replicated input" if isinstance(p, RepIn) else "input"
            raise LevelViolation(
                f"{kind} on {p.subject.display}: level {chan.level} "
                f"does not dominate body weight {w}",
                where=pretty_process(p),
            )
        return 0
    if isinstance(p, Res):
        ty = annotation(p)
        if p.functional:
            if not isinstance(ty, ChanT) or ty.cap != OUT:
                raise CapabilityError(
                    f"functional restriction on {p.name.display} needs an o-type "
                    f"annotation, has {pretty_type(ty)}",
                    where=pretty_process(p),
                )
            inner = env.demoted()
            return check_impure(ImpureEnv(inner.gamma, (p.name, ty), inner.functional), p.body)
        if not isinstance(ty, ChanT) or ty.cap != SHARP:
            raise CapabilityError(
                f"imperative restriction on {p.name.display} needs a full-capability "
                f"annotation, has {pretty_type(ty)}",
                where=pretty_process(p),
            )
        return check_impure(replace(env, gamma=env.gamma.bind(p.name, ty)), p.body)
    raise TypeError(f"not a process: {p!r}")
