"""Checker for the functional/imperative calculus.

The environment isolates at most one functional name: only that name may
host replicated inputs typed with the relaxed, non-strict level bound, and
their bodies may not use it. Entering any input body demotes the isolated
name to an output-only binding; a functional restriction swaps the isolated
name, an imperative restriction extends the ordinary part with a
full-capability type. Inputs on imperative names, replicated or not, need a
subject level strictly above the body weight and contribute weight zero.

The walk keeps one scope for gamma, the binders and the isolated names, and
one set of functional names, both bound in place and undone on scope exit;
only the isolated name is per-branch state. Each input is checked against
the levels of the outputs it guards directly; the weight is read off the
levels of the outputs under no input: the greatest, or 0.

The isolation and level rules are this module's own; subject capabilities,
payload arity, unit elision, value fit and restriction annotations follow
the checker's rules (`checker.subject_chan`, `check_values`,
`payload_binders`, `annotation`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .checker import TypeEnv, annotation, check_values, payload_binders, subject_chan
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
    unbind,
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


def check_impure(env: ImpureEnv, p: Process) -> int:
    """Least weight of `p` in the impure discipline; raises IllTyped otherwise."""
    scope = TypeEnv(dict(env.gamma.bindings))
    functional = set(env.functional)
    isolated = env.isolated[0] if env.isolated else None
    if env.isolated:
        scope.bind([env.isolated])
        functional.add(isolated)
    levels: list[int] = []
    _walk(scope, functional, isolated, p, levels)
    return max(levels, default=0)


def _walk(scope: TypeEnv, functional: set[Name], isolated: Name | None, p: Process, levels: list[int]) -> None:
    """Type `p` where `isolated` is the name isolated, if any; appends each
    output's level to `levels`, the list of its nearest enclosing input. The
    components of a `|` spine are walked left to right off a stack."""
    if isinstance(p, Par):
        todo = [p]
        while todo:
            q = todo.pop()
            if isinstance(q, Par):
                todo += (q.right, q.left)
            else:
                _walk(scope, functional, isolated, q, levels)
    elif isinstance(p, Out):
        chan = subject_chan(scope, p, OUT)
        check_values(scope, p, chan)
        levels.append(chan.level)
    elif isinstance(p, (In, RepIn)):
        defining = isinstance(p, RepIn) and p.subject == isolated
        if defining:
            chan = scope.bindings.pop(isolated)  # hidden from its defining body
        elif p.subject in functional:
            raise FunctionalInputNotIsolated(
                f"input on functional name {p.subject.display} outside its defining scope",
                where=pretty_process(p),
            )
        else:
            chan = subject_chan(scope, p, IN)
        saved = scope.bind(payload_binders(p, chan))
        inner: list[int] = []
        _walk(scope, functional, None, p.body, inner)
        unbind(scope.bindings, saved)
        w = max(inner, default=0)
        if defining:
            scope.bindings[isolated] = chan
            if not chan.level >= w:
                raise LevelViolation(
                    f"functional input on {p.subject.display}: level {chan.level} "
                    f"below body weight {w}",
                    where=pretty_process(p),
                )
        elif not chan.level > w:
            kind = "replicated input" if isinstance(p, RepIn) else "input"
            raise LevelViolation(
                f"{kind} on {p.subject.display}: level {chan.level} "
                f"does not dominate body weight {w}",
                where=pretty_process(p),
            )
    elif isinstance(p, Res):
        ty = annotation(p)
        if not (isinstance(ty, ChanT) and ty.cap == (OUT if p.functional else SHARP)):
            kind, need = ("functional", "an o-type") if p.functional else ("imperative", "a full-capability")
            raise CapabilityError(
                f"{kind} restriction on {p.name.display} needs {need} annotation, has {pretty_type(ty)}",
                where=pretty_process(p),
            )
        saved = scope.bind([(p.name, ty)])
        if p.functional:
            functional.add(p.name)
        _walk(scope, functional, p.name if p.functional else isolated, p.body, levels)
        functional.discard(p.name)
        unbind(scope.bindings, saved)
    elif not isinstance(p, Nil):
        raise TypeError(f"not a process: {p!r}")
