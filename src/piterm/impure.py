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
    output's level to `levels`, the list of its nearest enclosing input.

    Neither `|` width nor prefix depth recurses: the walk goes down the left
    component of each `|` and into each binder's body in place, and leaves
    on a stack what comes after: a right component with the name isolated
    there and the list its outputs go to, or the end of a binder's scope,
    with the undo of its binding and, for an input, what its level check
    needs. Components go left to right, and a scope ends after its body, so
    the first error raised is the one a recursive walk raises."""
    todo: list = [(p, isolated, levels)]
    while todo:
        q, iso, out = todo.pop()
        if isinstance(q, list):
            # the end of the scope of `node`, a restriction or an input
            unbind(scope.bindings, q)
            node = iso
            if out is None:
                functional.discard(node.name)
                continue
            chan, defining, inner = out
            w = max(inner, default=0)
            if defining:
                scope.bindings[node.subject] = chan
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
            if isinstance(q, Out):
                chan = subject_chan(scope, q, OUT)
                check_values(scope, q, chan)
                out.append(chan.level)
                break
            if isinstance(q, Par):
                todo.append((q.right, iso, out))
                q = q.left
            elif isinstance(q, (In, RepIn)):
                defining = isinstance(q, RepIn) and q.subject == iso
                if defining:
                    chan = scope.bindings.pop(iso)  # hidden from its defining body
                elif q.subject in functional:
                    raise FunctionalInputNotIsolated(
                        f"input on functional name {q.subject.display} outside its defining scope",
                        where=pretty_process(q),
                    )
                else:
                    chan = subject_chan(scope, q, IN)
                inner: list[int] = []
                todo.append((scope.bind(payload_binders(q, chan)), q, (chan, defining, inner)))
                q, iso, out = q.body, None, inner
            elif isinstance(q, Res):
                ty = annotation(q)
                if not (isinstance(ty, ChanT) and ty.cap == (OUT if q.functional else SHARP)):
                    kind, need = ("functional", "an o-type") if q.functional else ("imperative", "a full-capability")
                    raise CapabilityError(
                        f"{kind} restriction on {q.name.display} needs {need} annotation, has {pretty_type(ty)}",
                        where=pretty_process(q),
                    )
                todo.append((scope.bind([(q.name, ty)]), q, None))
                if q.functional:
                    functional.add(q.name)
                    iso = q.name
                q = q.body
            elif isinstance(q, Nil):
                break
            else:
                raise TypeError(f"not a process: {q!r}")
