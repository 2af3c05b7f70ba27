"""Checker for the functional/imperative calculus.

The environment isolates at most one functional name: only that name may
host replicated inputs typed with the relaxed, non-strict level bound, and
their bodies may not use it. Entering any input body demotes the isolated
name to an output-only binding; a functional restriction swaps the isolated
name, an imperative restriction extends the ordinary part with a
full-capability type. Inputs on imperative names, replicated or not, need a
subject level strictly above the body weight and contribute weight zero.

`check_impure` runs the checker's one typing walk (`checker._weigh`) in its
impure mode, whose docstring states the isolation rules and the strict
bound on every input; subject capabilities, payload arity, unit elision,
value fit and restriction annotations are typed as in the other two modes.
"""

from __future__ import annotations

from .checker import TypeEnv, _weigh
from .errors import CapabilityError, UnboundName
from .syntax import OUT, ChanT, Name, Process, pretty_type


class ImpureEnv:
    """gamma plus an optional isolated functional name (None plays the dummy)."""

    __slots__ = ("gamma", "isolated", "functional")

    def __init__(
        self,
        gamma: TypeEnv | None = None,
        isolated: tuple[Name, ChanT] | None = None,
        functional: frozenset[Name] = frozenset(),  # gamma names known functional
    ):
        self.gamma = TypeEnv() if gamma is None else gamma
        self.isolated = isolated
        self.functional = functional
        if isolated is not None:
            name, ty = isolated
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
        scope.bindings[isolated] = env.isolated[1]  # not in gamma, as `ImpureEnv` checks
        functional.add(isolated)
    levels: list[int] = []
    _weigh(scope, p, levels, functional=functional, isolated=isolated)
    return max(levels, default=0)
