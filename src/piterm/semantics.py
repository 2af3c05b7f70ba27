"""Structural congruence, one-step reduction and bounded exhaustive execution.

Processes are kept in a canonical normal form: restrictions hoisted to the
top of every prefix body, parallel compositions flattened into a sorted
component multiset, inert subterms dropped, bound names compared up to
alpha-renaming. Reduction then pairs top-level outputs with (replicated)
inputs on the same name.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import permutations

from .checker import TypeEnv, check
from .errors import CertificationFailure, PiError, SortError
from .measure import Multiset, format_multiset, measure, multiset_greater
from .syntax import (
    STAR,
    In,
    Name,
    Nil,
    Out,
    Par,
    Process,
    RepIn,
    Res,
    Type,
    _serial,
    eval_value,
    free_names,
    par,
    pretty_process,
    pretty_type,
    substitute_many,
)

_PERM_CAP = 6

Restriction = tuple[Name, Type | None, bool]


@dataclass(frozen=True)
class NormalProcess:
    restrictions: tuple[Restriction, ...]
    components: tuple[Process, ...]
    key: str

    def rebuild(self) -> Process:
        body = par(*self.components)
        for name, ann, functional in reversed(self.restrictions):
            body = Res(name, ann, functional, body)
        return body


def _flatten(p: Process) -> tuple[list[Restriction], list[Process]]:
    """Hoist restrictions, flatten parallel composition, drop inert parts."""
    if isinstance(p, Nil):
        return [], []
    if isinstance(p, Par):
        r1, c1 = _flatten(p.left)
        r2, c2 = _flatten(p.right)
        return r1 + r2, c1 + c2
    if isinstance(p, Res):
        if p.name not in free_names(p.body):
            return _flatten(p.body)
        res, comps = _flatten(p.body)
        return [(p.name, p.annotation, p.functional)] + res, comps
    if isinstance(p, Out):
        return [], [p]
    if isinstance(p, In):
        return [], [In(p.subject, p.binders, normalize(p.body).rebuild())]
    if isinstance(p, RepIn):
        return [], [RepIn(p.subject, p.binders, normalize(p.body).rebuild())]
    raise TypeError(f"not a process: {p!r}")


def _res_tag(r: Restriction) -> str:
    _, ann, functional = r
    kind = "fun" if functional else "imp"
    return f"{kind}:{pretty_type(ann) if ann is not None else '_'}"


def _level_key(restrictions: list[Restriction], comps: list[Process], order: list[int]) -> tuple[str, list[str]]:
    env = {restrictions[idx][0].id: f"v{pos}" for pos, idx in enumerate(order)}
    serials = sorted(_serial(c, dict(env), [0]) for c in comps)
    head = "new[" + ",".join(_res_tag(restrictions[i]) for i in order) + "]"
    return head + ";" + "|".join(serials), serials


def _canonical_order(restrictions: list[Restriction], comps: list[Process]) -> list[int]:
    n = len(restrictions)
    if n <= 1:
        return list(range(n))
    if n <= _PERM_CAP:
        best_key = None
        best = list(range(n))
        for perm in permutations(range(n)):
            key, _ = _level_key(restrictions, comps, list(perm))
            if best_key is None or key < best_key:
                best_key = key
                best = list(perm)
        return best
    # greedy fallback for very wide restriction lists
    remaining = list(range(n))
    order: list[int] = []
    while remaining:
        scored = []
        for idx in remaining:
            key, _ = _level_key(restrictions, comps, order + [idx])
            scored.append((key, idx))
        scored.sort()
        order.append(scored[0][1])
        remaining.remove(scored[0][1])
    return order


def normalize(p: Process) -> NormalProcess:
    """Canonical form modulo the congruence axioms; equal keys mean congruent."""
    restrictions, comps = _flatten(p)
    order = _canonical_order(restrictions, comps)
    key, serials = _level_key(restrictions, comps, order)
    ordered_res = tuple(restrictions[i] for i in order)
    env = {restrictions[idx][0].id: f"v{pos}" for pos, idx in enumerate(order)}
    ordered_comps = tuple(sorted(comps, key=lambda c: _serial(c, dict(env), [0])))
    return NormalProcess(ordered_res, ordered_comps, key)


def congruent(p: Process, q: Process) -> bool:
    return normalize(p).key == normalize(q).key


# ---------------------------------------------------------------------------
# Reduction


def _fire(sender: Out, receiver: In | RepIn) -> Process | None:
    """Body of the receiver after the communication, or None if no redex."""
    if sender.subject != receiver.subject:
        return None
    values = sender.payload if sender.payload else (STAR,)
    if not receiver.binders:
        if len(values) != 1:
            return None
        mapping = {}
    else:
        if len(values) != len(receiver.binders):
            return None
        mapping = {b: eval_value(v) for b, v in zip(receiver.binders, values)}
    try:
        return substitute_many(receiver.body, mapping)
    except SortError:
        return None  # ill-sorted communication: not a redex


def step(p: Process | NormalProcess) -> list[NormalProcess]:
    """All one-step successors, normalized and deduplicated up to congruence."""
    np = p if isinstance(p, NormalProcess) else normalize(p)
    succs: dict[str, NormalProcess] = {}
    for i, sender in enumerate(np.components):
        if not isinstance(sender, Out):
            continue
        for j, receiver in enumerate(np.components):
            if i == j or not isinstance(receiver, (In, RepIn)):
                continue
            body = _fire(sender, receiver)
            if body is None:
                continue
            rest = [c for k, c in enumerate(np.components) if k not in (i, j)]
            if isinstance(receiver, RepIn):
                rest.append(receiver)
            rest.append(body)
            rebuilt = par(*rest)
            for name, ann, functional in reversed(np.restrictions):
                rebuilt = Res(name, ann, functional, rebuilt)
            succ = normalize(rebuilt)
            succs[succ.key] = succ
    return [succs[k] for k in sorted(succs)]


# ---------------------------------------------------------------------------
# Exploration


class Verdict(enum.Enum):
    TERMINATED = "Terminated"
    BOUND_EXCEEDED = "BoundExceeded"
    DIVERGES = "Diverges"


@dataclass
class EdgeCert:
    src: str
    dst: str
    src_measure: Multiset
    dst_measure: Multiset

    def render(self, index: int) -> str:
        return (
            f"STEP {index}: {self.src} --> {self.dst} ; "
            f"measure {format_multiset(self.src_measure)} > {format_multiset(self.dst_measure)}"
        )


@dataclass
class ExecutionReport:
    verdict: Verdict
    steps_explored: int
    states_explored: int
    max_depth: int
    measure_trace: list[EdgeCert] | None = None
    witness: list[str] | None = None


def _find_cycle(root: str, adj: dict[str, list[str]]) -> list[str] | None:
    """Iterative DFS; returns a path ending in a repeated state, if any."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {k: 0 for k in adj}
    stack: list[tuple[str, int]] = [(root, 0)]
    path: list[str] = []
    color[root] = GRAY
    path.append(root)
    while stack:
        node, idx = stack[-1]
        targets = adj[node]
        if idx < len(targets):
            stack[-1] = (node, idx + 1)
            nxt = targets[idx]
            if color.get(nxt, BLACK) == GRAY:
                loop_start = path.index(nxt)
                return path[loop_start:] + [nxt]
            if color.get(nxt, BLACK) == WHITE:
                color[nxt] = GRAY
                path.append(nxt)
                stack.append((nxt, 0))
        else:
            color[node] = BLACK
            path.pop()
            stack.pop()
    return None


def explore(p: Process, max_states: int = 100000, max_depth: int = 100000) -> ExecutionReport:
    """Breadth-first exhaustive exploration of the reduction graph.

    Terminated: every path reaches a stuck state within the bounds.
    Diverges: some canonical state repeats along a path (a cycle exists).
    BoundExceeded: the bounds cut the exploration short and no cycle was seen.
    """
    return _explore(p, max_states, max_depth, env=None)


def certified_run(
    env: TypeEnv, p: Process, max_states: int = 100000, max_depth: int = 100000
) -> ExecutionReport:
    """Explore while certifying the strict measure decrease on every edge."""
    check(env, p)  # precondition: the start process is well typed
    return _explore(p, max_states, max_depth, env=env)


def _explore(
    p: Process, max_states: int, max_depth: int, env: TypeEnv | None
) -> ExecutionReport:
    root = normalize(p)
    states: dict[str, NormalProcess] = {root.key: root}
    depth = {root.key: 0}
    adj: dict[str, list[str]] = {root.key: []}
    measures: dict[str, Multiset] = {}
    trace: list[EdgeCert] | None = [] if env is not None else None

    def state_measure(key: str) -> Multiset:
        if key not in measures:
            try:
                measures[key] = measure(env, states[key].rebuild())
            except PiError as exc:
                raise CertificationFailure(
                    f"reachable state is not typable: {exc}", where=key
                ) from exc
        return measures[key]

    queue = [root.key]
    qi = 0
    truncated = False
    edges = 0
    while qi < len(queue):
        key = queue[qi]
        qi += 1
        succs = step(states[key])
        if depth[key] >= max_depth:
            if succs:
                truncated = True
            continue
        for succ in succs:
            if succ.key not in states:
                if len(states) >= max_states:
                    truncated = True
                    continue
                states[succ.key] = succ
                depth[succ.key] = depth[key] + 1
                adj[succ.key] = []
                queue.append(succ.key)
            adj[key].append(succ.key)
            edges += 1
            if env is not None:
                m_src, m_dst = state_measure(key), state_measure(succ.key)
                if not multiset_greater(m_src, m_dst):
                    raise CertificationFailure(
                        f"measure did not decrease: {format_multiset(m_src)} "
                        f"vs {format_multiset(m_dst)}",
                        where=f"{key} --> {succ.key}",
                    )
                trace.append(
                    EdgeCert(
                        pretty_process(states[key].rebuild()),
                        pretty_process(succ.rebuild()),
                        m_src,
                        m_dst,
                    )
                )

    cycle = _find_cycle(root.key, adj)
    if cycle is not None:
        verdict = Verdict.DIVERGES
    elif truncated:
        verdict = Verdict.BOUND_EXCEEDED
    else:
        verdict = Verdict.TERMINATED
    return ExecutionReport(
        verdict=verdict,
        steps_explored=edges,
        states_explored=len(states),
        max_depth=max(depth.values()),
        measure_trace=trace,
        witness=[pretty_process(states[k].rebuild()) for k in cycle] if cycle else None,
    )
