"""Structural congruence, one-step reduction and bounded exhaustive execution.

A process is normalised by hoisting restrictions to the top of every scope
(the process itself and every prefix body), flattening parallel composition
and dropping inert subterms. Its key is `syntax._serial` of that form, with
the restricted names of each scope put in a canonical order and the
components of each scope in a canonical order, so that two processes get
equal keys exactly when they are structurally congruent:

- Restricted names that never occur free in a common component are
  independent. They are split into clusters by union-find, each cluster is
  ordered on its own, and the clusters follow one another in the order of
  their keys.
- Inside a cluster the order is the least leaf of an individualise-and-refine
  search (McKay & Piperno, "Practical graph isomorphism, II", 2014). At each
  position every remaining name is scored by the key with the names already
  placed labelled in order, the candidate next and the rest under one
  anonymous label; only the names that tie for the least score are branched
  on. A tied candidate is skipped when exchanging it with one already
  explored maps the cluster onto itself, since its subtree then holds the
  same leaves.
- A prefix body is serialised under the labels of the enclosing names, its
  restricted names ordered by the same search and its components greedily:
  at the running binder counter the least serial goes first, which is exact
  because serials are prefix-free.

The cost is polynomial while the symmetries of a cluster are generated by
exchanges of two names; symmetries that are not (a ring `a<b> | b<c> | c<a>`
of restricted names, say) still branch once per symmetric candidate.
Reduction then pairs top-level outputs with (replicated) inputs on the same
name.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Sequence

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

Restriction = tuple[Name, Type | None, bool]

_ANON = "?"  # the one label of the restricted names not yet placed


@dataclass(frozen=True)
class NormalProcess:
    restrictions: tuple[Restriction, ...]
    components: tuple[Process, ...]
    key: str

    def rebuild(self) -> Process:
        return _wrap(self.restrictions, self.components)


def _wrap(restrictions: Sequence[Restriction], components: Sequence[Process]) -> Process:
    body = par(*components)
    for name, ann, functional in reversed(restrictions):
        body = Res(name, ann, functional, body)
    return body


def _flatten(p: Process) -> tuple[list[Restriction], list[Process]]:
    """Hoist restrictions, flatten parallel composition, drop inert parts;
    prefix bodies likewise, each left as its restrictions over its components."""
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
    if isinstance(p, (In, RepIn)):
        return [], [type(p)(p.subject, p.binders, _wrap(*_flatten(p.body)))]
    raise TypeError(f"not a process: {p!r}")


def _scope(body: Process) -> tuple[list[Restriction], list[Process]]:
    """The restrictions and components of a body `_flatten` has built."""
    res = []
    while isinstance(body, Res):
        res.append((body.name, body.annotation, body.functional))
        body = body.body
    comps = []
    while isinstance(body, Par):
        comps.append(body.left)
        body = body.right
    return res, comps + [body]


def _res_kind(r: Restriction) -> tuple[str, str]:
    _, ann, functional = r
    return "fun" if functional else "imp", pretty_type(ann) if ann is not None else "_"


def _res_tag(r: Restriction) -> str:
    return ":".join(_res_kind(r))


# ---------------------------------------------------------------------------
# Canonical serials


Key = Callable[[list[Process], dict[int, str]], str]


class _Canon:
    """The serials of one `normalize` call: `_serial`'s format, with the
    restricted names and the components of every scope in canonical order.

    A component's serial depends only on the component, the binder counter it
    starts at and the labels of its free names. A prefix whose body is a scope
    of its own is ordered by a search, so within one call its serial is
    computed once for each of those."""

    def __init__(self) -> None:
        self.free: dict[int, tuple[int, ...]] = {}
        self.memo: dict[tuple, tuple[str, int]] = {}

    def names(self, c: Process) -> tuple[int, ...]:
        ids = self.free.get(id(c))
        if ids is None:
            ids = self.free[id(c)] = tuple(n.id for n in free_names(c))
        return ids

    def comp(self, c: Process, env: dict[int, str], counter: list[int]) -> str:
        """The serial of a component, in one frame per prefix, as `_flatten`
        spends: a prefix chain is not cut short by the recursion limit here."""
        if not isinstance(c, (In, RepIn)):
            return _serial(c, env, counter)
        scoped = isinstance(c.body, (Res, Par))
        if scoped:
            memo_key = (id(c), counter[0], tuple(env.get(i) for i in self.names(c)))
            known = self.memo.get(memo_key)
            if known is not None:
                counter[0] = known[1]
                return known[0]
        tag = "rep" if isinstance(c, RepIn) else "in"
        subj = env.get(c.subject.id, f"f:{c.subject.display}")
        env2 = dict(env)
        for b in c.binders:
            env2[b.id] = f"b{counter[0]}"
            counter[0] += 1
        inner = self.body(*_scope(c.body), env2, counter) if scoped else self.comp(c.body, env2, counter)
        s = f"({tag} {subj} /{len(c.binders)} {inner})"
        if scoped:
            self.memo[memo_key] = (s, counter[0])
        return s

    def body(self, res: list[Restriction], comps: list[Process], env: dict[int, str], counter: list[int]) -> str:
        """A prefix body: its restrictions labelled from the running counter,
        then its components."""
        base = counter[0]
        start = base + len(res)

        def key(cs: list[Process], labels: dict[int, str]) -> str:
            return self.par(cs, {**env, **labels}, [start])

        env2 = dict(env)
        heads = []
        for pos, i in enumerate(self.order(res, comps, lambda pos: f"b{base + pos}", key)):
            env2[res[i][0].id] = f"b{base + pos}"
            heads.append("(new {} {} ".format(*_res_kind(res[i])))
        counter[0] = start
        return "".join(heads) + self.par(comps, env2, counter) + ")" * len(res)

    def par(self, comps: list[Process], env: dict[int, str], counter: list[int]) -> str:
        """The components of a prefix body, least serial first at the running counter."""
        parts = []
        rest = list(comps)
        while len(rest) > 1:
            best = None
            for i, c in enumerate(rest):
                after = [counter[0]]
                s = self.comp(c, env, after)
                if best is None or s < best[0]:
                    best = (s, i, after[0])
            parts.append(best[0])
            counter[0] = best[2]
            del rest[best[1]]
        out = self.comp(rest[0], env, counter)
        for s in reversed(parts):
            out = f"(| {s} {out})"
        return out

    def multiset(self, comps: list[Process], labels: dict[int, str]) -> str:
        """The top-level components, each from counter 0, sorted."""
        return "|".join(sorted(self.comp(c, labels, [0]) for c in comps))

    def order(self, res: list[Restriction], comps: list[Process], label: Callable[[int], str], key: Key) -> list[int]:
        """Indices of `res` in canonical order: clusters of names linked by a
        common component, each ordered by `search`, concatenated by cluster key.
        `label(pos)` spells the name at position `pos`; `key(comps, labels)` is
        a complete invariant of the components under a labelling of the names."""
        n = len(res)
        if n <= 1:
            return list(range(n))
        index = {r[0].id: i for i, r in enumerate(res)}
        parent = list(range(n))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        users: list[tuple[Process, list[int]]] = []
        for c in comps:
            mine = [index[m] for m in self.names(c) if m in index]
            if mine:
                users.append((c, mine))
                root = find(mine[0])
                for i in mine[1:]:
                    parent[find(i)] = root
        clusters: dict[int, tuple[list[int], list[Process]]] = {}
        for i in range(n):
            clusters.setdefault(find(i), ([], []))[0].append(i)
        for c, mine in users:
            clusters[find(mine[0])][1].append(c)
        if len(clusters) == 1:
            ((names, cs),) = clusters.values()
            leaves = self.search(res, names, cs, label, key)
            return leaves[0][0] if len(leaves) == 1 else _least(res, leaves, cs, key)[1]
        keyed = sorted(
            (_least(res, self.search(res, names, cs, label, key), cs, key) for names, cs in clusters.values()),
            key=lambda leaf: leaf[0],
        )
        return [i for _, order in keyed for i in order]

    def search(
        self, res: list[Restriction], names: list[int], comps: list[Process], label: Callable[[int], str], key: Key
    ) -> list[tuple[list[int], dict[int, str]]]:
        """The leaves of the individualise-and-refine tree of one cluster:
        each an order of `names` and the labelling it gives them."""
        ids = {i: res[i][0].id for i in names}
        tags = {i: _res_tag(res[i]) for i in names}
        leaves: list[tuple[list[int], dict[int, str]]] = []

        def visit(prefix: list[int], rest: list[int]) -> None:
            labels = {ids[i]: label(pos) for pos, i in enumerate(prefix)}
            while len(rest) > 1:
                pos = len(prefix)
                anon = {**labels, **{ids[i]: _ANON for i in rest}}
                scored = []
                for i in rest:
                    trial = dict(anon)
                    trial[ids[i]] = label(pos)
                    scored.append(((tags[i], key(comps, trial)), i))
                least = min(s for s, _ in scored)
                tied = [i for s, i in scored if s == least]
                if len(tied) > 1:
                    branch(prefix, rest, labels, tied)
                    return
                prefix.append(tied[0])
                rest.remove(tied[0])
                labels[ids[tied[0]]] = label(pos)
            labels[ids[rest[0]]] = label(len(prefix))
            leaves.append((prefix + rest, labels))

        def branch(prefix: list[int], rest: list[int], labels: dict[int, str], tied: list[int]) -> None:
            # any injective labelling shows whether exchanging two names maps the cluster onto itself
            full = dict(labels)
            for off, i in enumerate(rest):
                full[ids[i]] = label(len(prefix) + off)
            reference = key(comps, full)
            explored: list[int] = []
            for t in tied:
                a = ids[t]
                if any(key(comps, {**full, a: full[ids[e]], ids[e]: full[a]}) == reference for e in explored):
                    continue
                explored.append(t)
                visit(prefix + [t], [i for i in rest if i != t])

        visit([], list(names))
        return leaves


def _least(
    res: list[Restriction], leaves: list[tuple[list[int], dict[int, str]]], comps: list[Process], key: Key
) -> tuple[tuple[list[str], str], list[int]]:
    """The leaf with the least key (tags in order, then `key` under its labelling)."""
    return min(
        ((([_res_tag(res[i]) for i in order], key(comps, labels)), order) for order, labels in leaves),
        key=lambda leaf: leaf[0],
    )


def normalize(p: Process) -> NormalProcess:
    """Canonical form modulo the congruence axioms; equal keys mean congruent."""
    restrictions, comps = _flatten(p)
    canon = _Canon()
    order = canon.order(restrictions, comps, lambda pos: f"v{pos}", canon.multiset)
    ordered = tuple(restrictions[i] for i in order)
    env = {r[0].id: f"v{pos}" for pos, r in enumerate(ordered)}
    serials = sorted(((canon.comp(c, env, [0]), c) for c in comps), key=lambda sc: sc[0])
    head = "new[" + ",".join(_res_tag(r) for r in ordered) + "]"
    key = head + ";" + "|".join(s for s, _ in serials)
    return NormalProcess(ordered, tuple([c for _, c in serials]), key)


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
            succ = normalize(_wrap(np.restrictions, rest))
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
