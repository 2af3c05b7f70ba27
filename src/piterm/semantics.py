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

Reduction pairs each top-level output with the (replicated) inputs on its
subject, found through an index by subject. Components are sorted by serial,
so congruent ones sit side by side: of a run of congruent outputs, or of
congruent plain inputs, only the last fires, since the others give the same
successors. An exploration keeps one store of components for the whole run,
the component reuse of hash-consing (Conchon & Filliâtre, "Type-safe modular
hash-consing", 2006) kept to one run: a successor keeps the components that
did not fire as the same objects and flattens only the fired body, so each
component's free names are computed once and its top-level serial once per
labelling of those names. A normal form keeps its components' top-level
serials. When neither a state nor the fired body has a restriction, the
successor's key is spliced from the state's sorted serials, the way explicit-
state model checkers hash a state from its parent's hash (Nguyen & Ruys,
"Incremental Hashing for SPIN", 2008); only roots and restricted successors
are canonicalised. The store is dropped when the run returns. Each stored
state is printed once.
"""

from __future__ import annotations

import enum
from bisect import bisect_right
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
    bind,
    eval_value,
    free_names,
    par,
    pretty_process,
    pretty_type,
    substitute_many,
    unbind,
)

Restriction = tuple[Name, Type | None, bool]

_ANON = "?"  # the one label of the restricted names not yet placed


@dataclass(frozen=True)
class NormalProcess:
    restrictions: tuple[Restriction, ...]
    components: tuple[Process, ...]
    key: str
    serials: tuple[str, ...]  # each component's top-level serial, in the order of `components`

    def rebuild(self) -> Process:
        return _wrap(self.restrictions, self.components)


def _wrap(restrictions: Sequence[Restriction], components: Sequence[Process]) -> Process:
    body = par(*components)
    for name, ann, functional in reversed(restrictions):
        body = Res(name, ann, functional, body)
    return body


def _flatten(canon: _Canon, p: Process) -> tuple[list[Restriction], list[Process]]:
    """Hoist restrictions, flatten parallel composition, drop inert parts;
    prefix bodies likewise, each left as its restrictions over its components.
    The `|` spine and restriction chains are walked by a loop, a prefix costs
    one frame. A restriction is kept when its name is free in some component
    of its scope, read off the free-name sets `canon` keeps."""
    res: list[Restriction] = []
    comps: list[Process] = []
    todo = [p]
    while todo:
        q = todo.pop()
        if isinstance(q, Par):
            todo += (q.right, q.left)
        elif isinstance(q, Res):
            res.append((q.name, q.annotation, q.functional))
            todo.append(q.body)
        elif isinstance(q, Out):
            comps.append(q)
        elif isinstance(q, (In, RepIn)):
            comps.append(type(q)(q.subject, q.binders, _wrap(*_flatten(canon, q.body))))
        elif not isinstance(q, Nil):
            raise TypeError(f"not a process: {q!r}")
    if res:
        live = canon.live(comps)
        res = [r for r in res if r[0].id in live]
    return res, comps


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
    """The component store of one `normalize` call or one exploration, and
    the serials it gives: `_serial`'s format, with the restricted names and
    the components of every scope in canonical order.

    A component's serial depends only on the component, the binder counter it
    starts at and the labels of its free names, so it is remembered under
    those: every top-level component, and every prefix whose body is a scope
    of its own (ordered by a search). An exploration keeps one store, so a
    component that a step leaves in place is not serialised again. The free
    names of a component are computed once. Each table keyed by `id` holds
    the object whose id it is, so no id is reused while the store lives.
    A successor that `step` splices takes the serials of the components it
    keeps from its parent, and asks the store only for those of the fired body."""

    def __init__(self) -> None:
        self.free: dict[int, tuple[Process, set[int]]] = {}
        self.memo: dict[tuple, tuple[Process, str, int]] = {}

    def names(self, c: Process) -> set[int]:
        """The ids of the names free in `c`, walked once per component."""
        known = self.free.get(id(c))
        if known is None:
            known = self.free[id(c)] = (c, {n.id for n in free_names(c)})
        return known[1]

    def live(self, comps: Sequence[Process]) -> set[int]:
        """The names free in some of `comps`."""
        return set().union(*map(self.names, comps))

    def comp(self, c: Process, env: dict[int, str], counter: list[int]) -> str:
        """The serial of a component, in one frame per prefix, as `_flatten`
        spends: a prefix chain is not cut short by the recursion limit here.
        `env` comes back unchanged."""
        scoped = isinstance(c, (In, RepIn)) and isinstance(c.body, (Res, Par))
        memo_key = None
        if scoped or counter[0] == 0:
            # with no name labelled, the serial depends on the component alone
            memo_key = (id(c), counter[0], tuple(map(env.get, self.names(c))) if env else ())
            known = self.memo.get(memo_key)
            if known is not None:
                counter[0] = known[2]
                return known[1]
        if isinstance(c, (In, RepIn)):
            tag = "rep" if isinstance(c, RepIn) else "in"
            subj = env.get(c.subject.id, f"f:{c.subject.display}")
            base = counter[0]
            counter[0] += len(c.binders)
            saved = bind(env, [(b.id, f"b{base + k}") for k, b in enumerate(c.binders)])
            inner = self.body(*_scope(c.body), env, counter) if scoped else self.comp(c.body, env, counter)
            unbind(env, saved)
            s = f"({tag} {subj} /{len(c.binders)} {inner})"
        else:
            s = _serial(c, env, counter)
        if memo_key is not None:
            self.memo[memo_key] = (c, s, counter[0])
        return s

    def body(self, res: list[Restriction], comps: list[Process], env: dict[int, str], counter: list[int]) -> str:
        """A prefix body: its restrictions labelled from the running counter,
        then its components."""
        base = counter[0]
        start = base + len(res)

        def key(cs: list[Process], labels: dict[int, str]) -> str:
            return self.par(cs, {**env, **labels}, [start])

        order = self.order(res, comps, lambda pos: f"b{base + pos}", key)
        saved = bind(env, [(res[i][0].id, f"b{base + pos}") for pos, i in enumerate(order)])
        heads = "".join("(new {} {} ".format(*_res_kind(res[i])) for i in order)
        counter[0] = start
        s = heads + self.par(comps, env, counter) + ")" * len(res)
        unbind(env, saved)
        return s

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


def _canonical(canon: _Canon, restrictions: list[Restriction], comps: list[Process]) -> NormalProcess:
    """The canonical form of restrictions over components, both as `_flatten`
    leaves them."""
    order = canon.order(restrictions, comps, lambda pos: f"v{pos}", canon.multiset)
    ordered = tuple(restrictions[i] for i in order)
    env = {r[0].id: f"v{pos}" for pos, r in enumerate(ordered)}
    # the index keeps equal serials in the order of `comps`
    serials = sorted([(canon.comp(c, env, [0]), k) for k, c in enumerate(comps)])
    head = "new[" + ",".join(_res_tag(r) for r in ordered) + "]"
    key = head + ";" + "|".join(s for s, _ in serials)
    return NormalProcess(ordered, tuple([comps[k] for _, k in serials]), key, tuple([s for s, _ in serials]))


def _splice(canon: _Canon, np: NormalProcess, gone: tuple[int, ...], added: list[Process]) -> NormalProcess:
    """The canonical form of a restriction-free `np` less the components at
    `gone`, plus `added`, none restricted, each put after every equal serial:
    the order `_canonical`'s sort gives when `added` follow the kept ones."""
    serials, comps = list(np.serials), list(np.components)
    for k in sorted(gone, reverse=True):
        del serials[k], comps[k]
    for c in added:
        s = canon.comp(c, {}, [0])
        at = bisect_right(serials, s)
        serials.insert(at, s)
        comps.insert(at, c)
    return NormalProcess((), tuple(comps), "new[];" + "|".join(serials), tuple(serials))


def normalize(p: Process) -> NormalProcess:
    """Canonical form modulo the congruence axioms; equal keys mean congruent."""
    canon = _Canon()
    return _canonical(canon, *_flatten(canon, p))


# ---------------------------------------------------------------------------
# Reduction


def _fire(sender: Out, receiver: In | RepIn) -> Process | None:
    """Body of a receiver on the sender's subject after the communication, or
    None if the two do not match."""
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


def step(p: Process | NormalProcess, canon: _Canon | None = None) -> list[NormalProcess]:
    """All one-step successors, normalized and deduplicated up to congruence.

    A successor keeps the components of `p` that did not fire as they are and
    flattens only the fired body; `canon` is the store of the exploration.
    When neither `p` nor the fired body has a restriction, the successor's
    key is spliced from `p`'s sorted serials; otherwise it is canonicalised.
    Of a run of congruent senders, or of congruent plain receivers, on one
    subject only the last fires: the others give the same keys, and the last
    write of a key is the one kept."""
    canon = canon or _Canon()
    np = p if isinstance(p, NormalProcess) else normalize(p)
    comps, serials = np.components, np.serials

    def copy_follows(k: int) -> bool:
        # components are sorted by serial, so a congruent copy sits next
        return k + 1 < len(comps) and serials[k + 1] == serials[k] and comps[k + 1].subject == comps[k].subject

    receivers: dict[int, list[int]] = {}
    for j, c in enumerate(comps):
        if isinstance(c, RepIn) or (isinstance(c, In) and not copy_follows(j)):
            receivers.setdefault(c.subject.id, []).append(j)
    succs: dict[str, NormalProcess] = {}
    for i, sender in enumerate(comps):
        if not isinstance(sender, Out) or copy_follows(i):
            continue
        for j in receivers.get(sender.subject.id, ()):
            receiver = comps[j]
            body = _fire(sender, receiver)
            if body is None:
                continue
            res, added = _flatten(canon, body)
            if isinstance(receiver, RepIn):
                added.insert(0, receiver)
            if np.restrictions or res:
                rest = [c for k, c in enumerate(comps) if k != i and k != j] + added
                if np.restrictions:
                    live = canon.live(rest)
                    res = [r for r in np.restrictions if r[0].id in live] + res
                succ = _canonical(canon, res, rest)
            else:
                succ = _splice(canon, np, (i, j), added)
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
    canon = _Canon()
    root = normalize(p)
    states: dict[str, NormalProcess] = {root.key: root}
    depth = {root.key: 0}
    adj: dict[str, list[str]] = {root.key: []}
    measures: dict[str, Multiset] = {}
    printed: dict[str, str] = {}
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

    def show(state: NormalProcess) -> str:
        # a state reached again may order tied components otherwise than the
        # one stored under its key, and then prints otherwise: it prints itself
        if states.get(state.key) is not state:
            return pretty_process(state.rebuild())
        if state.key not in printed:
            printed[state.key] = pretty_process(state.rebuild())
        return printed[state.key]

    queue = [root.key]
    qi = 0
    truncated = False
    edges = 0
    while qi < len(queue):
        key = queue[qi]
        qi += 1
        succs = step(states[key], canon)
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
                trace.append(EdgeCert(show(states[key]), show(succ), m_src, m_dst))

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
        witness=[show(states[k]) for k in cycle] if cycle else None,
    )
