"""Structural congruence, one-step reduction and bounded exhaustive execution.

A process is normalised by hoisting restrictions to the top of every scope
(the process itself and every prefix body), flattening parallel composition
and dropping inert subterms. Its key is `syntax.alpha_key`'s serial of that
form, with the restricted names of each scope put in a canonical order and
the components of each scope in a canonical order, so that two processes get
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
successors. Clusters with equal leaves are isomorphic, and exchanging them
maps a state onto itself, so of redexes that these exchanges map onto one
another only the last fires too (Ip & Dill, "Better verification through
symmetry", 1996). An exploration keeps one component store for the run,
the component reuse of hash-consing (Conchon & Filliâtre, "Type-safe modular
hash-consing", 2006) kept to one run: a successor keeps the components that
did not fire as the same objects, so each component's free names are
computed once and its top-level serial once per labelling of those names.
A redex whose fired body restricts no name is substituted once per run, and
its components are the same objects in every successor. A normal form holds
no key text: its `sig` is the tuple of its restriction head and its
components' top-level serials, the store's own strings, SPIN's collapse
compression (Holzmann, "State compression in SPIN: recursive indexing and
compression training runs", 1997); `sig`s compare as the keys they join
into. When neither a state nor the fired body has a restriction, the
successor's `sig` is spliced from its parent's (Nguyen & Ruys, "Incremental
Hashing for SPIN", 2008) and looked up in the run's one state table before a
state is built, as SPIN looks a regenerated state up (Holzmann, "The model
checker SPIN", 1997): a successor whose `sig` is stored is the stored state.
An exploration numbers its states breadth first and keeps depths, edges,
measures and printed forms by number; it searches for a cycle only after an
edge to a state no deeper than its source. A certified run measures a state
as the multiset union of its components' measures, each distinct component
typed once (`_Measures`), and refuses a state it cannot type so. A state is
printed once per number: reached again, it reads as it did when first
reached.
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from collections.abc import Callable, Sequence

from .checker import TypeEnv, _weigh, as_multiset, check
from .errors import CertificationFailure, MissingAnnotation, PiError, SortError, UnboundName
from .measure import Multiset, format_multiset, multiset_greater
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
    _label,
    _serial_node,
    bind,
    eval_value,
    fold_process,
    free_names,
    node,
    par,
    pretty_process,
    pretty_type,
    substitute_many,
    unbind,
)

Restriction = tuple[Name, Type | None, bool]
_Fired = tuple[Sequence[Restriction], Sequence[Process]]  # a fired body's scope, never mutated

_INERT: _Fired = ((), ())

_ANON = "?"  # the one label of the restricted names not yet placed

_PREFIXES, _SCOPES = (In, RepIn), (Res, Par)  # a prefix body of a class in `_SCOPES` is a scope


@node
class NormalProcess:
    """Restrictions over components in canonical order, and `sig`: the head
    `new[…]` tagging the restrictions, then each component's top-level
    serial, in the order of `components`. The serials are the store's own
    string objects, so a state holds references to serials stored once
    (SPIN's collapse compression) and no text of its own.

    `key` joins `sig` as `head;s1|s2|…`. Comparing `sig`s compares keys: the
    head is bracket-balanced and every serial is one balanced `( … )`
    S-expression (names and type texts hold no parentheses), so no element
    is a proper prefix of another, two keys first differ inside their first
    differing elements, and a shorter `sig` whose elements open the longer
    one gives a key that is a prefix of the other. So tuple order is key
    order, and equal `sig`s are equal keys."""

    restrictions: tuple[Restriction, ...]
    components: tuple[Process, ...]
    sig: tuple[str, ...]

    @property
    def key(self) -> str:
        return self.sig[0] + ";" + "|".join(self.sig[1:])

    def rebuild(self) -> Process:
        return _wrap(self.restrictions, self.components)


def _wrap(restrictions: Sequence[Restriction], components: Sequence[Process]) -> Process:
    body = par(*components)
    for name, ann, functional in reversed(restrictions):
        body = Res(name, ann, functional, body)
    return body


def _flatten(canon: _Canon, p: Process) -> tuple[list[Restriction], list[Process]]:
    """Hoist restrictions, flatten parallel composition, drop inert parts;
    prefix bodies likewise, folded. A restriction is kept when its name is
    free in some component of its scope, as `canon` reads it. It runs on
    roots only: a fired body is normal, and `step` splits it with `_scope`."""

    def leave(q: Process, parts: tuple) -> Process:
        # a `|` or `new` is split by the prefix above it; a prefix is kept if its body is
        cls = q.__class__
        if cls is Par:
            return Par(*parts)
        if cls is Res:
            return Res(q.name, q.annotation, q.functional, parts[0])
        if not parts or parts[0] is q.body:
            return q
        body = _wrap(*canon.live(*_scope(parts[0]))) if parts[0].__class__ in _SCOPES else parts[0]
        return cls(q.subject, q.binders, body)

    res, comps = _scope(p)
    return canon.live(res, [fold_process(c, leave) for c in comps])


def _scope(p: Process) -> tuple[list[Restriction], list[Process]]:
    """The restrictions and the components of the `|` spine of `p`."""
    res: list[Restriction] = []
    comps: list[Process] = []
    todo = [p]
    while todo:
        q = todo.pop()
        if q.__class__ is Par:
            todo += (q.right, q.left)
        elif q.__class__ is Res:
            res.append((q.name, q.annotation, q.functional))
            todo.append(q.body)
        elif q.__class__ is not Nil:
            comps.append(q)
    return res, comps


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
    the serials it gives: `alpha_key`'s format, with the restricted names and
    the components of every scope in canonical order.

    A component's serial depends only on the component, the binder counter it
    starts at and the labels of its free names, so it is remembered under
    those: every top-level component, and every prefix whose body is a scope
    of its own (ordered by a search). An exploration keeps one store, so a
    component that a step leaves in place is not serialised again. The free
    names of a component are computed once. Each table keyed by `id` holds
    the object whose id it is, so no id is reused while the store lives.

    `fired` keeps the outcome of each redex by the ids of its sender and
    receiver, so a redex is substituted and split once per run. Only
    restriction-free bodies are kept: `substitute_many` gives every
    restricted name of a body a fresh name, and a shared body would put one
    name object in two restrictions when its redex fires again from a
    successor (as it does when a library-built process holds one sender
    object twice), where the two would be taken for one.

    `states` and `index` are an exploration's one state table (empty outside
    one): its states breadth first, and each `sig` to its number. A successor
    that `step` splices takes its kept components' serials from its parent,
    asks the store only for the fired body's, and is the stored state itself
    when its `sig` is stored. `orbits` keeps the classes (`_orbits`) of a new
    state with isomorphic clusters until it is stepped or a bound keeps it
    out; slots keep a store small."""

    __slots__ = ("free", "memo", "fired", "states", "index", "orbits")

    def __init__(self) -> None:
        self.free: dict[int, tuple[Process, set[int]]] = {}
        self.memo: dict[tuple, tuple[Process, str, int]] = {}
        self.fired: dict[tuple[int, int], tuple[Out, In | RepIn, _Fired | None]] = {}
        self.states: list[NormalProcess] = []
        self.index: dict[tuple[str, ...], int] = {}
        self.orbits: dict[tuple[str, ...], tuple] = {}

    def fire(self, sender: Out, receiver: In | RepIn) -> _Fired | None:
        """The restrictions and components of the body that a communication
        of `sender` with `receiver` leaves, or None if the two do not match;
        kept in `fired` unless the body restricts a name. An inert body
        needs only `_fire`'s arity check."""
        if type(receiver.body) is Nil:
            return _INERT if max(len(sender.payload), 1) == max(len(receiver.binders), 1) else None
        pair = (id(sender), id(receiver))
        known = self.fired.get(pair)
        if known is not None:
            return known[2]
        body = _fire(sender, receiver)
        fired = None if body is None else _scope(body)
        if fired is None or not fired[0]:
            self.fired[pair] = (sender, receiver, fired)
        return fired

    def names(self, c: Process) -> set[int]:
        """The ids of the names free in `c`, walked once per component."""
        known = self.free.get(id(c))
        if known is None:
            known = self.free[id(c)] = (c, {n.id for n in free_names(c)})
        return known[1]

    def live(self, res: Sequence[Restriction], comps: list[Process]) -> tuple[list[Restriction], list[Process]]:
        """The restrictions of `res` whose names are free in some of `comps`, and `comps`."""
        names = set().union(*map(self.names, comps)) if res else ()
        return [r for r in res if r[0].id in names], comps

    def comp(self, c: Process, env: dict[int, str], counter: list[int]) -> str:
        """The serial of a component, `alpha_key`'s with each prefix body that
        is a scope put in canonical order by `body`. A chain of prefixes is
        walked down by a loop, binding as it goes, and its serials are built
        back up while unbinding; each prefix over a scope, and each node met
        with no binder labelled yet, is remembered under its id, the counter
        and its free names' labels. `env` comes back unchanged."""
        chain = []  # the prefixes walked, each with its memo key and what its binding saved
        while True:
            cls = c.__class__
            key = None
            if counter[0] == 0 or cls in _PREFIXES and c.body.__class__ in _SCOPES:
                key = (id(c), counter[0], tuple(map(env.get, self.names(c))) if env else ())
                known = self.memo.get(key)
                if known is not None:
                    counter[0], s = known[2], known[1]
                    break
            if cls not in _PREFIXES:  # an output or `0`
                s = _serial_node(env, c, ())
                if key is not None:
                    self.memo[key] = (c, s, counter[0])
                break
            chain.append((c, key, bind(env, [(b.id, _label(counter, b)) for b in c.binders])))
            c = c.body
            if c.__class__ in _SCOPES:
                s = self.body(*_scope(c), env, counter)
                break
        for q, key, saved in reversed(chain):
            unbind(env, saved)
            s = _serial_node(env, q, (s,))
            if key is not None:
                self.memo[key] = (q, s, counter[0])
        return s

    def body(self, res: list[Restriction], comps: list[Process], env: dict[int, str], counter: list[int]) -> str:
        """A prefix body: its restrictions labelled from the running counter,
        then its components."""
        base = counter[0]
        start = base + len(res)

        def key(cs: list[Process], labels: dict[int, str]) -> str:
            return self.par(cs, {**env, **labels}, [start])

        order = [i for _, names, _ in self.clusters(res, comps, lambda pos: f"b{base + pos}", key) for i in names]
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

    def clusters(self, res: list[Restriction], comps: list[Process], label: Callable[[int], str], key: Key) -> list:
        """The clusters of `res`, names linked by a common component, in
        canonical order: each its least leaf (None if it is the only one), its
        names' indices ordered by `search` and its components, sorted by leaf.
        `label(pos)` spells the name at position `pos`; `key(comps, labels)` is
        a complete invariant of the components under a labelling of the names."""
        n = len(res)
        if n <= 1:
            return [(None, list(range(n)), comps)]
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
            return [(None, leaves[0][0] if len(leaves) == 1 else _least(res, leaves, cs, key)[1], cs)]
        keyed = ((*_least(res, self.search(res, names, cs, label, key), cs, key), cs) for names, cs in clusters.values())
        return sorted(keyed, key=lambda cluster: cluster[0])

    def search(
        self, res: list[Restriction], names: list[int], comps: list[Process], label: Callable[[int], str], key: Key
    ) -> list[tuple[list[int], dict[int, str]]]:
        """The leaves of the individualise-and-refine tree of one cluster:
        each an order of `names` and the labelling it gives them."""
        ids = {i: res[i][0].id for i in names}
        tags = {i: _res_tag(res[i]) for i in names}
        leaves: list[tuple[list[int], dict[int, str]]] = []
        _visit((ids, tags, comps, label, key, leaves), [], list(names))
        return leaves


# The individualise-and-refine tree of `_Canon.search`, walked by two
# module-level functions, so a search leaves no reference cycle behind.
# `tree` holds the cluster's name ids and tags, its components, the label
# and key functions, and the list the leaves go to.


def _visit(tree: tuple, prefix: list[int], rest: list[int]) -> None:
    ids, tags, comps, label, key, leaves = tree
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
            _branch(tree, prefix, rest, labels, tied)
            return
        prefix.append(tied[0])
        rest.remove(tied[0])
        labels[ids[tied[0]]] = label(pos)
    labels[ids[rest[0]]] = label(len(prefix))
    leaves.append((prefix + rest, labels))


def _branch(tree: tuple, prefix: list[int], rest: list[int], labels: dict[int, str], tied: list[int]) -> None:
    ids, _, comps, label, key, _ = tree
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
        _visit(tree, prefix + [t], [i for i in rest if i != t])


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
    clusters = canon.clusters(restrictions, comps, lambda pos: f"v{pos}", canon.multiset)
    ordered = tuple(restrictions[i] for _, order, _ in clusters for i in order)
    env = {r[0].id: f"v{pos}" for pos, r in enumerate(ordered)}
    # the index keeps equal serials in the order of `comps`
    serials = sorted([(canon.comp(c, env, [0]), k) for k, c in enumerate(comps)])
    head = "new[" + ",".join(_res_tag(r) for r in ordered) + "]"
    np = NormalProcess(ordered, tuple([comps[k] for _, k in serials]), (head, *[s for s, _ in serials]))
    if len(clusters) > 1 and any(a[0] == b[0] for a, b in zip(clusters, clusters[1:])) and np.sig not in canon.index:
        canon.orbits[np.sig] = _orbits(canon, restrictions, clusters, np)
    return np


def _orbits(canon: _Canon, restrictions: list[Restriction], clusters: list, np: NormalProcess) -> tuple:
    """Each component's class, (first cluster of its leaf, serial under its labels) or (-1, serial), and cluster."""
    of, first = {}, 0
    for q, (leaf, order, cs) in enumerate(clusters):
        first = first if leaf == clusters[first][0] else q
        labels = {restrictions[i][0].id: f"v{pos}" for pos, i in enumerate(order)}
        for c in cs:
            of[id(c)] = ((first, canon.comp(c, labels, [0])), q)
    return tuple([of.get(id(c), ((-1, s), -1)) for c, s in zip(np.components, np.sig[1:])])


def _splice(canon: _Canon, np: NormalProcess, i: int, j: int, added: Sequence[Process]) -> NormalProcess:
    """The canonical form of a restriction-free `np` less the components at
    `i` and `j`, plus `added`, none restricted, each put after every equal
    serial: the order `_canonical`'s sort gives when `added` follow the kept
    ones. The kept serials are `np`'s own objects, bisected from index 1,
    past the head `new[]`. A `sig` the run has stored gives the stored
    state, and no copy is built."""
    i, j = (i, j) if i < j else (j, i)
    sig, comps = np.sig, np.components
    sig = sig[: i + 1] + sig[i + 2 : j + 1] + sig[j + 2 :]
    comps = comps[:i] + comps[i + 1 : j] + comps[j + 1 :]
    for c in added:
        s = canon.comp(c, {}, [0])
        at = bisect_right(sig, s, 1)
        sig, comps = sig[:at] + (s,) + sig[at:], comps[: at - 1] + (c,) + comps[at - 1 :]
    n = canon.index.get(sig)
    return NormalProcess((), comps, sig) if n is None else canon.states[n]


def normalize(p: Process) -> NormalProcess:
    """Canonical form modulo the congruence axioms; equal keys mean congruent."""
    canon = _Canon()
    return _canonical(canon, *_flatten(canon, p))


# ---------------------------------------------------------------------------
# Reduction


def _fire(sender: Out, receiver: In | RepIn) -> Process | None:
    """Body of a receiver on the sender's subject after the communication, or
    None if the two do not match: the sender sends as many values as the
    receiver binds (a bare `a<>` sends one, the unit), and well-sorted."""
    if max(len(sender.payload), 1) != max(len(receiver.binders), 1):
        return None
    mapping = {b: eval_value(v) for b, v in zip(receiver.binders, sender.payload or (STAR,))}
    try:
        return substitute_many(receiver.body, mapping)
    except SortError:
        return None  # ill-sorted communication: not a redex


def step(p: Process | NormalProcess, canon: _Canon | None = None) -> list[NormalProcess]:
    """All one-step successors, normalized and deduplicated up to congruence.

    A successor keeps the components of `p` that did not fire as they are and
    splits only the fired body, a normal form already, into its restrictions
    and components; `canon` is the store of the exploration. When neither
    `p` nor the fired body has a restriction, the successor is spliced from
    `p`'s sorted serials (`_splice`), and is the stored state when the
    exploration holds its `sig`; otherwise it is
    canonicalised. Successors are sorted by `sig`, which is key order. Of a
    run of congruent senders, or of congruent plain receivers, on one
    subject only the last fires, and so does the last redex of each orbit
    under exchanges of isomorphic clusters (`_orbits`): the others give the
    same `sig`s, and the last write of a `sig` is the one kept."""
    canon = canon or _Canon()
    np = p if isinstance(p, NormalProcess) else normalize(p)
    comps, sig = np.components, np.sig
    classes = canon.orbits.pop(sig, None) if canon.orbits else None
    senders: list[int] = []
    receivers: dict[int, list[int]] = {}
    for k, c in enumerate(comps):
        kind = type(c)
        # components are sorted by serial, so a congruent copy sits next
        if kind is not RepIn and k + 2 < len(sig) and sig[k + 2] == sig[k + 1] and comps[k + 1].subject is c.subject:
            continue
        if kind is Out:
            senders.append(k)
        else:
            receivers.setdefault(c.subject.id, []).append(k)
    if classes:  # the last redex of each orbit; a loop, as a comprehension would put the locals in cells
        last = {}
        for i in senders:
            for j in receivers.get(comps[i].subject.id, ()):
                last[classes[i][0], classes[j][0], classes[i][1] == classes[j][1]] = i, j
        keep = set(last.values())
    succs: dict[tuple[str, ...], NormalProcess] = {}
    for i in senders:
        sender = comps[i]
        for j in receivers.get(sender.subject.id, ()):
            if classes and (i, j) not in keep:
                continue
            receiver = comps[j]
            fired = canon.fire(sender, receiver)
            if fired is None:
                continue
            res, added = fired
            if type(receiver) is RepIn:
                added = (receiver, *added)
            if np.restrictions or res:
                rest = [c for k, c in enumerate(comps) if k != i and k != j] + list(added)
                succ = _canonical(canon, canon.live(np.restrictions, rest)[0] + list(res), rest)
            else:
                succ = _splice(canon, np, i, j, added)
            succs[succ.sig] = succ
    return [succs[k] for k in sorted(succs)]


# ---------------------------------------------------------------------------
# Exploration


class Verdict(enum.Enum):
    TERMINATED = "Terminated"
    BOUND_EXCEEDED = "BoundExceeded"
    DIVERGES = "Diverges"


@node
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


@node
class ExecutionReport:
    """What an exploration found; `measure_trace` is kept by a certified
    run, `witness` when the verdict is a divergence, each None otherwise."""

    verdict: Verdict
    steps_explored: int
    states_explored: int
    max_depth: int
    measure_trace: list[EdgeCert] | None
    witness: list[str] | None


def _find_cycle(adj: list[list[int]]) -> list[int] | None:
    """Iterative DFS from state 0 over the states' numbers; returns a path
    ending in a repeated state, if any."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = bytearray(len(adj))
    stack: list[tuple[int, int]] = [(0, 0)]  # the path, each state with its next edge
    color[0] = GRAY
    while stack:
        node, idx = stack[-1]
        targets = adj[node]
        if idx < len(targets):
            stack[-1] = (node, idx + 1)
            nxt = targets[idx]
            if color[nxt] == GRAY:
                path = [n for n, _ in stack]
                return path[path.index(nxt) :] + [nxt]
            if color[nxt] == WHITE:
                color[nxt] = GRAY
                stack.append((nxt, 0))
        else:
            color[node] = BLACK
            stack.pop()
    return None


def explore(p: Process, max_states: int = 100000, max_depth: int = 100000) -> ExecutionReport:
    """Breadth-first exhaustive exploration of the reduction graph.

    Terminated: every path reaches a stuck state within the bounds.
    Diverges: some canonical state repeats along a path (a cycle exists).
    BoundExceeded: the bounds cut the exploration short and no cycle was seen.
    `max_states` below 1 or `max_depth` below 0 raises `ValueError`.
    """
    _check_bounds(max_states, max_depth)
    return _explore(p, max_states, max_depth, env=None)


def certified_run(
    env: TypeEnv, p: Process, max_states: int = 100000, max_depth: int = 100000
) -> ExecutionReport:
    """Explore while certifying the strict measure decrease on every edge.
    The bounds are checked as `explore` checks them, before the start
    process is typed."""
    _check_bounds(max_states, max_depth)
    check(env, p)  # precondition: the start process is well typed
    return _explore(p, max_states, max_depth, env=env)


def _check_bounds(max_states: int, max_depth: int) -> None:
    """The root is a state and depth 0 its own, so no run has fewer."""
    if max_states < 1:
        raise ValueError(f"max_states must be at least 1, got {max_states}")
    if max_depth < 0:
        raise ValueError(f"max_depth must be at least 0, got {max_depth}")


class _Measures:
    """The measures of the states of one certified run.

    A state's measure is the multiset union of its components' measures,
    since `derive` on `|` is that union. Each component is typed once, by
    the checker's walk, under one environment: the run's, plus the
    annotation of every top-level restriction met so far. A restricted name
    is fresh to the run and restricted in every state it is free in, so a
    component's free names are typed alike in every state that holds it,
    and as that state's own restrictions type them. Typing a component adds
    to the environment only while the walk is in it, so the cost of a new
    component does not grow with the names met. `certified_run` types the
    start first, so by subject reduction every reached state is measured so
    unless a library-built process breaks the fresh-binder invariant; a
    state that cannot be declared or typed is refused at once, under its
    key, and ends the run."""

    def __init__(self, env: TypeEnv):
        self.scope = TypeEnv(dict(env.bindings))
        self.declared: dict[int, Restriction] = {}  # by name id, each bound in `scope`
        self.levels: dict[int, tuple[Process, list[int]]] = {}  # by component id

    def of(self, state: NormalProcess) -> Multiset:
        try:
            self.declare(state.restrictions)
            return as_multiset([k for c in state.components for k in self.component(c)])
        except PiError as exc:
            raise CertificationFailure(f"reachable state is not typable: {exc}", where=state.key) from exc

    def declare(self, restrictions: Sequence[Restriction]) -> None:
        """Bind the annotations of `restrictions` in `scope`; raise as the
        typing walk does on a restriction with no annotation or a name bound
        twice."""
        for r in restrictions:
            name, ann, _ = r
            if self.declared.get(name.id) is r:
                continue
            if ann is None:
                raise MissingAnnotation(f"restriction on {name.display} lacks a type annotation")
            if name in self.scope:  # by the run's environment or another restriction
                raise UnboundName(f"name {name.display!r} is already bound")
            self.scope.bindings[name] = ann
            self.declared[name.id] = r

    def component(self, c: Process) -> list[int]:
        """The levels of the outputs of `c` not under replication."""
        known = self.levels.get(id(c))
        if known is None:
            levels: list[int] = []
            _weigh(self.scope, c, levels)
            known = self.levels[id(c)] = (c, levels)
        return known[1]


def _root(canon: _Canon, p: Process) -> NormalProcess:
    """`p`'s canonical form in a store of its own, which goes when the call returns; its classes go to `canon`."""
    own = _Canon()
    own.orbits = canon.orbits
    return _canonical(own, *_flatten(own, p))


def _explore(p: Process, max_states: int, max_depth: int, env: TypeEnv | None) -> ExecutionReport:
    """States are numbered in the order they are reached, breadth first:
    `states` is the queue, and `index` maps a state's `sig` to its number,
    the one table that holds a `sig`. Both live on the run's store, so
    `step` returns a re-reached restriction-free state as the stored object.
    Depths, edges, measures and printed forms are kept by number, so a state
    prints once, as it was first reached, and no key text is built. A new
    state lies one deeper than its source, so only an edge to a state no
    deeper than its source can close a cycle: without one, depth rises along
    every path and the cycle search is skipped."""
    canon = _Canon()
    states, index = canon.states, canon.index
    states.append(_root(canon, p))
    index[states[0].sig] = 0
    depth = [0]
    adj: list[list[int]] = [[]]
    measurer = _Measures(env) if env is not None else None
    measures: dict[int, Multiset] = {}
    printed: dict[int, str] = {}
    trace: list[EdgeCert] | None = [] if env is not None else None

    def state_measure(n: int) -> Multiset:
        if n not in measures:
            measures[n] = measurer.of(states[n])
        return measures[n]

    def show(n: int) -> str:
        if n not in printed:
            printed[n] = pretty_process(states[n].rebuild())
        return printed[n]

    truncated = backward = False
    edges = 0
    for src, state in enumerate(states):  # the loop reaches the states it appends
        succs = step(state, canon)
        d = depth[src]
        if d >= max_depth:
            truncated = truncated or bool(succs)
            for sig in {s.sig for s in succs} - index.keys():  # never stored, so never stepped
                canon.orbits.pop(sig, None)
            continue
        out = adj[src]
        for succ in succs:
            dst = index.get(succ.sig)
            if dst is None:
                if len(states) >= max_states:
                    truncated = True
                    canon.orbits.pop(succ.sig, None)
                    continue
                dst = index[succ.sig] = len(states)
                states.append(succ)
                depth.append(d + 1)
                adj.append([])
            elif depth[dst] <= d:
                backward = True
            out.append(dst)
            edges += 1
            if env is not None:
                m_src, m_dst = state_measure(src), state_measure(dst)
                if not multiset_greater(m_src, m_dst):
                    raise CertificationFailure(
                        f"measure did not decrease: {format_multiset(m_src)} vs {format_multiset(m_dst)}",
                        where=f"{state.key} --> {succ.key}")
                trace.append(EdgeCert(show(src), show(dst), m_src, m_dst))

    cycle = _find_cycle(adj) if backward else None
    return ExecutionReport(
        verdict=Verdict.DIVERGES if cycle else Verdict.BOUND_EXCEEDED if truncated else Verdict.TERMINATED,
        steps_explored=edges,
        states_explored=len(states),
        max_depth=depth[-1],  # breadth first, the last state reached is the deepest
        measure_trace=trace,
        witness=[show(n) for n in cycle] if cycle else None,
    )
