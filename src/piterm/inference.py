"""Type inference for the localised fragment.

Pipeline: one walk that gathers the name facts (the restrictions, outputs
and inputs in preorder, free and restricted names, receptions, input
subjects, replicated inputs and the outputs they guard); simple-type
inference by first-order unification over the recorded nodes, in that
preorder, a use whose subject is a channel already unified in place into
that channel's payload, with no store node of its own; a locality check on
the facts (no received name may be used as an input subject); one generator
of level constraints over slots, a slot being a name with a payload path
into its type; minimal level assignment by SCC condensation, in one walk
that takes the edges in any order and sorts only to print the witness of a
cycle; and reconstruction of an environment that the checker accepts.

Simple types live in one `TermStore` per run: a node is a kind, a label and
a tuple of child ids in flat lists, and a variable is a node in a
union-find (Tarjan 1975) whose representative is an unbound variable or a
constructor. Unification (Robinson 1965), its occurs check and resolution
are loops over ints. The store is the package's one first-order unifier:
the lambda front end's simple typing runs on it too.

Slots are numbered once per `infer`, straight off the store: 0 is the
floor, a pseudo-slot pinned at level zero, then each root's resolved type
tree in preorder, roots in `Name.id` order. So ids follow `(root.id, path)`,
and constraints, solving and reconstruction run on ints and lists; the
reconstructed types are built from the slots, each distinct type once
(hash-consing, Conchon & Filliâtre 2006, with a table local to the call),
so the re-check meets equal types as one object. `infer` is the one way
through the pipeline.

Output edges are `>=` and run down every nested payload position;
replication edges are `>`. The public `LevelGraph` is a projection of this
one constraint system: the slots of free and restricted names down to their
first payload positions, named as `--dump-graph` prints them (`a`,
`son0(a)`, `a~1`), with received names as labels on their carrier's
payload slot, and the constraints among those slots. ds-equality mode solves
the same system with every `>=` edge also read backwards, so levels are
equal along every flow. An `InferResult` builds its graph and its visible
levels, both keyed by slot name, only when first read.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from functools import cached_property

from .checker import TypeEnv, check
from .errors import (
    CyclicLevelConstraint,
    IllTyped,
    InternalError,
    NotLocalised,
    OccursCheckFailure,
    UnificationFailure,
)
from .syntax import (
    NAT,
    OUT,
    SHARP,
    UNIT,
    Add,
    ChanT,
    In,
    Mul,
    Name,
    NatLit,
    NameRef,
    Nil,
    Out,
    Par,
    Process,
    RepIn,
    Res,
    Star,
    Type,
    Value,
    node,
    pretty_process,
    value_names,
    value_operands,
)

# ---------------------------------------------------------------------------
# The term store

# node kinds: variables, then the constructors of simple types and of lambda types
VAR, UNIT_K, NAT_K, CHAN, ARROW, BASE = range(6)


class Mismatch(Exception):
    """Unification failed at the representatives `a` and `b`: they clash, or
    (`occurs`) the variable `a` occurs in `b`. The caller renders it."""

    def __init__(self, a: int, b: int, occurs: bool = False):
        super().__init__(a, b, occurs)
        self.a, self.b, self.occurs = a, b, occurs


class TermStore:
    """First-order terms as ints. Node `i` has `kind[i]`, `args[i]` (its child
    ids) and `label[i]` (a variable's number, counted from 1 in the order the
    variables are made, or a base type's name); `up[i]` is its union-find
    parent, `i` itself unless `i` is a bound variable. Constructors unify
    when kind, label and arity agree."""

    __slots__ = ("kind", "args", "label", "up", "_vars")

    def __init__(self) -> None:
        self.kind: list[int] = []
        self.args: list[tuple[int, ...]] = []
        self.label: list[object] = []
        self.up: list[int] = []
        self._vars = 0

    def node(self, kind: int, args: tuple[int, ...] = (), label: object = None) -> int:
        i = len(self.kind)
        self.kind.append(kind)
        self.args.append(args)
        self.label.append(label)
        self.up.append(i)
        return i

    def fresh(self) -> int:
        self._vars += 1
        return self.node(VAR, (), self._vars)

    def find(self, t: int) -> int:
        """The representative of `t`, with path compression."""
        up = self.up
        r = t
        while up[r] != r:
            r = up[r]
        while up[t] != r:
            up[t], t = r, up[t]
        return r

    def occurs(self, v: int, t: int) -> bool:
        """Whether the variable `v` occurs in `t`; each node is walked once."""
        kind, args, up = self.kind, self.args, self.up
        seen: set[int] = set()
        todo = [t]
        while todo:
            n = todo.pop()
            while up[n] != n:
                n = up[n]
            if n == v:
                return True
            if kind[n] != VAR and n not in seen:
                seen.add(n)
                todo.extend(args[n])
        return False

    def unify(self, a: int, b: int) -> None:
        """Make `a` and `b` equal, or raise `Mismatch`. Pairs are taken depth
        first, left to right; a variable found first is bound to the other
        side."""
        kind, args, label, find = self.kind, self.args, self.label, self.find
        todo = [(a, b)]
        while todo:
            a, b = todo.pop()
            a, b = find(a), find(b)
            if kind[a] == VAR:
                if a == b:
                    continue
            elif kind[b] == VAR:
                a, b = b, a
            else:
                xs, ys = args[a], args[b]
                if kind[a] != kind[b] or label[a] != label[b] or len(xs) != len(ys):
                    raise Mismatch(a, b)
                if xs:
                    todo.extend(zip(reversed(xs), reversed(ys)))
                continue
            if kind[b] != VAR and self.occurs(a, b):
                raise Mismatch(a, b, occurs=True)
            self.up[a] = b

    def resolve(self, t: int, make, bound: bool = True):
        """The tree of `t`, built bottom-up by `make(kind, label, args)` once
        per node, every bound variable replaced by its value; with `bound`
        false, variables stand for themselves."""
        find = self.find if bound else (lambda n: n)
        done: dict[int, object] = {}
        todo = [find(t)]
        while todo:
            n = todo[-1]
            if n in done:
                todo.pop()
                continue
            kids = [find(c) for c in self.args[n]]
            missing = [c for c in kids if c not in done]
            if missing:
                todo.extend(missing)
                continue
            todo.pop()
            done[n] = make(self.kind[n], self.label[n], tuple(done[c] for c in kids))
        return done[find(t)]


# ---------------------------------------------------------------------------
# Simple types


def _pretty_node(kind: int, label, args: tuple[str, ...]) -> str:
    """The printed simple type of one store node, its payload already printed."""
    if kind == VAR:
        return f"?{label}"
    if kind == CHAN:
        return "ch[" + ", ".join(args) + "]"
    return "Nat" if kind == NAT_K else "Unit"


@node
class _Typing:
    """The most general simple typing: each name's variable in the store, in
    the order of first use."""

    store: TermStore
    var: dict[Name, int]

    def error(self, m: Mismatch) -> UnificationFailure:
        def show(t: int, bound: bool = True) -> str:
            return self.store.resolve(t, _pretty_node, bound)

        if m.occurs:
            return OccursCheckFailure(f"occurs check: ?{self.store.label[m.a]} inside {show(m.b)}")
        if self.store.kind[m.a] == self.store.kind[m.b] == CHAN:
            return UnificationFailure(f"arity clash: {show(m.a, False)} vs {show(m.b, False)}")
        return UnificationFailure(f"sort clash: {show(m.a)} vs {show(m.b)}")


_UNIT_NODE, _NAT_NODE = 0, 1  # the first two nodes of `_simple_types`' store


def _value_node(st: TermStore, var, v: Value) -> int:
    """The store node of a value's simple type; arithmetic unifies with Nat
    each operand that is no sum or product, left to right."""
    cls = type(v)
    if cls is NameRef:
        return var(v.name)
    if cls is Star:
        return _UNIT_NODE
    if cls is NatLit:
        return _NAT_NODE
    if cls is Add or cls is Mul:
        for u, _ in value_operands(v):
            st.unify(_value_node(st, var, u), _NAT_NODE)
        return _NAT_NODE
    raise TypeError(f"not a value: {v!r}")


def _simple_types(facts: _Facts) -> _Typing:
    """The most general simple typing: first-order unification over the uses
    of every name, in the preorder of the fact walk; restricted names default
    to channels (of a fresh payload) when nothing constrains them."""
    st = TermStore()
    for k in (UNIT_K, NAT_K):  # nodes _UNIT_NODE and _NAT_NODE
        st.node(k)
    var_of: dict[Name, int] = {}
    fresh, node, unify = st.fresh, st.node, st.unify

    def var(n: Name) -> int:
        v = var_of.get(n)
        if v is None:
            v = var_of[n] = fresh()
        return v

    typing = _Typing(st, var_of)
    kind, args, find = st.kind, st.args, st.find
    try:
        for q in facts.nodes:
            if type(q) is Res:
                var(q.name)
                continue
            if type(q) is Out:
                payload = [var(v.name) if type(v) is NameRef else _value_node(st, var, v) for v in q.payload]
            else:
                payload = [var(b) for b in q.binders]
            payload = payload or [_UNIT_NODE]
            s = var(q.subject)  # made after the payload's variables
            c = find(s)
            if kind[c] == CHAN and len(args[c]) == len(payload):  # a channel already: unify into it
                for a, b in zip(args[c], payload):
                    unify(a, b)
            else:
                unify(s, node(CHAN, tuple(payload)))
        for n in facts.restricted:
            if st.kind[st.find(var_of[n])] == VAR:
                unify(var_of[n], node(CHAN, (fresh(),)))
    except Mismatch as m:
        raise typing.error(m) from None
    return typing


# ---------------------------------------------------------------------------
# Name facts


@node
class _Facts:
    """What inference needs to know about the names of a process."""

    nodes: list[Process]  # Res, Out, In and RepIn, in preorder
    free: set[Name]
    restricted: list[Name]
    receptions: list[tuple[Name, int, Name]]  # (carrier, position, received)
    input_subjects: set[Name]
    # per replicated input: its subject and the subjects of the outputs in
    # its body that no further replication shields
    replicated: list[tuple[Name, list[Name]]]

    def non_local(self) -> set[Name]:
        """Received names used as input subjects."""
        return {x for _, _, x in self.receptions} & self.input_subjects


def _facts(p: Process) -> _Facts:
    """The name facts of a process, gathered in one preorder walk. The free
    names are the names used less the names bound, as bound names are
    distinct from free ones."""
    nodes: list[Process] = []
    restricted: list[Name] = []
    receptions: list[tuple[Name, int, Name]] = []
    input_subjects: set[Name] = set()
    replicated: list[tuple[Name, list[Name]]] = []
    used: set[Name] = set()
    bound: set[Name] = set()
    # `served`: the output subjects of the nearest enclosing replicated input
    stack: list[tuple[Process, list[Name]]] = [(p, [])]
    while stack:
        q, served = stack.pop()
        cls = type(q)
        if cls is Par:
            stack += ((q.right, served), (q.left, served))
            continue
        if cls is Nil:
            continue
        nodes.append(q)
        if cls is Out:
            served.append(q.subject)
            used.add(q.subject)
            for v in q.payload:
                used.update((v.name,) if type(v) is NameRef else value_names(v))
        elif cls is In or cls is RepIn:
            input_subjects.add(q.subject)
            receptions.extend((q.subject, i, x) for i, x in enumerate(q.binders))
            used.add(q.subject)
            bound.update(q.binders)
            if cls is RepIn:
                served = []
                replicated.append((q.subject, served))
            stack.append((q.body, served))
        elif cls is Res:
            restricted.append(q.name)
            bound.add(q.name)
            stack.append((q.body, served))
        else:
            raise TypeError(f"not a process: {q!r}")
    return _Facts(nodes, used - bound, restricted, receptions, input_subjects, replicated)


# ---------------------------------------------------------------------------
# The level constraint system


@node
class LevelGraph:
    """The visible level graph, by slot name: each node's label set (its own
    name and the received names it carries), and the edges `(src, dst,
    strict)`, `src >= dst` or, strict, `src > dst`."""

    nodes: dict[str, frozenset[str]]
    edges: set[tuple[str, str, bool]]

    def dump(self) -> str:
        lines = [f"NODE {n}: {{{', '.join(sorted(self.nodes[n]))}}}" for n in sorted(self.nodes)]
        lines += sorted(f"EDGE {s} {'>' if strict else '>='} {d}" for s, d, strict in self.edges)
        return "\n".join(lines)


class _NameInfo:
    """The name facts of a process with its simple typing: roots, displays,
    the slots, numbered off the store, and the slot of each name that has
    one. Preorder skips `Nat` positions and `Unit`/`Nat` roots (their type is
    in `plain`); `kinds[s]` is the store kind of slot `s` (`CHAN`, `VAR` or
    `UNIT_K`) and `children[s]` holds the ids of its payload positions, None
    at a `Nat` position."""

    def __init__(self, typing: _Typing, facts: _Facts):
        self.facts = facts
        self.roots: list[Name] = sorted(facts.free | set(facts.restricted), key=lambda n: n.id)
        self.kinds: list[int | None] = [None]
        self.children: list[Sequence[int | None]] = [()]
        self.root_slot: dict[Name, int] = {}
        self.plain: dict[Name, Type] = {}
        store = typing.store
        kind, args, up, find = store.kind, store.args, store.up, store.find
        kinds, children = self.kinds, self.children
        for n in self.roots:
            v = typing.var.get(n)
            k = UNIT_K if v is None else kind[find(v)]
            if k != CHAN and k != VAR:
                self.plain[n] = NAT if k == NAT_K else UNIT
                continue
            # number the resolved tree of `v` in preorder, off representatives
            top: list[int | None] = [None]
            todo: list[tuple[int, list, int]] = [(find(v), top, 0)]
            while todo:
                t, into, i = todo.pop()
                into[i] = len(children)
                k = kind[t]
                kinds.append(k)
                if k != CHAN:
                    children.append(())
                    continue
                payload = args[t]
                kids: list[int | None] = [None] * len(payload)
                children.append(kids)
                for j in range(len(payload) - 1, -1, -1):  # the first position is numbered first
                    c = payload[j]
                    if up[c] != c:
                        c = find(c)
                    if kind[c] != NAT_K:
                        todo.append((c, kids, j))
            self.root_slot[n] = top[0]
        self._starts = list(self.root_slot.values())
        self._owners = list(self.root_slot)
        # the level variable of each name that has one: a root's own slot, a
        # received name's is its carrier's payload position
        self.slot: dict[Name, int] = dict(self.root_slot)
        for a, i, x in facts.receptions:
            if a in self.root_slot and children[self.root_slot[a]][i] is not None:
                self.slot[x] = children[self.root_slot[a]][i]

    @cached_property
    def root_display(self) -> dict[Name, str]:
        """Each root's display, qualified when distinct roots share a spelling."""
        seen: dict[str, int] = {}
        shown: dict[Name, str] = {}
        for n in sorted(self.roots, key=lambda n: n.display):  # stable: by id within a spelling
            k = seen.get(n.display, 0)
            seen[n.display] = k + 1
            shown[n] = n.display if k == 0 else f"{n.display}~{k}"
        return shown

    def display(self, sid: int) -> str:
        if sid == 0:
            return "floor"
        k = bisect_right(self._starts, sid) - 1
        node, text = self._starts[k], self.root_display[self._owners[k]]
        while node != sid:
            # preorder: `sid` sits under the last payload slot numbered up to it
            i = max(i for i, c in enumerate(self.children[node]) if c is not None and c <= sid)
            node, text = self.children[node][i], f"son{i}({text})"
        return text


def _extended_constraints(info: _NameInfo) -> set[tuple[int, int, bool]]:
    """All level constraints: output edges `>=` from each payload position to
    what it carries (down every nested position), replication edges `>` from
    a replicated subject to the outputs of its body, and a floor that keeps
    replicated subjects above zero."""
    children, slot_of = info.children, info.slot.get
    edges: set[tuple[int, int, bool]] = set()

    def le(a: int, b: int) -> None:
        # levels of the type sitting at `a` fit below those at `b`, and so
        # down every payload position
        todo = [(a, b)]
        while todo:
            a, b = todo.pop()
            edges.add((b, a, False))
            for i, c in enumerate(children[a]):
                if c is not None:
                    todo.append((children[b][i], c))

    for q in info.facts.nodes:
        subj = slot_of(q.subject) if type(q) is Out else None  # an input is skipped at once
        if subj is None:
            continue
        for i, v in enumerate(q.payload):
            if type(v) is NameRef:
                tgt = slot_of(v.name)
                if tgt is not None:
                    le(tgt, children[subj][i])

    for a, served in info.facts.replicated:
        src = slot_of(a)
        if src is None:
            continue
        for w in served:
            dst = slot_of(w)
            if dst is not None:
                edges.add((src, dst, True))
        edges.add((src, 0, True))
    return edges


def _project(
    info: _NameInfo, edges: set[tuple[int, int, bool]], levels: list[int]
) -> tuple[LevelGraph, dict[str, int]]:
    """The visible graph: the slots of free and restricted names down to their
    payload positions, received names as labels on their carrier's position,
    and the constraints among these slots; with the level of each node."""
    visible = {
        s: info.display(s)
        for sid in info.root_slot.values()
        for s in (sid, *info.children[sid])
        if s is not None
    }
    nodes = {text: frozenset((text,)) for text in visible.values()}
    for _, _, x in info.facts.receptions:
        sid = info.slot.get(x)
        if sid in visible:
            nodes[visible[sid]] |= {x.display}
    shown = {(visible[s], visible[d], strict) for s, d, strict in edges if s in visible and d in visible}
    return LevelGraph(nodes, shown), {text: levels[sid] for sid, text in visible.items()}


# ---------------------------------------------------------------------------
# Level assignment


def _cycle_witness(
    comp_of: list[int], adj: list[list[tuple[int, bool]]], src: int, dst: int
) -> list[int]:
    """Path dst -> src inside the component, closing a cycle through (src, dst)."""
    prev = {dst: dst}
    queue = [dst]
    for node in queue:  # breadth first: the loop walks what it appends
        if node == src:
            break
        for nxt, _ in adj[node]:
            if comp_of[nxt] == comp_of[src] and nxt not in prev:
                prev[nxt] = node
                queue.append(nxt)
    path = [src]
    while path[-1] != dst:
        path.append(prev[path[-1]])
    path.reverse()  # dst ... src
    return [src] + path  # src -> dst -> ... -> src


def _least_levels(count: int, edges, describe) -> list[int]:
    """Pointwise-least levels of slots `0 .. count-1` under the edges
    `(src, dst, strict)`, in any order. Tarjan's walk (1972) emits the
    strongly connected components sinks first, each with its level, the
    least above every edge that leaves it; a slot's edges are followed
    through one iterator. A cycle through a strict edge raises, its witness
    read off adjacency sorted only then and rendered by `describe`."""
    adj: list[list[tuple[int, bool]]] = [[] for _ in range(count)]
    for src, dst, strict in edges:
        adj[src].append((dst, strict))
    index = [-1] * count
    low = [0] * count
    comp_of = [-1] * count  # visited and still -1: on the stack
    levels = [0] * count
    stack: list[int] = []
    counter = comps = 0
    for start in range(count):
        if index[start] >= 0:
            continue
        index[start] = low[start] = counter
        counter += 1
        stack.append(start)
        work = [(start, iter(adj[start]))]
        while work:
            node, targets = work[-1]
            for nxt, _ in targets:
                if index[nxt] < 0:
                    index[nxt] = low[nxt] = counter
                    counter += 1
                    stack.append(nxt)
                    work.append((nxt, iter(adj[nxt])))
                    break
                if comp_of[nxt] < 0 and index[nxt] < low[node]:
                    low[node] = index[nxt]
            else:  # every edge followed: the node is finished
                work.pop()
                if low[node] != index[node]:
                    low[work[-1][0]] = min(low[work[-1][0]], low[node])
                    continue
                comp = []
                while True:
                    w = stack.pop()
                    comp_of[w] = comps
                    comp.append(w)
                    if w == node:
                        break
                lvl = 0
                for s in comp:
                    for dst, strict in adj[s]:
                        if comp_of[dst] != comps and levels[dst] + strict > lvl:
                            lvl = levels[dst] + strict
                for s in comp:
                    levels[s] = lvl
                comps += 1
    inside = [e for e in edges if e[2] and comp_of[e[0]] == comp_of[e[1]]]
    if inside:
        for targets in adj:
            targets.sort()
        src, dst, _ = min(inside)
        cycle = [describe(s) for s in _cycle_witness(comp_of, adj, src, dst)]
        raise CyclicLevelConstraint(
            "level constraints form a cycle through a strict edge: " + " -> ".join(cycle),
            cycle=cycle,
        )
    return levels


# ---------------------------------------------------------------------------
# Reconstruction


def _reconstruct(p: Process, info: _NameInfo, levels: list[int]) -> tuple[TypeEnv, Process]:
    """Types from the level of each slot id: full capability for input
    subjects and restricted names, output capability elsewhere and on every
    carried type; residual type variables become Unit."""
    sharp = info.facts.input_subjects | set(info.facts.restricted)
    cap_of = {sid: SHARP for n, sid in info.root_slot.items() if n in sharp}
    kinds, children = info.kinds, info.children
    # Each distinct type is built once. A slot's type has a number, an index
    # into `types` (0 is Unit); a channel type is keyed by its capability,
    # level and payload numbers, -1 standing for a Nat position. Preorder
    # puts every payload slot after its parent: number from the last.
    types: list[Type] = [UNIT]
    number = [0] * len(children)
    made: dict[tuple, int] = {}
    for sid in range(len(children) - 1, 0, -1):
        k = kinds[sid]
        if k == CHAN:
            args = [-1 if c is None else number[c] for c in children[sid]]
        elif k == VAR:
            # an unconstrained slot still owns a level; its residual payload
            # variable is instantiated to Unit
            args = [0]
        else:
            continue
        key = (cap_of.get(sid, OUT), levels[sid], *args)
        t = made.get(key)
        if t is None:
            t = made[key] = len(types)
            types.append(ChanT(key[0], key[1], tuple([NAT if a < 0 else types[a] for a in args])))
        number[sid] = t

    def type_of_root(n: Name) -> Type:
        sid = info.root_slot.get(n)
        return info.plain[n] if sid is None else types[number[sid]]

    tenv = TypeEnv({n: type_of_root(n) for n in info.facts.free})

    # rebuilt after its parts, with a stack: neither `|` width nor prefix
    # depth recurses; a part that holds no restriction comes back as itself
    done: list[Process] = []
    todo: list[tuple[Process, bool]] = [(p, False)]
    while todo:
        q, ready = todo.pop()
        cls = type(q)
        if cls is Par:
            if ready:
                right = done.pop()
                left = done[-1]
                done[-1] = q if left is q.left and right is q.right else Par(left, right)
            else:
                todo += ((q, True), (q.right, False), (q.left, False))
        elif cls is not In and cls is not RepIn and cls is not Res:
            done.append(q)
        elif not ready:
            todo += ((q, True), (q.body, False))
        elif cls is Res:
            done[-1] = Res(q.name, type_of_root(q.name), q.functional, done[-1])
        else:
            done[-1] = q if done[-1] is q.body else cls(q.subject, q.binders, done[-1])
    return tenv, done[0]


# ---------------------------------------------------------------------------
# The pipeline


FLEXIBLE = "flexible"
DS_EQUALITY = "ds-equality"


class InferResult:
    """What `infer` returns. `graph` (the visible `LevelGraph`) and `levels`
    (the level of each of its nodes, by slot name) are built when first
    read."""

    def __init__(
        self,
        env: TypeEnv,
        process: Process,
        weight: int,
        info: _NameInfo,
        edges: set[tuple[int, int, bool]],
        levels: list[int],
    ):
        self.env = env
        self.process = process  # with reconstructed annotations
        self.weight = weight
        self._info, self._edges, self._levels = info, edges, levels

    @cached_property
    def _projected(self) -> tuple[LevelGraph, dict[str, int]]:
        projected = _project(self._info, self._edges, self._levels)
        del self._info, self._edges, self._levels  # the projection was their last reader
        return projected

    @property
    def graph(self) -> LevelGraph:
        return self._projected[0]

    @property
    def levels(self) -> dict[str, int]:
        return self._projected[1]


def infer(p: Process, mode: str = FLEXIBLE) -> InferResult:
    """Full inference; raises NotLocalised, UnificationFailure,
    OccursCheckFailure or CyclicLevelConstraint on untypable input, and
    ValueError on an unknown `mode`."""
    if mode not in (FLEXIBLE, DS_EQUALITY):
        raise ValueError(f"unknown inference mode {mode!r}")
    facts = _facts(p)
    typing = _simple_types(facts)
    bad = facts.non_local()
    if bad:
        raise NotLocalised(
            f"received name(s) used as input subject: {', '.join(sorted(n.display for n in bad))}",
            where=pretty_process(p),
        )
    info = _NameInfo(typing, facts)
    edges = solved = _extended_constraints(info)
    if mode == DS_EQUALITY:
        # every `>=` flow also holds backwards: levels are equal along it
        solved = edges | {(dst, src, False) for src, dst, strict in edges if not strict}
    levels = _least_levels(len(info.children), solved, info.display)
    tenv, annotated = _reconstruct(p, info, levels)
    try:
        weight = check(tenv, annotated)  # inference soundness: must hold
    except IllTyped as exc:
        raise InternalError(f"inference built a typing its checker rejects: {exc.render()}") from exc
    return InferResult(tenv, annotated, weight, info, edges, levels)
