"""Type inference for the localised fragment.

Pipeline: one walk that gathers the name facts (the restrictions, outputs
and inputs in preorder, free and restricted names, receptions, input
subjects, replicated inputs and the outputs they guard); simple-type
inference by first-order unification over the recorded nodes, in that
preorder; a locality check on the facts (no received name may be used as an
input subject); one generator of level constraints over slots, a slot being
a name with a payload path into its type; minimal level assignment by SCC
condensation; and reconstruction of an environment that the checker
accepts. `Unifier` is the one first-order unifier of the package; the lambda
front end's simple typing runs on it too.

Slots are numbered once per `infer`: 0 is the floor, a pseudo-slot pinned at
level zero, then each root's type tree in preorder, roots in `Name.id` order.
So ids follow `(root.id, path)`, and constraints, solving and reconstruction
run on ints and lists. `infer` is the one way through the pipeline; `Slot`
is only the public face of its visible graph and levels.

Output edges are `>=` and run down every nested payload position;
replication edges are `>`. The public `LevelGraph` is a projection of this
one constraint system: the slots of free and restricted names down to their
first payload positions, with received names as labels on their carrier's
payload slot, and the constraints among those slots. ds-equality mode solves
the same system with every `>=` edge also read backwards, so levels are
equal along every flow.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

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
    STAR,
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
    pretty_process,
    value_names,
)

# ---------------------------------------------------------------------------
# Simple types


class SimpleType:
    pass


@dataclass(frozen=True)
class SVar(SimpleType):
    id: int


@dataclass(frozen=True)
class SUnit(SimpleType):
    pass


@dataclass(frozen=True)
class SNat(SimpleType):
    pass


@dataclass(frozen=True)
class SChan(SimpleType):
    payload: tuple[SimpleType, ...]


S_UNIT = SUnit()
S_NAT = SNat()


def pretty_simple(t: SimpleType) -> str:
    if isinstance(t, SVar):
        return f"?{t.id}"
    if isinstance(t, SUnit):
        return "Unit"
    if isinstance(t, SNat):
        return "Nat"
    if isinstance(t, SChan):
        return "ch[" + ", ".join(pretty_simple(p) for p in t.payload) + "]"
    raise TypeError(f"not a simple type: {t!r}")


class Unifier:
    """First-order unification (Robinson 1965) over the terms of one type
    language, given by its variable class `var` (with an int `id`), by
    `split(t) -> (key, args)` for a constructor term, equal keys naming the
    same constructor, and by `build(t, args)`, which rebuilds `t` on new
    arguments. `occurs_error(uni, v, t)` and `clash_error(uni, a, b)` build
    what is raised when `v` occurs in `t`, or when constructor terms `a` and
    `b` differ in key or arity."""

    def __init__(self, var, split, build, occurs_error, clash_error) -> None:
        self.var, self.split, self.build = var, split, build
        self.occurs_error, self.clash_error = occurs_error, clash_error
        self.sub: dict[int, object] = {}
        self._next = 0

    def fresh(self):
        self._next += 1
        return self.var(self._next)

    def find(self, t):
        while isinstance(t, self.var) and t.id in self.sub:
            t = self.sub[t.id]
        return t

    def _occurs(self, vid: int, t) -> bool:
        t = self.find(t)
        if isinstance(t, self.var):
            return t.id == vid
        return any(self._occurs(vid, x) for x in self.split(t)[1])

    def unify(self, a, b) -> None:
        a, b = self.find(a), self.find(b)
        if isinstance(a, self.var):
            if isinstance(b, self.var) and a.id == b.id:
                return
        elif isinstance(b, self.var):
            a, b = b, a
        else:
            (ka, xs), (kb, ys) = self.split(a), self.split(b)
            if ka != kb or len(xs) != len(ys):
                raise self.clash_error(self, a, b)
            for x, y in zip(xs, ys):
                self.unify(x, y)
            return
        if self._occurs(a.id, b):
            raise self.occurs_error(self, a, b)
        self.sub[a.id] = b

    def resolve(self, t):
        t = self.find(t)
        if isinstance(t, self.var):
            return t
        args = self.split(t)[1]
        return self.build(t, tuple(map(self.resolve, args))) if args else t


def _split_simple(t: SimpleType) -> tuple[type, tuple[SimpleType, ...]]:
    return type(t), (t.payload if isinstance(t, SChan) else ())


def _simple_clash(uni: Unifier, a: SimpleType, b: SimpleType) -> UnificationFailure:
    if isinstance(a, SChan) and isinstance(b, SChan):
        return UnificationFailure(f"arity clash: {pretty_simple(a)} vs {pretty_simple(b)}")
    return UnificationFailure(
        f"sort clash: {pretty_simple(uni.resolve(a))} vs {pretty_simple(uni.resolve(b))}"
    )


def _value_simple(v: Value, var, uni: Unifier) -> SimpleType:
    if isinstance(v, Star):
        return S_UNIT
    if isinstance(v, NatLit):
        return S_NAT
    if isinstance(v, NameRef):
        return var(v.name)
    if isinstance(v, (Add, Mul)):
        uni.unify(_value_simple(v.left, var, uni), S_NAT)
        uni.unify(_value_simple(v.right, var, uni), S_NAT)
        return S_NAT
    raise TypeError(f"not a value: {v!r}")


def _simple_types(facts: _Facts) -> dict[Name, SimpleType]:
    """The most general simple typing, one resolved type per name: first-order
    unification over the uses of every name, in the preorder of the fact
    walk; restricted names default to channels (of a fresh payload) when
    nothing constrains them."""
    uni = Unifier(
        SVar,
        _split_simple,
        lambda t, payload: SChan(payload),
        lambda uni, v, t: OccursCheckFailure(f"occurs check: ?{v.id} inside {pretty_simple(uni.resolve(t))}"),
        _simple_clash,
    )
    vars_: dict[Name, SVar] = {}

    def var(n: Name) -> SVar:
        if n not in vars_:
            vars_[n] = uni.fresh()
        return vars_[n]

    for q in facts.nodes:
        if isinstance(q, Res):
            var(q.name)
            continue
        if isinstance(q, Out):
            payload = tuple(_value_simple(v, var, uni) for v in q.payload or (STAR,))
        else:
            payload = tuple(map(var, q.binders)) or (S_UNIT,)
        uni.unify(var(q.subject), SChan(payload))
    for n in facts.restricted:
        if isinstance(uni.find(var(n)), SVar):
            uni.unify(var(n), SChan((uni.fresh(),)))
    return {n: uni.resolve(v) for n, v in vars_.items()}


# ---------------------------------------------------------------------------
# Name facts


@dataclass
class _Facts:
    """What inference needs to know about the names of a process."""

    nodes: list[Process] = field(default_factory=list)  # Res, Out, In and RepIn, in preorder
    free: set[Name] = field(default_factory=set)
    restricted: list[Name] = field(default_factory=list)
    receptions: list[tuple[Name, int, Name]] = field(default_factory=list)  # (carrier, position, received)
    input_subjects: set[Name] = field(default_factory=set)
    # per replicated input: its subject and the subjects of the outputs in its
    # body that no further replication shields
    replicated: list[tuple[Name, list[Name]]] = field(default_factory=list)

    def non_local(self) -> set[Name]:
        """Received names used as input subjects."""
        return {x for _, _, x in self.receptions} & self.input_subjects


def _facts(p: Process) -> _Facts:
    """The name facts of a process, gathered in one preorder walk. The free
    names are the names used less the names bound, as bound names are
    distinct from free ones."""
    f = _Facts()
    used: set[Name] = set()
    bound: set[Name] = set()
    # `served`: the output subjects of the nearest enclosing replicated input
    stack: list[tuple[Process, list[Name]]] = [(p, [])]
    while stack:
        q, served = stack.pop()
        if isinstance(q, Par):
            stack.append((q.right, served))
            stack.append((q.left, served))
            continue
        if isinstance(q, Nil):
            continue
        f.nodes.append(q)
        if isinstance(q, Out):
            served.append(q.subject)
            used.add(q.subject)
            used.update(*map(value_names, q.payload))
        elif isinstance(q, (In, RepIn)):
            f.input_subjects.add(q.subject)
            f.receptions.extend((q.subject, i, x) for i, x in enumerate(q.binders))
            used.add(q.subject)
            bound.update(q.binders)
            if isinstance(q, RepIn):
                served = []
                f.replicated.append((q.subject, served))
            stack.append((q.body, served))
        elif isinstance(q, Res):
            f.restricted.append(q.name)
            bound.add(q.name)
            stack.append((q.body, served))
        else:
            raise TypeError(f"not a process: {q!r}")
    f.free = used - bound
    return f


# ---------------------------------------------------------------------------
# The level constraint system


@dataclass(frozen=True)
class Slot:
    """A level variable: a name together with a payload path into its type."""

    root: Name
    path: tuple[int, ...]


@dataclass
class LevelGraph:
    nodes: dict[Slot, set[str]] = field(default_factory=dict)  # label sets
    edges: set[tuple[Slot, Slot, bool]] = field(default_factory=set)
    display: dict[Slot, str] = field(default_factory=dict)

    def dump(self) -> str:
        lines = []
        for slot in sorted(self.nodes, key=lambda s: self.display[s]):
            labels = sorted({self.display[slot]} | self.nodes[slot])
            lines.append(f"NODE {self.display[slot]}: {{{', '.join(labels)}}}")
        rendered = []
        for src, dst, strict in self.edges:
            op = ">" if strict else ">="
            rendered.append(f"EDGE {self.display[src]} {op} {self.display[dst]}")
        lines.extend(sorted(rendered))
        return "\n".join(lines)


class _NameInfo:
    """The name facts of a process with its simple types: roots, carriers,
    displays and the slot ids. Preorder skips `Nat` positions and
    `Unit`/`Nat` roots; `children[s]` holds the ids of the payload positions
    of slot `s`, None at a `Nat` position."""

    def __init__(self, env: dict[Name, SimpleType], facts: _Facts):
        self.env = env
        self.facts = facts
        self.roots: list[Name] = sorted(
            facts.free | set(facts.restricted), key=lambda n: (n.display, n.id)
        )
        self.rootset = set(self.roots)
        self.carrier: dict[Name, tuple[Name, int]] = {x: (a, i) for a, i, x in facts.receptions}
        # displays, qualified when distinct roots share a spelling
        seen: dict[str, int] = {}
        self.root_display: dict[Name, str] = {}
        for n in self.roots:
            k = seen.get(n.display, 0)
            seen[n.display] = k + 1
            self.root_display[n] = n.display if k == 0 else f"{n.display}~{k}"
        self.children: list[list[int | None]] = [[]]
        self.root_slot: dict[Name, int] = {}
        for n in sorted(self.roots, key=lambda n: n.id):
            t = self.type_of(n)
            if isinstance(t, (SChan, SVar)):
                self.root_slot[n] = self._number(t)
        self._starts = list(self.root_slot.values())
        self._owners = list(self.root_slot)

    def _number(self, t: SimpleType) -> int:
        sid = len(self.children)
        kids: list[int | None] = []
        self.children.append(kids)
        if isinstance(t, SChan):
            kids.extend(None if isinstance(pt, SNat) else self._number(pt) for pt in t.payload)
        return sid

    def type_of(self, n: Name) -> SimpleType:
        return self.env.get(n, S_UNIT)

    def slot_of(self, n: Name) -> int | None:
        """The level variable standing for a name, if it has one."""
        if n in self.rootset:
            return self.root_slot.get(n)
        if n in self.carrier:
            a, i = self.carrier[n]
            if a in self.root_slot:
                return self.children[self.root_slot[a]][i]
        return None

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
    children = info.children
    edges: set[tuple[int, int, bool]] = set()

    def le(a: int, b: int) -> None:
        # levels of the type sitting at `a` fit below those at `b`
        edges.add((b, a, False))
        for i, c in enumerate(children[a]):
            if c is not None:
                le(children[b][i], c)

    for q in info.facts.nodes:
        subj = info.slot_of(q.subject) if isinstance(q, Out) else None
        if subj is None:
            continue
        for i, v in enumerate(q.payload):
            if not isinstance(v, NameRef):
                continue
            tgt = info.slot_of(v.name)
            if tgt is not None:
                le(tgt, children[subj][i])

    for a, served in info.facts.replicated:
        src = info.slot_of(a)
        if src is None:
            continue
        for w in served:
            dst = info.slot_of(w)
            if dst is not None:
                edges.add((src, dst, True))
        edges.add((src, 0, True))
    return edges


def _project(
    info: _NameInfo, edges: set[tuple[int, int, bool]]
) -> tuple[LevelGraph, dict[int, Slot]]:
    """The visible graph: the slots of free and restricted names down to their
    payload positions, received names as labels on their carrier's position,
    and the constraints among these slots; with the `Slot` of each visible id."""
    g = LevelGraph()
    visible: dict[int, Slot] = {}
    for n, sid in info.root_slot.items():
        top = info.root_display[n]
        tops = [(sid, (), top)]
        tops += [(c, (i,), f"son{i}({top})") for i, c in enumerate(info.children[sid]) if c is not None]
        for s, path, text in tops:
            visible[s] = Slot(n, path)
            g.nodes[visible[s]] = set()
            g.display[visible[s]] = text
    for _, _, x in info.facts.receptions:
        sid = info.slot_of(x)
        if sid in visible:
            g.nodes[visible[sid]].add(x.display)
    g.edges = {
        (visible[s], visible[d], strict) for s, d, strict in edges if s in visible and d in visible
    }
    return g, visible


# ---------------------------------------------------------------------------
# Level assignment


def _tarjan(adj: list[list[tuple[int, bool]]]) -> tuple[list[list[int]], list[int]]:
    """Strongly connected components, emitted sinks-first, and the component
    of each slot."""
    index = [-1] * len(adj)
    low = [0] * len(adj)
    comp_of = [-1] * len(adj)  # visited and still -1: on the stack
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0

    for start in range(len(adj)):
        if index[start] >= 0:
            continue
        work: list[tuple[int, int]] = [(start, 0)]
        while work:
            node, ei = work[-1]
            if ei == 0:
                index[node] = low[node] = counter
                counter += 1
                stack.append(node)
            targets = adj[node]
            while ei < len(targets):
                nxt = targets[ei][0]
                ei += 1
                if index[nxt] < 0:
                    work[-1] = (node, ei)
                    work.append((nxt, 0))
                    break
                if comp_of[nxt] < 0 and index[nxt] < low[node]:
                    low[node] = index[nxt]
            else:  # every edge followed: the node is finished
                if low[node] == index[node]:
                    comp = []
                    while True:
                        w = stack.pop()
                        comp_of[w] = len(comps)
                        comp.append(w)
                        if w == node:
                            break
                    comps.append(comp)
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
    return comps, comp_of


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
    `(src, dst, strict)`; a cycle through a strict edge raises, its witness
    rendered by `describe`."""
    ordered = sorted(edges)
    adj: list[list[tuple[int, bool]]] = [[] for _ in range(count)]
    for src, dst, strict in ordered:
        adj[src].append((dst, strict))
    comps, comp_of = _tarjan(adj)
    for src, dst, strict in ordered:
        if strict and comp_of[src] == comp_of[dst]:
            cycle = [describe(s) for s in _cycle_witness(comp_of, adj, src, dst)]
            raise CyclicLevelConstraint(
                "level constraints form a cycle through a strict edge: " + " -> ".join(cycle),
                cycle=cycle,
            )
    levels = [0] * count
    for ci, comp in enumerate(comps):  # sinks first
        lvl = 0
        for s in comp:
            for dst, strict in adj[s]:
                if comp_of[dst] != ci and levels[dst] + strict > lvl:
                    lvl = levels[dst] + strict
        for s in comp:
            levels[s] = lvl
    return levels


# ---------------------------------------------------------------------------
# Reconstruction


def _reconstruct(p: Process, info: _NameInfo, levels: list[int]) -> tuple[TypeEnv, Process]:
    """Types from the level of each slot id: full capability for input
    subjects and restricted names, output capability elsewhere and on every
    carried type; residual type variables become Unit."""
    sharp = info.facts.input_subjects | set(info.facts.restricted)
    children = info.children

    def build(sid: int | None, t: SimpleType, cap: str) -> Type:
        if isinstance(t, SUnit):
            return UNIT
        if isinstance(t, SNat):
            return NAT
        if isinstance(t, SVar):
            # an unconstrained slot still owns a level; its residual payload
            # variable is instantiated to Unit
            return ChanT(cap, levels[sid], (UNIT,))
        payload = tuple(build(c, pt, OUT) for c, pt in zip(children[sid], t.payload))
        return ChanT(cap, levels[sid], payload)

    def type_of_root(n: Name) -> Type:
        cap = SHARP if n in sharp else OUT
        return build(info.root_slot.get(n), info.type_of(n), cap)

    tenv = TypeEnv({n: type_of_root(n) for n in info.facts.free})

    def annotate(q: Process) -> Process:
        if isinstance(q, Par):
            return Par(annotate(q.left), annotate(q.right))
        if isinstance(q, In):
            return In(q.subject, q.binders, annotate(q.body))
        if isinstance(q, RepIn):
            return RepIn(q.subject, q.binders, annotate(q.body))
        if isinstance(q, Res):
            return Res(q.name, type_of_root(q.name), q.functional, annotate(q.body))
        return q

    return tenv, annotate(p)


# ---------------------------------------------------------------------------
# The pipeline


FLEXIBLE = "flexible"
DS_EQUALITY = "ds-equality"


@dataclass
class InferResult:
    env: TypeEnv
    process: Process  # with reconstructed annotations
    weight: int
    graph: LevelGraph
    levels: dict[Slot, int]  # restricted to the visible graph nodes
    simple: dict[Name, SimpleType]  # the most general simple typing


def infer(p: Process, mode: str = FLEXIBLE) -> InferResult:
    """Full inference; raises NotLocalised, UnificationFailure,
    OccursCheckFailure or CyclicLevelConstraint on untypable input."""
    facts = _facts(p)
    env = _simple_types(facts)
    bad = facts.non_local()
    if bad:
        raise NotLocalised(
            f"received name(s) used as input subject: {', '.join(sorted(n.display for n in bad))}",
            where=pretty_process(p),
        )
    info = _NameInfo(env, facts)
    edges = _extended_constraints(info)
    graph, visible = _project(info, edges)
    if mode == DS_EQUALITY:
        # every `>=` flow also holds backwards: levels are equal along it
        edges = edges | {(dst, src, False) for src, dst, strict in edges if not strict}
    elif mode != FLEXIBLE:
        raise ValueError(f"unknown inference mode {mode!r}")
    levels = _least_levels(len(info.children), edges, info.display)
    tenv, annotated = _reconstruct(p, info, levels)
    try:
        weight = check(tenv, annotated)  # inference soundness: must hold
    except IllTyped as exc:
        raise InternalError(f"inference built a typing its checker rejects: {exc.render()}") from exc
    levels_of = {slot: levels[sid] for sid, slot in visible.items()}
    return InferResult(tenv, annotated, weight, graph, levels_of, env)
