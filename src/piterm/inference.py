"""Type inference for the localised fragment.

Pipeline: simple-type inference by first-order unification; one walk that
gathers the name facts (restricted names, receptions, input subjects,
outputs, replicated inputs and the outputs they guard); a locality check on
those facts (no received name may be used as an input subject); one
generator of level constraints over slots, a slot being a name with a
payload path into its type; minimal level assignment by SCC condensation;
and reconstruction of an environment that the checker accepts.

Output edges are `>=` and run down every nested payload position;
replication edges are `>`. The public `LevelGraph` is a projection of this
one constraint system: the slots of free and restricted names down to their
first payload positions, with received names as labels on their carrier's
payload slot, and the constraints among those slots. ds-equality mode solves
the same system with every `>=` edge also read backwards, so levels are
equal along every flow.
"""

from __future__ import annotations

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
    free_names,
    pretty_process,
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


class _Unifier:
    def __init__(self) -> None:
        self.sub: dict[int, SimpleType] = {}
        self._next = 0

    def fresh_var(self) -> SVar:
        self._next += 1
        return SVar(self._next)

    def find(self, t: SimpleType) -> SimpleType:
        while isinstance(t, SVar) and t.id in self.sub:
            t = self.sub[t.id]
        return t

    def _occurs(self, vid: int, t: SimpleType) -> bool:
        t = self.find(t)
        if isinstance(t, SVar):
            return t.id == vid
        if isinstance(t, SChan):
            return any(self._occurs(vid, p) for p in t.payload)
        return False

    def unify(self, a: SimpleType, b: SimpleType) -> None:
        a, b = self.find(a), self.find(b)
        if isinstance(a, SVar) and isinstance(b, SVar) and a.id == b.id:
            return
        if isinstance(a, SVar):
            if self._occurs(a.id, b):
                raise OccursCheckFailure(
                    f"occurs check: ?{a.id} inside {pretty_simple(self.resolve(b))}"
                )
            self.sub[a.id] = b
            return
        if isinstance(b, SVar):
            self.unify(b, a)
            return
        if isinstance(a, SUnit) and isinstance(b, SUnit):
            return
        if isinstance(a, SNat) and isinstance(b, SNat):
            return
        if isinstance(a, SChan) and isinstance(b, SChan):
            if len(a.payload) != len(b.payload):
                raise UnificationFailure(
                    f"arity clash: {pretty_simple(a)} vs {pretty_simple(b)}"
                )
            for x, y in zip(a.payload, b.payload):
                self.unify(x, y)
            return
        raise UnificationFailure(
            f"sort clash: {pretty_simple(self.resolve(a))} vs {pretty_simple(self.resolve(b))}"
        )

    def resolve(self, t: SimpleType) -> SimpleType:
        t = self.find(t)
        if isinstance(t, SChan):
            return SChan(tuple(self.resolve(p) for p in t.payload))
        return t


@dataclass
class SimpleEnv:
    """Most general simple typing: one resolved type per name of the process."""

    types: dict[Name, SimpleType]

    def of(self, n: Name) -> SimpleType:
        return self.types[n]


def _value_simple(v: Value, var, uni: _Unifier) -> SimpleType:
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


def infer_simple(p: Process) -> SimpleEnv:
    """First-order unification over the uses of every name; restricted names
    default to channels (of a fresh payload) when nothing constrains them."""
    uni = _Unifier()
    vars_: dict[Name, SVar] = {}
    restricted: list[Name] = []

    def var(n: Name) -> SVar:
        if n not in vars_:
            vars_[n] = uni.fresh_var()
        return vars_[n]

    def walk(q: Process) -> None:
        if isinstance(q, Nil):
            return
        if isinstance(q, Par):
            walk(q.left)
            walk(q.right)
            return
        if isinstance(q, Out):
            values = q.payload if q.payload else (STAR,)
            payload = tuple(_value_simple(v, var, uni) for v in values)
            uni.unify(var(q.subject), SChan(payload))
            return
        if isinstance(q, (In, RepIn)):
            if q.binders:
                payload = tuple(var(x) for x in q.binders)
            else:
                payload = (S_UNIT,)
            uni.unify(var(q.subject), SChan(payload))
            walk(q.body)
            return
        if isinstance(q, Res):
            var(q.name)
            restricted.append(q.name)
            walk(q.body)
            return
        raise TypeError(f"not a process: {q!r}")

    walk(p)
    for n in restricted:
        if isinstance(uni.find(var(n)), SVar):
            uni.unify(var(n), SChan((uni.fresh_var(),)))
    return SimpleEnv({n: uni.resolve(v) for n, v in vars_.items()})


# ---------------------------------------------------------------------------
# Name facts


@dataclass
class _Facts:
    """What inference needs to know about the names of a process."""

    restricted: list[Name] = field(default_factory=list)
    receptions: list[tuple[Name, int, Name]] = field(default_factory=list)  # (carrier, position, received)
    input_subjects: set[Name] = field(default_factory=set)
    outputs: list[Out] = field(default_factory=list)
    # per replicated input: its subject and the subjects of the outputs in its
    # body that no further replication shields
    replicated: list[tuple[Name, list[Name]]] = field(default_factory=list)

    def non_local(self) -> set[Name]:
        """Received names used as input subjects."""
        return {x for _, _, x in self.receptions} & self.input_subjects


def _facts(p: Process) -> _Facts:
    """The name facts of a process, gathered in one walk."""
    f = _Facts()

    def walk(q: Process, served: list[Name]) -> None:
        # `served`: the output subjects of the nearest enclosing replicated input
        if isinstance(q, Par):
            walk(q.left, served)
            walk(q.right, served)
        elif isinstance(q, Out):
            f.outputs.append(q)
            served.append(q.subject)
        elif isinstance(q, (In, RepIn)):
            f.input_subjects.add(q.subject)
            f.receptions.extend((q.subject, i, x) for i, x in enumerate(q.binders))
            if isinstance(q, RepIn):
                served = []
                f.replicated.append((q.subject, served))
            walk(q.body, served)
        elif isinstance(q, Res):
            f.restricted.append(q.name)
            walk(q.body, served)

    walk(p, [])
    return f


def locality_check(p: Process) -> bool:
    """True iff no received name is used as the subject of an input."""
    return not _facts(p).non_local()


# ---------------------------------------------------------------------------
# The level constraint system


@dataclass(frozen=True)
class Slot:
    """A level variable: a name together with a payload path into its type."""

    root: Name
    path: tuple[int, ...]


_FLOOR = Slot(Name(0, "floor"), ())  # pseudo-node pinned at level zero


@dataclass
class LevelGraph:
    nodes: dict[Slot, set[str]] = field(default_factory=dict)  # label sets
    edges: set[tuple[Slot, Slot, bool]] = field(default_factory=set)
    display: dict[Slot, str] = field(default_factory=dict)

    def add_node(self, slot: Slot, display: str) -> None:
        self.nodes.setdefault(slot, set())
        self.display[slot] = display

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
    slots and their displays."""

    def __init__(self, p: Process, env: SimpleEnv, facts: _Facts):
        self.env = env
        self.facts = facts
        self.roots: list[Name] = sorted(
            set(free_names(p)) | set(facts.restricted), key=lambda n: (n.display, n.id)
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

    def type_of(self, n: Name) -> SimpleType:
        return self.env.types.get(n, S_UNIT)

    def slot_of(self, n: Name) -> Slot | None:
        """The level variable standing for a name, if it has one."""
        if n in self.rootset:
            t = self.type_of(n)
            if isinstance(t, (SChan, SVar)):
                return Slot(n, ())
            return None
        if n in self.carrier:
            a, i = self.carrier[n]
            if isinstance(self.type_of(n), SNat):
                return None
            return Slot(a, (i,))
        return None

    def type_at(self, slot: Slot) -> SimpleType:
        t = self.type_of(slot.root)
        for i in slot.path:
            assert isinstance(t, SChan)
            t = t.payload[i]
        return t

    def slot_display(self, slot: Slot) -> str:
        base = self.root_display[slot.root]
        for i in slot.path:
            base = f"son{i}({base})"
        return base

    def describe(self, s: Slot) -> str:
        if s == _FLOOR:
            return "floor"
        return self.slot_display(s) if s.root in self.rootset else repr(s)


def _extended_constraints(info: _NameInfo) -> tuple[set[Slot], set[tuple[Slot, Slot, bool]]]:
    """All level constraints: output edges `>=` from each payload position to
    what it carries (down every nested position), replication edges `>` from
    a replicated subject to the outputs of its body, and a floor that keeps
    replicated subjects above zero."""
    slots: set[Slot] = {_FLOOR}
    edges: set[tuple[Slot, Slot, bool]] = set()

    def add_tree(root: Name, path: tuple[int, ...], t: SimpleType) -> None:
        if isinstance(t, SNat):
            return
        if not path and isinstance(t, (SUnit, SNat)):
            return
        slots.add(Slot(root, path))
        if isinstance(t, SChan):
            for i, pt in enumerate(t.payload):
                add_tree(root, path + (i,), pt)

    for n in info.roots:
        add_tree(n, (), info.type_of(n))

    def le(a: Slot, b: Slot) -> None:
        # levels of the type sitting at `a` fit below those at `b`
        edges.add((b, a, False))
        ta = info.type_at(a)
        if isinstance(ta, SChan):
            for i, pt in enumerate(ta.payload):
                if isinstance(pt, SNat):
                    continue
                le(Slot(b.root, b.path + (i,)), Slot(a.root, a.path + (i,)))

    for out in info.facts.outputs:
        subj = info.slot_of(out.subject)
        if subj is None:
            continue
        values = out.payload if out.payload else (STAR,)
        for i, v in enumerate(values):
            if not isinstance(v, NameRef):
                continue
            tgt = info.slot_of(v.name)
            if tgt is None:
                continue
            le(tgt, Slot(subj.root, subj.path + (i,)))

    for a, served in info.facts.replicated:
        src = info.slot_of(a)
        if src is None:
            continue
        for w in served:
            dst = info.slot_of(w)
            if dst is not None:
                edges.add((src, dst, True))
    for subj, _ in info.facts.replicated:
        slot = info.slot_of(subj)
        if slot is not None:
            edges.add((slot, _FLOOR, True))
    slots.update(s for s, _, _ in edges)
    slots.update(d for _, d, _ in edges)
    return slots, edges


def _project(
    info: _NameInfo, slots: set[Slot], edges: set[tuple[Slot, Slot, bool]]
) -> LevelGraph:
    """The visible graph: the slots of free and restricted names down to their
    payload positions, received names as labels on their carrier's position,
    and the constraints among these slots."""
    g = LevelGraph()
    for s in slots:
        if s.root in info.rootset and len(s.path) <= 1:
            g.add_node(s, info.slot_display(s))
    for a, i, x in info.facts.receptions:
        slot = Slot(a, (i,))
        if slot in g.nodes and not isinstance(info.type_of(x), SNat):
            g.nodes[slot].add(x.display)
    g.edges = {e for e in edges if e[0] in g.nodes and e[1] in g.nodes}
    return g


def build_graph(p: Process, env: SimpleEnv) -> LevelGraph:
    """The visible constraint graph: a node per free/restricted name and per
    payload position of its channel type; received names label their
    carrier's payload node; output edges are tagged `>=`, replication edges
    `>`."""
    info = _NameInfo(p, env, _facts(p))
    return _project(info, *_extended_constraints(info))


# ---------------------------------------------------------------------------
# Level assignment


def _tarjan(nodes: set[Slot], adj: dict[Slot, list[tuple[Slot, bool]]]) -> list[list[Slot]]:
    """Strongly connected components, emitted sinks-first."""
    index: dict[Slot, int] = {}
    low: dict[Slot, int] = {}
    on_stack: set[Slot] = set()
    stack: list[Slot] = []
    comps: list[list[Slot]] = []
    counter = [0]

    for start in sorted(nodes, key=lambda s: (s.root.id, s.path)):
        if start in index:
            continue
        work: list[tuple[Slot, int]] = [(start, 0)]
        while work:
            node, ei = work[-1]
            if ei == 0:
                index[node] = low[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack.add(node)
            targets = adj.get(node, [])
            advanced = False
            while ei < len(targets):
                nxt = targets[ei][0]
                ei += 1
                if nxt not in index:
                    work[-1] = (node, ei)
                    work.append((nxt, 0))
                    advanced = True
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            if advanced:
                continue
            work[-1] = (node, ei)
            if low[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == node:
                        break
                comps.append(comp)
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return comps


def _cycle_witness(
    comp: set[Slot], adj: dict[Slot, list[tuple[Slot, bool]]], src: Slot, dst: Slot
) -> list[Slot]:
    """Path dst -> src inside the component, closing a cycle through (src, dst)."""
    prev: dict[Slot, Slot] = {}
    queue = [dst]
    seen = {dst}
    while queue:
        node = queue.pop(0)
        if node == src:
            break
        for nxt, _ in adj.get(node, []):
            if nxt in comp and nxt not in seen:
                seen.add(nxt)
                prev[nxt] = node
                queue.append(nxt)
    path = [src]
    while path[-1] != dst:
        path.append(prev[path[-1]])
    path.reverse()  # dst ... src
    return [src] + path  # src -> dst -> ... -> src


def _solve(
    nodes: set[Slot],
    edges: set[tuple[Slot, Slot, bool]],
    describe=lambda s: f"{s.root.display}{list(s.path)}",
) -> dict[Slot, int]:
    ordered = sorted(edges, key=lambda e: (e[0].root.id, e[0].path, e[1].root.id, e[1].path, e[2]))
    adj: dict[Slot, list[tuple[Slot, bool]]] = {n: [] for n in nodes}
    for src, dst, strict in ordered:
        adj[src].append((dst, strict))
    comps = _tarjan(nodes, adj)
    comp_of: dict[Slot, int] = {}
    for ci, comp in enumerate(comps):
        for s in comp:
            comp_of[s] = ci
    for src, dst, strict in ordered:
        if strict and comp_of[src] == comp_of[dst]:
            cycle = _cycle_witness(set(comps[comp_of[src]]), adj, src, dst)
            raise CyclicLevelConstraint(
                "level constraints form a cycle through a strict edge: "
                + " -> ".join(describe(s) for s in cycle),
                cycle=[describe(s) for s in cycle],
            )
    levels: dict[Slot, int] = {}
    comp_level: dict[int, int] = {}
    for ci, comp in enumerate(comps):  # sinks first
        lvl = 0
        for s in comp:
            for dst, strict in adj.get(s, []):
                if comp_of[dst] == ci:
                    continue
                lvl = max(lvl, comp_level[comp_of[dst]] + (1 if strict else 0))
        comp_level[ci] = lvl
        for s in comp:
            levels[s] = lvl
    return levels


def assign_levels(graph: LevelGraph) -> dict[Slot, int]:
    """Pointwise-least levels satisfying every edge of the given graph;
    fails iff a cycle goes through a strict edge."""
    return _solve(
        set(graph.nodes),
        graph.edges,
        describe=lambda s: graph.display.get(s, f"{s.root.display}{list(s.path)}"),
    )


# ---------------------------------------------------------------------------
# Reconstruction


def reconstruct(
    p: Process, env: SimpleEnv, levels: dict[Slot, int]
) -> tuple[TypeEnv, Process]:
    """Types from the level assignment: full capability for input subjects and
    restricted names, output capability elsewhere and on every carried type;
    residual type variables become Unit."""
    return _reconstruct(p, _NameInfo(p, env, _facts(p)), levels)


def _reconstruct(p: Process, info: _NameInfo, levels: dict[Slot, int]) -> tuple[TypeEnv, Process]:
    sharp = info.facts.input_subjects | set(info.facts.restricted)

    def build(root: Name, path: tuple[int, ...], t: SimpleType, cap: str) -> Type:
        if isinstance(t, SUnit):
            return UNIT
        if isinstance(t, SNat):
            return NAT
        lvl = levels.get(Slot(root, path), 0)
        if isinstance(t, SVar):
            # an unconstrained slot still owns a level; its residual payload
            # variable is instantiated to Unit
            return ChanT(cap, lvl, (UNIT,))
        payload = tuple(
            build(root, path + (i,), pt, OUT) for i, pt in enumerate(t.payload)
        )
        return ChanT(cap, lvl, payload)

    def type_of_root(n: Name) -> Type:
        cap = SHARP if n in sharp else OUT
        return build(n, (), info.type_of(n), cap)

    tenv = TypeEnv({n: type_of_root(n) for n in free_names(p)})

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
    simple: SimpleEnv


def infer(p: Process, mode: str = FLEXIBLE) -> InferResult:
    """Full inference; raises NotLocalised, UnificationFailure,
    OccursCheckFailure or CyclicLevelConstraint on untypable input."""
    env = infer_simple(p)
    facts = _facts(p)
    bad = facts.non_local()
    if bad:
        raise NotLocalised(
            f"received name(s) used as input subject: {', '.join(sorted(n.display for n in bad))}",
            where=pretty_process(p),
        )
    info = _NameInfo(p, env, facts)
    slots, edges = _extended_constraints(info)
    graph = _project(info, slots, edges)
    if mode == DS_EQUALITY:
        # every `>=` flow also holds backwards: levels are equal along it
        edges = edges | {(dst, src, False) for src, dst, strict in edges if not strict}
    elif mode != FLEXIBLE:
        raise ValueError(f"unknown inference mode {mode!r}")
    levels = _solve(slots, edges, info.describe)
    tenv, annotated = _reconstruct(p, info, levels)
    try:
        weight = check(tenv, annotated)  # inference soundness: must hold
    except IllTyped as exc:
        raise InternalError(f"inference built a typing its checker rejects: {exc.render()}") from exc
    visible = {slot: levels[slot] for slot in graph.nodes}
    return InferResult(tenv, annotated, weight, graph, visible, env)
