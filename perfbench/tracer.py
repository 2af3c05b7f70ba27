"""Spans around the public functions of each piterm module, recorded from outside.

`Tracer.install` replaces every module attribute that holds a traced
function, including the names other modules imported (`piterm.checker.
pretty_process`, `piterm.inference.check`, `piterm.semantics.normalize`),
so internal calls are seen too. A direct recursive call is counted but gets
no span of its own. Spans stay in memory with their parent until `write`.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from functools import wraps

HOOK = "trace.hook"  # time spent in the tracer's own result hooks


def _count_nodes(p) -> int:
    """Process AST nodes, walked without recursion."""
    todo, n = [p], 0
    while todo:
        q = todo.pop()
        n += 1
        for attr in ("left", "right", "body"):
            child = getattr(q, attr, None)
            if child is not None:
                todo.append(child)
    return n


def _on_parse(t, p):
    t.counts["parser.nodes"] += _count_nodes(p)


def _on_infer(t, r):
    t.counts["inference.graph_nodes"] += len(r.graph.nodes)
    t.counts["inference.graph_edges"] += len(r.graph.edges)


def _on_explore(t, r):
    t.counts["semantics.runs"] += 1
    t.counts["semantics.states"] += r.states_explored
    t.counts["semantics.edges"] += r.steps_explored


def _on_step(t, succs):
    t.counts["semantics.successors"] += len(succs)


def _on_normalize(t, np):
    t.counts["semantics.max_restrictions"] = max(t.counts["semantics.max_restrictions"], len(np.restrictions))


def _on_encode(t, p):
    t.counts["lam.image_nodes"] += _count_nodes(p)


def _rejected(counter: str):
    def hook(t, exc):
        from piterm.errors import PiError

        if isinstance(exc, PiError):
            t.counts[counter] += 1

    return hook


# module, function, result hook, exception hook
TRACED = [
    ("cli", "main", None, None),
    ("parser", "parse_process", _on_parse, None),
    ("syntax", "pretty_process", None, None),
    ("syntax", "substitute_many", None, None),
    ("checker", "check", None, _rejected("checker.rejected")),
    ("checker", "check_ds", None, _rejected("checker.rejected")),
    ("measure", "measure", None, None),
    ("measure", "multiset_greater", None, None),
    ("impure", "check_impure", None, None),
    ("semantics", "normalize", _on_normalize, None),
    ("semantics", "step", _on_step, None),
    ("semantics", "explore", _on_explore, None),
    ("semantics", "certified_run", _on_explore, None),
    ("inference", "infer", _on_infer, _rejected("inference.rejected")),
    ("inference", "infer_simple", None, None),
    ("inference", "locality_check", None, None),
    ("inference", "build_graph", None, None),
    ("inference", "reconstruct", None, None),
    ("lam", "parse_lambda_file", None, None),
    ("lam", "check_stlc", None, None),
    ("lam", "encode", _on_encode, None),
]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.stack: list[int] = []
        self.folded: Counter = Counter()  # direct recursive calls, per span name
        self.counts: Counter = Counter()
        self.patched: list[tuple[object, str, object]] = []

    def _open(self, name: str, start: float) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.starts.append(start)
        self.ends.append(start)
        return idx

    def _hook(self, hook, value) -> None:
        start = time.perf_counter()
        hook(self, value)
        self.ends[self._open(HOOK, start)] = time.perf_counter()

    def wrap(self, name: str, fn, on_result, on_error):
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer.stack
            if stack and tracer.names[stack[-1]] == name:
                tracer.folded[name] += 1
                return fn(*args, **kwargs)
            idx = tracer._open(name, time.perf_counter())
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.ends[idx] = time.perf_counter()
                stack.pop()
                if on_error:
                    tracer._hook(on_error, exc)
                raise
            tracer.ends[idx] = time.perf_counter()
            stack.pop()
            if on_result:
                tracer._hook(on_result, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "piterm" or n.startswith("piterm.")]
        for short, fname, on_result, on_error in TRACED:
            original = getattr(sys.modules.get(f"piterm.{short}"), fname, None)
            if original is None:
                continue  # the function is gone: its metrics read zero
            wrapper = self.wrap(f"{short}.{fname}", original, on_result, on_error)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self.patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def remove(self) -> None:
        for module, attr, original in reversed(self.patched):
            setattr(module, attr, original)
        self.patched.clear()

    def self_times(self) -> list[float]:
        own = [e - s for s, e in zip(self.starts, self.ends)]
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[i] - self.starts[i]
        return own

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            for i, (name, parent, s, e) in enumerate(zip(self.names, self.parents, self.starts, self.ends)):
                fh.write(f"{i}\t{parent}\t{name}\t{s:.9f}\t{e:.9f}\n")


# per-layer metric -> unit, in the order BENCHMARK.json lists them
LAYER_UNITS = {
    "cli.main.self_s": "s",
    "parser.parse_process.self_s": "s",
    "parser.parse_process.calls": "count",
    "parser.nodes_per_s": "1/s",
    "checker.check.self_s": "s",
    "checker.check.calls": "count",
    "checker.check_ds.self_s": "s",
    "checker.rejected": "count",
    "syntax.pretty_process.self_s": "s",
    "syntax.pretty_process.calls": "count",
    "syntax.pretty_per_check": "calls/check",
    "measure.measure.self_s": "s",
    "measure.measure.calls": "count",
    "measure.multiset_greater.calls": "count",
    "impure.check_impure.self_s": "s",
    "impure.check_impure.calls": "count",
    "semantics.normalize.self_s": "s",
    "semantics.normalize.calls": "count",
    "semantics.normalize_per_state": "calls/state",
    "semantics.step.self_s": "s",
    "semantics.step.calls": "count",
    "semantics.explore.self_s": "s",
    "semantics.certified_run.self_s": "s",
    "syntax.substitute_many.self_s": "s",
    "semantics.states": "count",
    "semantics.edges": "count",
    "semantics.new_state_ratio": "ratio",
    "semantics.max_restrictions": "count",
    "inference.infer.self_s": "s",
    "inference.infer_simple.self_s": "s",
    "inference.locality_check.self_s": "s",
    "inference.build_graph.self_s": "s",
    "inference.reconstruct.self_s": "s",
    "inference.recheck.self_s": "s",
    "inference.graph_nodes": "count",
    "inference.graph_edges": "count",
    "inference.rejected": "count",
    "lam.parse_lambda_file.self_s": "s",
    "lam.check_stlc.self_s": "s",
    "lam.encode.self_s": "s",
    "lam.image_nodes": "count",
}


def layer_metrics(t: Tracer, passes: int) -> dict[str, float]:
    """Per-layer values for one pass over the corpus (totals over `passes`)."""
    own = t.self_times()
    self_s: dict[str, float] = defaultdict(float)
    spans: Counter = Counter()
    for name, s in zip(t.names, own):
        self_s[name] += s
        spans[name] += 1
    checks = spans["checker.check"] + spans["checker.check_ds"]
    pretty_in_check = recheck = 0.0
    for i, name in enumerate(t.names):
        parent = t.names[t.parents[i]] if t.parents[i] >= 0 else ""
        if name == "syntax.pretty_process" and parent in ("checker.check", "checker.check_ds"):
            pretty_in_check += 1
        elif name == "checker.check" and parent == "inference.infer":
            recheck += own[i]
    c = t.counts
    states = c["semantics.states"]
    out = {}
    for metric in LAYER_UNITS:
        base, _, kind = metric.rpartition(".")
        if kind == "self_s":
            out[metric] = self_s[base] / passes
        elif kind == "calls":
            out[metric] = (spans[base] + t.folded[base]) / passes
        else:
            out[metric] = c[metric] / passes  # a counter; the ratios are set below
    out["inference.recheck.self_s"] = recheck / passes
    out["parser.nodes_per_s"] = c["parser.nodes"] / self_s["parser.parse_process"] if spans["parser.parse_process"] else 0.0
    out["syntax.pretty_per_check"] = pretty_in_check / checks if checks else 0.0
    normalize_calls = spans["semantics.normalize"] + t.folded["semantics.normalize"]
    out["semantics.normalize_per_state"] = normalize_calls / states if states else 0.0
    succ = c["semantics.successors"]
    out["semantics.new_state_ratio"] = (states - c["semantics.runs"]) / succ if succ else 0.0
    out["semantics.max_restrictions"] = float(c["semantics.max_restrictions"])
    return out
