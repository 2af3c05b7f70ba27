"""The simply-typed front end and the call-by-value encoding."""

from __future__ import annotations

import random
import re

import pytest

from piterm.checker import TypeEnv, check
from piterm.errors import CyclicLevelConstraint, IllTypedLambda, ParseError, PiError
from piterm.impure import ImpureEnv, check_impure
from piterm.inference import (
    CHAN,
    DS_EQUALITY,
    FLEXIBLE,
    NAT_K,
    _facts,
    _simple_types,
    infer,
)
from piterm.lam import (
    LAbs,
    LApp,
    LArrow,
    LBase,
    LambdaTerm,
    LambdaType,
    LVar,
    encode,
    parse_lambda_file,
    parse_lambda_term,
    pretty_lambda_type,
)
from piterm.parser import parse_process
from piterm.semantics import Verdict, explore, normalize
from piterm.syntax import (
    ChanT,
    In,
    NAT,
    NameRef,
    Out,
    Par,
    Process,
    RepIn,
    Res,
    UNIT,
    alpha_key,
    free_names,
    fresh,
)

from conftest import FIXTURES, assert_golden, check_stlc, pretty_lambda, simple_types
from test_checker import _load_perfbench
from test_inference import LAMGEN_SEED, LAMGEN_SIZES, unify_cases
from test_syntax import cyclic_garbage

SIG, TAU = LBase("sig"), LBase("tau")

REUSED_ARG_DELTA = {
    "f": LArrow(LArrow(SIG, TAU), LArrow(TAU, TAU)),
    "v": SIG,
    "u": LArrow(SIG, TAU),
}
REUSED_ARG = parse_lambda_term("f (\\x. f u (u v))")

DISCARDING_DELTA = {"a": SIG, "t": LArrow(SIG, TAU)}
DISCARDING = parse_lambda_term("(\\u. ((\\v. (u v)) (\\y. (u t)))) (\\x. (x a))")

CORPUS = [
    ("\\x. x", {}),
    ("\\x. \\y. x", {}),
    ("\\x. \\y. y", {}),
    ("\\f. \\x. f x", {}),
    ("\\f. \\x. f (f x)", {}),
    ("(\\x. x) w", {"w": SIG}),
    ("(\\x. \\y. x) w z", {"w": SIG, "z": TAU}),
    ("(\\f. \\x. f x) g w", {"g": LArrow(SIG, TAU), "w": SIG}),
    ("h ((\\x. x) w)", {"h": LArrow(SIG, TAU), "w": SIG}),
    ("(\\f. f w) (\\x. g x)", {"g": LArrow(SIG, TAU), "w": SIG}),
    ("f (\\x. f u (u v))", REUSED_ARG_DELTA),
    ("(\\u. ((\\v. (u v)) (\\y. (u t)))) (\\x. (x a))", DISCARDING_DELTA),
]


class TestParse:
    def test_basic_shapes(self):
        m = parse_lambda_term("\\x. x y")
        assert m == LAbs("x", LApp(LVar("x"), LVar("y")))

    def test_application_left_assoc(self):
        m = parse_lambda_term("f u v")
        assert m == LApp(LApp(LVar("f"), LVar("u")), LVar("v"))

    def test_file_with_header(self, tmp_path):
        decls, term = parse_lambda_file(
            "f : (sig -> tau) -> tau -> tau\nv : sig\nu : sig -> tau\n\nf (\\x. f u (u v))"
        )
        assert decls == REUSED_ARG_DELTA
        assert term == REUSED_ARG

    def test_arrow_right_assoc(self):
        decls, _ = parse_lambda_file("f : sig -> sig -> tau\n\nf")
        assert decls["f"] == LArrow(SIG, LArrow(SIG, TAU))

    @pytest.mark.parametrize("brk", ["\r", "\x0c", "\x1c", "\x85", "\u2028"])
    def test_only_newline_ends_a_line(self, brk):
        # a file and a bare term agree: other line breaks are blanks and
        # do not end a comment
        for text in (f"f -- c{brk}a", f"f{brk}a", f"f (a{brk}b"):
            outcomes = []
            for parse in (lambda t: parse_lambda_file(t)[1], parse_lambda_term):
                try:
                    outcomes.append(pretty_lambda(parse(text)))
                except ParseError as exc:
                    outcomes.append(exc.render())
            assert outcomes[0] == outcomes[1], text
        with pytest.raises(ParseError, match="trailing input after type"):
            parse_lambda_file(f"a : sig{brk}f a")


class TestCheckStlc:
    def test_identity(self):
        t = check_stlc({}, parse_lambda_term("\\x. x"))
        assert isinstance(t, LArrow)
        assert t.left == t.right

    def test_self_application_rejected(self):
        with pytest.raises(IllTypedLambda):
            check_stlc({}, parse_lambda_term("\\x. x x"))

    def test_reused_argument_term(self):
        t = check_stlc(REUSED_ARG_DELTA, REUSED_ARG)
        assert pretty_lambda_type(t) == "tau -> tau"

    def test_discarding_term(self):
        t = check_stlc(DISCARDING_DELTA, DISCARDING)
        assert pretty_lambda_type(t) == "tau"

    def test_free_variables_share_a_type(self):
        # g is applied in one subterm and passed to a base-expecting h in another
        with pytest.raises(IllTypedLambda):
            check_stlc(
                {"h": LArrow(SIG, SIG), "w": SIG},
                parse_lambda_term("(\\x. h g) (g w)"),
            )
        with pytest.raises(IllTypedLambda):
            check_stlc({"g": LArrow(SIG, SIG)}, parse_lambda_term("g g"))


class TestEncode:
    def test_variable_clause(self):
        p = fresh("p")
        proc = encode(parse_lambda_term("x"), p)
        assert isinstance(proc, Out)
        assert proc.subject == p
        assert isinstance(proc.payload[0], NameRef)

    def test_identity_clause(self):
        p = fresh("p")
        proc = encode(parse_lambda_term("\\x. x"), p)
        assert isinstance(proc, Res)
        body = proc.body
        assert isinstance(body, Par)
        server, ret = body.left, body.right
        assert isinstance(server, RepIn) and len(server.binders) == 2
        assert isinstance(server.body, Out)
        assert server.body.subject == server.binders[1]
        assert server.body.payload == (NameRef(server.binders[0]),)
        assert isinstance(ret, Out) and ret.subject == p
        assert ret.payload == (NameRef(proc.name),)

    def test_application_clause(self):
        p = fresh("p")
        proc = encode(parse_lambda_term("x y"), p)
        assert isinstance(proc, Res) and isinstance(proc.body, Res)
        comps = normalize(proc).components
        joins = [c for c in comps if isinstance(c, In)]
        assert len(joins) == 1
        join = joins[0]
        assert isinstance(join.body, In)
        final = join.body.body
        assert isinstance(final, Out) and len(final.payload) == 2

    def test_deterministic_output(self):
        a = encode(REUSED_ARG, fresh("p"), REUSED_ARG_DELTA)
        b = encode(REUSED_ARG, fresh("p"), REUSED_ARG_DELTA)
        from piterm.syntax import alpha_key

        assert alpha_key(a) == alpha_key(b)

    def test_gate_rejects_untypable(self):
        with pytest.raises(IllTypedLambda):
            encode(parse_lambda_term("\\x. x x"), fresh("p"))

    def test_leaves_no_cyclic_garbage(self):
        decls, term = parse_lambda_file((FIXTURES / "compose.lam").read_text(encoding="utf-8"))
        proc, garbage = cyclic_garbage(encode, term, fresh("p"), decls)
        assert garbage == 0
        assert isinstance(proc, Res)


# A variable bound again inside its own scope: the inner binder shadows the
# outer one, which comes back when the inner scope ends. Each term with its
# declarations, its type with the type variables named in order of first
# appearance, and its image on `p` written by hand.
SHADOWING = [
    ("\\x. \\x. x", {}, "'a -> 'b -> 'b", "new y1.(!y1(x, q1).new y2.(!y2(x2, q2).q2<x2> | q1<y2>) | p<y1>)"),
    (
        "\\x. (\\x. x) x",
        {},
        "'a -> 'a",
        "new y1.(!y1(x, q1).new q2.new r1.(new y2.(!y2(x2, q3).q3<x2> | q2<y2>) | (r1<x> | q2(f1).r1(z1).f1<z1, q1>))"
        " | p<y1>)",
    ),
    (
        "(\\x. \\x. x) a",
        {"a": SIG},
        "'a -> 'a",
        "new q1.new r1.(new y1.(!y1(x, q2).new y2.(!y2(x2, q3).q3<x2> | q2<y2>) | q1<y1>)"
        " | (r1<a> | q1(f1).r1(z1).f1<z1, p>))",
    ),
]


def type_shape(t: LambdaType) -> str:
    """`t` printed with its type variables named 'a, 'b, ... in order of first appearance."""
    named: dict[str, str] = {}
    return re.sub(r"'\d+", lambda m: named.setdefault(m.group(), "'" + chr(ord("a") + len(named))), pretty_lambda_type(t))


class TestShadowing:
    @pytest.mark.parametrize("src,delta,shape,image", SHADOWING)
    def test_type(self, src, delta, shape, image):
        assert type_shape(check_stlc(delta, parse_lambda_term(src))) == shape

    @pytest.mark.parametrize("src,delta,shape,image", SHADOWING)
    def test_image(self, src, delta, shape, image):
        got = encode(parse_lambda_term(src), fresh("p"), delta)
        assert alpha_key(got) == alpha_key(parse_process(image))


class TestImageProperties:
    @pytest.mark.parametrize("src,delta", CORPUS)
    def test_image_is_localised(self, src, delta):
        proc = encode(parse_lambda_term(src), fresh("p"), delta)
        assert not _facts(proc).non_local()

    @pytest.mark.parametrize("src,delta", CORPUS)
    def test_image_is_simply_typable(self, src, delta):
        proc = encode(parse_lambda_term(src), fresh("p"), delta)
        _simple_types(_facts(proc))  # must not raise

    @pytest.mark.parametrize("src,delta", CORPUS)
    def test_image_terminates(self, src, delta):
        proc = encode(parse_lambda_term(src), fresh("p"), delta)
        report = explore(proc, 100000, 100000)
        assert report.verdict is Verdict.TERMINATED

    def test_discriminating_pair(self):
        good = encode(REUSED_ARG, fresh("p"), REUSED_ARG_DELTA)
        result = infer(good, FLEXIBLE)
        assert check(result.env, result.process) == result.weight
        with pytest.raises(CyclicLevelConstraint):
            infer(good, DS_EQUALITY)
        bad = encode(DISCARDING, fresh("p"), DISCARDING_DELTA)
        with pytest.raises(CyclicLevelConstraint):
            infer(bad, FLEXIBLE)


def eventual_outputs(server: RepIn, args: list) -> list[Out]:
    """Outputs left after firing one copy of the server and running its
    administrative reductions to completion."""
    from piterm.semantics import step as sem_step
    from piterm.syntax import substitute_many

    body = substitute_many(server.body, dict(zip(server.binders, args)))
    stuck_outputs: list[Out] = []
    seen = set()
    frontier = [normalize(body)]
    while frontier:
        state = frontier.pop()
        if state.key in seen:
            continue
        seen.add(state.key)
        succs = sem_step(state)
        if succs:
            frontier.extend(succs)
        else:
            stuck_outputs.extend(c for c in state.components if isinstance(c, Out))
    return stuck_outputs


def find_blocked_core(proc: Process) -> bool:
    """Search the reachable states for the shape where a request u<v,p> sits
    beside replicated servers for v and u whose fired copies resolve (through
    their administrative steps) to u<t,_> and to an output on their own first
    argument."""
    from piterm.semantics import step as sem_step

    seen = set()
    frontier = [normalize(proc)]
    while frontier:
        state = frontier.pop()
        if state.key in seen:
            continue
        seen.add(state.key)
        comps = state.components
        outs = [c for c in comps if isinstance(c, Out) and len(c.payload) == 2]
        reps = [c for c in comps if isinstance(c, RepIn) and len(c.binders) == 2]
        for out in outs:
            u = out.subject
            if not isinstance(out.payload[0], NameRef):
                continue
            v = out.payload[0].name
            for rv in (r for r in reps if r.subject == v):
                d1, d2 = fresh("dy"), fresh("dq")
                resolved = eventual_outputs(rv, [NameRef(d1), NameRef(d2)])
                feeds_u = any(
                    o.subject == u
                    and len(o.payload) == 2
                    and isinstance(o.payload[1], NameRef)
                    and o.payload[1].name == d2
                    for o in resolved
                )
                if not feeds_u:
                    continue
                for ru in (r for r in reps if r.subject == u):
                    e1, e2 = fresh("dx"), fresh("dq")
                    inner = eventual_outputs(ru, [NameRef(e1), NameRef(e2)])
                    if any(o.subject == e1 for o in inner):
                        return True
        frontier.extend(sem_step(state))
    return False


class TestReductionShape:
    def test_discarding_image_reaches_blocked_core(self):
        proc = encode(DISCARDING, fresh("p"), DISCARDING_DELTA)
        assert find_blocked_core(proc)


class TestImpureCompatibility:
    """All-functional level-zero typings of encoded terms.

    Abstraction-only images have no continuation inputs and satisfy the
    discipline at level zero outright; see the decisions log for why images
    of applications cannot."""

    @staticmethod
    def zero_env_and_annotation(proc: Process):
        def to_type(kind, label, payload):
            if kind == CHAN:
                return ChanT("o", 0, payload)
            return NAT if kind == NAT_K else UNIT

        env = simple_types(proc, to_type)

        def annotate(q):
            if isinstance(q, Par):
                return Par(annotate(q.left), annotate(q.right))
            if isinstance(q, In):
                return In(q.subject, q.binders, annotate(q.body))
            if isinstance(q, RepIn):
                return RepIn(q.subject, q.binders, annotate(q.body))
            if isinstance(q, Res):
                return Res(q.name, env[q.name], True, annotate(q.body))
            return q

        gamma = TypeEnv({n: env[n] for n in free_names(proc)})
        return ImpureEnv(gamma, None, frozenset(free_names(proc))), annotate(proc)

    @pytest.mark.parametrize(
        "src", ["\\x. x", "\\x. \\y. x", "\\x. \\y. y", "\\x. \\y. \\z. y"]
    )
    def test_abstraction_images_all_functional_level_zero(self, src):
        proc = encode(parse_lambda_term(src), fresh("p"))
        env, annotated = self.zero_env_and_annotation(proc)
        assert check_impure(env, annotated) == 0

    def test_application_images_cannot(self):
        proc = encode(parse_lambda_term("(\\x. x) w"), fresh("p"), {"w": SIG})
        env, annotated = self.zero_env_and_annotation(proc)
        with pytest.raises(PiError):
            check_impure(env, annotated)


# ---------------------------------------------------------------------------
# Golden record of the lambda front end's outcomes: the rendered `ParseError`
# (message, line, column) or, on success, the term as `pretty_lambda` prints
# it and the declarations in file order. Regenerate it (only for a deliberate
# change of output) with
#   PYTHONPATH=src:tests python -c "import test_lambda as t; t.write_golden()"

LAM_GOLDEN = FIXTURES.parent / "tests" / "golden" / "lam_errors.txt"

_LAM_TOKEN_END = re.compile(r"--[^\n]*|\s+|([A-Za-z_][A-Za-z0-9_']*|->|.)")

MORE_FILES = [
    # characters the scanner rejects, in the term and in a header type
    "\u00e9",
    "x \u00e9",
    "caf\u00e9 x",
    "1",
    "x1 2",
    "\\x1. x1 0",
    "-",
    "x - y",
    "x -",
    ">",
    "x > y",
    "\\x -> x",
    "x\u00a0y",
    "@",
    "a : sig\nb : sig - tau\n\nb a",
    "a : sig\nb : sig > tau\n\nb a",
    "a : sig\nb : 1\n\nb a",
    "a : sig\n\nx\n  y @ z",
    # layout: tabs, CRLF line ends, other line breaks, comments
    "\\x.\tx\t@",
    "a : sig\r\nb : tau\r\n\r\nb a\r\n",
    "a : sig\r\nb : (sig -> tau\r\n\r\nb a\r\n",
    "a : sig\r\n\r\nf (a\r\n",
    "a : sig\r\n\r\nf a)\r\n",
    "a : sig\x0cf a",
    "f -- c\x0ca",
    "f -- c\ra",
    "x -- trailing comment",
    "x (y -- comment at end of input",
    "x (y\n-- comment at end of input",
    "x (y\n-- comment\n\n",
    "a : sig -- note\n-- between\nb : tau\n\nb a -- end",
    # header type errors on line 2 and later, trailing input after a type
    "a : sig\nb : (sig -> tau\n\nb a",
    "a : sig\nb : sig ->\n\nb a",
    "a : sig\nb :\n\nb a",
    "a : sig\nb : ()\n\nb a",
    "a : sig\n\nb : sig -> -> tau\n\nb a",
    "a : sig tau\n\na",
    "a : sig\nb : (sig) tau -- note\n\nb a",
    "a : sig\nb : sig -> tau)\n\nb a",
    "a : sig\n  b  :  sig :\n\nb a",
    "a : \\\n\na",
    # term errors on later lines
    "a : sig\nt : sig -> tau\n\nt (a\n",
    "a : sig\nt : sig -> tau\n\nt (a))\n",
    "a : sig\n\n\\x.\n  \\y\n",
    "a : sig\n\n\\x.\n  \\. y\n",
    "a : sig\n\n(\\x. x)\n  ( )\n",
    "a : sig\n\nx\ny : sig\n",
    "\n\n  x :\n",
    # a missing term
    "",
    "\n",
    "-- only a comment",
    "a : sig\n",
    "a : sig\n\n-- no term\n\n",
    "x : sig",
    # other errors
    "(",
    "()",
    ")",
    "x)",
    "\\",
    "\\x",
    "\\x.",
    "\\(x). x",
    ".",
    ":",
    "x :: y",
    "(x y",
    "x (y z",
    "\\x. (\\y. x y",
    # accepted forms
    "x",
    "x y z",
    "x (y z)",
    "\\x. \\y. x y",
    "(\\x. x) (\\y. y) z",
    "f \\x. x y",
    "f (\\x. x) \\y. y",
    "((x))",
    "x' y_1 _z",
    "new fun",
    "f : sig -> sig -> tau\n\nf",
    "f : (sig -> tau) -> tau\ng : sig -> tau\nf g",
    "f:sig->tau\na:sig\nf a",
    "  f : ((sig)) -- c\n\n\n  f  -- c\n",
]


def lam_cases() -> list[tuple[str, str]]:
    """(kind, text): every `fixtures/*.lam` cut after each token, then the
    inputs above; kind is `file` (`parse_lambda_file`), or `term`
    (`parse_lambda_term`) for the inputs without a header."""
    cases = []
    for path in sorted(FIXTURES.glob("*.lam")):
        text = path.read_text(encoding="utf-8")
        cuts = [m.end() for m in _LAM_TOKEN_END.finditer(text) if m.group(1)]
        cases += [("file", text[:end]) for end in cuts] + [("file", text)]
    for text in MORE_FILES:
        cases.append(("file", text))
        if ":" not in text:
            cases.append(("term", text))
    return cases


def lam_line(kind: str, text: str) -> str:
    try:
        if kind == "file":
            decls, term = parse_lambda_file(text)
        else:
            decls, term = {}, parse_lambda_term(text)
    except ParseError as exc:
        outcome = exc.render()
    else:
        declared = " ".join(f"{n}:{pretty_lambda_type(t)}" for n, t in decls.items())
        outcome = f"ok {pretty_lambda(term)}\t{declared}"
    return f"{kind}\t{text!r}\t{outcome}"


def lam_text() -> str:
    return "".join(lam_line(kind, text) + "\n" for kind, text in lam_cases())


def write_golden() -> None:
    LAM_GOLDEN.write_text(lam_text(), encoding="utf-8")


class TestLamGolden:
    def test_parse_outcomes_unchanged(self):
        assert_golden(LAM_GOLDEN, lam_text())


# ---------------------------------------------------------------------------
# Golden record of the encoding: for each term under its declarations, the
# image `encode` builds on a fresh `p`, with name ids taken relative to a
# fresh name made just before, or the `IllTypedLambda` message. The inputs are
# the lambda terms of `unify.txt`, the `.lam` fixtures, the shadowing terms,
# and fixed-seed terms of the four `perfbench/lamgen.py` generators (loaded
# read-only). Regenerate it (only for a deliberate change of output) with
#   PYTHONPATH=src:tests python -c "import test_lambda as t; t.write_encode_golden()"

ENCODE_GOLDEN = FIXTURES.parent / "tests" / "golden" / "encode.txt"
LAMGEN_GENERATORS = ("first_order_term", "reused_argument_term", "discarding_term", "ill_typed_term")


def encode_cases() -> list[tuple[dict, LambdaTerm]]:
    """(declarations, term), in golden-file order."""
    cases = [(decls, term) for kind, decls, term in unify_cases() if kind == "stlc"]
    cases += [parse_lambda_file(path.read_text(encoding="utf-8")) for path in sorted(FIXTURES.glob("*.lam"))]
    cases += [(delta, parse_lambda_term(src)) for src, delta, _, _ in SHADOWING]
    lamgen = _load_perfbench("lamgen")
    rng = random.Random(LAMGEN_SEED)
    for size in LAMGEN_SIZES:
        for gen in LAMGEN_GENERATORS:
            cases.append(parse_lambda_file(lamgen.lam_file(*getattr(lamgen, gen)(rng, size))))
    return cases


def encode_line(decls: dict, term: LambdaTerm) -> str:
    head = f"{' '.join(f'{v}:{pretty_lambda_type(t)}' for v, t in decls.items())}\t{pretty_lambda(term)}"
    base = fresh("_").id
    try:
        image = encode(term, fresh("p"), decls)
    except IllTypedLambda as exc:
        return f"{head}\tIllTypedLambda: {exc.message}"
    return f"{head}\tok " + re.sub(r"#(\d+)", lambda m: f"#{int(m.group(1)) - base}", repr(image))


def encode_text() -> str:
    return "".join(encode_line(decls, term) + "\n" for decls, term in encode_cases())


def write_encode_golden() -> None:
    ENCODE_GOLDEN.write_text(encode_text(), encoding="utf-8")


class TestEncodeGolden:
    def test_images_unchanged(self):
        assert_golden(ENCODE_GOLDEN, encode_text())

    def test_encode_and_check_stlc_agree(self):
        # `encode` refuses exactly the terms `check_stlc` refuses, alike
        for decls, term in encode_cases():
            outcomes = []
            for run in (lambda: encode(term, fresh("p"), decls), lambda: check_stlc(decls, term)):
                try:
                    run()
                    outcomes.append(None)
                except IllTypedLambda as exc:
                    outcomes.append(exc.message)
            assert outcomes[0] == outcomes[1], pretty_lambda(term)
