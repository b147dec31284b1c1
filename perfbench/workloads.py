"""The four workloads: seeded inputs, the calls they make, and the
oracle each result must pass.

A workload builds one round: a list of ops, each a function of plain
data (strings, ints, tuples, edge lists) that calls into setkernel, plus
an expectation judged by an oracle from `model`, which shares no code
with setkernel.  Expectations hold the oracle function and its
arguments and are evaluated only after the op, so set-up time holds
input generation and nothing of the oracle.  Round `r` of seed `s` is
generated from `random.Random(f"{workload}/{s}/{r}")`, so a seed fixes
the inputs byte for byte.  Ops are issued back to back by one client (a
closed loop).  The docstring of each build_* function says why the
workload exists.
"""

import json
import math
import operator
import os
import random
from fractions import Fraction

import model

from setkernel import cli, hfset, numtower, surreal, wforder
from setkernel.errors import KernelError

TYPED = (KernelError, ZeroDivisionError)


class Value:
    """A value is due; `check(value, *args)` says whether it is right."""

    __slots__ = ("check", "args")

    def __init__(self, check, *args):
        self.check = check
        self.args = args


class ValueOrTyped(Value):
    """Either the right value or a typed error (for example a budget
    error on an input a resource cap may refuse)."""

    __slots__ = ()


class Typed:
    """A typed error is due: the input is outside the operation's domain."""

    __slots__ = ("types",)

    def __init__(self, *types):
        self.types = types or TYPED


def judge(out, expect):
    """None when `out` (a value or the exception raised) meets `expect`,
    else the reason it counts as a failure."""
    if isinstance(out, BaseException):
        if not isinstance(out, TYPED):
            return f"untyped {type(out).__name__}"
        if type(expect) is Value:
            return f"typed {type(out).__name__} where a value was due"
        if isinstance(expect, Typed) and not isinstance(out, expect.types):
            return f"wrong error type {type(out).__name__}"
        return None
    if isinstance(expect, Typed):
        return "value where a typed error was due"
    try:
        ok = expect.check(out, *expect.args)
    except Exception as exc:  # a malformed result can break the oracle itself
        return f"oracle rejected the result ({type(exc).__name__})"
    return None if ok else "wrong value"


def _eq(expected):
    return Value(operator.eq, expected)


def _result_is(out, f, *args):
    return out == f(*args)


def _expect(f, *args):
    """The value must equal f(*args), computed after the op."""
    return Value(_result_is, f, *args)


def _then(fmt, f):
    return lambda *args: fmt(f(*args))


class Round:
    """One round of one workload: ops with their expectations."""

    def __init__(self):
        self.ops = []  # (fn, arg)
        self.expects = []
        self.kinds = []
        self.defects = []  # True for the known-defect ops listed in NOTES.md

    def add(self, kind, fn, arg, expect, defect=False):
        self.ops.append((fn, arg))
        self.expects.append(expect)
        self.kinds.append(kind)
        self.defects.append(defect)

    def insert(self, at, kind, fn, arg, expect, defect=False):
        self.ops.insert(at, (fn, arg))
        self.expects.insert(at, expect)
        self.kinds.insert(at, kind)
        self.defects.insert(at, defect)


def build(workload, seed, rnd, tmpdir):
    rng = random.Random(f"{workload}/{seed}/{rnd}")
    return BY_NAME[workload](rng, tmpdir)


# ================================================================ cli_mixed

CLI_BLOCKS = 300
CLI_DEFECTS_EACH = 2
CLI_FILES = 16


def _cli_line(session_line):
    """One batch line, exactly as `cli.run_batch` runs it."""
    session, line = session_line
    return cli.render(session.run_line(line))


def _rand_ord(rng, max_exp=4, max_terms=3, max_coeff=9):
    exps = sorted(rng.sample(range(max_exp + 1), rng.randint(1, max_terms)), reverse=True)
    return tuple((e, rng.randint(1, max_coeff)) for e in exps)


def _rand_frac(rng, lim=9):
    return Fraction(rng.randint(-lim, lim), rng.randint(1, lim))


def _frac_lit(q, rng):
    """Literal text for q, sometimes unreduced."""
    k = rng.choice((1, 1, 2, 3))
    return f"{q.numerator * k}/{q.denominator * k}"


def _rand_dyadic(rng, max_day=7):
    return rng.choice(model.born_by(rng.randint(0, max_day)))


def _rand_bits(rng, max_len=5):
    n = rng.randint(0, max_len)
    return format(rng.randrange(1 << n), f"0{n}b") if n else ""


def _divmod_ok(out, b, a):
    """Reconstruction: b == a*q + r with r < a."""
    if not (out.startswith("(") and out.endswith(")")):
        return False
    q_txt, r_txt = out[1:-1].split(", ")
    q, r = model.ord_parse(q_txt), model.ord_parse(r_txt)
    return model.ord_add(model.ord_mul(a, q), r) == b and model.ord_cmp(r, a) < 0


def _encode_ok(out, q):
    """The model encoding, and decode(encode(q)) == q."""
    return out == model.hf_text(model.q_encode(q)) and model.q_decode(model.hf_parse(out)) == q


def _simp_text(left, right):
    return str(model.simplest(left[-1] if left else None, right[0] if right else None))


def _ucmp_text(f, g):
    a, b = model.ustring_value(f), model.ustring_value(g)
    return "LT" if a < b else "GT" if a > b else "EQ"


def _sqrt_cut_text(n):
    r = math.isqrt(n)
    return "gap" if r * r != n else f"right-min {r}"


def _bnf_text(n):
    m = model.back_and_forth(n)
    keys = sorted(m, key=lambda s: s or '""')
    return "{" + "; ".join(f"{k or chr(34) * 2} -> {m[k]}" for k in keys) + "}"


def _collapse_text(nodes, edges):
    image = model.collapse(nodes, edges)
    rows = {k: model.hf_text(v) for k, v in image.items()}
    rows["extensional"] = "true" if len(set(image.values())) == len(nodes) else "false"
    return "{" + "; ".join(f"{k} -> {rows[k]}" for k in sorted(rows)) + "}"


def _write_graph_files(rng, tmpdir):
    files = []
    for i in range(CLI_FILES):
        k = rng.randint(3, 7)
        nodes = [f"n{j}" for j in range(k)]
        edges = [(nodes[a], nodes[b]) for a in range(k) for b in range(a + 1, k) if rng.random() < 0.4]
        used = {x for e in edges for x in e}
        lines = [f"{a} {b}" for a, b in edges] + [v for v in nodes if v not in used]
        rng.shuffle(lines)
        path = os.path.join(tmpdir, f"graph{i}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        files.append((path, _expect(_collapse_text, nodes, edges)))
    return files


def _write_cbs_files(rng, tmpdir):
    files = []
    for i in range(CLI_FILES):
        k = rng.randint(2, 8)
        xs = [f"x{j}" for j in range(k)]
        ys = [f"y{j}" for j in range(k)]
        f = dict(zip(xs, rng.sample(ys, k)))
        g = dict(zip(ys, rng.sample(xs, k)))
        path = os.path.join(tmpdir, f"maps{i}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"f": f, "g": g}, fh)
        # finite injections both ways are bijections, so every point lies in
        # the Cantor-Bernstein core and the bijection is f itself
        files.append((path, _eq("{" + "; ".join(f"{x} -> {f[x]}" for x in sorted(f)) + "}")))
    return files


def _cli_templates(rng, env, graphs, maps):
    """Yield (kind, line, expectation) for one block of the corpus."""
    o = model.ord_text
    a, b = _rand_ord(rng), _rand_ord(rng)
    yield "ord_add", f"({o(a)})+({o(b)})", _expect(_then(o, model.ord_add), a, b)
    a, b = _rand_ord(rng), _rand_ord(rng)
    yield "ord_add", f"{o(a)}+{o(b)}", _expect(_then(o, model.ord_add), a, b)
    a, b = _rand_ord(rng), _rand_ord(rng, max_terms=2)
    yield "ord_mul", f"({o(a)})*({o(b)})", _expect(_then(o, model.ord_mul), a, b)
    a, b = _rand_ord(rng, max_terms=2), _rand_ord(rng)
    yield "ord_mul", f"({o(a)})*({o(b)})", _expect(_then(o, model.ord_mul), a, b)
    a, k = _rand_ord(rng, max_exp=3, max_terms=2), rng.randint(2, 3)
    yield "ord_pow", f"({o(a)})^{k}", _expect(_then(o, model.ord_pow), a, k)
    a, b = _rand_ord(rng), _rand_ord(rng)
    yield "ord_natsum", f"({o(a)})(+)({o(b)})", _expect(_then(o, model.ord_hess), a, b)
    a, b = _rand_ord(rng), _rand_ord(rng)
    yield "hess", f":hess {o(a)} {o(b)}", _expect(_then(o, model.ord_hess), a, b)
    for _ in range(2):
        a, b = _rand_ord(rng, max_exp=3, max_terms=2), _rand_ord(rng, max_exp=5)
        yield "divmod", f":divmod {o(b)} {o(a)}", Value(_divmod_ok, b, a)
    a, k = _rand_ord(rng), rng.randint(1, 5)
    yield "cnf", f":cnf ({o(a)})*{k}", _expect(_then(o, model.ord_mul), a, ((0, k),))
    x, y, z = rng.randint(0, 999), rng.randint(0, 99), rng.randint(0, 999)
    yield "nat", f"{x}*{y}+{z}", _eq(str(x * y + z))
    for op, fn in (("+", operator.add), ("*", operator.mul)):
        p, q = _rand_frac(rng), _rand_frac(rng)
        yield "rational", f"{_frac_lit(p, rng)}{op}{_frac_lit(q, rng)}", _expect(_then(str, fn), p, q)
    for cmd in ("simp", ":simp"):
        vals = sorted({_rand_dyadic(rng) for _ in range(rng.randint(2, 5))})
        cut = rng.randint(0, len(vals))
        left, right = vals[:cut], vals[cut:]
        lit = cmd + " {" + ",".join(map(str, left)) + "} {" + ",".join(map(str, right)) + "}"
        yield "simp", lit, _expect(_simp_text, left, right)
    x = _rand_dyadic(rng)
    yield "signs", f":signs {x}", _expect(model.signs, x)
    x = _rand_dyadic(rng)
    yield "birthday", f":birthday {x}", _expect(_then(lambda s: str(len(s)), model.signs), x)
    for _ in range(2):
        m = model.random_hf(rng, 4, 3)
        yield "setlit", model.hf_literal(m, rng), _expect(model.hf_text, m)
    m = model.random_hf(rng, 4, 3)
    yield "tc", f":tc {model.hf_literal(m, rng)}", _expect(_then(model.hf_text, model.saturate), m)
    m = model.random_hf(rng, 5, 2)
    yield "rank", f":rank {model.hf_literal(m, rng)}", _expect(_then(str, model.rank), m)
    for _ in range(2):
        q = Fraction(rng.randint(-7, 7), rng.randint(1, 7))
        yield "encode", f":encode {q}", Value(_encode_ok, q)
    f, g = _rand_bits(rng), _rand_bits(rng)
    yield "ucmp", f":ucmp {f or '_'} {g or '_'}", _expect(_ucmp_text, f, g)
    pool = sorted({_rand_bits(rng) for _ in range(5)}, key=model.ustring_value)
    cut = rng.randint(0, len(pool))
    lo = [s for s in pool[:cut] if rng.random() < 0.7]
    hi = [s for s in pool[cut:] if rng.random() < 0.7]
    line = ":between {" + ",".join(s or "_" for s in lo) + "} {" + ",".join(s or "_" for s in hi) + "}"
    yield "between", line, _expect(_then(lambda s: s or '""', model.shortest_between), lo, hi)
    n = rng.randint(2, 12)
    yield "bnf", f":bnf {n}", _expect(_bnf_text, n)
    n = rng.randint(1, 20) ** 2 if rng.random() < 0.3 else rng.randint(1, 400)
    yield "cutclass", f":cutclass sqrt {n}", _expect(_sqrt_cut_text, n)
    q, side = _rand_frac(rng), rng.choice(("left", "right"))
    yield "cutclass", f":cutclass {side} {_frac_lit(q, rng)}", _eq(f"{'left-max' if side == 'left' else 'right-min'} {q}")
    name, a = f"v{rng.randint(0, 4)}", _rand_ord(rng, max_terms=2)
    env[name] = a
    yield "let", f"let {name} = {o(a)}", _expect(o, a)
    for _ in range(2):
        name = rng.choice(sorted(env))
        if rng.random() < 0.5:
            yield "use", f"{name}*{name}", _expect(_then(o, model.ord_mul), env[name], env[name])
        else:
            b = _rand_ord(rng)
            yield "use", f"{name}+({o(b)})", _expect(_then(o, model.ord_add), env[name], b)
    yield from _typed_lines(rng)
    path, expect = rng.choice(graphs)
    yield "collapse", f":collapse {path}", expect
    path, expect = rng.choice(maps)
    yield "cbs", f":cbs {path}", expect


def _typed_lines(rng):
    """Two lines whose right outcome is a typed error."""
    a = model.ord_text(model.ord_add(((1, 1),), _rand_ord(rng)))  # contains w
    q = Fraction(2 * rng.randint(0, 5) + 1, 2 * rng.randint(1, 5))
    choices = [
        ("unbound", f"zz{rng.randint(0, 99)}+1", Typed(KernelError)),
        ("sort_mismatch", f"{a}+{q}", Typed(KernelError)),
        ("sort_mismatch", f"{model.hf_literal(model.random_hf(rng, 2, 2), rng)}+1", Typed(KernelError)),
        ("sort_mismatch", f"{q}^2", Typed(KernelError)),
        ("divmod_zero", f":divmod {a} 0", Typed(ZeroDivisionError)),
        ("syntax", f"({a}", Typed(KernelError)),
        ("not_dyadic", f"simp {{1/{rng.choice((3, 5, 6, 7))}}} {{1}}", Typed(KernelError)),
    ]
    yield from rng.sample(choices, 2)


def _cli_defects(tmpdir):
    """The known-defect lines of ROADMAP item 3 that end quickly."""
    return [
        ("defect_deep_parens", "(" * 5000 + "1" + ")" * 5000, ValueOrTyped(operator.eq, "1")),
        ("defect_render_overflow", "{10^400}", ValueOrTyped(operator.eq, "{" + str(10 ** 400) + "}")),
        ("defect_bnf_arg", ":bnf x", Typed(KernelError)),
        ("defect_missing_file", f":collapse {os.path.join(tmpdir, 'missing.txt')}", Typed(KernelError)),
    ]


def build_cli_mixed(rng, tmpdir):
    """The ROADMAP's end-to-end path: one Session evaluates and renders a
    seeded corpus over every sort and command.  Lines are sub-millisecond,
    so parse, dispatch and render carry most of the cost.  The CLI never
    calls the Conway core: the bypass workload for surreal changes."""
    session = cli.Session()
    graphs = _write_graph_files(rng, tmpdir)
    maps = _write_cbs_files(rng, tmpdir)
    env = {"v0": ((1, 1), (0, 1))}
    lines = [("let", "let v0 = w+1", _eq("w+1"))]
    for _ in range(CLI_BLOCKS):
        block = list(_cli_templates(rng, env, graphs, maps))
        # lets and the uses generated after them keep their order, so the
        # model environment matches the session's at every line
        ordered = [t for t in block if t[0] in ("let", "use")]
        free = [t for t in block if t[0] not in ("let", "use")]
        rng.shuffle(free)
        slots = set(rng.sample(range(len(block)), len(ordered)))
        it = iter(ordered)
        lines.extend(next(it) if i in slots else free.pop() for i in range(len(block)))
    rnd = Round()
    for kind, line, expect in lines:
        rnd.add(kind, _cli_line, (session, line), expect)
    for kind, line, expect in _cli_defects(tmpdir) * CLI_DEFECTS_EACH:
        rnd.insert(rng.randrange(1, len(rnd.ops) + 1), kind, _cli_line, (session, line), expect, defect=True)
    return rnd


# =========================================================== surreal_conway

GRID_DAY = 6
DEEP_PAIRS = 3
DEEP_DAYS = (8, 9)


def _dyadic_is(d, f, *args):
    """Canonical form and the exact value f(*args) as a Fraction."""
    return (d.k == 0 or d.num & 1) and Fraction(d.num, 1 << d.k) == f(*args)


def _add(p):
    return surreal.conway_add(p[0], p[1])


def _mul(p):
    return surreal.conway_mul(p[0], p[1])


def _neg(x):
    return surreal.conway_neg(x)


def _deep_add(p):
    return surreal.conway_add(surreal.parse_dyadic(p[0]), surreal.parse_dyadic(p[1]))


def _deep_mul(p):
    return surreal.conway_mul(surreal.parse_dyadic(p[0]), surreal.parse_dyadic(p[1]))


def _deep_neg(text):
    return surreal.conway_neg(surreal.parse_dyadic(text))


def _parse_dyadic(text):
    return surreal.parse_dyadic(text)


def _of_day(rng, day):
    """A random dyadic born exactly on `day`: born_by lists those at even
    positions, between the older values."""
    return rng.choice(model.born_by(day)[::2])


def build_surreal_conway(rng, tmpdir):
    """Acceptance criterion 3's work and ROADMAP item 4's target: Conway
    add, neg and mul from cold caches.  The memo tables drive both time
    and memory; nothing here touches hfset or syntax."""
    vals = model.born_by(GRID_DAY)
    xs = [surreal.Dyadic(v.numerator, v.denominator.bit_length() - 1) for v in vals]
    rnd = Round()
    pairs = [(i, j) for i in range(len(xs)) for j in range(len(xs))]
    rng.shuffle(pairs)
    negs = set(rng.sample(range(len(pairs)), len(xs)))
    order = list(range(len(xs)))
    rng.shuffle(order)
    for n, (i, j) in enumerate(pairs):
        if n in negs:
            k = order.pop()
            rnd.add("neg", _neg, xs[k], Value(_dyadic_is, operator.neg, vals[k]))
        rnd.add("add", _add, (xs[i], xs[j]), Value(_dyadic_is, operator.add, vals[i], vals[j]))
        rnd.add("mul", _mul, (xs[i], xs[j]), Value(_dyadic_is, operator.mul, vals[i], vals[j]))
    for _ in range(DEEP_PAIRS):
        a, b = (_of_day(rng, rng.choice(DEEP_DAYS)) for _ in range(2))
        texts = (str(a), str(b))
        rnd.add("deep_add", _deep_add, texts, Value(_dyadic_is, operator.add, a, b))
        rnd.add("deep_mul", _deep_mul, texts, Value(_dyadic_is, operator.mul, a, b))
        rnd.add("deep_neg", _deep_neg, texts[0], Value(_dyadic_is, operator.neg, a))
    for _ in range(2):
        # a malformed literal: parse_dyadic lets int()'s ValueError escape
        text = f"{2 * rng.randint(0, 50) + 1}/{1 << rng.randint(1, 6)}/{rng.randint(2, 9)}"
        rnd.add("defect_parse_dyadic", _parse_dyadic, text, Typed(KernelError), defect=True)
    return rnd


# =============================================================== sets_build

def _model_is(out, f, *args):
    return model.to_model(out) == f(*args)


def _model(f, *args):
    """The set must equal the model set f(*args), computed after the op."""
    return Value(_model_is, f, *args)


def _decode(code):
    return hfset.ackermann_decode(code)


def _kpair(codes):
    return hfset.kpair(hfset.ackermann_decode(codes[0]), hfset.ackermann_decode(codes[1]))


def _triple(codes):
    d = hfset.ackermann_decode
    return hfset.triple(d(codes[0]), d(codes[1]), d(codes[2]))


def _power(code):
    return hfset.power(hfset.ackermann_decode(code))


def _hull(code):
    return hfset.goedel_hull(hfset.ackermann_decode(code), 1)


def _vn_nat(n):
    return hfset.vn_nat(n)


def _parse_set(text):
    return hfset.parse_set(text)


def _tc(text):
    return hfset.tc(hfset.parse_set(text))


def _mostowski(graph):
    nodes, edges = graph
    return wforder.mostowski(wforder.FinDigraph(nodes, edges))


def _encode_vn6(_):
    return hfset.ackermann_encode(hfset.vn_nat(6))


def _model_kpair(a, b):
    return model.kpair(model.from_code(a), model.from_code(b))


def _model_triple(a, b, c):
    return model.triple(model.from_code(a), model.from_code(b), model.from_code(c))


def _code_with_bits(rng, bits, below):
    return sum(1 << b for b in rng.sample(range(below), bits))


def _membership_graph(m):
    """Nodes and (element, set) edges of the transitive closure of {m},
    and the set each node stands for."""
    members = list(model.saturate(model.hc((m,))))
    name = {s: f"s{i}" for i, s in enumerate(members)}
    edges = [(name[e], name[s]) for s in members for e in s]
    return [name[s] for s in members], edges, {name[s]: s for s in members}


def _collapse_ok(out, want, iso):
    image, is_iso = out
    return is_iso is iso and all(model.to_model(image[k]) == v for k, v in want.items())


def build_sets_build(rng, tmpdir):
    """Many distinct, little-shared HF sets, each built once: the write
    side of hfset, where sorting and dedup in HFSet.__init__ dominate.  An
    interning change pays its table cost here and gains little."""
    ops = []
    for _ in range(20):
        start = rng.randrange(1 << 12, 1 << 20)
        for c in range(start, start + 40):
            ops.append(("decode", _decode, c, _model(model.from_code, c)))
    for _ in range(1000):
        a, b = rng.randrange(1 << 16), rng.randrange(1 << 16)
        ops.append(("kpair", _kpair, (a, b), _model(_model_kpair, a, b)))
    for _ in range(600):
        cs = tuple(rng.randrange(1 << 16) for _ in range(3))
        ops.append(("triple", _triple, cs, _model(_model_triple, *cs)))
    for i in range(160):
        c = _code_with_bits(rng, 3 + i % 4, 20)
        ops.append(("power", _power, c, _model(_then(model.power, model.from_code), c)))
    for i in range(160):
        c = _code_with_bits(rng, 2 + i % 2, 16)
        ops.append(("goedel_hull", _hull, c, _model(_then(model.goedel_ext, model.from_code), c)))
    for i in range(72):
        n = 12 + 4 * (i % 6)
        ops.append(("vn_nat", _vn_nat, n, _model(model.vn, n)))
    for _ in range(400):
        m = model.random_hf(rng, 4, 4)
        ops.append(("parse_set", _parse_set, model.hf_literal(m, rng), _model(model.hc, m)))
    for _ in range(400):
        m = model.random_hf(rng, 5, 3)
        ops.append(("tc", _tc, model.hf_literal(m, rng), _model(model.saturate, m)))
    for _ in range(150):
        nodes, edges, sets = _membership_graph(model.random_hf(rng, 4, 3))
        ops.append(("mostowski_ext", _mostowski, (nodes, edges), Value(_collapse_ok, sets, True)))
    rng.shuffle(ops)
    rnd = Round()
    for op in ops:
        rnd.add(*op)
    for _ in range(2):
        rnd.insert(rng.randrange(len(rnd.ops) + 1), "defect_encode_overflow", _encode_vn6, None,
                   Typed(KernelError), defect=True)
    return rnd


# ============================================================= sets_compare

COMPARE_SIZES = tuple(range(2, 17))
COMPARE_COPIES = 3
DEEP_CHAIN = 1200


def _chain_graph(prefix, k):
    nodes = [f"{prefix}{i}" for i in range(k)]
    return nodes, [(nodes[i], nodes[j]) for i in range(k) for j in range(i + 1, k)]


def _singleton_chain(depth):
    x = hfset.empty()
    for _ in range(depth):
        x = hfset.singleton(x)
    return x


def _frac_is(out, q):
    return (out.num, out.den) == (q.numerator, q.denominator)


def _image_is(out, key, n):
    return model.to_model(out[key]) == model.vn(n)


def build_sets_compare(rng, tmpdir):
    """The read side of hfset: the same sets built separately from
    different descriptions, then queried across.  Comparing equal objects
    that are not the same object is exponential at the seed.  Ops run in
    order: builds store sets in `store`, queries read them."""
    store = {}
    rnd = Round()

    def put(key, fn):
        def op(arg):
            value = store[key] = fn(arg)
            return value

        return op

    def query(fn):
        def op(keys):
            return fn(*[store[k] for k in keys])

        return op

    def collapse_chain(arg):
        # the images of the top two nodes of a transitive chain: vn_nat(n)
        # and vn_nat(n + 1), each built without sharing with other builds
        key, graph = arg
        image = _mostowski(graph)[0]
        store[key + "B"], store[key + "B1"] = image[graph[0][-2]], image[graph[0][-1]]
        return image

    builds, queries = [], []
    for n, copy in ((n, c) for n in COMPARE_SIZES for c in range(COMPARE_COPIES)):
        t = f"{n}.{copy}:"
        q = Fraction(rng.randint(-9, 9), rng.randint(2, 9))
        builds += [
            ("build_vn_nat", put(t + "A", _vn_nat), n, _model(model.vn, n)),
            ("build_chain_collapse", collapse_chain, (t, _chain_graph("c", n + 2)), Value(_image_is, f"c{n}", n)),
            ("build_z_encode", put(t + "C", lambda n: numtower.z_encode(n)), n, _model(model.vn, n)),
            ("build_q_encode", put(t + "D", lambda n: numtower.q_encode(numtower.Frac(n))), n, _model(model.vn, n)),
            ("build_z_encode", put(t + "E", lambda n: numtower.z_encode(-n)), n, _model(model.z_encode, -n)),
            ("build_kpair", put(t + "F", lambda n: hfset.kpair(hfset.empty(), hfset.vn_nat(n))), n,
             _model(model.z_encode, -n)),
            ("build_q_encode", put(t + "G", lambda md: numtower.q_encode(numtower.Frac(*md))),
             (q.numerator, q.denominator), _model(model.q_encode, q)),
            ("build_parse_set", put(t + "H", _parse_set), model.hf_literal(model.q_encode(q), rng),
             _model(model.q_encode, q)),
        ]
        if n <= 11:
            # parsed literals share no nodes, so nat_of compares across copies
            builds.append(("build_parse_set", put(t + "P", _parse_set), model.hf_literal(model.vn(n), rng),
                           _model(model.vn, n)))
            queries.append(("nat_of", query(lambda p: hfset.nat_of(p)), (t + "P",), _eq(n)))
        queries += [
            ("eq", query(operator.eq), (t + "A", t + "B"), _eq(True)),
            ("eq", query(operator.eq), (t + "A", t + "C"), _eq(True)),
            ("eq", query(operator.eq), (t + "B", t + "D"), _eq(True)),
            ("eq", query(operator.eq), (t + "E", t + "F"), _eq(True)),
            ("eq", query(operator.eq), (t + "G", t + "H"), _eq(True)),
            ("lt", query(operator.lt), (t + "A", t + "C"), _eq(False)),
            ("lt", query(operator.lt), (t + "B", t + "B1"), _eq(True)),
            ("in", query(lambda x, y: x in y), (t + "A", t + "B1"), _eq(True)),
            ("issubset", query(lambda x, y: x.issubset(y)), (t + "C", t + "B1"), _eq(True)),
            ("nat_of", query(lambda x: hfset.nat_of(x)), (t + "B",), _eq(n)),
            ("q_decode", query(lambda x: numtower.q_decode(x)), (t + "D",), Value(_frac_is, Fraction(n))),
            ("q_decode", query(lambda x: numtower.q_decode(x)), (t + "E",), Value(_frac_is, Fraction(-n))),
            ("q_decode", query(lambda x: numtower.q_decode(x)), (t + "H",), Value(_frac_is, q)),
            ("dedup", query(lambda *xs: len(set(xs))), (t + "A", t + "B", t + "C", t + "D"), _eq(1)),
        ]
    for k in COMPARE_SIZES[4:] * COMPARE_COPIES:
        na, ea = _chain_graph("a", k)
        nb, eb = _chain_graph("b", k)
        want = {f"{p}{i}": model.vn(i) for p in "ab" for i in range(k)}
        queries.append(("mostowski_nonext", _mostowski, (na + nb, ea + eb), Value(_collapse_ok, want, False)))
    rng.shuffle(builds)
    rng.shuffle(queries)
    for kind, fn, arg, expect in builds + queries:
        rnd.add(kind, fn, arg, expect)
    # deep singleton chains: the recursive _cmp, __eq__ and rank_in of
    # ROADMAP item 3 overflow the interpreter stack on them
    for key in "XY":
        rnd.add("build_chain", put(key, _singleton_chain), DEEP_CHAIN, Value(lambda out: len(out) == 1))
    rnd.add("defect_deep_eq", query(operator.eq), ("X", "Y"), ValueOrTyped(operator.is_, True), True)
    rnd.add("defect_deep_lt", query(operator.lt), ("X", "Y"), ValueOrTyped(operator.is_, False), True)
    rnd.add("defect_deep_rank", query(lambda x: hfset.rank_in(x)), ("X",), ValueOrTyped(operator.eq, DEEP_CHAIN),
            True)
    return rnd


BY_NAME = {
    "cli_mixed": build_cli_mixed,
    "surreal_conway": build_surreal_conway,
    "sets_build": build_sets_build,
    "sets_compare": build_sets_compare,
}
