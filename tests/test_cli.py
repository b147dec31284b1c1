import io
import json
import random
import sys
import time

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from setkernel import cli, hfset, ordinal, syntax
from setkernel.cli import Session, render, run_batch
from setkernel.errors import EvalError, ParseError, SortMismatchError
from setkernel.numtower import Frac
from setkernel.surreal import Dyadic
from setkernel.syntax import MAX_NESTING, Call, Chain, Nat, Rat, SetLit, Var, WSym, parse

from helpers import rand_hfset, rand_ordinal


def ev(text):
    return Session().eval_text(text)


def test_parse_shapes():
    ast = parse("w^2*3 + w*5 + 1")
    # ((w^2)*3 + w*5) + 1: the leading term w^2*3 is the chain's prefix
    w5 = Chain(WSym(), (("*", Nat(5)),))
    assert ast == Chain(WSym(), (("^", Nat(2)), ("*", Nat(3)), ("+", w5), ("+", Nat(1))))

    call = parse("simp {0} {1}")
    assert call == Call("simp", (SetLit((Nat(0),)), SetLit((Nat(1),))))

    nested = parse("w^(w^w)")
    assert nested == Chain(WSym(), (("^", Chain(WSym(), (("^", WSym()),))),))
    right_assoc = parse("w^w^w")
    assert right_assoc == nested


def test_natural_sum_operator():
    both = Chain(WSym(), (("(+)", Chain(Nat(1), (("*", Nat(2)),))), ("(+)", Nat(3))))
    assert parse("w (+) 1*2 ⊕ 3") == both
    assert parse("w⊕1*2(+)3") == both
    assert parse("w + 1 (+) w") == Chain(WSym(), (("+", Nat(1)), ("(+)", WSym())))
    assert render(ev("(w+1) (+) w")) == "w*2+1"


def test_tokens_are_decimal_digits_and_letters(tmp_path):
    # \d is exactly what int() reads, in any script
    assert parse("٣ + 1") == Chain(Nat(3), (("+", Nat(1)),))
    assert parse("x² + 1") == Chain(Var("x²"), (("+", Nat(1)),))
    bad = (("²", 0), ("1 + ²", 4), ("{²}", 1), ("½", 0), ("12²", 2))
    for line, column in bad:
        with pytest.raises(ParseError) as exc:
            parse(line)
        assert str(exc.value) == f"1:{column}: unexpected character {line[column]!r}"
    src = tmp_path / "in.txt"
    src.write_text("".join(line + "\n" for line, _ in bad))
    buf = io.StringIO()
    assert run_batch(src, keep_going=True, out=buf) == 2
    assert buf.getvalue().count("\t!syntax error: ") == len(bad)


# the grammar's characters, whitespace, and digits int() reads ('٣') or not ('²', '½')
_GRAMMAR_CHARS = "0123456789w x_{}(),+*^/=-⊕²½٣\t"
_LINES = st.text(alphabet=_GRAMMAR_CHARS, max_size=40)
_RUN = st.integers(0, 2 * MAX_NESTING)


@settings(max_examples=400, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.one_of(
        _LINES,
        st.builds(lambda a, body, b: "(" * a + body + ")" * b, _RUN, _LINES, _RUN),
        st.builds(lambda a, body, b: "{" * a + body + "}" * b, _RUN, _LINES, _RUN),
        st.builds(lambda body, n: "^".join([body] * n), _LINES, _RUN),
    )
)
@example("²")
@example("1 + ²")
@example("{²}")
@example("(" * 5000 + "1" + ")" * 5000)
@example("^".join(["1"] * 5000))
def test_parse_is_total(line):
    """parse returns an AST or raises ParseError, on any line.

    Only parsing is checked: lines such as 9^9^9 and :bnf 100000000
    parse but still do not end when evaluated, until one resource budget
    bounds evaluation (ROADMAP item 3).
    """
    try:
        parse(line)
    except ParseError:
        pass


# Expression lines over every sort and the value command table.  signs is
# in: it refuses an expansion of more than MAX_INT_BITS signs.  The commands
# whose output still has no bound (encode and the colon commands :bnf and
# :collapse) are left out until one budget caps output (ROADMAP item 1).
_NAMES = ("x", "y")
_ATOMS = st.one_of(
    st.integers(0, 9).map(str),
    st.just("w"),
    st.integers(0, 10 ** 6).map(str),
    st.builds("{}/{}".format, st.integers(-12, 12), st.integers(0, 12)),
    st.builds("-{}".format, st.integers(0, 99)),
    st.sampled_from(_NAMES + ("{}", "{{}}", "{{},{{}}}")),
)
_EXPRS = st.recursive(
    _ATOMS,
    lambda e: st.one_of(
        st.builds("{} {} {}".format, e, st.sampled_from(("+", "*", "^", "(+)")), e),
        st.builds("({})".format, e),
        st.lists(e, min_size=2, max_size=6).map("^".join),
        st.lists(e, max_size=3).map(lambda xs: "{" + ", ".join(xs) + "}"),
        st.builds(
            lambda name, args: " ".join([name] + [f"({a})" for a in args]),
            st.sampled_from(sorted(set(cli._VALUE_COMMANDS) - {"encode"}) + ["nope"]),
            st.lists(e, min_size=1, max_size=2),
        ),
    ),
    max_leaves=12,
)
_STMTS = st.one_of(_EXPRS, st.builds("let {} = {}".format, st.sampled_from(_NAMES), _EXPRS))
_LINE_BUDGET_S = 2.0


@settings(max_examples=400, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(_STMTS, min_size=1, max_size=3))
@example(["let x = w^w^w", "x^x^x", "(x+1)^(w^2+3) (+) x"])
@example(["9^9^9", "(w+1)^100000000", "w^(w^(w+1)*2)^1000000", "2^65536 * 2^65536 + 1/3"])
@example(["simp {0, 1/2} {3/4}", "birthday (1000000/1024)", "divmod (w^w*3+w) (w*2)"])
@example(["signs 3 + 1", "1 + signs 3", "signs 2^70", "let x = signs 3", "x * 2", "divmod 3 2 + 1"])
@example(["signs (2^60)", ":signs 2^60", ":signs 65537", ":signs -3/4"])
def test_eval_is_total(lines):
    """Each line ends, within a wall budget, in a value or a typed error."""
    session = Session()
    for line in lines:
        start = time.perf_counter()
        code, text = session.outcome(line)
        assert time.perf_counter() - start < _LINE_BUDGET_S, line
        assert code in (0, 1, 2) and isinstance(text, str)


def _depth_lines(n):
    """One line per nesting kind, each nested n deep, with its rendered value."""
    return {
        "parens": ("(" * n + "1" + ")" * n, "1"),
        "braces": ("{" * n + "}" * n, "{" * n + "}" * n),
        "power": ("^".join(["1"] * (n + 1)), "1"),
        "commands": ("cnf " * n + "1", "1"),
    }


@pytest.mark.parametrize("kind", sorted(_depth_lines(1)))
def test_nesting_limit(kind):
    assert sys.getrecursionlimit() == 1000
    line, shown = _depth_lines(MAX_NESTING)[kind]
    assert render(ev(line)) == shown
    for too_deep in (MAX_NESTING + 1, 5000):
        line, _ = _depth_lines(too_deep)[kind]
        with pytest.raises(ParseError, match=f"nesting deeper than {MAX_NESTING}"):
            parse(line)


def test_long_sums_fold_without_recursion():
    assert sys.getrecursionlimit() == 1000
    lines = {
        # line: (value, Chain nodes in its AST, Nat leaves)
        " + ".join(["1"] * 5000): (5000, 1, 5000),
        " * ".join(["1"] * 5000): (1, 1, 5000),
        " (+) ".join(["1"] * 5000): (5000, 1, 5000),
        " + ".join(["1*1"] * 3000): (3000, 3000, 6000),  # each term is a chain too
    }
    for line, (value, chains, nats) in lines.items():
        assert render(ev(line)) == str(value)
        assert render(ev("w*0 + " + line)) == str(value)
        text = repr(parse(line))
        assert text.count("Chain(") == chains and text.count("Nat(") == nats
        assert hash(parse(line)) == hash(parse(line))
        assert parse(line) == parse(line)
        assert parse(line) != parse(line + " + 1")


def test_chain_is_equal_and_hashed_by_value():
    ast = parse("1 + 2*3^4 + (w (+) {5})")
    assert repr(ast) == (
        "Chain(first=Nat(value=1), rest=(('+', Chain(first=Nat(value=2), rest=(('*', "
        "Chain(first=Nat(value=3), rest=(('^', Nat(value=4)),))),))), "
        "('+', Chain(first=WSym(), rest=(('(+)', SetLit(items=(Nat(value=5),))),)))))"
    )
    assert ast == parse("(1 + 2*(3^4)) + (w (+) {5})") and hash(ast) == hash(parse("1+2*3^4+(w(+){5})"))
    for other in ("1 + (2*3^4 + (w (+) {5}))", "1 + 2*3^4 + (w + {5})", "2 + 2*3^4 + (w (+) {5})", "1 + 2*3^4"):
        assert ast != parse(other)
    assert parse("1 + 1") != Nat(2)
    # a bracketed prefix joins the chain, but only a '^' right operand nests
    assert parse("(2^3)^4") == Chain(Nat(2), (("^", Nat(3)), ("^", Nat(4))))
    assert parse("(2^3)^4") != parse("2^3^4")


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as exc:
        parse("w^")
    assert exc.value.expected
    with pytest.raises(ParseError):
        parse("(w+1")
    with pytest.raises(ParseError):
        parse("w +")
    with pytest.raises(ParseError):
        parse("let w = 3")


def test_eval_ordinals():
    assert render(ev("w^2*3 + w*5 + 1")) == "w^2*3+w*5+1"
    assert render(ev("1 + w")) == "w"
    assert render(ev("(w+1)*(w+1)")) == "w^2+w+1"
    assert render(ev("2^w")) == "w"
    assert render(ev("w^w^w")) == "w^(w^w)"


def test_eval_rationals_and_sets():
    assert render(ev("1/2 + 1/3")) == "5/6"
    assert render(ev("-5/8 + 1/8")) == "-1/2"
    assert render(ev("1/2 * 1/2")) == "1/4"
    assert render(ev("{{},{{}}}")) == "{{},{{}}}"
    assert render(ev("2 + 3")) == "5"


def test_sort_mixing_rejected():
    with pytest.raises(SortMismatchError):
        ev("w + 1/2")
    with pytest.raises(SortMismatchError):
        ev("{} + 1")
    with pytest.raises(SortMismatchError):
        ev("1/2 ^ 2")
    with pytest.raises(SortMismatchError):
        ev("{1, {}}")


def test_let_bindings():
    e = Session()
    e.eval_text("let a = w^2 + 1")
    assert render(e.eval_text("a * 2")) == "w^2*2+1"
    with pytest.raises(EvalError):
        e.eval_text("unbound + 1")


def test_value_commands():
    s = Session()
    assert render(s.run_line(":divmod w^2+w*3+2 w")) == "(w+3, 2)"
    assert render(s.run_line(":simp {0} {1}")) == "1/2"
    assert render(s.run_line(":hess w^2*3+w*5+1 w^3*4+w^2*2+3")) == "w^3*4+w^2*5+w*5+4"
    assert render(s.run_line(":birthday 5/8")) == "4"
    assert render(s.run_line(":signs 3/4")) == "+-+"
    assert render(s.run_line(":tc {{{}}}")) == "{{},{{}}}"
    assert render(s.run_line(":rank {{{}}}")) == "2"
    assert render(s.run_line(":encode 1/2")) == str(
        hfset.kpair(hfset.vn_nat(1), hfset.vn_nat(2))
    )
    assert render(s.run_line(":cnf w*1+0")) == "w"
    assert render(s.run_line("simp {-1,0} {1}")) == "1/2"


def test_string_commands():
    s = Session()
    assert s.run_line(":ucmp 0 _") == "LT"
    assert s.run_line(":ucmp _ 1") == "LT"
    assert s.run_line(":ucmp 01 0") == "GT"
    assert s.run_line(":between {0} {_}") == "01"
    assert render(s.run_line(":cutclass sqrt 2")) == "gap"
    assert render(s.run_line(":cutclass sqrt 9")) == "right-min 3"
    assert render(s.run_line(":cutclass left 1/2")) == "left-max 1/2"
    out = s.run_line(":bnf 6")
    assert len(out) == 3
    # the empty sign word prints as an empty line, the empty binary string as ""
    assert s.outcome(":signs 0") == (0, "")
    assert s.outcome(":signs -3/4") == (0, "-+-")
    assert s.outcome(":between {} {}") == (0, '""')
    assert s.outcome(":bnf 2") == (0, '{"" -> 0}')


def test_file_commands(tmp_path):
    graph = tmp_path / "g.txt"
    graph.write_text("p q\nq r\np r\n")
    s = Session()
    result = s.run_line(f":collapse {graph}")
    assert result["extensional"] is True
    assert result["p"] == hfset.vn_nat(0)
    maps = tmp_path / "m.json"
    maps.write_text(json.dumps({"f": {"0": "a"}, "g": {"a": "0"}}))
    assert s.run_line(f":cbs {maps}") == {"0": "a"}
    maps.write_text(json.dumps({"f": {"": "a", "b": ""}, "g": {"a": "", "": "b"}}))
    assert s.outcome(f":cbs {maps}") == (0, '{"" -> a; b -> ""}')


@pytest.mark.parametrize(
    "line, shown",
    [
        ("{10^400}", "{1" + "0" * 400 + "}"),
        # each pair rounds to a single float
        ("{100000000000000000001,100000000000000000000}", "{100000000000000000000,100000000000000000001}"),
        ("{100000000000000000002,100000000000000000001}", "{100000000000000000001,100000000000000000002}"),
    ],
    ids=["beyond-float-range", "float-tie-a", "float-tie-b"],
)
def test_number_sets_render_in_exact_order(line, shown):
    assert render(Session().run_line(line)) == shown


@pytest.mark.parametrize(
    "line, message",
    [
        (":signs", "signs takes 1 argument, got 0"),
        (":signs 1 2", "signs takes 1 argument, got 2"),
        ("hess 1", "hess takes 2 arguments, got 1"),
    ],
)
def test_argument_count_errors(line, message):
    assert Session().outcome(line) == (1, message)


@pytest.mark.parametrize("name", sorted(cli._VALUE_COMMANDS.keys() | cli._TEXT_COMMANDS.keys()))
def test_every_command_reports_one_argument_too_many(name):
    want = len({**cli._VALUE_COMMANDS, **cli._TEXT_COMMANDS}[name]) - 1
    line = ":" + " ".join([name] + ["1"] * (want + 1))
    noun = "argument" if want == 1 else "arguments"
    assert Session().outcome(line) == (1, f"{name} takes {want} {noun}, got {want + 1}")


@pytest.mark.parametrize("line", ["9^9^9", "(w+1)^100000000", "3^(w+100000000)", ":encode 100000000"])
def test_huge_powers_end_in_budget_errors(line):
    start = time.perf_counter()
    code, text = Session().outcome(line)
    assert time.perf_counter() - start < 0.1
    assert code == 1
    assert "more than" in text


_LONG_INTEGER_LINES = [
    ("1" * 5000, 2),
    ("{" + "1" * 5000 + "}", 2),
    (":birthday 1/" + "2" * 5000, 2),
    (":encode 1/" + "1" * 5000, 2),
    ("2^20000", 1),
    ("w*2^20000", 1),
    ("birthday (2^20000 + 1/3)", 1),
]


@pytest.mark.parametrize(
    "line, code", _LONG_INTEGER_LINES, ids=["numeral", "set", "birthday", "encode", "power", "coefficient", "message"]
)
def test_long_integers_end_in_typed_errors(line, code):
    # Python refuses to convert ints of more than 4300 decimal digits
    assert Session().outcome(line)[0] == code


def test_batch_keeps_going_past_long_integers(tmp_path):
    src = tmp_path / "in.txt"
    src.write_text("".join(line + "\n" for line, _ in _LONG_INTEGER_LINES) + "1 + 1\n")
    buf = io.StringIO()
    assert run_batch(src, keep_going=True, out=buf) == 2
    out = buf.getvalue().splitlines()
    assert len(out) == len(_LONG_INTEGER_LINES) + 1
    assert out[-1] == "1 + 1\t2"


def test_bnf_rejects_non_integer():
    for line in (":bnf x", ":bnf -3"):
        with pytest.raises(EvalError):
            Session().run_line(line)


def test_between_rejects_empty_element():
    # the empty string is spelled _, so an empty element is malformed
    for line in (":between {0,,1} {}", ":between {0,} {}"):
        with pytest.raises(EvalError):
            Session().run_line(line)
    assert Session().run_line(":between {0,_} {}") == "1"


def test_collapse_missing_file(tmp_path):
    with pytest.raises(EvalError):
        Session().run_line(f":collapse {tmp_path / 'missing.txt'}")


@pytest.mark.parametrize(
    "content",
    [None, '{"f": {"0": "a"}', '{"g": {}}', "[1, 2]", '{"f": 1, "g": {}}', '{"f": {"0": [1]}, "g": {}}', "[" * 100000],
    ids=["missing", "malformed", "no-f", "not-an-object", "f-not-an-object", "unhashable-value", "deep"],
)
def test_cbs_bad_map_file(tmp_path, content):
    path = tmp_path / "maps.json"
    if content is not None:
        path.write_text(content)
    with pytest.raises(EvalError):
        Session().run_line(f":cbs {path}")


def test_roundtrip_fuzz_parse_print():
    rng = random.Random(151)
    e = Session()
    for _ in range(300):
        a = rand_ordinal(rng, 3, max_terms=3, max_coeff=9)
        assert e.eval_text(str(a)) == a
    for _ in range(100):
        x = rand_hfset(rng, 4, max_width=4)
        assert e.eval_text(str(x)) == x
    for _ in range(100):
        num = rng.randint(-400, 400)
        den = rng.randint(1, 60)
        f = Frac(num, den)
        got = e.eval_text(str(f))
        assert got == f or (f.is_integer() and got == f.num)


def test_every_printed_set_reads_back(tmp_path):
    # a brace-only line goes to hfset.parse_set, which has no depth limit
    rng = random.Random(18)
    chain = tmp_path / "chain.txt"
    chain.write_text("".join(f"n{i} n{i + 1}\n" for i in range(250)))
    collapsed = Session().run_line(f":collapse {chain}")["n250"]
    assert str(collapsed).startswith("{" * 251 + "}")
    sets = [rand_hfset(rng, 5, max_width=4) for _ in range(100)]
    sets += [hfset.vn_nat(n) for n in range(13)]
    deep = hfset.empty()
    for _ in range(5000):
        deep = hfset.singleton(deep)
    sets += [collapsed, deep]
    for x in sets:
        text = str(x)
        assert Session().outcome(text) == (0, text)
        assert Session().outcome(f":rank {text}") == (0, str(hfset.rank_in(x)))
        assert Session().outcome(f"  {text}  ") == (0, text)
    assert Session().outcome(f":tc {collapsed}") == (0, str(hfset.tc(collapsed)))


@pytest.mark.parametrize("literal", ["{{}", "{,}", "{},{}", "{{},}", "{}}", "{ { } "])
def test_malformed_brace_only_lines_carry_parse_set_errors(literal):
    with pytest.raises(ParseError) as exc:
        hfset.parse_set(literal)
    assert Session().outcome(literal) == (2, str(exc.value))
    assert Session().outcome(f":rank {literal}") == (2, str(exc.value))


def test_brace_only_errors_count_columns_in_the_line():
    # the stray '}' is column 7, blanks counted, as syntax.parse counts them
    assert Session().outcome("{ {} , }") == (2, "1:7: expected '{' (expected {)")
    assert Session().outcome("{ {} , )") == (2, "1:7: unexpected token ')' (expected atom)")


def test_literals_with_numbers_or_names_keep_the_syntax_reader():
    s = Session()
    assert s.outcome("{{}}+1") == (1, "operator '+' does not apply to sets")
    assert s.outcome("{ {}, 1 }") == (1, "set literal mixes sets and numbers")
    assert s.outcome("{a}") == (1, "unbound name 'a'")
    assert s.outcome("let a = {{}}") == (0, "{{}}")
    assert s.outcome("{a}") == (0, "{{{}}}")
    assert s.outcome("{a, {}}") == (0, "{{},{{}}}")
    assert s.outcome(":tc {a}") == (0, "{{},{{}}}")
    assert s.outcome("{1/2, 1}") == (0, "{1/2,1}")
    assert s.outcome(":simp {} {}") == (0, "0")
    assert s.outcome("simp {} {0}") == (0, "-1")
    assert s.outcome("{{" * 201 + "}}" * 201 + "+1")[0] == 2  # the syntax reader's depth limit
    assert s.outcome("{x}}") == (2, "1:3: trailing input (expected end of input)")


def test_batch_mode(tmp_path, capsys):
    src = tmp_path / "in.txt"
    src.write_text("w*2 + 1\n:simp {0} {1}\n\n1/2+1/4\n")
    buf = io.StringIO()
    code = run_batch(src, fmt="text", out=buf)
    assert code == 0
    assert buf.getvalue() == "w*2 + 1\tw*2+1\n:simp {0} {1}\t1/2\n1/2+1/4\t3/4\n"


def test_batch_determinism(tmp_path):
    src = tmp_path / "in.txt"
    lines = ["w^2+w*3+2", ":divmod w^2 w", ":signs -3/4", "{{},{{}}}", ":cutclass sqrt 10"]
    src.write_text("\n".join(lines) + "\n")
    a, b = io.StringIO(), io.StringIO()
    assert run_batch(src, fmt="text", out=a) == 0
    assert run_batch(src, fmt="text", out=b) == 0
    assert a.getvalue() == b.getvalue()


def test_batch_errors_and_exit_codes(tmp_path):
    src = tmp_path / "in.txt"
    src.write_text("w +\nw\n")
    buf = io.StringIO()
    assert run_batch(src, out=buf) == 2  # stops at the syntax error
    assert buf.getvalue().count("\n") == 1

    src.write_text("w + 1/2\nw\n")
    buf = io.StringIO()
    assert run_batch(src, out=buf) == 1  # evaluation error

    buf = io.StringIO()
    assert run_batch(src, keep_going=True, out=buf) == 1
    assert buf.getvalue().count("\n") == 2  # kept going


def test_batch_json_format(tmp_path):
    src = tmp_path / "in.txt"
    src.write_text("w*2\nw +\n")
    buf = io.StringIO()
    code = run_batch(src, keep_going=True, fmt="json", out=buf)
    assert code == 2
    lines = [json.loads(l) for l in buf.getvalue().splitlines()]
    assert lines[0] == {"input": "w*2", "output": "w*2"}
    assert lines[1]["kind"] == "syntax"


def test_repl_loop():
    stdin = io.StringIO("w+1\nlet x = 2\nx*3\nnonsense(\n:q\n")
    out = io.StringIO()
    assert cli.repl(stdin=stdin, stdout=out) == 0
    lines = out.getvalue().splitlines()
    assert lines[0] == "w+1"
    assert lines[1] == "2"
    assert lines[2] == "6"
    assert lines[3].startswith("syntax error")


def test_main_batch(tmp_path, capsys):
    src = tmp_path / "in.txt"
    src.write_text("w*2\n")
    assert cli.main(["--batch", str(src)]) == 0
    assert capsys.readouterr().out == "w*2\tw*2\n"
