import io
import json
import random
import sys

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from setkernel import cli, hfset, ordinal, syntax
from setkernel.cli import Evaluator, Session, render, run_batch
from setkernel.errors import EvalError, ParseError, SortMismatchError
from setkernel.numtower import Frac
from setkernel.surreal import Dyadic
from setkernel.syntax import MAX_NESTING, Bin, Call, Nat, Rat, SetLit, Var, WSym, parse

from helpers import rand_hfset, rand_ordinal


def ev(text):
    return Evaluator().eval_text(text)


def test_parse_shapes():
    ast = parse("w^2*3 + w*5 + 1")
    assert isinstance(ast, Bin) and ast.op == "+"
    assert ast.right == Nat(1)
    assert isinstance(ast.left, Bin) and ast.left.op == "+"
    term = ast.left.left  # w^2*3
    assert isinstance(term, Bin) and term.op == "*"
    assert term.left == Bin("^", WSym(), Nat(2))

    call = parse("simp {0} {1}")
    assert call == Call("simp", (SetLit((Nat(0),)), SetLit((Nat(1),))))

    nested = parse("w^(w^w)")
    assert nested == Bin("^", WSym(), Bin("^", WSym(), WSym()))
    right_assoc = parse("w^w^w")
    assert right_assoc == nested


def test_natural_sum_operator():
    both = Bin("(+)", Bin("(+)", WSym(), Bin("*", Nat(1), Nat(2))), Nat(3))
    assert parse("w (+) 1*2 ⊕ 3") == both
    assert parse("w⊕1*2(+)3") == both
    assert parse("w + 1 (+) w") == Bin("(+)", Bin("+", WSym(), Nat(1)), WSym())
    assert render(ev("(w+1) (+) w")) == "w*2+1"


def test_tokens_are_decimal_digits_and_letters(tmp_path):
    # \d is exactly what int() reads, in any script
    assert parse("٣ + 1") == Bin("+", Nat(3), Nat(1))
    assert parse("x² + 1") == Bin("+", Var("x²"), Nat(1))
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
    line = " + ".join(["1"] * 5000)
    assert ev(line) == 5000
    assert render(ev("w*0 + " + line)) == "5000"
    assert repr(parse(line)).count("Bin(") == 4999
    assert hash(parse(line)) == hash(parse(line))
    assert parse(line) == parse(line)


def test_bin_methods_match_the_dataclass_forms():
    ast = parse("1 + 2*3^4 + (w (+) {5})")
    assert repr(ast) == (
        "Bin(op='+', left=Bin(op='+', left=Nat(value=1), right=Bin(op='*', left=Nat(value=2), "
        "right=Bin(op='^', left=Nat(value=3), right=Nat(value=4)))), "
        "right=Bin(op='(+)', left=WSym(), right=SetLit(items=(Nat(value=5),))))"
    )
    assert ast == parse("(1 + 2*(3^4)) + (w (+) {5})") and hash(ast) == hash(parse("1+2*3^4+(w(+){5})"))
    for other in ("1 + (2*3^4 + (w (+) {5}))", "1 + 2*3^4 + (w + {5})", "2 + 2*3^4 + (w (+) {5})", "1 + 2*3^4"):
        assert ast != parse(other)
    assert parse("1 + 1") != Nat(2)


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
    e = Evaluator()
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


def test_bnf_rejects_non_integer():
    with pytest.raises(EvalError):
        Session().run_line(":bnf x")


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
    e = Evaluator()
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
