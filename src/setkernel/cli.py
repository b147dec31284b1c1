"""Expression evaluator, REPL, and batch runner over all kernel modules.

Sorts are inferred bottom-up: 'w' forces the ordinal sort, a fraction or
negative literal the rational sort, braces the set sort, and bare
naturals stay polymorphic until an operator or command picks a side.
Mixed-sort arithmetic is rejected rather than coerced.

A `Session` holds the `let` bindings and evaluates lines.  Each command
is one table row: its function and one reader per argument.  Every
command reports a wrong argument count in one form, such as
`signs takes 1 argument, got 0`.

A value text (a whole value line, or one argument of a value command)
made only of braces, commas and whitespace is an HF set literal, and
`hfset.parse_set` reads it: in one pass, with no depth limit, so every
set the CLI prints reads back.  Every other text goes to `syntax.parse`,
whose `SetLit` is the reader for literals that hold numbers or names.
"""

import argparse
import json
import operator
import re
import sys

from . import hfset, linorder, numtower, ordinal, surreal, syntax, wforder
from .errors import BudgetError, EvalError, KernelError, ParseError, SortMismatchError
from .numtower import Frac
from .surreal import Dyadic


def _as_ordinal(v):
    if isinstance(v, ordinal.CnfOrdinal):
        return v
    if isinstance(v, int):
        return ordinal.CnfOrdinal.from_int(v)
    raise SortMismatchError(f"expected an ordinal, got {render(v)}")


def _as_frac(v):
    if isinstance(v, Frac):
        return v
    if isinstance(v, int):
        return Frac(v)
    if isinstance(v, ordinal.CnfOrdinal) and v.is_finite():
        return Frac(v.as_int())
    raise SortMismatchError(f"expected a rational, got {render(v)}")


def _as_dyadic(v):
    f = _as_frac(v)
    if f.den & (f.den - 1):
        raise EvalError(f"{render(f)} is not a dyadic rational")
    return Dyadic(f.num, f.den.bit_length() - 1)


def _as_hfset(v):
    if isinstance(v, hfset.HFSet):
        return v
    raise SortMismatchError(f"expected a set literal, got {render(v)}")


def _as_numset(v):
    if isinstance(v, frozenset):
        return frozenset(_as_dyadic(f) for f in v)
    if isinstance(v, hfset.HFSet) and len(v) == 0:
        return frozenset()
    raise SortMismatchError(f"expected a set of numbers, got {render(v)}")


def _apply_bin(op, a, b):
    if isinstance(a, (hfset.HFSet, frozenset)) or isinstance(b, (hfset.HFSet, frozenset)):
        raise SortMismatchError(f"operator {op!r} does not apply to sets")
    if op == "(+)":
        return ordinal.hessenberg(_as_ordinal(a), _as_ordinal(b))
    if isinstance(a, ordinal.CnfOrdinal) or isinstance(b, ordinal.CnfOrdinal):
        x, y = _as_ordinal(a), _as_ordinal(b)
        if op == "+":
            return ordinal.add(x, y)
        if op == "*":
            return ordinal.mul(x, y)
        return ordinal.opow(x, y)
    if isinstance(a, Frac) or isinstance(b, Frac):
        if op == "^":
            raise SortMismatchError("'^' applies to ordinals only")
        x, y = _as_frac(a), _as_frac(b)
        return x + y if op == "+" else x * y
    # two bare naturals: stay polymorphic (the finite sorts agree anyway)
    for v in (a, b):
        if not isinstance(v, int):
            raise SortMismatchError(f"operator {op!r} does not apply to {render(v)}")
    if op == "+":
        return a + b
    if op == "*":
        return a * b
    return ordinal.nat_pow(a, b)


# A command is one row, name -> (function, one reader per argument).  Value
# commands also run inside expressions, so their readers coerce evaluated
# values; the colon-only commands of _TEXT_COMMANDS read their raw text.
_VALUE_COMMANDS = {
    "simp": (surreal.simplest, _as_numset, _as_numset),
    "hess": (ordinal.hessenberg, _as_ordinal, _as_ordinal),
    "divmod": (ordinal.ord_divmod, _as_ordinal, _as_ordinal),
    "birthday": (surreal.birthday, _as_dyadic),
    "signs": (surreal.to_signs, _as_dyadic),
    "tc": (hfset.tc, _as_hfset),
    "rank": (hfset.rank_in, _as_hfset),
    "encode": (numtower.q_encode, _as_frac),
    "cnf": (lambda a: a, _as_ordinal),
}


def _apply(name, row, args):
    """Run command `name` from its row; a wrong argument count is an EvalError."""
    want = len(row) - 1
    if len(args) != want:
        raise EvalError(f"{name} takes {want} argument{'s' * (want != 1)}, got {len(args)}")
    # map, not a comprehension: a comprehension adds a frame to every command
    return row[0](*map(operator.call, row[1:], args))


# a text of braces, commas and whitespace only, opening with a brace
_braces_only = re.compile(r"\s*\{[\s{},]*").fullmatch


class Session:
    """One REPL or batch session: its `let` bindings and the evaluator."""

    def __init__(self):
        self.env = {}

    def eval_node(self, node):
        handler = _EVAL.get(node.__class__)
        if handler is None:
            raise EvalError(f"cannot evaluate {node!r}")
        return handler(self, node)

    def _eval_chain(self, node):
        value = self.eval_node(node.first)
        for op, right in node.rest:
            value = _apply_bin(op, value, self.eval_node(right))
        return value

    def _eval_var(self, node):
        if node.name in self.env:
            return self.env[node.name]
        raise EvalError(f"unbound name {node.name!r}")

    def _eval_call(self, node):
        row = _VALUE_COMMANDS.get(node.name)
        if row is None:
            raise EvalError(f"unknown command {node.name!r}")
        return _apply(node.name, row, [self.eval_node(a) for a in node.args])

    def _eval_let(self, node):
        self.env[node.name] = value = self.eval_node(node.expr)
        return value

    def _eval_setlit(self, node):
        items = [self.eval_node(i) for i in node.items]
        if not items:
            return hfset.empty()
        if all(isinstance(i, hfset.HFSet) for i in items):
            return hfset.HFSet(items)
        if any(isinstance(i, (hfset.HFSet, frozenset)) for i in items):
            raise SortMismatchError("set literal mixes sets and numbers")
        return frozenset(_as_frac(i) for i in items)

    def eval_text(self, text):
        if _braces_only(text):
            return hfset.parse_set(text)
        return self.eval_node(syntax.parse(text))

    def run_line(self, line):
        line = line.strip()
        if not line.startswith(":"):
            return self.eval_text(line)
        parts = _split_args(line[1:])
        if not parts:
            raise EvalError("empty command")
        name, args = parts[0], parts[1:]
        row = _VALUE_COMMANDS.get(name)
        if row is not None:
            return _apply(name, row, [self.eval_text(a) for a in args])
        row = _TEXT_COMMANDS.get(name)
        if row is None:
            raise EvalError(f"unknown command {name!r}")
        return _apply(name, row, args)

    def outcome(self, line):
        """Run and render one line: (0, text), (1, eval error) or (2, syntax error).

        The code is the line's exit status; this is the CLI's error contract.
        """
        try:
            return 0, render(self.run_line(line))
        except ParseError as exc:
            return 2, str(exc)
        except (KernelError, ZeroDivisionError) as exc:
            return 1, str(exc)


# node class -> handler; the one dispatch point of Session.eval_node
_EVAL = {
    syntax.Nat: lambda self, node: node.value,
    syntax.Rat: lambda self, node: Frac(node.num, node.den),
    syntax.WSym: lambda self, node: ordinal.OMEGA,
    syntax.Chain: Session._eval_chain,
    syntax.SetLit: Session._eval_setlit,
    syntax.Var: Session._eval_var,
    syntax.Call: Session._eval_call,
    syntax.Let: Session._eval_let,
}


def _text(v):
    try:
        return str(v)
    except ValueError as exc:  # Python's limit on the digits of an int in decimal
        raise BudgetError("result has too many decimal digits to print") from exc


def render(v):
    """Canonical text for any value the evaluator can produce."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (ordinal.CnfOrdinal, Frac, hfset.HFSet, int, str)):
        return _text(v)
    if isinstance(v, frozenset):
        # a number-set literal, listed in ascending order
        return "{" + ",".join(_text(x) for x in sorted(v)) + "}"
    if isinstance(v, tuple):
        return "(" + ", ".join(render(x) for x in v) + ")"
    if isinstance(v, dict):
        # an empty str key or value, such as the empty binary string, reads as ""
        rows = sorted((render(k) or '""', render(val) or '""') for k, val in v.items())
        body = "; ".join(f"{k} -> {val}" for k, val in rows)
        return "{" + body + "}"
    if isinstance(v, linorder.GapCut):
        return "gap"
    if isinstance(v, linorder.LeftHasMax):
        return f"left-max {v.q}"
    if isinstance(v, linorder.RightHasMin):
        return f"right-min {v.q}"
    return str(v)


def _split_args(text):
    """Split command arguments on whitespace outside braces/parens."""
    parts = []
    depth = 0
    cur = []
    for c in text:
        if c in "{(":
            depth += 1
        elif c in ")}":
            depth -= 1
        if c.isspace() and depth == 0:
            if cur:
                parts.append("".join(cur))
                cur = []
        else:
            cur.append(c)
    if cur:
        parts.append("".join(cur))
    return parts


def _parse_int(tok, usage):
    try:
        return int(tok)
    except ValueError as exc:
        raise EvalError(f"{usage}: {tok!r} is not an integer") from exc


def _read_text(path):
    # a binary read and one decode cost about a third less than a text-mode
    # read; both callers accept CRLF (splitlines, json.loads)
    try:
        with open(path, "rb") as fh:
            return fh.read().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise EvalError(f"cannot read {path}: {exc}") from exc


def _parse_binstring(tok):
    if tok == "_":
        return ""
    if not tok or any(c not in "01" for c in tok):
        raise EvalError(f"binary strings use 0/1 (or _ for empty), got {tok!r}")
    return tok


def _parse_binset(tok):
    if tok.startswith("{") and tok.endswith("}"):
        inner = tok[1:-1].strip()
        if not inner:
            return []
        return [_parse_binstring(t.strip()) for t in inner.split(",")]
    return [_parse_binstring(tok)]


def _bnf(arg):
    n = _parse_int(arg, "usage: :bnf N")
    if n < 0:
        raise EvalError(f"usage: :bnf N: {n} is negative")
    return linorder.back_and_forth(linorder.binstring_side(), linorder.dyadic_side(), n)


def _cutclass(kind, arg):
    if kind == "sqrt":
        return linorder.classify_cut(linorder.SqrtThreshold(_parse_int(arg, "usage: :cutclass sqrt N")))
    if kind in ("left", "right"):
        q = numtower.parse_frac(arg)
        spec = linorder.AtRationalLeftClosed(q) if kind == "left" else linorder.AtRationalRightClosed(q)
        return linorder.classify_cut(spec)
    raise EvalError("usage: :cutclass sqrt N | :cutclass left Q | :cutclass right Q")


def _collapse(path):
    g = wforder.digraph_from_edge_text(_read_text(path))
    image, is_iso = wforder.mostowski(g)
    return image | {"extensional": is_iso}


def _cbs(path):
    try:
        payload = json.loads(_read_text(path))
    except (ValueError, RecursionError) as exc:
        raise EvalError(f"{path} is not JSON: {exc}") from exc
    maps = [payload.get(k) if isinstance(payload, dict) else None for k in ("f", "g")]
    if not all(isinstance(m, dict) and all(isinstance(v, str) for v in m.values()) for m in maps):
        raise EvalError(f"{path} needs the keys \"f\" and \"g\", each an object of strings")
    return wforder.cbs_bijection(*maps)


_TEXT_COMMANDS = {
    "ucmp": (lambda a, b: {-1: "LT", 0: "EQ", 1: "GT"}[linorder.u_cmp(a, b)], _parse_binstring, _parse_binstring),
    "between": (lambda a, b: linorder.insert_between(a, b) or '""', _parse_binset, _parse_binset),
    "bnf": (_bnf, str),
    "cutclass": (_cutclass, str, str),
    "collapse": (_collapse, str),
    "cbs": (_cbs, str),
}


def run_batch(path, keep_going=False, fmt="text", out=None):
    """Evaluate one expression per line; report 'input<TAB>output' lines.

    Returns the exit code: 0 clean, 1 evaluation error, 2 syntax error.
    """
    out = out if out is not None else sys.stdout
    session = Session()
    worst = 0
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    for line in lines:
        if not line.strip():
            continue
        code, text = session.outcome(line)
        _emit(out, fmt, line, code, text)
        worst = max(worst, code)
        if code and not keep_going:
            return code
    return worst


_KIND = {1: "eval", 2: "syntax"}


def _emit(out, fmt, line, code, text):
    if fmt == "json":
        payload = {"input": line}
        if code:
            payload["error"] = text
            payload["kind"] = _KIND[code]
        else:
            payload["output"] = text
        out.write(json.dumps(payload, sort_keys=True) + "\n")
    else:
        out.write(f"{line}\t{'!' + _KIND[code] + ' error: ' + text if code else text}\n")


def repl(stdin=None, stdout=None):
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    session = Session()
    interactive = stdin.isatty()
    while True:
        if interactive:
            stdout.write("sk> ")
            stdout.flush()
        line = stdin.readline()
        if not line:
            return 0
        line = line.strip()
        if not line:
            continue
        if line in (":q", ":quit", ":exit"):
            return 0
        code, text = session.outcome(line)
        prefix = ("", "error: ", "syntax error: ")[code]
        stdout.write(prefix + text + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="setkernel",
        description="expression REPL and batch runner for the set-theory kernel",
    )
    parser.add_argument("--batch", metavar="FILE", help="evaluate FILE line by line and exit")
    parser.add_argument("--keep-going", action="store_true", help="in batch mode, continue past errors")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    args = parser.parse_args(argv)
    if args.batch:
        return run_batch(args.batch, keep_going=args.keep_going, fmt=args.format)
    return repl()


if __name__ == "__main__":
    sys.exit(main())
