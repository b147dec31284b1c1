"""Expression evaluator, REPL, and batch runner over all kernel modules.

Sorts are inferred bottom-up: 'w' forces the ordinal sort, a fraction or
negative literal the rational sort, braces the set sort, and bare
naturals stay polymorphic until an operator or command picks a side.
Mixed-sort arithmetic is rejected rather than coerced.
"""

import argparse
import json
import sys

from . import hfset, linorder, numtower, ordinal, surreal, syntax, wforder
from .errors import EvalError, KernelError, ParseError, SortMismatchError
from .numtower import Frac
from .surreal import Dyadic, SignExpansion


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
    o = _finite_ordinal(v)
    if o is not None:
        return Frac(o)
    raise SortMismatchError(f"expected a rational, got {render(v)}")


def _finite_ordinal(v):
    if isinstance(v, ordinal.CnfOrdinal):
        return v.as_int()
    return None


def _as_dyadic(v):
    f = _as_frac(v)
    if f.den & (f.den - 1):
        raise EvalError(f"{f} is not a dyadic rational")
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
    if op == "+":
        return a + b
    if op == "*":
        return a * b
    return a ** b


_VALUE_COMMANDS = {}


def _command(name):
    def reg(fn):
        _VALUE_COMMANDS[name] = fn
        return fn

    return reg


@_command("simp")
def _cmd_simp(a, b):
    return surreal.simplest(_as_numset(a), _as_numset(b))


@_command("hess")
def _cmd_hess(a, b):
    return ordinal.hessenberg(_as_ordinal(a), _as_ordinal(b))


@_command("divmod")
def _cmd_divmod(b, a):
    return ordinal.ord_divmod(_as_ordinal(b), _as_ordinal(a))


@_command("birthday")
def _cmd_birthday(x):
    return surreal.birthday(_as_dyadic(x))


@_command("signs")
def _cmd_signs(x):
    return surreal.to_signs(_as_dyadic(x))


@_command("tc")
def _cmd_tc(x):
    return hfset.tc(_as_hfset(x))


@_command("rank")
def _cmd_rank(x):
    return hfset.rank_in(_as_hfset(x))


@_command("encode")
def _cmd_encode(x):
    return numtower.q_encode(_as_frac(x))


@_command("cnf")
def _cmd_cnf(a):
    return _as_ordinal(a)


def _call(name, values):
    """Apply the value command `name`; a wrong argument count is an EvalError."""
    try:
        return _VALUE_COMMANDS[name](*values)
    except TypeError as exc:
        raise EvalError(f"{name}: {exc}") from exc


class Evaluator:
    def __init__(self):
        self.env = {}

    def eval_node(self, node):
        if isinstance(node, syntax.Nat):
            return node.value
        if isinstance(node, syntax.Rat):
            return Frac(node.num, node.den)
        if isinstance(node, syntax.WSym):
            return ordinal.OMEGA
        if isinstance(node, syntax.Bin):
            spine, leaf = node.spine()
            value = self.eval_node(leaf)
            for b in reversed(spine):
                value = _apply_bin(b.op, value, self.eval_node(b.right))
            return value
        if isinstance(node, syntax.SetLit):
            return self._eval_setlit(node)
        if isinstance(node, syntax.Var):
            if node.name in self.env:
                return self.env[node.name]
            raise EvalError(f"unbound name {node.name!r}")
        if isinstance(node, syntax.Call):
            if node.name not in _VALUE_COMMANDS:
                raise EvalError(f"unknown command {node.name!r}")
            return _call(node.name, [self.eval_node(a) for a in node.args])
        if isinstance(node, syntax.Let):
            value = self.eval_node(node.expr)
            self.env[node.name] = value
            return value
        raise EvalError(f"cannot evaluate {node!r}")

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
        return self.eval_node(syntax.parse(text))


def render(v):
    """Canonical text for any value the evaluator can produce."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (ordinal.CnfOrdinal, Frac, hfset.HFSet, SignExpansion, int)):
        return str(v)
    if isinstance(v, frozenset):
        # a number-set literal, listed in ascending order
        return "{" + ",".join(str(x) for x in sorted(v)) + "}"
    if isinstance(v, str):
        return v if v else '""'
    if isinstance(v, tuple):
        return "(" + ", ".join(render(x) for x in v) + ")"
    if isinstance(v, dict):
        body = "; ".join(f"{render(k)} -> {render(val)}" for k, val in sorted(v.items(), key=lambda kv: render(kv[0])))
        return "{" + body + "}"
    if isinstance(v, list):
        return "[" + ", ".join(render(x) for x in v) + "]"
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
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise EvalError(f"cannot read {path}: {exc}") from exc


def _parse_binstring(tok):
    if tok == "_":
        return ""
    if any(c not in "01" for c in tok):
        raise EvalError(f"binary strings use 0/1 (or _ for empty), got {tok!r}")
    return tok


def _parse_binset(tok):
    if tok.startswith("{") and tok.endswith("}"):
        inner = tok[1:-1].strip()
        if not inner:
            return []
        return [_parse_binstring(t.strip()) for t in inner.split(",")]
    return [_parse_binstring(tok)]


class Session:
    """Shared machinery for the REPL and batch mode."""

    def __init__(self):
        self.evaluator = Evaluator()

    def run_line(self, line):
        line = line.strip()
        if line.startswith(":"):
            return self.run_command(line[1:])
        return self.evaluator.eval_text(line)

    def run_command(self, text):
        parts = _split_args(text)
        if not parts:
            raise EvalError("empty command")
        name, args = parts[0], parts[1:]
        if name in _VALUE_COMMANDS:
            return _call(name, [self.evaluator.eval_text(a) for a in args])
        if name == "ucmp":
            if len(args) != 2:
                raise EvalError("usage: :ucmp STRING STRING")
            c = linorder.u_cmp(_parse_binstring(args[0]), _parse_binstring(args[1]))
            return {-1: "LT", 0: "EQ", 1: "GT"}[c]
        if name == "between":
            if len(args) != 2:
                raise EvalError("usage: :between {S,...} {S,...}")
            return linorder.insert_between(_parse_binset(args[0]), _parse_binset(args[1]))
        if name == "bnf":
            if len(args) != 1:
                raise EvalError("usage: :bnf N")
            n = _parse_int(args[0], "usage: :bnf N")
            m = linorder.back_and_forth(linorder.binstring_side(), linorder.dyadic_side(), n)
            return {k if k else '""': v for k, v in m.items()}
        if name == "cutclass":
            return self._cutclass(args)
        if name == "collapse":
            if len(args) != 1:
                raise EvalError("usage: :collapse GRAPHFILE")
            g = wforder.digraph_from_edge_text(_read_text(args[0]))
            image, is_iso = wforder.mostowski(g)
            return {k: image[k] for k in sorted(image, key=str)} | {"extensional": is_iso}
        if name == "cbs":
            if len(args) != 1:
                raise EvalError("usage: :cbs MAPFILE")
            try:
                payload = json.loads(_read_text(args[0]))
            except (ValueError, RecursionError) as exc:
                raise EvalError(f"{args[0]} is not JSON: {exc}") from exc
            maps = [payload.get(k) if isinstance(payload, dict) else None for k in ("f", "g")]
            if not all(isinstance(m, dict) and all(isinstance(v, str) for v in m.values()) for m in maps):
                raise EvalError(f"{args[0]} needs the keys \"f\" and \"g\", each an object of strings")
            return wforder.cbs_bijection(*maps)
        raise EvalError(f"unknown command {name!r}")

    def _cutclass(self, args):
        if len(args) == 2 and args[0] == "sqrt":
            return linorder.classify_cut(linorder.SqrtThreshold(_parse_int(args[1], "usage: :cutclass sqrt N")))
        if len(args) == 2 and args[0] in ("left", "right"):
            q = numtower.parse_frac(args[1])
            spec = linorder.AtRationalLeftClosed(q) if args[0] == "left" else linorder.AtRationalRightClosed(q)
            return linorder.classify_cut(spec)
        raise EvalError("usage: :cutclass sqrt N | :cutclass left Q | :cutclass right Q")

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
