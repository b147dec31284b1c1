"""Tokenizer, AST, and parser for the expression surface.

Grammar:

    stmt := 'let' IDENT '=' expr | expr
    expr := atom (BINOP atom)*
    atom := 'w' | NAT | FRAC | '-' (NAT | FRAC) | setlit
          | '(' expr ')' | IDENT atom*

BINOP is '+', '(+)', '*' or '^'.  '^' binds tightest, then '*', then
'+' and '(+)' alike; '+', '(+)' and '*' associate left, '^' right.  An
identifier followed by atoms is a command application ("simp {0} {1}");
alone it is a variable.  'w' is reserved for the first infinite
ordinal.  The natural-sum operator may be written '(+)' or the single
character U+2295.  A NAT is a run of decimal digits of any script; an
identifier starts with a letter or '_'.  Brackets, command arguments
and '^' chains may nest at most MAX_NESTING deep.
"""

import re
from dataclasses import dataclass

from .errors import ParseError


@dataclass(frozen=True)
class Nat:
    value: int


@dataclass(frozen=True)
class Rat:
    num: int
    den: int


@dataclass(frozen=True)
class WSym:
    pass


@dataclass(frozen=True)
class SetLit:
    items: tuple


@dataclass(frozen=True)
class Bin:
    op: str
    left: object
    right: object

    # '1 + 1 + ...' nests as deep as it is long, so equality, hashing and
    # repr walk the left spine in a loop where the generated ones recurse
    def spine(self):
        """The Bin nodes down the left spine, outermost first, and the node below them."""
        nodes = []
        node = self
        while isinstance(node, Bin):
            nodes.append(node)
            node = node.left
        return nodes, node

    def __eq__(self, other):
        if other.__class__ is not Bin:
            return NotImplemented
        (xs, x), (ys, y) = self.spine(), other.spine()
        return len(xs) == len(ys) and x == y and all(a.op == b.op and a.right == b.right for a, b in zip(xs, ys))

    def __hash__(self):
        nodes, leaf = self.spine()
        return hash((leaf, tuple((b.op, b.right) for b in nodes)))

    def __repr__(self):
        nodes, leaf = self.spine()
        head = "".join(f"Bin(op={b.op!r}, left=" for b in nodes)
        return head + repr(leaf) + "".join(f", right={b.right!r})" for b in reversed(nodes))


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Let:
    name: str
    expr: object


# One token per match: a natural (exactly the digits int() reads), an
# identifier, a punctuator, or any other character, which is an error.
_TOKEN = re.compile(r"\s*(?:(?P<nat>\d+)|(?P<ident>[^\W\d]\w*)|(?P<punct>\(\+\)|⊕|[{}(),+*^/=-])|(?P<bad>\S))")

# operator -> (precedence, least precedence of its right operand); '^'
# binds tightest and is the only right-associative operator
_BINARY = {"+": (1, 2), "(+)": (1, 2), "*": (2, 3), "^": (3, 3)}

# Brackets, command arguments and '^' right operands each nest one
# level.  Parsing and evaluating take at most three Python frames per
# level, so a line this deep needs about 600 of the default 1000.
MAX_NESTING = 200


def tokenize(text):
    """Return (kind, value, column) triples; kinds: nat, ident, punct."""
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        value = m[kind]
        # an identifier starts with a letter or '_'; \w also admits
        # numeric characters that are not decimal digits, such as '²'
        if kind == "bad" or kind == "ident" and not (value[0].isalpha() or value[0] == "_"):
            raise ParseError(f"unexpected character {value[0]!r}", column=m.start(kind))
        tokens.append((kind, "(+)" if value == "⊕" else value, m.start(kind)))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens  # the last one is ("end", None, length of the text)
        self.pos = 0
        self.depth = 0

    def column(self):
        return self.tokens[self.pos][2]

    def take_punct(self, value):
        if self.tokens[self.pos][1] == value:
            self.pos += 1
            return True
        return False

    def expect_punct(self, value):
        if not self.take_punct(value):
            raise ParseError("syntax error", column=self.column(), expected=(value,))

    def nest(self, column):
        """Enter one nesting level; the caller restores self.depth after."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING}", column=column)

    def stmt(self):
        t = self.tokens[self.pos]
        if t[0] == "ident" and t[1] == "let":
            self.pos += 1
            name_tok = self.tokens[self.pos]
            if name_tok[0] != "ident":
                raise ParseError("expected a name after 'let'", column=self.column(), expected=("identifier",))
            if name_tok[1] in ("w", "let"):
                raise ParseError(f"{name_tok[1]!r} is reserved", column=self.column())
            self.pos += 1
            self.expect_punct("=")
            node = Let(name_tok[1], self.expr())
        else:
            node = self.expr()
        if self.tokens[self.pos][0] != "end":
            raise ParseError("trailing input", column=self.column(), expected=("end of input",))
        return node

    def expr(self, min_prec=1):
        """Precedence climbing: operators binding at least min_prec."""
        node = self.atom()
        while True:
            t = self.tokens[self.pos]
            prec, right_prec = _BINARY.get(t[1], (0, 0))
            if prec < min_prec:
                return node
            self.pos += 1
            depth = self.depth
            if prec == right_prec:  # a right-associative chain nests
                self.nest(t[2])
            node = Bin(t[1], node, self.expr(right_prec))
            self.depth = depth

    def _numeric(self, negate):
        t = self.tokens[self.pos]
        if t[0] != "nat":
            raise ParseError("expected a number", column=self.column(), expected=("natural number",))
        self.pos += 1
        num = int(t[1])
        if self.take_punct("/"):
            d = self.tokens[self.pos]
            if d[0] != "nat":
                raise ParseError("expected a denominator", column=self.column(), expected=("natural number",))
            self.pos += 1
            den = int(d[1])
            if den == 0:
                raise ParseError("zero denominator", column=d[2])
            return Rat(-num if negate else num, den)
        if negate:
            return Rat(-num, 1)
        return Nat(num)

    def atom(self):
        kind, value, col = self.tokens[self.pos]
        if kind == "end":
            raise ParseError("unexpected end of input", column=col, expected=("atom",))
        if kind == "punct" and value == "-":
            self.pos += 1
            return self._numeric(negate=True)
        if kind == "nat":
            return self._numeric(negate=False)
        if kind == "punct" and value == "(":
            self.pos += 1
            self.nest(col)
            node = self.expr()
            self.expect_punct(")")
            self.depth -= 1
            return node
        if kind == "punct" and value == "{":
            self.pos += 1
            self.nest(col)
            items = []
            if not self.take_punct("}"):
                items.append(self.expr())
                while self.take_punct(","):
                    items.append(self.expr())
                self.expect_punct("}")
            self.depth -= 1
            return SetLit(tuple(items))
        if kind == "ident":
            self.pos += 1
            if value == "w":
                return WSym()
            if not self._at_atom_start():
                return Var(value)
            self.nest(col)
            args = []
            while self._at_atom_start():
                args.append(self.atom())
            self.depth -= 1
            return Call(value, tuple(args))
        raise ParseError(f"unexpected token {value!r}", column=col, expected=("atom",))

    def _at_atom_start(self):
        kind, value, _ = self.tokens[self.pos]
        return kind in ("nat", "ident") or value in ("{", "(", "-")


def parse(text):
    """Parse one statement (a 'let' binding or an expression)."""
    return _Parser(tokenize(text) + [("end", None, len(text))]).stmt()
