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
and '^' chains may nest at most MAX_NESTING deep.  An operator chain is
one flat Chain node folded from the left, however long it is.  AST
nodes are errors.Record values, equal and hashed by class and fields;
nothing assigns to a built node.

The CLI hands a text of braces, commas and whitespace alone to
hfset.parse_set, which has no depth limit.  From the CLI, parse sees
only texts that hold more than that, such as {1/2, 1}, {a, {}} or
{{}}+1, so SetLit is the reader for literals with numbers or names in
them.
"""

import re

from .errors import ParseError, Record


class Nat(Record):
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


class Rat(Record):
    __slots__ = ("num", "den")

    def __init__(self, num, den):
        self.num = num
        self.den = den


class WSym(Record):
    __slots__ = ()


class SetLit(Record):
    __slots__ = ("items",)

    def __init__(self, items):
        self.items = items


class Chain(Record):
    __slots__ = ("first", "rest")

    def __init__(self, first, rest):
        self.first = first  # never a Chain
        self.rest = rest  # (op, right operand) pairs, folded from the left


class Call(Record):
    __slots__ = ("name", "args")

    def __init__(self, name, args):
        self.name = name
        self.args = args


class Var(Record):
    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name


class Let(Record):
    __slots__ = ("name", "expr")

    def __init__(self, name, expr):
        self.name = name
        self.expr = expr


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


def _nat_value(token):
    try:
        return int(token[1])
    except ValueError as exc:  # Python's limit on the digits of a decimal int
        raise ParseError(f"numeral of {len(token[1])} digits is too long", column=token[2]) from exc


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
        rest = []
        while True:
            t = self.tokens[self.pos]
            prec, right_prec = _BINARY.get(t[1], (0, 0))
            if prec < min_prec:
                break
            self.pos += 1
            depth = self.depth
            if prec == right_prec:  # a right-associative chain nests
                self.nest(t[2])
            rest.append((t[1], self.expr(right_prec)))
            self.depth = depth
        if rest and isinstance(node, Chain):  # '(a + b) + c' is 'a + b + c'
            node, rest = node.first, [*node.rest, *rest]
        return Chain(node, tuple(rest)) if rest else node

    def _numeric(self, negate):
        t = self.tokens[self.pos]
        if t[0] != "nat":
            raise ParseError("expected a number", column=self.column(), expected=("natural number",))
        self.pos += 1
        num = _nat_value(t)
        if self.take_punct("/"):
            d = self.tokens[self.pos]
            if d[0] != "nat":
                raise ParseError("expected a denominator", column=self.column(), expected=("natural number",))
            self.pos += 1
            den = _nat_value(d)
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
