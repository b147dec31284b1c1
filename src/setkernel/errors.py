"""Exception types shared across the kernel, and Record, the base of its
small value classes."""


class Record:
    """A value whose fields are its class's __slots__.  Two records are
    equal, and hash alike, when their classes and field tuples are; repr
    is Name(field=value, ...)."""

    __slots__ = ()

    def _fields(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash((self.__class__, self._fields()))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class KernelError(Exception):
    """Base class for all errors raised by this package."""


class BudgetError(KernelError):
    """A computation would exceed a configured resource budget."""


# The one int-size bound, in bits, of Ackermann codes, natural powers,
# dyadic denominators and sign codes.  Each is refused from its size
# before it is built; no code catches OverflowError.
MAX_INT_BITS = 1 << 16


class PreconditionError(KernelError, ValueError):
    """An operation was called on arguments outside its domain."""


class ZeroDivisorError(KernelError, ZeroDivisionError):
    """A fraction has a zero denominator, or a division a zero divisor."""


class NotWellFoundedError(KernelError):
    """The relation has a nonempty subset without a minimal element."""


class NotWellOrderError(KernelError):
    """The relation is not a strict linear order.

    `axiom` names the violated requirement (irreflexivity, transitivity,
    totality), `witness` is a concrete offending node tuple.
    """

    def __init__(self, axiom, witness):
        self.axiom = axiom
        self.witness = witness
        super().__init__(f"not a strict linear order: {axiom} fails at {witness!r}")


class WitnessError(KernelError):
    """A density/endlessness witness callback failed to produce an element."""

    def __init__(self, side, left, right, reason=""):
        self.side = side
        self.left = left
        self.right = right
        msg = f"side {side!r} produced no witness between {sorted(map(str, left))!r} and {sorted(map(str, right))!r}"
        if reason:
            msg += f": {reason}"
        super().__init__(msg)


class ParseError(KernelError):
    """Syntax error, with position and the expected-token set.  Every text
    parsed is one line, so `line` is always 1."""

    line = 1

    def __init__(self, message, column=0, expected=()):
        self.column = column
        self.expected = tuple(expected)
        full = f"{self.line}:{column}: {message}"
        if expected:
            full += " (expected " + " | ".join(sorted(self.expected)) + ")"
        super().__init__(full)


class EvalError(KernelError):
    """Evaluation of a parsed expression failed."""


class SortMismatchError(EvalError):
    """An expression mixes ordinal, rational, and set operands."""
