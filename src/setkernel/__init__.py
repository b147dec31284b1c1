"""An exact symbolic kernel for classical set theory at desk scale.

Subpackages:

- `hfset`: canonical hereditarily finite sets, transitive closure,
  membership rank, von Neumann stages, the nine basic set operations
  and their iterated hulls, the diagonal construction, and the
  Ackermann bijection with the naturals.
- `ordinal`: Cantor-normal-form arithmetic below epsilon_0.
- `surreal`: dyadic rationals as finite-birthday surreal numbers, the
  simplicity operator, Conway's recursive arithmetic, sign expansions.
- `wforder`: well-foundedness, rank, recursion folds and the Mostowski
  collapse on finite relations.
- `linorder`: cuts, cut extension, the universal order on binary
  strings, back-and-forth isomorphisms, and a gap classifier.
- `numtower`: integers and reduced fractions with their encodings as
  hereditarily finite sets.
- `cli`: the expression parser, REPL, and batch runner.
"""

from .errors import (
    BudgetError,
    EvalError,
    KernelError,
    NotWellFoundedError,
    NotWellOrderError,
    ParseError,
    PreconditionError,
    SortMismatchError,
    WitnessError,
    ZeroDivisorError,
)
from .hfset import HFSet
from .numtower import Frac
from .ordinal import CnfOrdinal
from .surreal import Dyadic
from .wforder import FinDigraph
from .linorder import FinOrder

__version__ = "0.1.0"

__all__ = [
    "HFSet",
    "CnfOrdinal",
    "Dyadic",
    "Frac",
    "FinDigraph",
    "FinOrder",
    "KernelError",
    "BudgetError",
    "PreconditionError",
    "NotWellFoundedError",
    "NotWellOrderError",
    "WitnessError",
    "ParseError",
    "EvalError",
    "SortMismatchError",
    "ZeroDivisorError",
    "__version__",
]
